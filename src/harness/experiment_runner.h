/**
 * @file
 * Parallel experiment harness.
 *
 * Sweeps of (SystemConfig, Scenario, seed) points are embarrassingly
 * parallel: each RenderSystem is a self-contained deterministic
 * simulation with no shared mutable state, so independent points can run
 * on independent worker threads. The ExperimentRunner executes points on
 * a fixed-size pool — each worker constructs and owns its own
 * RenderSystem.
 *
 * Two result paths share that pool:
 *
 *  - the *streaming* path (run_stream / run_tasks_stream) emits each
 *    finished RunReport into a ReportSink in submission order and
 *    retains nothing, so a campaign's footprint is the sink's, not the
 *    sweep's — this is what lets one invocation cover a million
 *    sessions;
 *  - the *batch* path (run / run_tasks) is a thin adapter that streams
 *    into a VectorSink and returns the reports index-aligned with the
 *    submission.
 *
 * Both are bit-identical at any thread count (jobs=1 and jobs=N deliver
 * the same byte sequence to the sink; the determinism tests assert
 * this). Out-of-order completions are reordered through a bounded
 * window with backpressure, so peak retention is O(jobs), never O(sweep).
 */

#ifndef DVS_HARNESS_EXPERIMENT_RUNNER_H
#define DVS_HARNESS_EXPERIMENT_RUNNER_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/render_system.h"
#include "harness/report_sink.h"
#include "metrics/run_report.h"
#include "workload/scenario.h"

namespace dvs {

/** One point of a sweep: a configuration applied to a scenario. */
struct Experiment {
    SystemConfig config;
    Scenario scenario;

    /** Carried into RunReport::label so callers can group results. */
    std::string label;
};

/**
 * Fixed-size worker pool over experiment points.
 *
 * Workers pull points off a shared index; reports are delivered to the
 * sink (or the returned vector) in submission order regardless of which
 * worker ran them or when it finished.
 */
class ExperimentRunner
{
  public:
    /** @param jobs worker threads; <= 0 selects the hardware count. */
    explicit ExperimentRunner(int jobs = 0);

    int jobs() const { return jobs_; }

    /**
     * A self-contained unit of work producing its own report — e.g. a
     * multi-surface session, which assembles several pipelines and is
     * not expressible as one (SystemConfig, Scenario) point. Tasks must
     * own all their state: workers invoke them concurrently.
     */
    using Task = std::function<RunReport()>;

    /**
     * A task plus the submission metadata the runner stamps onto its
     * report: `label` always (mirroring run()'s handling of
     * Experiment::label), and `scenario` on error slots. A ConfigError
     * thrown mid-task therefore never loses its identity — the failed
     * slot carries the submission label/scenario even though the task
     * body never got to set them. (Leave both empty to keep whatever
     * the task itself produced.)
     */
    struct TaskSpec {
        Task run;
        std::string label;
        std::string scenario;
    };

    /**
     * Lazy point source for sweeps too large to materialize: called
     * with each index in [0, count) exactly once, from worker threads
     * (must be safe to call concurrently for distinct indices).
     */
    using PointSource = std::function<Experiment(std::size_t)>;
    using TaskSource = std::function<TaskSpec(std::size_t)>;

    // ----- streaming path ----------------------------------------------

    /**
     * Execute every point, emitting each finished report into @p sink in
     * submission order (see ReportSink for the delivery guarantees).
     *
     * A point whose configuration is rejected (fatal() raising
     * ConfigError — e.g. an invalid buffer count in a generated sweep)
     * does not abort the batch: its slot is delivered with
     * RunReport::error set and the label/scenario preserved, and every
     * other point still runs.
     */
    void run_stream(const std::vector<Experiment> &points,
                    ReportSink &sink) const;

    /** Streaming over a lazy source: @p count points built on demand. */
    void run_stream(std::size_t count, const PointSource &source,
                    ReportSink &sink) const;

    /** Streaming task execution with the same guarantees. */
    void run_tasks_stream(const std::vector<TaskSpec> &tasks,
                          ReportSink &sink) const;

    /** Streaming tasks over a lazy source. */
    void run_tasks_stream(std::size_t count, const TaskSource &source,
                          ReportSink &sink) const;

    // ----- batch adapters ----------------------------------------------

    /**
     * Execute every point and return its report, index-aligned with
     * @p points regardless of which worker ran it. Adapter over
     * run_stream + VectorSink; same error semantics.
     */
    std::vector<RunReport> run(const std::vector<Experiment> &points) const;

    /**
     * Execute labeled tasks and return reports in submission order; an
     * error slot carries its TaskSpec's label/scenario.
     */
    std::vector<RunReport>
    run_tasks(const std::vector<TaskSpec> &tasks) const;

    /** Execute a single point inline on the calling thread. */
    RunReport run_one(const Experiment &point) const;

    /** Execute a single labeled task inline (error slots stamped). */
    RunReport run_task(const TaskSpec &task) const;

  private:
    int jobs_;
};

/**
 * Jobs count for harness users: @p flag_value if positive (e.g. a parsed
 * --jobs=N flag), else $DVS_JOBS, else 0 (all hardware threads).
 * Negative flag values and malformed or negative $DVS_JOBS are
 * configuration errors (fatal(), so ConfigError under fatal-throws).
 */
int default_jobs(int flag_value = 0);

} // namespace dvs

#endif // DVS_HARNESS_EXPERIMENT_RUNNER_H
