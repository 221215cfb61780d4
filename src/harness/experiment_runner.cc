#include "harness/experiment_runner.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "sim/logging.h"

namespace dvs {

ExperimentRunner::ExperimentRunner(int jobs)
{
    if (jobs <= 0)
        jobs = int(std::thread::hardware_concurrency());
    jobs_ = std::max(1, jobs);
}

RunReport
ExperimentRunner::run_one(const Experiment &point) const
{
    // fatal() throws ConfigError for the scope of the run, so one bad
    // generated sweep point reports its error instead of killing the
    // whole batch process.
    FatalThrowsScope recoverable(true);
    try {
        RenderSystem sys(point.config, point.scenario);
        RunReport report = sys.run();
        report.label = point.label;
        return report;
    } catch (const ConfigError &e) {
        RunReport failed;
        failed.label = point.label;
        failed.scenario = point.scenario.name();
        failed.error = e.what();
        return failed;
    }
}

RunReport
ExperimentRunner::run_task(const TaskSpec &task) const
{
    FatalThrowsScope recoverable(true);
    try {
        RunReport report = task.run();
        if (!task.label.empty())
            report.label = task.label;
        return report;
    } catch (const ConfigError &e) {
        // The task died before (or while) labeling its own report: stamp
        // the submission identity so the error slot is attributable,
        // exactly as run() does for a rejected Experiment point.
        RunReport failed;
        failed.label = task.label;
        failed.scenario = task.scenario;
        failed.error = e.what();
        return failed;
    }
}

namespace {

/**
 * Reorder buffer between out-of-order worker completions and the
 * in-order sink. Workers park finished reports here; whichever worker
 * holds the lock flushes the contiguous prefix into the sink. A bounded
 * window applies backpressure on the *claim* side: no worker starts
 * point i until fewer than `window` submissions are undelivered, so
 * peak retention is O(window) regardless of sweep size or task skew.
 */
class OrderedDelivery
{
  public:
    OrderedDelivery(std::size_t count, std::size_t window, ReportSink &sink)
        : count_(count), window_(std::max<std::size_t>(window, 1)),
          sink_(sink)
    {}

    /**
     * Claim the next index to run, or count() when exhausted. After a
     * sink failure every claim returns count() so workers drain out
     * instead of blocking on a window that will never reopen.
     */
    std::size_t claim()
    {
        std::unique_lock<std::mutex> lock(mu_);
        can_claim_.wait(lock, [this] {
            return stopped_ || next_claim_ - next_deliver_ < window_;
        });
        if (stopped_)
            return count_;
        return next_claim_ < count_ ? next_claim_++ : count_;
    }

    /** Park a finished report; flush the ready prefix into the sink. */
    void deliver(std::size_t index, RunReport &&report)
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (stopped_)
            return; // the stream is dead; in-flight results are dropped
        pending_.emplace(index, std::move(report));
        bool advanced = false;
        for (auto it = pending_.find(next_deliver_); it != pending_.end();
             it = pending_.find(next_deliver_)) {
            // The sink runs under the lock: delivery is serial and
            // in-order by construction, which is exactly the contract
            // ReportSink documents.
            //
            // A throwing consume() counts as delivered: its slot is
            // retired before the exception is recorded, so the report
            // the sink already saw is never delivered again.
            // Without the catch the exception would unwind a worker
            // thread (std::terminate) and, were it swallowed instead,
            // the unflushed slot would wedge claim() forever.
            try {
                sink_.consume(it->first, std::move(it->second));
            } catch (...) {
                pending_.erase(it);
                ++next_deliver_;
                failure_ = std::current_exception();
                stopped_ = true;
                can_claim_.notify_all();
                return;
            }
            pending_.erase(it);
            ++next_deliver_;
            advanced = true;
        }
        if (advanced)
            can_claim_.notify_all();
    }

    /** First sink exception, if delivery was aborted by one. */
    std::exception_ptr failure()
    {
        std::unique_lock<std::mutex> lock(mu_);
        return failure_;
    }

  private:
    const std::size_t count_;
    const std::size_t window_;
    ReportSink &sink_;
    std::mutex mu_;
    std::condition_variable can_claim_;
    std::size_t next_claim_ = 0;
    std::size_t next_deliver_ = 0;
    bool stopped_ = false;
    std::exception_ptr failure_;
    std::map<std::size_t, RunReport> pending_;
};

} // namespace

void
ExperimentRunner::run_tasks_stream(std::size_t count,
                                   const TaskSource &source,
                                   ReportSink &sink) const
{
    // Hold fatal-throws for the whole batch: the per-task scopes then
    // save/restore `true`, so a worker finishing early cannot flip the
    // mode off under a sibling mid-run.
    FatalThrowsScope recoverable(true);
    const int workers =
        int(std::min<std::size_t>(std::size_t(jobs_), count));
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            sink.consume(i, run_task(source(i)));
        return;
    }

    // Dynamic self-scheduling: tasks vary wildly in cost (a 60 s game
    // trace vs. a 400 ms transition), so workers pull the next index
    // instead of owning a static stripe. The window bounds how far the
    // fastest worker may run ahead of the slowest undelivered slot.
    OrderedDelivery delivery(count, std::size_t(workers) * 4, sink);
    std::vector<std::thread> pool;
    pool.reserve(std::size_t(workers));
    for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (std::size_t i = delivery.claim(); i < count;
                 i = delivery.claim()) {
                delivery.deliver(i, run_task(source(i)));
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    // A sink that threw aborted the stream; surface its exception to the
    // caller after every worker has drained, same as the serial path.
    if (std::exception_ptr failure = delivery.failure())
        std::rethrow_exception(failure);
}

void
ExperimentRunner::run_tasks_stream(const std::vector<TaskSpec> &tasks,
                                   ReportSink &sink) const
{
    run_tasks_stream(
        tasks.size(),
        [&tasks](std::size_t i) { return tasks[i]; }, sink);
}

void
ExperimentRunner::run_stream(std::size_t count, const PointSource &source,
                             ReportSink &sink) const
{
    run_tasks_stream(
        count,
        [this, &source](std::size_t i) {
            Experiment point = source(i);
            TaskSpec spec;
            spec.label = point.label;
            spec.scenario = point.scenario.name();
            spec.run = [this, point = std::move(point)] {
                return run_one(point);
            };
            return spec;
        },
        sink);
}

void
ExperimentRunner::run_stream(const std::vector<Experiment> &points,
                             ReportSink &sink) const
{
    run_tasks_stream(
        points.size(),
        [this, &points](std::size_t i) {
            const Experiment &point = points[i];
            TaskSpec spec;
            spec.label = point.label;
            spec.scenario = point.scenario.name();
            spec.run = [this, &point] { return run_one(point); };
            return spec;
        },
        sink);
}

std::vector<RunReport>
ExperimentRunner::run(const std::vector<Experiment> &points) const
{
    VectorSink sink;
    run_stream(points, sink);
    std::vector<RunReport> reports = sink.take();
    reports.resize(points.size());
    return reports;
}

std::vector<RunReport>
ExperimentRunner::run_tasks(const std::vector<TaskSpec> &tasks) const
{
    VectorSink sink;
    run_tasks_stream(tasks, sink);
    std::vector<RunReport> reports = sink.take();
    reports.resize(tasks.size());
    return reports;
}

int
default_jobs(int flag_value)
{
    if (flag_value < 0)
        fatal("jobs count must be >= 0, got %d", flag_value);
    if (flag_value > 0)
        return flag_value;
    if (const char *env = std::getenv("DVS_JOBS")) {
        // Strict parse: std::atoi would silently turn "abc" into 0 (all
        // cores) and accept negatives, so a typo'd DVS_JOBS changed the
        // parallelism instead of failing the run.
        errno = 0;
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || errno == ERANGE || v < 0 ||
            v > INT_MAX) {
            fatal("DVS_JOBS must be a non-negative integer, got \"%s\"",
                  env);
        }
        return int(v);
    }
    return 0;
}

} // namespace dvs
