/**
 * @file
 * Serialized execution resource: a simulated thread.
 *
 * The UI thread and the render thread/service each execute one piece of
 * work at a time. The resource tracks its busy horizon and cumulative busy
 * time (the input of the power model).
 */

#ifndef DVS_PIPELINE_EXEC_RESOURCE_H
#define DVS_PIPELINE_EXEC_RESOURCE_H

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace dvs {

/**
 * A serialized compute resource. Callers are expected to submit work only
 * when the resource is idle (the pipeline pumps explicitly); submitting
 * while busy queues the work after the current one, with a warning in
 * debug logs because it usually indicates a pacing bug.
 */
class ExecResource
{
  public:
    ExecResource(Simulator &sim, std::string name);

    const std::string &name() const { return name_; }

    /** Whether the resource can start new work right now. */
    bool idle() const { return sim_.now() >= busy_until_; }

    /**
     * Execute work of length @p duration, starting now (or when the
     * current work finishes). @p on_done runs at completion, before the
     * done listeners; it is stored once, in the completion event's slot,
     * and may capture at most 56 bytes.
     * @return the work's start time.
     */
    template <class F>
    Time
    run(Time duration, F &&on_done)
    {
        const Time start = begin(duration);
        // Jobs end in submission order: end times never decrease, every
        // completion has the same priority, and ties keep schedule order.
        sim_.events().schedule(
            busy_until_,
            [this, f = std::forward<F>(on_done)]() mutable {
                f();
                for (auto &listener : done_listeners_)
                    listener();
            },
            EventPriority::kPipeline);
        return start;
    }

    /**
     * Transform a job's duration before execution. Transforms chain in
     * registration order, each receiving the previous one's output —
     * the DVFS plant's clock slowdown composes with an injected
     * thermal-throttle multiplier or GPU hang this way. Receives the
     * submission time and the duration so far; must return >= 0.
     */
    using CostTransform = std::function<Time(Time now, Time duration)>;
    void add_cost_transform(CostTransform fn)
    {
        cost_transforms_.push_back(std::move(fn));
    }

    /**
     * Observe every job's final busy interval [start, end) at submission
     * time, after all cost transforms. The thermal plant integrates
     * dissipated heat from these; submission order is execution order on
     * a serialized resource, so the observer sees a monotone schedule.
     */
    using UsageListener = std::function<void(Time start, Time end)>;
    void add_usage_listener(UsageListener fn)
    {
        usage_listeners_.push_back(std::move(fn));
    }

    /**
     * Register a callback invoked after every completed job (after its
     * own on_done ran). A resource shared between several submitters — a
     * device GPU under multi-surface composition — uses this to let the
     * other contenders resume work parked behind the finished job.
     */
    void add_done_listener(std::function<void()> fn)
    {
        done_listeners_.push_back(std::move(fn));
    }

    /** Cumulative busy time (for utilization and power accounting). */
    Time total_busy() const { return total_busy_; }

    /** Number of work items executed. */
    std::uint64_t jobs() const { return jobs_; }

  private:
    /**
     * Account a job of @p duration: apply the cost transforms, extend
     * the busy horizon to the job's end and notify the usage listeners.
     * @return the job's start time.
     */
    Time begin(Time duration);

    Simulator &sim_;
    std::string name_;
    std::vector<CostTransform> cost_transforms_;
    std::vector<UsageListener> usage_listeners_;
    std::vector<std::function<void()>> done_listeners_;
    Time busy_until_ = 0;
    Time total_busy_ = 0;
    std::uint64_t jobs_ = 0;
};

} // namespace dvs

#endif // DVS_PIPELINE_EXEC_RESOURCE_H
