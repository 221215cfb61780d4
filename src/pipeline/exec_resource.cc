#include "pipeline/exec_resource.h"

#include "sim/logging.h"

namespace dvs {

ExecResource::ExecResource(Simulator &sim, std::string name)
    : sim_(sim), name_(std::move(name))
{
}

Time
ExecResource::run(Time duration, EventQueue::Callback on_done)
{
    if (duration < 0)
        panic("negative work duration on %s", name_.c_str());
    const Time now = sim_.now();
    for (auto &transform : cost_transforms_) {
        duration = transform(now, duration);
        if (duration < 0)
            panic("cost transform returned negative duration on %s",
                  name_.c_str());
    }
    const Time start = std::max(now, busy_until_);
    if (start > now && log_level() >= LogLevel::kDebug) {
        debug("%s: work queued %s behind current job", name_.c_str(),
              format_time(start - now).c_str());
    }
    const Time end = start + duration;
    busy_until_ = end;
    total_busy_ += duration;
    ++jobs_;
    for (auto &listener : usage_listeners_)
        listener(start, end);
    done_fifo_.push_back(std::move(on_done));
    sim_.events().schedule(end, [this] { complete(); },
                           EventPriority::kPipeline);
    return start;
}

void
ExecResource::complete()
{
    // Move the callback out first: it may submit the next job, which
    // can grow the FIFO.
    EventQueue::Callback fn = std::move(done_fifo_[done_head_++]);
    if (done_head_ == done_fifo_.size()) {
        done_fifo_.clear();
        done_head_ = 0;
    } else if (done_head_ >= 32 && 2 * done_head_ >= done_fifo_.size()) {
        // A resource that never drains: drop the spent prefix so memory
        // stays O(queued jobs).
        done_fifo_.erase(done_fifo_.begin(),
                         done_fifo_.begin() + std::ptrdiff_t(done_head_));
        done_head_ = 0;
    }
    fn();
    for (auto &listener : done_listeners_)
        listener();
}

} // namespace dvs
