#include "pipeline/exec_resource.h"

#include "sim/logging.h"

namespace dvs {

ExecResource::ExecResource(Simulator &sim, std::string name)
    : sim_(sim), name_(std::move(name))
{
}

Time
ExecResource::begin(Time duration)
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
    return start;
}

} // namespace dvs
