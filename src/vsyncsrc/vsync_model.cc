#include "vsyncsrc/vsync_model.h"

#include "sim/logging.h"

namespace dvs {

VsyncModel::VsyncModel(Time nominal_period, int window)
    : nominal_period_(nominal_period), period_(nominal_period)
{
    if (nominal_period <= 0)
        fatal("VsyncModel period must be positive");
    if (window < 2)
        fatal("VsyncModel window must be >= 2");
    ring_.resize(std::size_t(window));
}

void
VsyncModel::push_delta(Time delta)
{
    if (count_ == ring_.size()) {
        // Full window: the new delta takes the oldest one's place. A
        // steady grid evicts a delta equal to the new one, which leaves
        // the sum and its mean as they were.
        const Time evicted = ring_[head_];
        ring_[head_] = delta;
        if (++head_ == ring_.size())
            head_ = 0;
        if (delta != evicted) {
            sum_ += delta - evicted;
            mean_ = sum_ / Time(count_);
        }
        return;
    }
    std::size_t tail = head_ + count_;
    if (tail >= ring_.size())
        tail -= ring_.size();
    ring_[tail] = delta;
    ++count_;
    sum_ += delta;
    mean_ = count_ == 1 ? sum_ : sum_ / Time(count_);
}

void
VsyncModel::clear_window()
{
    head_ = 0;
    count_ = 0;
    sum_ = 0;
}

void
VsyncModel::add_sample(Time edge, int grid_steps)
{
    if (grid_steps < 1)
        fatal("grid_steps must be >= 1");
    ++n_samples_;
    if (last_edge_ != kTimeNone && edge > last_edge_) {
        // A rate change or long gap makes old deltas meaningless: restart
        // the window when the step deviates far from the *recent* deltas
        // (comparing against the stale period estimate would keep
        // rejecting every sample of the new cadence). Sparse calibration
        // steps are normalized to per-edge deltas first.
        // Per-edge sampling needs no division. The hint also keeps the
        // compiler from folding x / 1 == x into an unconditional divide.
        Time delta = edge - last_edge_;
        if (grid_steps != 1) [[unlikely]]
            delta /= grid_steps;
        if (count_ > 0) {
            const Time ref = mean_;
            const Time dev = delta > ref ? delta - ref : ref - delta;
            if (dev > ref / 4)
                clear_window();
        }
        push_delta(delta);
        if (count_ >= 2)
            period_ = mean_;
    }
    last_edge_ = edge;
}

Time
VsyncModel::predict_next(Time t) const
{
    if (last_edge_ == kTimeNone) {
        // No samples yet: assume the grid is anchored at zero.
        if (t < 0)
            return 0;
        return (t / period_ + 1) * period_;
    }
    if (t < last_edge_)
        return last_edge_;
    const Time k = (t - last_edge_) / period_ + 1;
    return last_edge_ + k * period_;
}

Time
VsyncModel::predict_after_last(int k) const
{
    const Time base = last_edge_ == kTimeNone ? 0 : last_edge_;
    return base + Time(k) * period_;
}

Time
VsyncModel::prediction_error(Time actual) const
{
    if (last_edge_ == kTimeNone)
        return 0;
    // Nearest predicted grid point to the actual edge.
    const Time steps = (actual - last_edge_ + period_ / 2) / period_;
    const Time predicted = last_edge_ + steps * period_;
    return actual - predicted;
}

void
VsyncModel::reset()
{
    period_ = nominal_period_;
    last_edge_ = kTimeNone;
    clear_window();
    n_samples_ = 0;
}

void
VsyncModel::set_nominal_period(Time period)
{
    if (period <= 0)
        fatal("VsyncModel period must be positive");
    nominal_period_ = period;
    period_ = period;
    clear_window();
}

} // namespace dvs
