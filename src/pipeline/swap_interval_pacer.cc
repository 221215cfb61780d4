#include "pipeline/swap_interval_pacer.h"

#include <algorithm>
#include <vector>

#include "sim/logging.h"

namespace dvs {

namespace {

/** Largest interval the pacer will fall back to. */
constexpr int kMaxInterval = 3;

/** Window of recent frame costs driving the interval decisions. */
constexpr int kWindow = 12;

/**
 * The interval rises when the windowed p90 frame cost exceeds
 * kRaiseThreshold x the current frame budget, and falls when the p90
 * fits kLowerThreshold x the next smaller budget.
 */
constexpr double kRaiseThreshold = 0.95;
constexpr double kLowerThreshold = 0.70;

} // namespace

void
SwapIntervalPacer::on_segment_start(int)
{
    edges_since_frame_ = interval_; // fire on the first edge
    producer_->request_vsync_trigger();
}

bool
SwapIntervalPacer::accept_vsync_trigger(const SwVsync &sw)
{
    period_hint_ = period_from_hz(sw.rate_hz);
    if (++edges_since_frame_ >= interval_) {
        edges_since_frame_ = 0;
        return true;
    }
    return false;
}

void
SwapIntervalPacer::on_ui_complete(const FrameRecord &rec)
{
    if (producer_->segment_has_more(rec.segment_index))
        producer_->request_vsync_trigger();
}

void
SwapIntervalPacer::on_frame_queued(const FrameRecord &rec)
{
    recent_cost_ms_.push_back(to_ms(rec.cost.total()));
    while (int(recent_cost_ms_.size()) > kWindow)
        recent_cost_ms_.pop_front();
    retune();
}

double
SwapIntervalPacer::windowed_p90_ms() const
{
    std::vector<double> v(recent_cost_ms_.begin(), recent_cost_ms_.end());
    std::sort(v.begin(), v.end());
    return v[std::size_t(0.9 * double(v.size() - 1))];
}

void
SwapIntervalPacer::retune()
{
    if (int(recent_cost_ms_.size()) < kWindow)
        return;
    const double p90 = windowed_p90_ms();
    const double period_ms = to_ms(period_hint_);
    const double budget = double(interval_) * period_ms;

    if (p90 > kRaiseThreshold * budget && interval_ < kMaxInterval) {
        ++interval_;
        ++changes_;
        debug("swap interval raised to %d (p90 %.2f ms)", interval_, p90);
    } else if (interval_ > 1 &&
               p90 < kLowerThreshold * double(interval_ - 1) * period_ms) {
        --interval_;
        ++changes_;
        debug("swap interval lowered to %d (p90 %.2f ms)", interval_,
              p90);
    }
}

} // namespace dvs
