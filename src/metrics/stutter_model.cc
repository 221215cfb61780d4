#include "metrics/stutter_model.h"

#include <algorithm>

namespace dvs {

StutterDetector::StutterDetector(StutterParams params) : params_(params) {}

void
StutterDetector::end_run()
{
    if (run_length_ >= params_.hold_threshold) {
        // A visible hitch: the screen held one frame for multiple
        // refreshes. One stutter regardless of the hold length.
        ++stutters_;
    } else if (run_length_ > 0) {
        // Isolated drop: only perceptible when drops cluster at an
        // irregular rhythm. A steady cadence (swap-interval pacing at
        // half rate) reads as uniform slower motion, not stutter.
        recent_isolated_.push_back(last_drop_time_);
        while (!recent_isolated_.empty() &&
               last_drop_time_ - recent_isolated_.front() >
                   params_.cluster_window) {
            recent_isolated_.pop_front();
        }
        if (int(recent_isolated_.size()) >= params_.cluster_drops &&
            !steady_cadence()) {
            ++stutters_;
            recent_isolated_.clear();
        }
    }
    run_length_ = 0;
}

void
StutterDetector::on_refresh(Time t, bool dropped)
{
    if (dropped) {
        ++run_length_;
        last_drop_time_ = t;
    } else {
        end_run();
    }
}

void
StutterDetector::finish()
{
    if (!finished_) {
        end_run();
        finished_ = true;
    }
}

bool
StutterDetector::steady_cadence() const
{
    if (int(recent_isolated_.size()) < params_.cluster_drops)
        return false;
    Time min_gap = kTimeMax, max_gap = 0;
    for (std::size_t i = 1; i < recent_isolated_.size(); ++i) {
        const Time gap = recent_isolated_[i] - recent_isolated_[i - 1];
        min_gap = std::min(min_gap, gap);
        max_gap = std::max(max_gap, gap);
    }
    return max_gap - min_gap <= params_.cadence_tolerance;
}

std::uint64_t
count_stutters(const FrameStats &stats, StutterParams params)
{
    StutterDetector det(params);
    for (const RefreshLog &r : stats.refreshes())
        det.on_refresh(r.time, r.drop);
    det.finish();
    return det.stutters();
}

} // namespace dvs
