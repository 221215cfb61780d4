/**
 * @file
 * Swap-interval frame pacing: the Swappy-style baseline.
 *
 * Android Frame Pacing (the "Swappy" library) and similar industry
 * mechanisms tackle jank differently from D-VSync: when frames cannot
 * reliably hit every refresh, they lock the app to an integer *swap
 * interval* (every 2nd or 3rd vsync), trading frame rate for a uniform
 * cadence. A game that misses 60 Hz renders a steady 30 Hz instead of an
 * irregular 45-55.
 *
 * This pacer implements that policy over the same producer pipeline so
 * the three architectures can be compared head-to-head: the paper's
 * observation (echoed in related work: "50 FPS without G-Sync implies 10
 * janks on a 60 Hz screen") is that pacing *concedes* refreshes that
 * D-VSync actually delivers. The benches show swap-interval pacing
 * eliminating perceived stutter at the cost of halved throughput, while
 * D-VSync keeps the full frame rate.
 */

#ifndef DVS_PIPELINE_SWAP_INTERVAL_PACER_H
#define DVS_PIPELINE_SWAP_INTERVAL_PACER_H

#include <deque>

#include "pipeline/producer.h"

namespace dvs {

/**
 * A FramePacer that starts one frame every `interval` vsync edges and
 * tunes the interval to the recent frame costs (Swappy's auto mode).
 */
class SwapIntervalPacer : public FramePacer
{
  public:
    const char *name() const override { return "swap-interval"; }

    void on_segment_start(int segment_index) override;
    void on_ui_complete(const FrameRecord &rec) override;
    void on_frame_queued(const FrameRecord &rec) override;
    bool align_render(const FrameRecord &) const override { return true; }
    bool accept_vsync_trigger(const SwVsync &sw) override;

    /** Swap interval currently in force. */
    int interval() const { return interval_; }

    /** Interval changes performed. */
    std::uint64_t interval_changes() const { return changes_; }

  private:
    void retune();
    double windowed_p90_ms() const;

    int interval_ = 1;
    int edges_since_frame_ = 0;
    std::uint64_t changes_ = 0;
    std::deque<double> recent_cost_ms_;
    Time period_hint_ = 16'666'666;
};

} // namespace dvs

#endif // DVS_PIPELINE_SWAP_INTERVAL_PACER_H
