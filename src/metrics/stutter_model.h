/**
 * @file
 * Stutter perception model (§6.2, Table 2).
 *
 * The paper's subjective data comes from trained UX evaluators whose
 * perceived stutters are confirmed with a high-speed camera. We stand in
 * for the evaluator with the industry jank heuristics the paper's
 * methodology references: a stutter is perceived when the display holds
 * one frame across multiple refreshes (a visible hitch), or when isolated
 * drops cluster densely enough that motion looks uneven.
 */

#ifndef DVS_METRICS_STUTTER_MODEL_H
#define DVS_METRICS_STUTTER_MODEL_H

#include <cstdint>

#include "metrics/frame_stats.h"
#include "sim/inline_ring.h"
#include "sim/time.h"

namespace dvs {

/** Tunables of the perception model. */
struct StutterParams {
    /** A run of >= this many consecutive drops is one visible stutter. */
    int hold_threshold = 2;

    /** This many isolated drops inside cluster_window is one stutter. */
    int cluster_drops = 3;
    Time cluster_window = 500'000'000; // 500 ms

    /**
     * Periodic misses with a steady spacing are a *cadence* (an app
     * paced at half rate), which users perceive as smooth-but-slower
     * motion, not stutter. Isolated drops whose spacing matches the
     * recent inter-drop interval within this tolerance do not cluster.
     */
    Time cadence_tolerance = 3'000'000; // 3 ms
};

/**
 * Streaming stutter detector: feed it every refresh in order.
 */
class StutterDetector
{
  public:
    explicit StutterDetector(StutterParams params = {});

    /** Record one refresh: was due content dropped at it? */
    void on_refresh(Time t, bool dropped);

    /** Finish the stream (flushes a trailing drop run). */
    void finish();

    /** Perceived stutters so far. */
    std::uint64_t stutters() const { return stutters_; }

  private:
    void end_run();
    bool steady_cadence() const;

    StutterParams params_;
    std::uint64_t stutters_ = 0;
    int run_length_ = 0;
    Time last_drop_time_ = 0;
    // Isolated drops inside the cluster window: a few at most, since
    // cluster_drops of them at an irregular rhythm count a stutter.
    InlineRing<Time, 8> recent_isolated_;
    bool finished_ = false;
};

/** Score a finished run's refresh log. */
std::uint64_t count_stutters(const FrameStats &stats,
                             StutterParams params = {});

} // namespace dvs

#endif // DVS_METRICS_STUTTER_MODEL_H
