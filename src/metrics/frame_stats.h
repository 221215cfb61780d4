/**
 * @file
 * Frame statistics: the paper's objective metrics.
 *
 * FrameStats observes the present fence and the producer's frame records
 * and derives:
 *  - frame drops and FDPS (§3.2): refreshes at which content was due but
 *    the screen had to repeat the previous frame;
 *  - the Fig. 6 classification of displayed frames into direct
 *    composition vs. buffer stuffing;
 *  - rendering latency (§3.3/§6.3): present time minus the frame's
 *    nominal timeline timestamp;
 *  - per-refresh drop log (input of the stutter model) and displayed-frame
 *    list (input of the judder metric);
 *  - touch-follow error for interactive frames (Fig. 7 / Fig. 16).
 */

#ifndef DVS_METRICS_FRAME_STATS_H
#define DVS_METRICS_FRAME_STATS_H

#include <cstdint>
#include <vector>

#include "display/panel.h"
#include "pipeline/producer.h"
#include "sim/stats.h"

namespace dvs {

/** One screen refresh as seen by the metrics layer. */
struct RefreshLog {
    Time time = 0;
    bool presented = false; ///< a new buffer was latched
    bool due = false;       ///< content was owed at this refresh
    bool drop = false;      ///< due && !presented
    std::uint64_t frame_id = 0; ///< valid when presented
};

/** A displayed frame's content/present pair (judder + touch error). */
struct ShownFrame {
    std::uint64_t frame_id = 0;
    int segment_index = -1;
    Time content_timestamp = kTimeNone;
    Time timeline_timestamp = kTimeNone;
    Time present_time = kTimeNone;
    Time queue_wait = 0;       ///< present − queue_time
    bool pre_rendered = false;
    double rate_hz = 0.0;
};

/**
 * Aggregates the run's objective metrics. Construct after the producer
 * and panel exist, before the simulation runs.
 */
class FrameStats
{
  public:
    /**
     * @param pipeline_depth nominal present lag of the architecture in
     *        refresh periods (2 for the app→RS→display pipeline of §2)
     */
    FrameStats(Producer &producer, Panel &panel, int pipeline_depth = 2);

    // ----- frame drops ------------------------------------------------

    /** Refreshes at which due content was missing. */
    std::uint64_t frame_drops() const { return drops_; }

    /** Frame drops per second of active (frame-producing) time. */
    double fdps() const;

    /** Share of active refreshes that were drops (Fig. 5's FD%). */
    double frame_drop_percent() const;

    /**
     * Effective frames per second over the active time — the industry
     * metric the paper quotes ("can only reach 95-105 FPS on the 120 Hz
     * screen").
     */
    double fps() const;

    // ----- displayed-frame classification (Fig. 6) ---------------------

    std::uint64_t direct_composition() const { return direct_; }
    std::uint64_t buffer_stuffing() const { return stuffed_; }
    std::uint64_t presents() const { return direct_ + stuffed_; }

    // ----- latency (§6.3) ----------------------------------------------

    /** Rendering latency samples (ns), presented frames only. */
    const SampleStat &latency() const { return latency_; }
    double mean_latency_ms() const { return to_ms(Time(latency_.mean())); }

    // ----- logs ---------------------------------------------------------

    const std::vector<RefreshLog> &refreshes() const { return refreshes_; }
    const std::vector<ShownFrame> &shown() const { return shown_; }

    /** Touch-follow error (px) of interactive frames vs. ground truth. */
    const SampleStat &touch_error_px() const { return touch_error_; }

    /** Total frames the scenario owed (anchored segments only). */
    std::int64_t frames_due() const;

    /** Summary of everything, for printing. */
    StatSet summary() const;

    /**
     * Size the refresh log, the shown-frame log and the latency samples
     * for a run that ends at @p horizon on a panel refreshing at most
     * @p max_hz, so none of them regrows while the run dispatches.
     */
    void reserve_for(Time horizon, double max_hz);

  private:
    void on_present(const PresentEvent &ev);
    bool content_due(Time t) const;

    Producer &producer_;
    int pipeline_depth_;

    std::uint64_t drops_ = 0;
    std::uint64_t direct_ = 0;
    std::uint64_t stuffed_ = 0;
    std::int64_t presented_total_ = 0;
    SampleStat latency_{/*keep_samples=*/true};
    SampleStat touch_error_{/*keep_samples=*/true};
    std::vector<RefreshLog> refreshes_;
    std::vector<ShownFrame> shown_;
    std::vector<std::int64_t> seg_presented_;
};

} // namespace dvs

#endif // DVS_METRICS_FRAME_STATS_H
