/**
 * @file
 * Display Time Virtualizer (DTV, §4.4 / §5.1).
 *
 * DTV decouples the timestamp a frame renders its content for from the
 * time its code executes. It keeps a model of the hardware vsync timeline
 * (period + phase, recalibrated from HW-VSync samples every few edges) and
 * computes, for every frame the FPE is about to trigger, the Frame Display
 * Timestamp (D-Timestamp): the vsync edge at which that frame will
 * physically reach the panel, given how many buffers are already queued or
 * in production ahead of it.
 *
 * DTV is elastic to residual frame drops: when a present fence reveals
 * that frames are reaching the screen later than promised, it slips its
 * promise chain forward by whole periods and tells the FPE how many
 * timeline slots to skip, so subsequent frames realign instead of running
 * permanently late (the VSync architecture's buffer-stuffing pathology).
 */

#ifndef DVS_CORE_DISPLAY_TIME_VIRTUALIZER_H
#define DVS_CORE_DISPLAY_TIME_VIRTUALIZER_H

#include <cstdint>
#include <deque>
#include <functional>

#include "core/dvsync_config.h"
#include "display/hw_vsync.h"
#include "display/panel.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "vsyncsrc/vsync_model.h"

namespace dvs {

/**
 * Computes and maintains Frame Display Timestamps.
 */
class DisplayTimeVirtualizer
{
  public:
    /** Notified when presents slipped @p periods behind the promises. */
    using SlipListener = std::function<void(int periods)>;

    DisplayTimeVirtualizer(Simulator &sim, HwVsyncGenerator &hw,
                           Panel &panel, const DvsyncConfig &config);

    /** Current period estimate of the vsync timeline model. */
    Time period() const { return model_.period(); }

    const VsyncModel &model() const { return model_; }

    /**
     * D-Timestamp of a frame triggered by the conventional vsync path at
     * edge @p trigger_edge: it will present pipeline_depth periods later.
     */
    Time vsync_path_timestamp(Time trigger_edge) const;

    /**
     * Anchor the promise chain: called when a vsync-path frame starts a
     * segment, with that frame's expected present.
     */
    void anchor_timeline(Time promised_present);

    /**
     * Compute (and commit) the D-Timestamp of the next pre-rendered
     * frame. @p frames_ahead is the number of frames that will present
     * before it (queued buffers + frames in production).
     */
    Time promise_next(int frames_ahead);

    /** Preview promise_next without committing (decoupling-aware API). */
    Time peek_next(int frames_ahead) const;

    /** Listener for drop-elasticity slips. */
    void set_slip_listener(SlipListener fn) { on_slip_ = std::move(fn); }

    /**
     * Drop the promise chain and outstanding promises, keeping the vsync
     * model and the fence floor (both still track hardware truth). Used
     * by the degradation path after a long stall, when the chain refers
     * to a timeline segment that no longer exists: the next promise
     * re-anchors from the fence floor and the predicted next edge.
     */
    void resync();

    // ----- introspection / stats ---------------------------------------

    /** Promises issued so far. */
    std::uint64_t promises() const { return promises_; }

    /** Whole-period slips performed (drop elasticity). */
    std::uint64_t slips() const { return slips_; }

    /** |present − promised| of pre-rendered frames, in ns. */
    const SampleStat &promise_error() const { return promise_error_; }

    /** Calibration samples consumed from the hardware. */
    std::uint64_t calibrations() const { return calibrations_; }

    /** Times resync() dropped the promise chain. */
    std::uint64_t resyncs() const { return resyncs_; }

    /** Promised display timestamps not yet matched by a present. */
    std::size_t pending_promises() const { return pending_.size(); }

  private:
    void on_edge(const VsyncEdge &edge);
    void on_present(const PresentEvent &ev);
    Time compute_next(int frames_ahead) const;

    Simulator &sim_;
    DvsyncConfig config_;
    VsyncModel model_;
    Time last_promised_ = kTimeNone;
    /** Present time of the most recent latched frame (fence floor). */
    Time fence_floor_ = kTimeNone;
    /** Outstanding promised display timestamps, in FIFO order. */
    std::deque<Time> pending_;
    /** Edges left until the next calibration sample (0: this edge). */
    int edges_to_calibration_ = 0;
    std::uint64_t promises_ = 0;
    std::uint64_t slips_ = 0;
    std::uint64_t calibrations_ = 0;
    std::uint64_t resyncs_ = 0;
    SampleStat promise_error_;
    SlipListener on_slip_;
};

} // namespace dvs

#endif // DVS_CORE_DISPLAY_TIME_VIRTUALIZER_H
