#include "core/display_time_virtualizer.h"

#include <cmath>

#include "metrics/frame_stats.h"
#include "sim/logging.h"

namespace dvs {

DisplayTimeVirtualizer::DisplayTimeVirtualizer(Simulator &sim,
                                               HwVsyncGenerator &hw,
                                               Panel &panel,
                                               const DvsyncConfig &config)
    : sim_(sim), config_(config.normalized()), model_(hw.period())
{
    hw.add_listener([this](const VsyncEdge &e) { on_edge(e); });
    panel.add_present_listener(
        [this](const PresentEvent &ev) { on_present(ev); });
}

void
DisplayTimeVirtualizer::on_edge(const VsyncEdge &edge)
{
    // "Calibrates the issued D-Timestamp every few frames with hardware
    // VSync signals to avoid error accumulation" (§5.1).
    if (edges_to_calibration_ == 0) {
        model_.add_sample(edge.timestamp, config_.calibration_interval);
        ++calibrations_;
        edges_to_calibration_ = config_.calibration_interval;
    }
    --edges_to_calibration_;
}

Time
DisplayTimeVirtualizer::vsync_path_timestamp(Time trigger_edge) const
{
    return trigger_edge + Time(kPipelineDepth) * model_.period();
}

void
DisplayTimeVirtualizer::anchor_timeline(Time promised_present)
{
    last_promised_ = promised_present;
}

Time
DisplayTimeVirtualizer::compute_next(int frames_ahead) const
{
    const Time period = model_.period();
    // Three lower bounds on when the frame can reach the panel:
    //  - it cannot present before the next vsync edge;
    //  - every frame ahead of it in FIFO order (queued + in production)
    //    occupies one edge after the frame currently on screen (the
    //    fence floor) — this bound tracks reality and self-corrects
    //    after residual drops;
    //  - it presents after the previously promised frame (pacing).
    Time t = model_.predict_next(sim_.now());
    if (fence_floor_ != kTimeNone) {
        t = std::max(t,
                     fence_floor_ + Time(frames_ahead + 1) * period);
    }
    if (last_promised_ != kTimeNone)
        t = std::max(t, last_promised_ + period);
    return t;
}

Time
DisplayTimeVirtualizer::promise_next(int frames_ahead)
{
    const Time t = compute_next(frames_ahead);
    last_promised_ = t;
    ++promises_;
    pending_.push_back(t);
    return t;
}

Time
DisplayTimeVirtualizer::peek_next(int frames_ahead) const
{
    return compute_next(frames_ahead);
}

void
DisplayTimeVirtualizer::resync()
{
    last_promised_ = kTimeNone;
    pending_.clear();
    ++resyncs_;
}

void
DisplayTimeVirtualizer::on_present(const PresentEvent &ev)
{
    const Time period = model_.period();
    if (ev.repeat) {
        // Elasticity to residual frame drops (§5.1): the screen repeated
        // at a refresh an outstanding promise was due at — that display
        // slot is irrecoverably missed. Skip exactly one timeline slot
        // so content realigns, and no more: repeats before any promise
        // is due (pipeline warm-up, idle) are not drops.
        if (!pending_.empty() &&
            pending_.front() <= ev.present_time + period / 2) {
            ++slips_;
            if (on_slip_)
                on_slip_(1);
        }
        return;
    }

    fence_floor_ = ev.present_time;
    if (!ev.meta.pre_rendered)
        return;
    if (!pending_.empty())
        pending_.pop_front();
    if (ev.meta.content_timestamp == kTimeNone)
        return;
    promise_error_.add(
        double(std::abs(ev.present_time - ev.meta.content_timestamp)));
}

} // namespace dvs
