#include "core/frame_pre_executor.h"

#include <algorithm>

#include "core/dvsync_runtime.h"
#include "metrics/frame_stats.h"
#include "sim/logging.h"

namespace dvs {

const char *
to_string(FpeStage s)
{
    return s == FpeStage::kAccumulation ? "accumulation" : "sync";
}

FramePreExecutor::FramePreExecutor(DisplayTimeVirtualizer &dtv,
                                   BufferQueue &queue, Panel &panel,
                                   DvsyncRuntime &runtime,
                                   const DvsyncConfig &config)
    : dtv_(dtv), queue_(queue), runtime_(runtime),
      config_(config.normalized())
{
    dtv_.set_slip_listener([this](int periods) {
        // Drop elasticity: the timeline lost `periods` display slots;
        // skip them so subsequent frames realign (§5.1).
        if (producer_)
            producer_->skip_slots(periods);
    });
    // Sync-stage pacing: when pre-execution sits at the limit, the next
    // frame starts in alignment with the screen display — the present
    // fence. (Registered after the DTV's fence listener, so promises see
    // the already-updated fence floor.)
    panel.add_present_listener([this](const PresentEvent &) {
        if (waiting_for_slot_) {
            waiting_for_slot_ = false;
            maybe_pre_render();
        }
    });
}

void
FramePreExecutor::set_prerender_limit(int limit)
{
    if (limit < 1)
        fatal("prerender limit must be >= 1, got %d", limit);
    config_.prerender_limit = limit;
}

int
FramePreExecutor::frames_ahead() const
{
    return queue_.queued_count() + producer_->in_flight();
}

int
FramePreExecutor::accumulated() const
{
    // The pre-render limit bounds the accumulated buffers: frames queued
    // plus frames in production that will take a slot when they finish.
    return frames_ahead();
}

Time
FramePreExecutor::vsync_content_timestamp(Time edge) const
{
    // Decoupled segments render all content against the virtualized
    // display time; segments on the traditional path keep the edge.
    const int i = producer_->current_segment();
    if (i >= 0 &&
        runtime_.can_decouple(producer_->scenario().segments()[i])) {
        return dtv_.vsync_path_timestamp(edge);
    }
    return edge;
}

void
FramePreExecutor::on_segment_start(int)
{
    // The first frame of a segment is not pre-renderable: nothing has
    // announced the upcoming animation yet. It flows through the
    // conventional vsync path and anchors the segment timeline.
    stage_ = FpeStage::kAccumulation;
    waiting_for_slot_ = false;
    producer_->request_vsync_trigger();
}

void
FramePreExecutor::on_ui_complete(const FrameRecord &rec)
{
    if (!rec.pre_rendered) {
        // A vsync-path frame anchors DTV's promise chain at its own
        // expected present.
        dtv_.anchor_timeline(rec.timeline_timestamp +
                             Time(kPipelineDepth) * dtv_.period());
    }
    maybe_pre_render();
}

void
FramePreExecutor::set_stage(FpeStage stage)
{
    if (stage == FpeStage::kSync && stage_ != FpeStage::kSync)
        ++sync_entries_;
    stage_ = stage;
}

void
FramePreExecutor::maybe_pre_render()
{
    const int seg_idx = producer_->current_segment();
    if (!producer_->segment_has_more(seg_idx))
        return;
    if (producer_->segment_state(seg_idx).anchor == kTimeNone) {
        // The segment's first frame is still on its way through the
        // vsync path (requested at segment start); nothing to chain yet.
        return;
    }

    const Segment &seg = producer_->scenario().segments()[seg_idx];
    if (!runtime_.can_decouple(seg)) {
        // Runtime controller: fall back to the traditional VSync path
        // (§4.5, "the frame timing management defaults to the
        // traditional VSync path").
        ++fallbacks_;
        producer_->request_vsync_trigger();
        return;
    }

    const int ahead = accumulated();
    if (ahead > config_.prerender_limit) {
        // `ahead` counts queued buffers plus the frame still in
        // production; the limit itself bounds the *accumulated* (queued)
        // buffers, so one in-flight frame rides on top ("there are still
        // empty slots available in the buffer queue", §4.3).
        // Pre-execution reached the limit: sync stage. The next frame
        // starts when the screen consumes a buffer, re-aligning
        // production with the display (§4.3).
        set_stage(FpeStage::kSync);
        waiting_for_slot_ = true;
        return;
    }

    // Pacing at exactly the limit means the display is driving frame
    // starts (sync stage); anything below means we are still banking.
    set_stage(ahead == config_.prerender_limit ? FpeStage::kSync
                                               : FpeStage::kAccumulation);
    // The D-Timestamp depends on every frame ahead in FIFO order,
    // including the ones inside the pipeline stages.
    const Time d_timestamp = dtv_.promise_next(frames_ahead());
    ++pre_rendered_;
    producer_->begin_pre_rendered(d_timestamp);
}

} // namespace dvs
