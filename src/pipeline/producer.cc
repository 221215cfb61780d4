#include "pipeline/producer.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace dvs {

Producer::Producer(Simulator &sim, Scenario scenario, BufferQueue &queue,
                   VsyncDistributor &dist)
    : sim_(sim), scenario_(std::move(scenario)), queue_(queue), dist_(dist),
      choreographer_(dist, VsyncChannel::kApp), ui_thread_(sim, "ui"),
      render_thread_(sim, "render"), gpu_(sim, "gpu"),
      states_(scenario_.size())
{
    choreographer_.set_callback(
        [this](const SwVsync &sw) { handle_vsync_trigger(sw); });
    queue_.on_slot_free([this] { on_slot_free(); });
    // FrameRecords are flat PODs indexed by frame id; pre-sizing keeps
    // the begin_frame hot path out of the allocator for typical runs.
    records_.reserve(512);
}

void
Producer::use_shared_gpu(ExecResource &gpu)
{
    if (started_)
        panic("use_shared_gpu after start()");
    gpu_res_ = &gpu;
}

void
Producer::set_pacer(FramePacer *pacer)
{
    pacer_ = pacer;
    pacer_->attach(*this);
}

void
Producer::start(Time at)
{
    if (started_)
        panic("Producer::start called twice");
    if (!pacer_)
        fatal("Producer needs a pacer before start()");
    started_ = true;
    start_time_ = at;

    for (std::size_t i = 0; i < scenario_.size(); ++i) {
        const Time seg_start = at + scenario_.segment_start(i);
        states_[i].abs_start = seg_start;
        states_[i].abs_end = seg_start + scenario_.segments()[i].duration;
        sim_.events().schedule(
            seg_start, [this, i] { on_segment_event(int(i)); },
            EventPriority::kSegment);
    }
}

void
Producer::on_segment_event(int i)
{
    current_segment_ = i;
    if (scenario_.segments()[i].produces_frames())
        pacer_->on_segment_start(i);
}

void
Producer::request_vsync_trigger()
{
    choreographer_.post_frame_callback();
}

bool
Producer::segment_has_more(int i) const
{
    if (i < 0 || i >= int(scenario_.size()))
        return false;
    if (!scenario_.segments()[i].produces_frames())
        return false;
    const SegmentState &st = states_[i];
    if (st.anchor == kTimeNone)
        return true; // not a single frame started yet
    return st.next_slot < st.total_slots;
}

Time
Producer::slot_timeline(int i, std::int64_t slot) const
{
    const SegmentState &st = states_[i];
    if (st.anchor == kTimeNone)
        panic("slot_timeline before segment %d anchored", i);
    return st.anchor + slot * st.period;
}

void
Producer::handle_vsync_trigger(const SwVsync &sw)
{
    const int i = current_segment_;
    if (i < 0 || !scenario_.segments()[i].produces_frames())
        return;

    if (!pacer_->accept_vsync_trigger(sw)) {
        // The pacer skipped this edge (swap-interval pacing): keep the
        // trigger armed so it can decide again at the next edge.
        request_vsync_trigger();
        return;
    }

    SegmentState &st = states_[i];
    if (st.anchor == kTimeNone) {
        // First trigger: anchor the segment's nominal timeline here.
        st.anchor = sw.timestamp;
        st.period = dist_.model().period();
        const Time span = st.abs_end - st.anchor;
        st.total_slots =
            span <= 0 ? 1 : (span + st.period - 1) / st.period;
    }

    const std::int64_t slot =
        (sw.timestamp - st.anchor + st.period / 2) / st.period;
    if (slot < st.next_slot) {
        // The producer ran ahead of the display (accumulated content):
        // this edge's slot is already produced. Keep the trigger armed
        // so production resumes once the display catches up — dropping
        // it would stall a segment that just fell back from the
        // decoupled path (runtime switch mid-animation).
        if (segment_has_more(i))
            request_vsync_trigger();
        return;
    }
    if (slot >= st.total_slots)
        return; // segment is over

    st.next_slot = slot + 1;
    begin_frame(i, slot, pacer_->vsync_content_timestamp(sw.timestamp),
                st.anchor + slot * st.period, /*pre_rendered=*/false);
}

void
Producer::begin_pre_rendered(Time content_timestamp)
{
    const int i = current_segment_;
    if (i < 0)
        panic("begin_pre_rendered with no active segment");
    SegmentState &st = states_[i];
    if (st.anchor == kTimeNone)
        panic("begin_pre_rendered before the segment's first vsync frame");
    if (st.next_slot >= st.total_slots)
        panic("begin_pre_rendered beyond the segment's last slot");

    const std::int64_t slot = st.next_slot++;
    begin_frame(i, slot, content_timestamp,
                st.anchor + slot * st.period, /*pre_rendered=*/true);
}

void
Producer::skip_slots(int n)
{
    const int i = current_segment_;
    if (i < 0 || n <= 0)
        return;
    SegmentState &st = states_[i];
    if (st.anchor == kTimeNone)
        return;
    st.next_slot =
        std::min<std::int64_t>(st.next_slot + n, st.total_slots);
}

double
Producer::sample_content(const Segment &seg, const FrameRecord &rec)
{
    const SegmentState &st = states_[rec.segment_index];
    SampleContext ctx;
    ctx.segment = &seg;
    ctx.now_rel = sim_.now() - st.abs_start;
    ctx.content_rel = rec.content_timestamp - st.abs_start;
    if (sampler_)
        return sampler_(ctx);
    // Default (IPL-less) sampling: render the latest input state known at
    // execution time — exactly what a conventional UI framework does.
    if (seg.touch) {
        const TouchEvent *ev = seg.touch->latest_at(ctx.now_rel);
        if (ev)
            return ev->pinch_distance != 0.0 ? ev->pinch_distance : ev->y;
    }
    return 0.0;
}

void
Producer::begin_frame(int seg_idx, std::int64_t slot, Time content_ts,
                      Time timeline_ts, bool pre_rendered)
{
    const Segment &seg = scenario_.segments()[seg_idx];

    FrameRecord rec;
    rec.frame_id = records_.size();
    rec.segment_index = seg_idx;
    rec.kind = seg.kind;
    rec.slot = slot;
    rec.content_timestamp = content_ts;
    rec.timeline_timestamp = timeline_ts;
    rec.pre_rendered = pre_rendered;
    rec.cost =
        seg.cost->cost_for(slot + std::int64_t(seg_idx) * kCostIndexStride);
    rec.rate_hz = rate_source_ ? rate_source_()
                               : 1e9 / double(dist_.model().period());
    rec.trigger_time = sim_.now();
    if (extra_cost_)
        rec.cost.ui_time += extra_cost_(seg, rec);
    if (seg.kind == SegmentKind::kInteraction) {
        rec.content_value = sample_content(seg, rec);
        rec.has_content_value = true;
    }

    ++in_flight_;
    ++states_[seg_idx].started;
    records_.push_back(rec);
    pending_ui_.push_back(rec.frame_id);
    pump_ui();
}

void
Producer::pump_ui()
{
    if (pending_ui_.empty() || !ui_thread_.idle())
        return;
    const std::uint64_t id = pending_ui_.front();
    pending_ui_.pop_front();
    FrameRecord &rec = records_[id];
    rec.ui_start = ui_thread_.run(rec.cost.ui_time,
                                  [this, id] { on_ui_done(id); });
}

void
Producer::on_ui_done(std::uint64_t id)
{
    FrameRecord &rec = records_[id];
    rec.ui_end = sim_.now();

    if (pacer_->align_render(rec)) {
        dist_.request_callback(
            VsyncChannel::kRs,
            [this, id](const SwVsync &) { enqueue_render(id); });
    } else {
        enqueue_render(id);
    }

    pacer_->on_ui_complete(rec);
    pump_ui();
}

void
Producer::enqueue_render(std::uint64_t id)
{
    records_[id].render_ready = sim_.now();
    pending_render_.insert(std::lower_bound(pending_render_.begin(),
                                            pending_render_.end(), id),
                           id);
    pump_render();
}

void
Producer::pump_render()
{
    // Renders run strictly in frame order: frame N+1 may be ready (its
    // UI chained ahead) while frame N still waits for its VSync-rs edge.
    const auto it = std::lower_bound(
        pending_render_.begin(), pending_render_.end(), next_render_id_);
    if (it == pending_render_.end() || *it != next_render_id_ ||
        !render_thread_.idle())
        return;
    FrameBuffer *buf = queue_.try_dequeue(sim_.now());
    if (!buf) {
        // Record the stall start (forensics: queue-stuffing evidence).
        FrameRecord &stalled = records_[*it];
        if (stalled.buffer_stall_start == kTimeNone)
            stalled.buffer_stall_start = sim_.now();
        return; // resumed by on_slot_free
    }
    const std::uint64_t id = *it;
    pending_render_.erase(it);
    ++next_render_id_;
    FrameRecord &rec = records_[id];
    rec.render_start = render_thread_.run(
        rec.cost.render_time, [this, id, buf] { on_render_done(id, buf); });
}

void
Producer::on_render_done(std::uint64_t id, FrameBuffer *buf)
{
    FrameRecord &rec = records_[id];
    rec.render_end = sim_.now();

    if (rec.cost.gpu_time > 0) {
        // Command buffers execute on the GPU in submission order while
        // the render thread moves on to the next frame.
        pending_gpu_.emplace_back(id, buf);
        pump_gpu();
        pump_render();
        return;
    }
    finish_frame(id, buf);
}

void
Producer::pump_gpu()
{
    if (pending_gpu_.empty() || !gpu_res_->idle())
        return;
    const auto [id, buf] = pending_gpu_.front();
    pending_gpu_.pop_front();
    FrameRecord &rec = records_[id];
    Time gpu_cost = rec.cost.gpu_time;
    if (gpu_shaper_)
        gpu_cost = gpu_shaper_(rec, gpu_cost);
    rec.gpu_start = gpu_res_->run(gpu_cost, [this, id, buf] {
        on_gpu_done(id, buf);
    });
}

void
Producer::on_gpu_done(std::uint64_t id, FrameBuffer *buf)
{
    records_[id].gpu_end = sim_.now();
    finish_frame(id, buf);
    pump_gpu();
}

void
Producer::finish_frame(std::uint64_t id, FrameBuffer *buf)
{
    FrameRecord &rec = records_[id];

    FrameMeta &meta = buf->meta();
    meta.frame_id = rec.frame_id;
    meta.nominal_index = rec.slot;
    meta.content_timestamp = rec.content_timestamp;
    meta.timeline_timestamp = rec.timeline_timestamp;
    meta.render_rate_hz = rec.rate_hz;
    meta.pre_rendered = rec.pre_rendered;

    queue_.queue(buf, sim_.now());
    rec.queue_time = sim_.now();
    --in_flight_;
    ++states_[rec.segment_index].produced;

    for (auto &fn : queued_listeners_)
        fn(rec);
    pacer_->on_frame_queued(rec);
    pump_render();
}

void
Producer::on_slot_free()
{
    pump_render();
    if (pacer_)
        pacer_->on_slot_free();
}

void
VsyncPacer::on_segment_start(int)
{
    producer_->request_vsync_trigger();
}

void
VsyncPacer::on_ui_complete(const FrameRecord &rec)
{
    if (producer_->segment_has_more(rec.segment_index))
        producer_->request_vsync_trigger();
}

} // namespace dvs
