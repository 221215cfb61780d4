#include "metrics/frame_stats.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"

namespace dvs {

FrameStats::FrameStats(Producer &producer, Panel &panel, int pipeline_depth)
    : producer_(producer), pipeline_depth_(pipeline_depth),
      seg_presented_(producer.scenario().size(), 0)
{
    panel.add_present_listener(
        [this](const PresentEvent &ev) { on_present(ev); });
}

bool
FrameStats::content_due(Time t) const
{
    // Content is due at refresh t when some segment's present schedule
    // says more frames should have been shown than actually were, and
    // either the segment's display window is still open or frames of it
    // are still in flight. Slots the producer skipped (VSync running
    // behind, or DTV's drop elasticity) were visible as repeats when
    // they were missed; they must not keep counting after the segment's
    // window closes.
    const std::size_t n = producer_.scenario().size();
    for (std::size_t i = 0; i < n; ++i) {
        const SegmentState &st = producer_.segment_state(int(i));
        if (st.anchor == kTimeNone)
            continue; // never started producing
        const Time lag = Time(pipeline_depth_) * st.period;
        const Time first = st.anchor + lag;
        if (t < first)
            continue;
        const std::int64_t expected = std::min<std::int64_t>(
            (t - first) / st.period + 1, st.total_slots);
        const std::int64_t presented = seg_presented_[i];
        if (presented >= expected)
            continue;
        const Time window_end = first + (st.total_slots - 1) * st.period;
        if (t <= window_end || presented < st.started)
            return true;
    }
    return false;
}

std::int64_t
FrameStats::frames_due() const
{
    std::int64_t total = 0;
    const std::size_t n = producer_.scenario().size();
    for (std::size_t i = 0; i < n; ++i) {
        const SegmentState &st = producer_.segment_state(int(i));
        if (st.anchor != kTimeNone)
            total += st.total_slots;
    }
    return total;
}

void
FrameStats::on_present(const PresentEvent &ev)
{
    RefreshLog log;
    log.time = ev.present_time;
    log.presented = !ev.repeat;

    if (!ev.repeat) {
        FrameRecord &rec = producer_.record(ev.meta.frame_id);
        rec.present_time = ev.present_time;
        ++presented_total_;
        ++seg_presented_[std::size_t(rec.segment_index)];
        log.frame_id = ev.meta.frame_id;
        log.due = true;

        ShownFrame sf;
        sf.frame_id = rec.frame_id;
        sf.segment_index = rec.segment_index;
        sf.content_timestamp = ev.meta.content_timestamp;
        sf.timeline_timestamp = ev.meta.timeline_timestamp;
        sf.present_time = ev.present_time;
        sf.queue_wait = ev.present_time - ev.queue_time;
        sf.pre_rendered = ev.meta.pre_rendered;
        sf.rate_hz = ev.rate_hz;
        shown_.push_back(sf);

        const SegmentState &st =
            producer_.segment_state(rec.segment_index);
        if (sf.queue_wait > st.period)
            ++stuffed_;
        else
            ++direct_;

        if (ev.meta.timeline_timestamp != kTimeNone) {
            latency_.add(
                double(ev.present_time - ev.meta.timeline_timestamp));
        }

        if (rec.has_content_value) {
            const Segment &seg =
                producer_.scenario().segments()[rec.segment_index];
            if (seg.touch) {
                const Time rel = ev.present_time - st.abs_start;
                const double truth =
                    touch_value(seg.touch->interpolate(rel));
                touch_error_.add(std::abs(rec.content_value - truth));
            }
        }
    } else {
        const bool due = content_due(ev.present_time);
        log.due = due;
        if (due) {
            log.drop = true;
            ++drops_;
        }
    }

    refreshes_.push_back(log);
}

double
FrameStats::fdps() const
{
    const Time active = producer_.scenario().active_duration();
    if (active <= 0)
        return 0.0;
    return double(drops_) / to_seconds(active);
}

double
FrameStats::fps() const
{
    const Time active = producer_.scenario().active_duration();
    if (active <= 0)
        return 0.0;
    return double(presents()) / to_seconds(active);
}

double
FrameStats::frame_drop_percent() const
{
    const std::int64_t due = frames_due();
    if (due <= 0)
        return 0.0;
    return 100.0 * double(drops_) / double(due);
}

void
FrameStats::reserve_for(Time horizon, double max_hz)
{
    // One refresh per edge from t = 0 through the horizon.
    const auto n = std::size_t(std::ceil(to_seconds(horizon) * max_hz)) + 1;
    refreshes_.reserve(n);
    shown_.reserve(n);
    latency_.reserve(n);
}

StatSet
FrameStats::summary() const
{
    StatSet s;
    s.set("frames_due", double(frames_due()));
    s.set("frames_presented", double(presents()));
    s.set("frame_drops", double(drops_));
    s.set("fdps", fdps());
    s.set("fps", fps());
    s.set("frame_drop_percent", frame_drop_percent());
    s.set("direct_composition", double(direct_));
    s.set("buffer_stuffing", double(stuffed_));
    s.set("latency_mean_ms", to_ms(Time(latency_.mean())));
    s.set("latency_p95_ms",
          latency_.count() > 0 ? to_ms(Time(latency_.percentile(95)))
                               : 0.0);
    s.set("latency_max_ms", to_ms(Time(latency_.max())));
    if (touch_error_.count() > 0) {
        s.set("touch_error_mean_px", touch_error_.mean());
        s.set("touch_error_max_px", touch_error_.max());
    }
    return s;
}

} // namespace dvs
