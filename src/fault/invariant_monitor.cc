#include "fault/invariant_monitor.h"

#include <algorithm>

#include "sim/logging.h"

namespace dvs {

void
InvariantMonitor::attach(Producer &producer, Panel &panel, int max_depth)
{
    max_depth_ = max_depth;
    presented_.assign(producer.records_reserved(), false);
    producer.add_queued_listener(
        [this](const FrameRecord &rec) { on_queued(rec); });
    panel.add_present_listener(
        [this](const PresentEvent &ev) { on_present(ev); });
}

void
InvariantMonitor::watch_latches(int surface_id, Panel &panel)
{
    if (surface_id < 0)
        panic("watch_latches with negative surface id %d", surface_id);
    if (int(last_latch_edge_.size()) <= surface_id)
        last_latch_edge_.resize(std::size_t(surface_id) + 1, -1);
    panel.add_present_listener([this, surface_id](const PresentEvent &ev) {
        on_surface_latch(surface_id, ev);
    });
}

void
InvariantMonitor::on_surface_latch(int surface_id, const PresentEvent &ev)
{
    if (ev.repeat)
        return;
    std::int64_t &last = last_latch_edge_[std::size_t(surface_id)];
    if (last >= 0 && std::int64_t(ev.vsync_index) <= last) {
        record(ev.present_time, "surface-double-latch",
               "surface " + std::to_string(surface_id) +
                   " latched twice at edge " +
                   std::to_string(ev.vsync_index));
    }
    last = std::int64_t(ev.vsync_index);
}

void
InvariantMonitor::on_budget(Time now, double used_mb, double budget_mb)
{
    // Tiny epsilon: the budget check compares sums of per-surface costs
    // that were individually admitted against the same budget.
    if (used_mb > budget_mb + 1e-9) {
        record(now, "arbiter-over-budget",
               std::to_string(used_mb) + " MB in use > budget " +
                   std::to_string(budget_mb) + " MB");
    }
}

void
InvariantMonitor::record(Time t, const char *invariant, std::string detail)
{
    ++violation_count_;
    violation_times_.push_back(t);
    if (int(log_.size()) < kMaxLogged)
        log_.push_back({t, invariant, std::move(detail)});
}

std::uint64_t
InvariantMonitor::violations_since(Time since) const
{
    std::uint64_t n = 0;
    for (auto it = violation_times_.rbegin();
         it != violation_times_.rend() && *it >= since; ++it) {
        ++n;
    }
    return n;
}

void
InvariantMonitor::on_queued(const FrameRecord &rec)
{
    ++queued_seen_;

    // Pre-render depth: accumulated pre-rendered buffers stay within
    // the configured limit (+1 for the frame already in flight when the
    // FPE checked the limit).
    if (rec.pre_rendered) {
        ++prerendered_queued_;
        if (max_depth_ > 0 && prerendered_queued_ > max_depth_) {
            record(rec.queue_time, "prerender-depth",
                   std::to_string(prerendered_queued_) +
                       " pre-rendered buffers > limit " +
                       std::to_string(max_depth_));
        }
    }

    // DTV must never virtualize a display time into the past: the
    // D-Timestamp of a pre-rendered frame is a *future* present slot at
    // the moment the frame is triggered.
    if (rec.pre_rendered && rec.content_timestamp != kTimeNone &&
        rec.content_timestamp < rec.trigger_time) {
        record(rec.queue_time, "dtv-past",
               "frame " + std::to_string(rec.frame_id) + " d-timestamp " +
                   std::to_string(rec.content_timestamp) +
                   " < trigger " + std::to_string(rec.trigger_time));
    }
}

void
InvariantMonitor::on_present(const PresentEvent &ev)
{
    // Present timestamps march forward: the panel never scans out two
    // refreshes against the arrow of time, faults or not.
    if (last_present_time_ != kTimeNone &&
        ev.present_time < last_present_time_) {
        record(ev.present_time, "monotonic-present",
               "present " + std::to_string(ev.present_time) +
                   " after " + std::to_string(last_present_time_));
    }
    last_present_time_ = ev.present_time;

    if (!ev.repeat) {
        ++presents_seen_;
        if (ev.meta.pre_rendered && prerendered_queued_ > 0)
            --prerendered_queued_;
        const std::int64_t id = std::int64_t(ev.meta.frame_id);
        if (id >= 0) {
            if (std::size_t(id) >= presented_.size())
                presented_.resize(
                    std::max(std::size_t(id) + 1, 2 * presented_.size()),
                    false);
            if (presented_[std::size_t(id)]) {
                record(ev.present_time, "double-present",
                       "frame " + std::to_string(id) +
                           " latched twice");
            }
            presented_[std::size_t(id)] = true;
            // FIFO: the buffer queue never reorders, so presented frame
            // ids are strictly increasing.
            if (id <= last_presented_frame_) {
                record(ev.present_time, "fifo-order",
                       "frame " + std::to_string(id) + " after frame " +
                           std::to_string(last_presented_frame_));
            }
            last_presented_frame_ =
                std::max(last_presented_frame_, id);
        }
        // Conservation, checked live: the screen cannot present more
        // frames than the producer has queued.
        if (presents_seen_ > queued_seen_) {
            record(ev.present_time, "frame-conservation",
                   std::to_string(presents_seen_) + " presents > " +
                       std::to_string(queued_seen_) + " queued");
        }
    }

}

void
InvariantMonitor::finalize(Time now)
{
    if (finalized_)
        return;
    finalized_ = true;
    if (presents_seen_ > queued_seen_) {
        record(now, "frame-conservation",
               "run end: " + std::to_string(presents_seen_) +
                   " presents > " + std::to_string(queued_seen_) +
                   " queued");
    }
}

} // namespace dvs
