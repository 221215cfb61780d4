#include "core/dvsync_runtime.h"

#include <algorithm>
#include <cmath>

#include "core/frame_pre_executor.h"
#include "fault/invariant_monitor.h"
#include "metrics/power_model.h"
#include "sim/logging.h"

namespace dvs {

namespace {

using Reason = Transition::Reason;

// Thresholds of the watchdog's graceful-degradation policy (see
// attach_watchdog). Times are in refresh periods where a period is
// involved, so the policy survives LTPO rate switches.

/** Degrade when this many invariant violations land within the window. */
constexpr std::uint64_t kPressureThreshold = 3;
constexpr Time kPressureWindow = 50'000'000; // 50 ms

/**
 * Degrade when the gap between consecutive present-fence events exceeds
 * this many periods (the display stalled: screen off, HW vsync lost, or
 * the pipeline wedged).
 */
constexpr double kStallPeriods = 8.0;

/**
 * Degrade when kDesyncStreak consecutive pre-rendered frames present
 * more than kDesyncPeriods away from their D-Timestamp (DTV's promise
 * chain lost the real timeline).
 */
constexpr double kDesyncPeriods = 4.0;
constexpr int kDesyncStreak = 5;

/**
 * Re-promote to D-VSync after this many consecutive stable presents (no
 * stall-sized gap, no new invariant violations).
 */
constexpr int kStablePresents = 32;

/**
 * Exponential re-promotion backoff: a degradation landing within this
 * window of the previous one doubles the stable-streak requirement (up
 * to kBackoffCap ×), so a marginal pipeline cannot ping-pong
 * degrade/re-promote forever. A degradation outside the window resets
 * the multiplier to 1.
 */
constexpr Time kBackoffWindow = 2'000'000'000; // 2 s
constexpr int kBackoffCap = 8;

} // namespace

DvsyncRuntime::DvsyncRuntime(const DvsyncConfig &config)
    : config_(config.normalized())
{
}

void
DvsyncRuntime::bind(Producer &producer, DisplayTimeVirtualizer &dtv,
                    FramePreExecutor &fpe, BufferQueue &queue)
{
    producer_ = &producer;
    dtv_ = &dtv;
    fpe_ = &fpe;
    queue_ = &queue;

    // Interactive frames sample input through the IPL when a predictor
    // is registered; otherwise they render the latest known input, just
    // like the conventional framework.
    producer.set_content_sampler([this](const SampleContext &ctx) {
        const Segment &seg = *ctx.segment;
        if (seg.touch && enabled_ && ipl_.has(seg.label)) {
            return ipl_.predict(seg.label, *seg.touch, ctx.now_rel,
                                ctx.content_rel);
        }
        if (seg.touch) {
            const TouchEvent *ev = seg.touch->latest_at(ctx.now_rel);
            if (ev)
                return touch_value(*ev);
        }
        return 0.0;
    });

    // Predictor fitting costs UI-thread time (§6.5: ZDP's 151.6 µs).
    producer.set_extra_ui_cost(
        [this](const Segment &seg, const FrameRecord &) -> Time {
            if (seg.kind == SegmentKind::kInteraction && enabled_ &&
                ipl_.has(seg.label)) {
                return kPredictorOverhead;
            }
            return 0;
        });
}

bool
DvsyncRuntime::can_decouple(const Segment &seg) const
{
    if (!enabled_)
        return false;
    switch (seg.kind) {
      case SegmentKind::kAnimation:
        return true; // deterministic: oblivious channel
      case SegmentKind::kInteraction:
        return ipl_.has(seg.label); // aware channel via IPL
      case SegmentKind::kRealtime:
      case SegmentKind::kIdle:
        return false;
    }
    return false;
}

void
DvsyncRuntime::register_predictor(const std::string &label,
                                  std::shared_ptr<const InputPredictor> p)
{
    ipl_.register_predictor(label, std::move(p));
}

void
DvsyncRuntime::set_prerender_limit(int limit)
{
    if (!fpe_ || !queue_)
        fatal("set_prerender_limit before bind()");
    fpe_->set_prerender_limit(limit);
    queue_->set_capacity(limit + 2);
    config_.prerender_limit = limit;
}

int
DvsyncRuntime::prerender_limit() const
{
    return fpe_ ? fpe_->prerender_limit() : config_.prerender_limit;
}

void
DvsyncRuntime::attach_watchdog(Panel &panel, const InvariantMonitor *monitor)
{
    if (!dtv_)
        fatal("attach_watchdog before bind()");
    if (watchdog_armed_)
        fatal("attach_watchdog called twice");
    watchdog_armed_ = true;
    monitor_ = monitor;
    // Registered after the DTV's and the monitor's present listeners, so
    // a present's own violations are already recorded when the pressure
    // check runs.
    panel.add_present_listener(
        [this](const PresentEvent &ev) { on_watchdog_present(ev); });
}

void
DvsyncRuntime::on_watchdog_present(const PresentEvent &ev)
{
    const double period = double(dtv_->period());
    const Time prev = wd_last_present_;
    wd_last_present_ = ev.present_time;
    const bool stalled =
        prev != kTimeNone &&
        double(ev.present_time - prev) > kStallPeriods * period;

    if (!degraded_) {
        // The off-promise streak: consecutive pre-rendered frames shown
        // far from the display time DTV promised them.
        if (!ev.repeat) {
            const bool off_promise =
                ev.meta.pre_rendered &&
                ev.meta.content_timestamp != kTimeNone &&
                std::abs(double(ev.present_time -
                                ev.meta.content_timestamp)) >
                    kDesyncPeriods * period;
            desync_streak_ = off_promise ? desync_streak_ + 1 : 0;
        }
        const std::uint64_t recent =
            monitor_ ? monitor_->violations_since(ev.present_time -
                                                  kPressureWindow)
                     : 0;
        if (recent >= kPressureThreshold)
            degrade(ev.present_time, Reason::kInvariantPressure,
                    std::int64_t(recent));
        else if (stalled)
            degrade(ev.present_time, Reason::kDisplayStall,
                    ev.present_time - prev);
        else if (desync_streak_ >= kDesyncStreak)
            degrade(ev.present_time, Reason::kDtvDesync, desync_streak_);
        return;
    }

    // Degraded: wait for the pipeline to prove itself stable again.
    bool stable = !stalled;
    const std::uint64_t seen = monitor_ ? monitor_->violations() : 0;
    if (seen != streak_violation_base_) {
        streak_violation_base_ = seen;
        stable = false;
    }
    stable_streak_ = stable ? stable_streak_ + 1 : 0;
    if (stable_streak_ >= wd_required_streak_)
        repromote(ev.present_time);
}

void
DvsyncRuntime::force_degrade(Time now, const std::string &detail)
{
    if (!degraded_)
        degrade(now, Reason::kForced, 0, detail);
}

void
DvsyncRuntime::degrade(Time now, Reason reason, std::int64_t count,
                       const std::string &detail)
{
    degraded_ = true;
    ++degradations_;
    enabled_ = false; // FPE falls back to conventional VSync pacing
    // Exponential re-promotion backoff: a degradation soon after the
    // last one means the previous re-promotion was premature — the next
    // stable streak must be twice as long (capped). A degradation after
    // a long healthy stretch starts fresh.
    if (wd_last_degrade_ != kTimeNone &&
        now - wd_last_degrade_ <= kBackoffWindow) {
        wd_backoff_mult_ = std::min(wd_backoff_mult_ * 2, kBackoffCap);
    } else {
        wd_backoff_mult_ = 1;
    }
    wd_last_degrade_ = now;
    wd_required_streak_ = kStablePresents * wd_backoff_mult_;
    // The promise chain refers to a timeline segment that no longer
    // matches reality; drop it so re-promotion re-anchors cleanly.
    dtv_->resync();
    desync_streak_ = 0;
    stable_streak_ = 0;
    streak_violation_base_ = monitor_ ? monitor_->violations() : 0;
    record_transition(now, reason, count, detail);
}

void
DvsyncRuntime::repromote(Time now)
{
    degraded_ = false;
    ++repromotions_;
    enabled_ = true;
    stable_streak_ = 0;
    record_transition(now, Reason::kNone, 0, {});
}

void
DvsyncRuntime::record_transition(Time now, Reason reason,
                                 std::int64_t count,
                                 const std::string &detail)
{
    if (int(transitions_.size()) >= kMaxTransitions)
        return;
    Transition &t = transitions_.emplace_back();
    t.at = now;
    t.from = degraded_ ? Transition::kDvsync : Transition::kVsync;
    t.to = degraded_ ? Transition::kVsync : Transition::kDvsync;
    t.reason = reason;
    t.count = count;
    t.detail = detail;
    t.backoff = wd_backoff_mult_;
    t.required_streak = wd_required_streak_;
}

Time
DvsyncRuntime::query_display_time() const
{
    if (!dtv_ || !producer_)
        fatal("query_display_time before bind()");
    const int ahead = queue_->queued_count() + producer_->in_flight();
    return dtv_->peek_next(ahead);
}

} // namespace dvs
