#include "trace/transforms.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/logging.h"

namespace dvs {

namespace {

/**
 * A transform output is a new scenario: record what was done and revoke
 * the bit-exact contract.
 */
void
mark_derived(SessionCapture &cap, const std::string &what)
{
    cap.lineage.push_back(what);
    cap.verbatim = false;
    cap.source_dispatch_hash = 0;
    cap.source_report_fnv = 0;
}

Time
scale_time(Time t, double factor)
{
    return Time(std::llround(double(t) * factor));
}

/** Apply @p fn to the scenario of every surface of the capture. */
template <typename Fn>
void
for_each_scenario(SessionCapture &cap, Fn fn)
{
    for (SurfaceCapture &s : cap.surfaces)
        fn(s.scenario);
}

/** Rebuild the capture's fault plan from transformed windows. */
void
rewrite_faults(SessionCapture &cap,
               std::vector<FaultWindow> (*fn)(const FaultPlan &, double),
               double arg)
{
    const std::shared_ptr<const FaultPlan> &plan = cap.config.faults;
    if (!plan)
        return;
    cap.config.faults =
        std::make_shared<const FaultPlan>(FaultPlan::from_windows(
            plan->seed(), plan->mix_name(), fn(*plan, arg)));
}

std::string
fmt(const char *pattern, double a, double b = 0.0)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), pattern, a, b);
    return buf;
}

} // namespace

SessionCapture
time_warp(SessionCapture cap, double factor)
{
    if (!(factor > 0.0))
        fatal("time_warp factor must be > 0, got %g", factor);
    for_each_scenario(cap, [&](ScenarioCapture &sc) {
        for (SegmentCapture &seg : sc.segments) {
            seg.duration = scale_time(seg.duration, factor);
            for (TouchEvent &ev : seg.touch)
                ev.timestamp = scale_time(ev.timestamp, factor);
        }
    });
    for (SurfaceCapture &s : cap.surfaces)
        s.start_at = scale_time(s.start_at, factor);
    rewrite_faults(
        cap,
        [](const FaultPlan &plan, double f) {
            std::vector<FaultWindow> windows = plan.windows();
            for (FaultWindow &w : windows) {
                w.start = scale_time(w.start, f);
                w.end = scale_time(w.end, f);
            }
            return windows;
        },
        factor);
    mark_derived(cap, fmt("time-warp x%g", factor));
    return cap;
}

SessionCapture
amplify_heavy_frames(SessionCapture cap, Time threshold, double factor)
{
    if (!(factor > 0.0))
        fatal("amplify factor must be > 0, got %g", factor);
    for_each_scenario(cap, [&](ScenarioCapture &sc) {
        for (SegmentCapture &seg : sc.segments) {
            for (FrameCost &fc : seg.costs.frames) {
                if (fc.total() <= threshold)
                    continue;
                fc.ui_time = scale_time(fc.ui_time, factor);
                fc.render_time = scale_time(fc.render_time, factor);
                fc.gpu_time = scale_time(fc.gpu_time, factor);
            }
        }
    });
    mark_derived(cap, fmt("amplify-heavy >%gms x%g",
                          double(threshold) / 1e6, factor));
    return cap;
}

SessionCapture
splice_input_burst(SessionCapture cap, Time at, Time duration,
                   Time spacing)
{
    if (spacing <= 0)
        fatal("splice_input_burst spacing must be > 0");
    for_each_scenario(cap, [&](ScenarioCapture &sc) {
        for (SegmentCapture &seg : sc.segments) {
            if (seg.kind != SegmentKind::kInteraction ||
                seg.touch.empty())
                continue;
            // Interpolate along the recorded gesture; only timestamps
            // inside the recorded span are eligible, so the segment's
            // derived duration (last - first event) is preserved.
            const TouchStream stream(seg.touch);
            const Time lo = std::max(at, stream.start_time());
            const Time hi =
                std::min(at + duration, stream.end_time());
            for (Time t = lo; t < hi; t += spacing) {
                TouchEvent ev = stream.interpolate(t);
                ev.timestamp = t;
                ev.phase = TouchPhase::kMove;
                seg.touch.push_back(ev);
            }
            std::stable_sort(seg.touch.begin(), seg.touch.end(),
                             [](const TouchEvent &a, const TouchEvent &b) {
                                 return a.timestamp < b.timestamp;
                             });
        }
    });
    mark_derived(cap, fmt("splice-input-burst @%gms for %gms",
                          double(at) / 1e6, double(duration) / 1e6));
    return cap;
}

SessionCapture
truncate_capture(SessionCapture cap, Time keep)
{
    if (keep <= 0)
        fatal("truncate_capture needs keep > 0");
    for_each_scenario(cap, [&](ScenarioCapture &sc) {
        std::vector<SegmentCapture> kept;
        Time cum = 0;
        for (SegmentCapture &seg : sc.segments) {
            if (cum >= keep)
                break;
            const Time rem = keep - cum;
            if (seg.duration <= rem) {
                cum += seg.duration;
                kept.push_back(std::move(seg));
                continue;
            }
            if (seg.kind == SegmentKind::kInteraction) {
                // Keep the touch prefix; the duration is derived from
                // it. A segment cut down to fewer than two samples has
                // no gesture left and is dropped whole.
                const Time start = seg.touch.front().timestamp;
                std::vector<TouchEvent> prefix;
                for (const TouchEvent &ev : seg.touch)
                    if (ev.timestamp - start <= rem)
                        prefix.push_back(ev);
                if (prefix.size() >= 2) {
                    seg.duration =
                        prefix.back().timestamp - prefix.front().timestamp;
                    seg.touch = std::move(prefix);
                    kept.push_back(std::move(seg));
                }
            } else {
                seg.duration = rem;
                kept.push_back(std::move(seg));
            }
            break;
        }
        sc.segments = std::move(kept);
    });
    rewrite_faults(
        cap,
        [](const FaultPlan &plan, double keep_ns) {
            const Time cut = Time(keep_ns);
            std::vector<FaultWindow> windows;
            for (FaultWindow w : plan.windows()) {
                if (w.start >= cut)
                    continue;
                w.end = std::min(w.end, cut);
                windows.push_back(w);
            }
            return windows;
        },
        double(keep));
    mark_derived(cap, fmt("truncate @%gms", double(keep) / 1e6));
    return cap;
}

SessionCapture
loop_capture(SessionCapture cap, int times)
{
    if (times < 1)
        fatal("loop_capture needs times >= 1, got %d", times);
    for_each_scenario(cap, [&](ScenarioCapture &sc) {
        const std::vector<SegmentCapture> once = sc.segments;
        for (int i = 1; i < times; ++i)
            sc.segments.insert(sc.segments.end(), once.begin(),
                               once.end());
    });
    mark_derived(cap, fmt("loop x%g", double(times)));
    return cap;
}

} // namespace dvs
