#include "metrics/run_report.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "sim/fnv.h"

namespace dvs {

RunReport
RunReport::averaged(const std::vector<RunReport> &runs)
{
    if (runs.empty())
        return {};
    RunReport avg = runs.front();
    for (std::size_t i = 1; i < runs.size(); ++i) {
        const RunReport &r = runs[i];
        avg.fdps += r.fdps;
        avg.fd_percent += r.fd_percent;
        avg.fps += r.fps;
        avg.drops += r.drops;
        avg.frames_due += r.frames_due;
        avg.presents += r.presents;
        avg.direct += r.direct;
        avg.stuffed += r.stuffed;
        avg.latency_mean_ms += r.latency_mean_ms;
        avg.latency_p50_ms += r.latency_p50_ms;
        avg.latency_p95_ms += r.latency_p95_ms;
        avg.latency_p99_ms += r.latency_p99_ms;
        avg.latency_max_ms += r.latency_max_ms;
        avg.stutters += r.stutters;
        avg.deadline_misses += r.deadline_misses;
        avg.activity.wall_time += r.activity.wall_time;
        avg.activity.pipeline_busy += r.activity.pipeline_busy;
        avg.activity.frames_produced += r.activity.frames_produced;
        avg.activity.predicted_frames += r.activity.predicted_frames;
        avg.energy_mj += r.energy_mj;
        avg.invariant_violations += r.invariant_violations;
        avg.faults_injected += r.faults_injected;
        avg.degradations += r.degradations;
        avg.repromotions += r.repromotions;
        avg.dtv_resyncs += r.dtv_resyncs;
        for (int c = 0; c < kDropCauseCount; ++c)
            avg.drop_causes[c] += r.drop_causes[c];
        avg.drops_injected += r.drops_injected;
        avg.rearbitrations += r.rearbitrations;
        avg.thermal_on = avg.thermal_on || r.thermal_on;
        avg.peak_temp_c += r.peak_temp_c;
        avg.final_temp_c += r.final_temp_c;
        avg.thermal_trips += r.thermal_trips;
        avg.dvfs_level_end = std::max(avg.dvfs_level_end, r.dvfs_level_end);
        avg.activity.gpu_mj += r.activity.gpu_mj;
        avg.gpu_energy_mj += r.gpu_energy_mj;
        avg.governor_demotions += r.governor_demotions;
        avg.governor_promotions += r.governor_promotions;
        avg.governor_rung_end =
            std::max(avg.governor_rung_end, r.governor_rung_end);
        // timeline, error, and the per-surface slices stay the front
        // run's: transition logs are per-run narratives, and surface
        // slices describe one session's allocation outcome.
        avg.repeats += r.repeats;
    }
    const double n = double(runs.size());
    avg.fdps /= n;
    avg.fd_percent /= n;
    avg.fps /= n;
    avg.latency_mean_ms /= n;
    avg.latency_p50_ms /= n;
    avg.latency_p95_ms /= n;
    avg.latency_p99_ms /= n;
    avg.latency_max_ms /= n;
    avg.energy_mj /= n;
    avg.peak_temp_c /= n;
    avg.final_temp_c /= n;
    avg.gpu_energy_mj /= n;
    return avg;
}

namespace {

// debug_string() formatting, templated over its sink: a std::string, or
// an Fnv1a that hashes the same bytes without building the string
// (fingerprint()). Each overload writes what its printf conversion did:
// %s (a string ends at its first NUL), %d/%lld/%llu, and %.17g, which
// std::to_chars in general format at precision 17 is specified to match,
// nan/inf spellings included.

template <class Sink>
void
put(Sink &out, const char *s)
{
    out.append(s, std::strlen(s));
}

template <class Sink>
void
put(Sink &out, const std::string &s)
{
    put(out, s.c_str());
}

template <class Sink>
void
put(Sink &out, double v)
{
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 17);
    out.append(buf, std::size_t(r.ptr - buf));
}

/** %.<precision>f, which std::to_chars in fixed format matches. */
struct Fixed {
    double v;
    int precision;
};

template <class Sink>
void
put(Sink &out, Fixed f)
{
    char buf[320]; // DBL_MAX has 309 integer digits
    const auto r = std::to_chars(buf, buf + sizeof buf, f.v,
                                 std::chars_format::fixed, f.precision);
    out.append(buf, std::size_t(r.ptr - buf));
}

template <class Sink, typename T>
    requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
void
put(Sink &out, T v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, std::size_t(r.ptr - buf));
}

template <class Sink, typename... Args>
void
append(Sink &out, const Args &...args)
{
    (put(out, args), ...);
}

template <class Sink>
void
append_causes(Sink &out,
              const std::array<std::uint64_t, kDropCauseCount> &causes,
              std::uint64_t injected)
{
    // Legacy causes print unconditionally; causes added later
    // (thermal/governor) only when nonzero, so runs that cannot produce
    // them stay byte-identical to pre-existing goldens.
    put(out, " causes=[");
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (c >= kDropCauseLegacyCount && causes[c] == 0)
            continue;
        append(out, c ? " " : "", to_string(DropCause(c)), "=", causes[c]);
    }
    append(out, "] injected_drops=", injected);
}

template <class Sink>
void
append_transition(Sink &out, const Transition &t)
{
    static constexpr const char *kRungs[] = {
        "nominal", "trim-prerender", "ltpo-cap", "dvfs-cap", "handoff"};
    // Per degrade reason: its name, and the unit of its count if it has one.
    static constexpr const char *kReasons[][2] = {
        {"?", nullptr},
        {"invariant-pressure", " recent violations"},
        {"display-stall", " ns since last present"},
        {"dtv-desync", " consecutive off-promise presents"},
        {"forced", nullptr}};
    append(out, "t=", t.at);
    const GovernorSensors &s = t.sensors;
    if (t.source == Transition::Source::kGovernor) {
        const bool rung = t.to >= 0 && t.to < int(std::size(kRungs));
        append(out, " governor ", t.to > t.from ? "demote " : "promote ",
               t.from, "->", t.to, " [temp=", Fixed{s.temp_c, 1},
               "C rate=", Fixed{s.rate_sensed ? s.rate_mw : 0.0, 0},
               "mW drops=+", Fixed{s.new_drops, 0}, " backoff=x", t.backoff,
               "] ", rung ? kRungs[t.to] : "?");
    } else if (t.to == Transition::kDvsync) {
        append(out, " repromote after ", t.required_streak,
               " stable presents -> D-VSync");
    } else {
        const auto [name, unit] = kReasons[std::size_t(t.reason)];
        append(out, " degrade [", name, "] ");
        if (unit)
            append(out, t.count, unit);
        if (t.reason == Transition::Reason::kForced)
            out.append(t.detail.data(), t.detail.size()); // NULs and all
        put(out, " -> VSync pacing, DTV resync");
        // Without backoff in force the line keeps its pre-backoff text.
        if (t.backoff > 1)
            append(out, " (backoff x", t.backoff, ": ", t.required_streak,
                   " stable presents to re-promote)");
    }
}

template <class Sink>
void
format(Sink &out, const RunReport &r)
{
    // %.17g round-trips doubles exactly, so equal strings <=> equal
    // reports bit for bit.
    append(out, "label=", r.label, " scenario=", r.scenario,
           " mode=", r.config.mode, " device=", r.config.device,
           " hz=", r.config.refresh_hz, " buffers=", r.config.buffers,
           " limit=", r.config.prerender_limit, " seed=", r.config.seed,
           " fdps=", r.fdps, " fd%=", r.fd_percent, " fps=", r.fps,
           " drops=", r.drops, " due=", r.frames_due,
           " presents=", r.presents, " direct=", r.direct,
           " stuffed=", r.stuffed);
    append(out, " lat(ms)=[", r.latency_mean_ms, " ", r.latency_p50_ms,
           " ", r.latency_p95_ms, " ", r.latency_p99_ms, " ",
           r.latency_max_ms, "] stutters=", r.stutters,
           " deadline_misses=", r.deadline_misses,
           " wall=", r.activity.wall_time,
           " busy=", r.activity.pipeline_busy,
           " produced=", r.activity.frames_produced,
           " predicted=", r.activity.predicted_frames,
           " dvsync=", int(r.activity.dvsync_on),
           " energy_mj=", r.energy_mj, " repeats=", r.repeats);
    append(out, " violations=", r.invariant_violations,
           " faults=", r.faults_injected, " degradations=", r.degradations,
           " repromotions=", r.repromotions, " resyncs=", r.dtv_resyncs,
           " error=");
    put(out, r.error.empty() ? "-" : r.error.c_str());
    append_causes(out, r.drop_causes, r.drops_injected);
    if (r.thermal_on)
        append(out, " thermal=[peak_c=", r.peak_temp_c,
               " final_c=", r.final_temp_c, " trips=", r.thermal_trips,
               " dvfs_end=", r.dvfs_level_end, " gpu_mj=", r.gpu_energy_mj,
               "] governor=[demotions=", r.governor_demotions,
               " promotions=", r.governor_promotions,
               " rung_end=", r.governor_rung_end, "]");
    if (!r.surfaces.empty()) {
        append(out, " budget_mb=", r.budget_mb, " used_mb=", r.budget_used_mb,
               " rearb=", r.rearbitrations);
        for (const SurfaceReport &s : r.surfaces) {
            append(out, "\n  surface=", s.name, " mode=", s.mode,
                   " buffers=", s.buffers, " extra=", s.extra_buffers,
                   " mb=", s.buffer_mb, " fdps=", s.fdps,
                   " fd%=", s.fd_percent, " drops=", s.drops,
                   " due=", s.frames_due, " presents=", s.presents,
                   " p95=", s.latency_p95_ms,
                   " violations=", s.invariant_violations,
                   " degradations=", s.degradations,
                   " repromotions=", s.repromotions);
            append_causes(out, s.drop_causes, s.drops_injected);
        }
    }
    // A composed run prefixes each line with its surface's whole name.
    for (const Transition &t : r.timeline) {
        put(out, "\n  ");
        if (!r.surfaces.empty()) {
            const std::string &name = r.surfaces.at(t.surface).name;
            put(out, "[");
            out.append(name.data(), name.size());
            put(out, "] ");
        }
        append_transition(out, t);
    }
}

} // namespace

std::string
RunReport::debug_string() const
{
    std::string out;
    format(out, *this);
    return out;
}

std::uint64_t
RunReport::fingerprint() const
{
    Fnv1a h;
    format(h, *this);
    return h.value();
}

} // namespace dvs
