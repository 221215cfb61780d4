#include "metrics/run_report.h"

#include <algorithm>
#include <charconv>
#include <type_traits>

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
        avg.pipeline_busy_s += r.pipeline_busy_s;
        avg.frames_produced += r.frames_produced;
        avg.predicted_frames += r.predicted_frames;
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
    avg.pipeline_busy_s /= n;
    avg.peak_temp_c /= n;
    avg.final_temp_c /= n;
    avg.gpu_energy_mj /= n;
    return avg;
}

namespace {

// debug_string() formatting. Each overload writes what its printf
// conversion did: %s (a string ends at its first NUL), %d/%lld/%llu, and
// %.17g, which std::to_chars in general format at precision 17 is
// specified to match, nan/inf spellings included.

void
put(std::string &out, const char *s)
{
    out += s;
}

void
put(std::string &out, const std::string &s)
{
    out += s.c_str();
}

void
put(std::string &out, double v)
{
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

template <typename T>
    requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
void
put(std::string &out, T v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

template <typename... Args>
void
append(std::string &out, const Args &...args)
{
    (put(out, args), ...);
}

void
append_causes(std::string &out,
              const std::array<std::uint64_t, kDropCauseCount> &causes,
              std::uint64_t injected)
{
    // Legacy causes print unconditionally; causes added later
    // (thermal/governor) only when nonzero, so runs that cannot produce
    // them stay byte-identical to pre-existing goldens.
    out += " causes=[";
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (c >= kDropCauseLegacyCount && causes[c] == 0)
            continue;
        append(out, c ? " " : "", to_string(DropCause(c)), "=", causes[c]);
    }
    append(out, "] injected_drops=", injected);
}

} // namespace

std::string
RunReport::debug_string() const
{
    // %.17g round-trips doubles exactly, so equal strings <=> equal
    // reports bit for bit.
    std::string out;
    append(out, "label=", label, " scenario=", scenario,
           " mode=", config.mode, " device=", config.device,
           " hz=", config.refresh_hz, " buffers=", config.buffers,
           " limit=", config.prerender_limit, " seed=", config.seed,
           " fdps=", fdps, " fd%=", fd_percent, " fps=", fps,
           " drops=", drops, " due=", frames_due, " presents=", presents,
           " direct=", direct, " stuffed=", stuffed);
    append(out, " lat(ms)=[", latency_mean_ms, " ", latency_p50_ms, " ",
           latency_p95_ms, " ", latency_p99_ms, " ", latency_max_ms,
           "] stutters=", stutters, " deadline_misses=", deadline_misses,
           " wall=", activity.wall_time, " busy=", activity.pipeline_busy,
           " produced=", activity.frames_produced,
           " predicted=", activity.predicted_frames,
           " dvsync=", int(activity.dvsync_on), " energy_mj=", energy_mj,
           " repeats=", repeats);
    append(out, " violations=", invariant_violations,
           " faults=", faults_injected, " degradations=", degradations,
           " repromotions=", repromotions, " resyncs=", dtv_resyncs,
           " error=");
    if (error.empty())
        out += "-";
    else
        put(out, error);
    append_causes(out, drop_causes, drops_injected);
    if (thermal_on)
        append(out, " thermal=[peak_c=", peak_temp_c,
               " final_c=", final_temp_c, " trips=", thermal_trips,
               " dvfs_end=", dvfs_level_end, " gpu_mj=", gpu_energy_mj,
               "] governor=[demotions=", governor_demotions,
               " promotions=", governor_promotions,
               " rung_end=", governor_rung_end, "]");
    if (!surfaces.empty()) {
        append(out, " budget_mb=", budget_mb, " used_mb=", budget_used_mb,
               " rearb=", rearbitrations);
        for (const SurfaceReport &s : surfaces) {
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
    for (const std::string &t : timeline) {
        out += "\n  ";
        out += t;
    }
    return out;
}

} // namespace dvs
