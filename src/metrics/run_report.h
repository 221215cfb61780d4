/**
 * @file
 * RunReport: the unified result type of a simulated run.
 *
 * One value aggregating everything the evaluation cares about — frame
 * drops and FDPS, the Fig. 6 displayed-frame classification, rendering
 * latency percentiles, perceived stutters, compositor deadline misses,
 * power-model activity and energy, and the effective configuration the
 * run resolved to. Benches and the experiment harness consume this
 * instead of reaching into FrameStats / Panel / RunActivity piecemeal,
 * so a run's outcome can be stored, compared, and averaged as a plain
 * value.
 */

#ifndef DVS_METRICS_RUN_REPORT_H
#define DVS_METRICS_RUN_REPORT_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/power_model.h"
#include "obs/drop_cause.h"
#include "sim/time.h"

namespace dvs {

/** The configuration a run effectively executed with. */
struct ReportConfig {
    std::string mode;   ///< "VSync" / "D-VSync" / "SwapInterval"
    std::string device; ///< marketing name of the device preset
    double refresh_hz = 0.0;
    int buffers = 0;         ///< resolved queue capacity
    int prerender_limit = 0; ///< resolved limit (0 under VSync)
    std::uint64_t seed = 0;

    friend bool operator==(const ReportConfig &,
                           const ReportConfig &) = default;
};

/** The governor's sensor readings at one control tick. */
struct GovernorSensors {
    double temp_c = 0.0;
    double rate_mw = 0.0;     ///< GPU power since the previous tick
    double new_drops = 0.0;   ///< frame drops since the previous tick
    bool rate_sensed = false; ///< false without energy or elapsed time

    friend bool operator==(const GovernorSensors &,
                           const GovernorSensors &) = default;
};

/**
 * A watchdog fall-back or return, or a governor ladder move, held as
 * data: RunReport's formatter is the only place one becomes text.
 */
struct Transition {
    enum class Source : std::uint8_t { kWatchdog, kGovernor };
    /** Why the watchdog degraded; kNone on a re-promotion. */
    enum class Reason : std::uint8_t {
        kNone, kInvariantPressure, kDisplayStall, kDtvDesync, kForced };
    /** The watchdog's from/to: the pacing left and the pacing entered. */
    static constexpr int kVsync = 0, kDvsync = 1;

    Time at = 0;
    int surface = 0; ///< index into RunReport::surfaces
    Source source = Source::kWatchdog;
    int from = 0, to = 0; ///< governor: rungs; watchdog: kVsync/kDvsync
    Reason reason = Reason::kNone;
    /** Recent violations, ns since the last present, or the streak. */
    std::int64_t count = 0;
    std::string detail;      ///< kForced: the caller's text
    int backoff = 1;         ///< re-promotion backoff multiplier
    int required_streak = 0; ///< watchdog: stable presents to re-promote
    GovernorSensors sensors;

    friend bool operator==(const Transition &, const Transition &) = default;
};

/**
 * Per-surface slice of a multi-surface run (src/surface): the metrics of
 * one producer/queue/panel layer of a shared display, plus the buffer
 * allocation the memory arbiter resolved for it.
 */
struct SurfaceReport {
    std::string name;
    std::string mode;       ///< "D-VSync" / "VSync"
    int buffers = 0;        ///< queue capacity at run end
    int extra_buffers = 0;  ///< peak arbiter-granted extra buffers
    double buffer_mb = 0.0; ///< §6.4 memory cost of one extra buffer

    double fdps = 0.0;
    double fd_percent = 0.0;
    std::uint64_t drops = 0;
    std::int64_t frames_due = 0;
    std::uint64_t presents = 0;
    double latency_p95_ms = 0.0;

    std::uint64_t invariant_violations = 0;
    std::uint64_t degradations = 0;
    std::uint64_t repromotions = 0;

    /** Per-cause drop attribution (indexed by DropCause). */
    std::array<std::uint64_t, kDropCauseCount> drop_causes{};
    std::uint64_t drops_injected = 0; ///< drops inside a fault window

    friend bool operator==(const SurfaceReport &,
                           const SurfaceReport &) = default;
};

/** Complete, self-contained outcome of one (or several averaged) runs. */
struct RunReport {
    std::string label;    ///< free-form tag from the experiment point
    std::string scenario; ///< scenario name
    ReportConfig config;

    // ----- frame drops (§3.2) ------------------------------------------
    double fdps = 0.0;
    double fd_percent = 0.0;
    double fps = 0.0;
    std::uint64_t drops = 0;
    std::int64_t frames_due = 0;

    // ----- displayed-frame classification (Fig. 6) ----------------------
    std::uint64_t presents = 0;
    std::uint64_t direct = 0;
    std::uint64_t stuffed = 0;

    // ----- rendering latency (§6.3), milliseconds ------------------------
    double latency_mean_ms = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p95_ms = 0.0;
    double latency_p99_ms = 0.0;
    double latency_max_ms = 0.0;

    // ----- perception + pipeline health ---------------------------------
    std::uint64_t stutters = 0;
    std::uint64_t deadline_misses = 0; ///< compositor latch misses

    // ----- power model (§6.4) -------------------------------------------
    RunActivity activity;
    double energy_mj = 0.0;

    // ----- robustness (fault campaign + watchdog) -----------------------
    std::uint64_t invariant_violations = 0; ///< InvariantMonitor total
    std::uint64_t faults_injected = 0;      ///< fault activations (all kinds)
    std::uint64_t degradations = 0;  ///< watchdog D-VSync -> VSync fall-backs
    std::uint64_t repromotions = 0;  ///< watchdog VSync -> D-VSync returns
    std::uint64_t dtv_resyncs = 0;   ///< DTV promise-chain resets

    // ----- drop root-cause attribution (src/obs) ------------------------

    /**
     * Per-cause drop counts (indexed by DropCause); the classifier
     * guarantees they sum to `drops`, and the systems panic if not.
     */
    std::array<std::uint64_t, kDropCauseCount> drop_causes{};
    std::uint64_t drops_injected = 0; ///< drops overlapping a fault window

    // ----- multi-surface composition (src/surface) ----------------------

    /**
     * Per-surface slices of a multi-surface run, in surface order; empty
     * for single-surface runs (which keeps debug_string() byte-stable
     * for every existing bench golden).
     */
    std::vector<SurfaceReport> surfaces;
    double budget_mb = 0.0;      ///< extra-buffer memory budget (§6.4)
    double budget_used_mb = 0.0; ///< peak extras memory in use
    std::uint64_t rearbitrations = 0; ///< arbiter allocation passes

    // ----- thermal/DVFS plant + governor (closed loop) ------------------

    /**
     * Whether the thermal plant ran; all fields below stay zero (and
     * unprinted by debug_string) when it did not, keeping governor-off
     * runs byte-identical to their goldens.
     */
    bool thermal_on = false;
    double peak_temp_c = 0.0;   ///< peak die temperature over the run
    double final_temp_c = 0.0;  ///< die temperature at run end
    std::uint64_t thermal_trips = 0; ///< emergent clock step-downs
    int dvfs_level_end = 0;     ///< ladder index at run end
    double gpu_energy_mj = 0.0; ///< plant-accounted GPU dynamic energy
    std::uint64_t governor_demotions = 0;
    std::uint64_t governor_promotions = 0;
    int governor_rung_end = 0;  ///< ladder rung at run end

    /**
     * Watchdog and governor transitions by (surface, time, source), the
     * watchdog first on a tie; debug_string() prints a "t=<ns> ..." each.
     */
    std::vector<Transition> timeline;

    /**
     * Nonempty when the run failed instead of completing (e.g. the
     * configuration was rejected with a ConfigError); every metric above
     * is then zero/default. The harness records the error and moves on.
     */
    std::string error;

    /** Runs aggregated into this report (1 for a single run). */
    int repeats = 1;

    /**
     * Combine repeat runs of the same point: rates, percentages,
     * latencies, and energies are averaged; event counts are summed
     * (matching the paper's seed-averaging methodology). Identity on an
     * empty or single-element input.
     */
    static RunReport averaged(const std::vector<RunReport> &runs);

    /**
     * Full-precision textual dump of every field. Two reports are
     * byte-identical here iff they compare equal; the determinism tests
     * diff these strings.
     */
    std::string debug_string() const;

    /**
     * fnv1a(debug_string()) — the report fingerprint a .dvst capture
     * records — hashed as it is formatted, without building the string.
     */
    std::uint64_t fingerprint() const;

    friend bool operator==(const RunReport &, const RunReport &) = default;
};

} // namespace dvs

#endif // DVS_METRICS_RUN_REPORT_H
