/**
 * @file
 * Observatory: streaming SLO monitors, anomaly scoring, and tail-based
 * auto-capture for fleet campaigns.
 *
 * A megafleet sweep reduces a million sessions to per-cohort means and
 * percentile surfaces (CampaignAggregator) — which answers "how is the
 * fleet doing?" but not "*which* sessions were pathological, and can I
 * hold one in my hand?". The Observatory is the second sink on the same
 * report stream, and closes that gap in three layers:
 *
 *  1. **SLO monitors.** A fixed list of thresholds over RunReport
 *     fields (drop rate, p99 latency, stutters, invariant violations,
 *     energy per presented frame). Each session is checked against every
 *     SLO and per-(cohort, SLO) violation counters accumulate, keyed by
 *     the report label; a burn rate is just violations/sessions, derived
 *     at read time.
 *
 *  2. **Anomaly scoring + bounded top-K.** Every completed session gets
 *     a pure score of its RunReport: the weighted sum of its relative
 *     excess over the baseline expectations, plus a large
 *     fixed penalty per invariant violation. Scores are kept in
 *     fixed-point millis and ranked with a total order — (score desc,
 *     session index asc) — in a bounded sorted list of at most kTopK
 *     verdicts, so the retained state is O(K), not O(sessions).
 *
 *  3. **Tail auto-capture.** Because a fleet session is a pure function
 *     of (campaign seed, index) via DevicePopulation, the final top-K
 *     offenders can be re-simulated after the campaign and snapshotted
 *     through SessionRecorder into an `observatory/` specimen directory
 *     (one verified-bit-exact .dvst per offender plus a manifest), ready
 *     for `trace_campaign` replay and bisection.
 *
 * Determinism contract (the same bar as CampaignAggregator, DESIGN.md
 * §5j): all monitor state is integral and the top-K ranking is a total
 * order, so the state does not depend on the order sessions are
 * observed in. Running a campaign at any --jobs therefore yields
 * byte-identical summary() and to_json() output; CI enforces this by
 * byte-comparing megafleet_campaign at --jobs=1 and --jobs=4.
 *
 * (Like DevicePopulation, the sources live where they belong
 * conceptually — src/obs/ — but compile into the harness library: the
 * observatory consumes RunReports and re-simulates sessions, which sit
 * above dvs_obs in the layer stack.)
 */

#ifndef DVS_OBS_OBSERVATORY_H
#define DVS_OBS_OBSERVATORY_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment_runner.h"
#include "harness/report_sink.h"
#include "metrics/run_report.h"
#include "obs/drop_cause.h"

namespace dvs {

/** RunReport field an SLO thresholds on. */
enum class SloMetric : int {
    kDropRatePercent = 0, ///< 100 * drops / frames_due
    kLatencyP99Ms,        ///< rendering latency p99 (ms)
    kStutters,            ///< perceived stutter events
    kInvariantViolations, ///< InvariantMonitor total
    kEnergyPerFrameMj,    ///< energy_mj / presents
};

/** The metric value of one finished session (0 on empty denominators). */
double slo_metric_value(const RunReport &report, SloMetric metric);

/** One service-level objective: violated when value > threshold. */
struct SloSpec {
    const char *name; ///< stable tag used in summaries and to_json()
    SloMetric metric;
    double threshold;
};

/**
 * The fleet SLOs, calibrated so a healthy paper-fleet cohort burns a
 * few percent (tail sessions, not the steady state): drop rate over 10%
 * of due, p99 latency over 100 ms, more than 3 stutters, any invariant
 * violation, over 60 mJ per presented frame.
 */
inline constexpr std::array<SloSpec, 5> kSlos{{
    {"drop-rate", SloMetric::kDropRatePercent, 10.0},
    {"p99-latency", SloMetric::kLatencyP99Ms, 100.0},
    {"stutters", SloMetric::kStutters, 3.0},
    {"invariants", SloMetric::kInvariantViolations, 0.0},
    {"energy/frame", SloMetric::kEnergyPerFrameMj, 60.0},
}};

/** Expected session shape the anomaly score measures against. */
struct CohortBaseline {
    double drop_rate_percent;
    double latency_p99_ms;
    double stutters;
    double energy_per_frame_mj;
};
inline constexpr CohortBaseline kBaseline{2.0, 30.0, 1.0, 45.0};

/** Weights of the anomaly-score terms. */
struct ScoreWeights {
    double drop;
    double latency;
    double stutter;
    double energy;
    /** Flat penalty per invariant violation (dominates every rate term). */
    double violation;
};
inline constexpr ScoreWeights kWeights{1.0, 1.0, 1.0, 0.5, 1000.0};

/** Depth of the offender ranking. */
inline constexpr int kTopK = 8;

/**
 * Pure anomaly score of one session in fixed-point millis: the weighted
 * sum of each metric's relative excess over kBaseline, plus the
 * violation penalty. >= 0; a pure function of the report, so a
 * re-simulated session scores exactly as it did in the campaign.
 */
std::int64_t anomaly_score_milli(const RunReport &report);

/**
 * The retained record of one scored session — everything the manifest
 * and the summary need, in integral fields only (fixed-point micros for
 * the latency/energy figures).
 */
struct SessionVerdict {
    std::uint64_t session = 0;    ///< campaign session index
    std::int64_t score_milli = 0; ///< anomaly_score_milli()
    std::uint32_t violated = 0;   ///< bitmask over kSlos
    std::string label;            ///< the report label, also its cohort
    std::uint64_t drops = 0;
    std::int64_t frames_due = 0;
    std::uint64_t presents = 0;
    std::uint64_t stutters = 0;
    std::uint64_t invariant_violations = 0;
    std::int64_t latency_p99_us = 0; ///< llround(latency_p99_ms * 1e3)
    std::int64_t energy_uj = 0;      ///< llround(energy_mj * 1e3)
    std::array<std::uint64_t, kDropCauseCount> drop_causes{};

    /** Ranking order: score desc, then session asc (total, stable). */
    bool ranks_before(const SessionVerdict &other) const
    {
        if (score_milli != other.score_milli)
            return score_milli > other.score_milli;
        return session < other.session;
    }

    friend bool operator==(const SessionVerdict &,
                           const SessionVerdict &) = default;
};

/**
 * A ReportSink that monitors SLOs, scores every session, and retains
 * the bounded top-K — the streaming observability side of a campaign.
 * See the file comment for the determinism contract.
 */
class Observatory final : public ReportSink
{
  public:
    /** Schema version written by to_json(). */
    static constexpr int kSchema = 1;

    /** Sink entry: observe the report as session @p index, and count it
     *  in to_json()'s `resume_pos` (reports consumed through the sink). */
    void consume(std::size_t index, RunReport &&report) override;

    /** Score/monitor one session without counting it as consumed. */
    void observe(std::uint64_t session, const RunReport &report);

    // ----- queries ------------------------------------------------------

    std::uint64_t sessions() const { return sessions_; }
    std::uint64_t errors() const { return errors_; }

    /** Total violations of SLO @p slo across cohorts. */
    std::uint64_t violations(std::size_t slo) const;

    /** Final ranked top-K verdicts (best first). */
    const std::vector<SessionVerdict> &top() const { return top_; }

    /** Per-(cohort, SLO) integer monitor state, in cohort key order;
     *  a session's cohort is its report label. */
    struct CohortMonitor {
        std::uint64_t sessions = 0;
        std::uint64_t errors = 0;
        std::array<std::uint64_t, kSlos.size()> violations{};
    };
    const std::map<std::string, CohortMonitor> &cohorts() const
    {
        return cohorts_;
    }

    // ----- serialization ------------------------------------------------

    /**
     * Deterministic human-readable roll-up: SLO burn-rate totals, the
     * per-cohort burn-rate table, and the ranked top offenders.
     */
    std::string summary() const;

    /** Versioned JSON dump of the full integer state. */
    std::string to_json() const;

  private:
    void rank_insert(SessionVerdict &&v);

    std::map<std::string, CohortMonitor> cohorts_;
    std::vector<SessionVerdict> top_; ///< ranked, size <= kTopK
    std::uint64_t sessions_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t resume_pos_ = 0; ///< reports consumed through the sink
};

/**
 * Tail auto-capture: re-simulate every top-K offender of @p obs (each a
 * pure function of its index via @p materialize), cross-check the rerun
 * against the verdict, capture it through SessionRecorder, verify the
 * saved .dvst replays bit-exactly, and write
 * `@p dir/specimen-<rank>-session-<index>.dvst` plus
 * `@p dir/manifest.json` (score, violated SLOs, per-cause drop counts,
 * dispatch hash per specimen). The directory is created if absent.
 *
 * Call it on the finished campaign's state. @return false with *error
 * set on a re-simulation divergence, a replay mismatch, or I/O failure.
 */
bool capture_specimens(const Observatory &obs,
                       const std::function<Experiment(std::uint64_t)>
                           &materialize,
                       const std::string &dir, std::string *error = nullptr);

} // namespace dvs

#endif // DVS_OBS_OBSERVATORY_H
