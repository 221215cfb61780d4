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
 *  1. **SLO monitors.** A declarative list of thresholds over RunReport
 *     fields (drop rate, p99 latency, stutters, invariant violations,
 *     energy per presented frame). Each session is checked against every
 *     SLO and per-(cohort, SLO) violation counters accumulate; a burn
 *     rate is just violations/sessions, derived at read time.
 *
 *  2. **Anomaly scoring + bounded top-K.** Every completed session gets
 *     a pure score of (RunReport, cohort baseline): the weighted sum of
 *     its relative excess over the baseline expectations, plus a large
 *     fixed penalty per invariant violation. Scores are kept in
 *     fixed-point millis and ranked with a total order — (score desc,
 *     session index asc) — in a bounded sorted list of at most K
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
 * §5j): all monitor state is integral, merging is associative and
 * commutative over disjoint session sets, and the bounded top-K is
 * merge-stable because the global top-K is always a subset of the union
 * of per-shard top-Ks. Running a campaign at any --jobs, sharded
 * --shard K/N + --merge, or resumed from a checkpoint therefore yields
 * byte-identical summary() and to_json() output. CI enforces this by byte-comparing a merged 2-way-sharded
 * smoke against the unsharded run.
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

/** Stable short name ("drop-rate", "p99-latency", ...) for reports. */
const char *to_string(SloMetric m);

/** The metric value of one finished session (0 on empty denominators). */
double slo_metric_value(const RunReport &report, SloMetric metric);

/** One service-level objective: violated when value > threshold. */
struct SloSpec {
    std::string name; ///< stable tag used in summaries and checkpoints
    SloMetric metric = SloMetric::kDropRatePercent;
    double threshold = 0.0;
};

/**
 * The default fleet SLOs, calibrated so a healthy paper-fleet cohort
 * burns a few percent (tail sessions, not the steady state): drop rate
 * over 10% of due, p99 latency over 100 ms, more than 3 stutters, any
 * invariant violation, over 60 mJ per presented frame.
 */
std::vector<SloSpec> default_slos();

/** Expected per-cohort session shape the anomaly score measures against. */
struct CohortBaseline {
    double drop_rate_percent = 2.0;
    double latency_p99_ms = 30.0;
    double stutters = 1.0;
    double energy_per_frame_mj = 45.0;
};

/** Weights of the anomaly-score terms. */
struct ScoreWeights {
    double drop = 1.0;
    double latency = 1.0;
    double stutter = 1.0;
    double energy = 0.5;
    /** Flat penalty per invariant violation (dominates every rate term). */
    double violation = 1000.0;
};

/**
 * Pure anomaly score of one session in fixed-point millis: the weighted
 * sum of each metric's relative excess over the baseline, plus the
 * violation penalty. >= 0; identical inputs give identical scores on
 * every shard, which is what makes the top-K mergeable.
 */
std::int64_t anomaly_score_milli(const RunReport &report,
                                 const CohortBaseline &baseline,
                                 const ScoreWeights &weights);

/**
 * The retained record of one scored session — everything the manifest
 * and the summary need, in integral fields only (fixed-point micros for
 * the latency/energy figures) so shard composition stays byte-exact.
 */
struct SessionVerdict {
    std::uint64_t session = 0;    ///< global campaign session index
    std::int64_t score_milli = 0; ///< anomaly_score_milli()
    std::uint32_t violated = 0;   ///< bitmask over the config's SLOs
    std::string cohort;
    std::string label;
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
 * Observatory configuration. Checkpoints embed a fingerprint of this
 * (SLO list, weights, baselines, K); load() and merge() refuse state
 * produced under a different configuration — mixed-config merges would
 * silently compare incomparable scores.
 */
struct ObservatoryConfig {
    std::vector<SloSpec> slos = default_slos(); ///< at most 32 (bitmask)
    int top_k = 8;                              ///< >= 1
    ScoreWeights weights;
    CohortBaseline baseline; ///< default for cohorts without an override
    std::map<std::string, CohortBaseline> baselines; ///< per-cohort

    const CohortBaseline &baseline_for(const std::string &cohort) const;

    /** Canonical textual form (the fingerprint input). */
    std::string canonical() const;
};

/**
 * A ReportSink that monitors SLOs, scores every session, and retains
 * the bounded top-K — the streaming observability side of a campaign.
 * See the file comment for the merge/shard determinism contract.
 */
class Observatory final : public ReportSink
{
  public:
    /** Checkpoint schema version written by to_json()/save(). */
    static constexpr int kSchema = 1;

    using CohortFn = std::function<std::string(const RunReport &)>;

    /**
     * Maps a sink delivery index to the global campaign session index —
     * a sharded/resumed run passes `shard.global(done + i)` so verdicts
     * carry re-materializable indices. Null means identity.
     */
    using IndexFn = std::function<std::uint64_t(std::size_t)>;

    explicit Observatory(ObservatoryConfig config = {},
                         CohortFn cohort_of = nullptr,
                         IndexFn global_index = nullptr);

    /** Sink entry: observe and advance the resume watermark. */
    void consume(std::size_t index, RunReport &&report) override;

    /** Score/monitor one session without touching the watermark. */
    void observe(std::uint64_t session, const RunReport &report);

    /**
     * Fold @p other in: counters sum, top-Ks merge-rank-truncate.
     * Fatals on a configuration fingerprint mismatch. Merging N shard
     * checkpoints (any order, any grouping) yields the exact state of
     * the unsharded campaign.
     */
    void merge(const Observatory &other);

    // ----- queries ------------------------------------------------------

    const ObservatoryConfig &config() const { return config_; }
    std::uint64_t sessions() const { return sessions_; }
    std::uint64_t errors() const { return errors_; }

    /** Total violations of SLO @p slo across cohorts. */
    std::uint64_t violations(std::size_t slo) const;

    /** In-order delivery watermark (see CampaignAggregator). */
    std::uint64_t resume_pos() const { return resume_pos_; }

    /** Final ranked top-K verdicts (best first). */
    const std::vector<SessionVerdict> &top() const { return top_; }

    /** Per-(cohort, SLO) integer monitor state, in cohort key order. */
    struct CohortMonitor {
        std::uint64_t sessions = 0;
        std::uint64_t errors = 0;
        std::vector<std::uint64_t> violations; ///< one per config SLO
    };
    const std::map<std::string, CohortMonitor> &cohorts() const
    {
        return cohorts_;
    }

    // ----- serialization ------------------------------------------------

    /**
     * Deterministic human-readable roll-up: SLO burn-rate totals, the
     * per-cohort burn-rate table, and the ranked top offenders. Shard
     * composition is byte-stable: merged shards print exactly the
     * unsharded text.
     */
    std::string summary() const;

    /** Versioned JSON checkpoint of the full integer state. */
    std::string to_json() const;

    /** Write to_json() to @p path. @return false on I/O failure. */
    bool save(const std::string &path) const;

    /**
     * Replace this observatory's state with the checkpoint at @p path.
     * @return false (with *error set when non-null) on unreadable files,
     * malformed JSON, a schema mismatch, or a checkpoint written under a
     * different ObservatoryConfig.
     */
    bool load(const std::string &path, std::string *error = nullptr);

  private:
    void rank_insert(SessionVerdict &&v);

    ObservatoryConfig config_;
    std::uint64_t config_fnv_ = 0;
    CohortFn cohort_of_;
    IndexFn global_index_;
    std::map<std::string, CohortMonitor> cohorts_;
    std::vector<SessionVerdict> top_; ///< ranked, size <= top_k
    std::uint64_t sessions_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t resume_pos_ = 0;
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
 * Only meaningful on the *final merged* state: a shard's local top-K is
 * not the campaign's. @return false with *error set on a re-simulation
 * divergence, a replay mismatch, or I/O failure.
 */
bool capture_specimens(const Observatory &obs,
                       const std::function<Experiment(std::uint64_t)>
                           &materialize,
                       const std::string &dir, std::string *error = nullptr);

} // namespace dvs

#endif // DVS_OBS_OBSERVATORY_H
