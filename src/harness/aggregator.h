/**
 * @file
 * CampaignAggregator: streaming per-cohort campaign accumulators.
 *
 * The streaming counterpart of "collect every RunReport in a vector":
 * an aggregator consumes reports one at a time, folds each into the
 * per-cohort accumulators of its cohort label, and drops it. State is a
 * few KB per cohort regardless of campaign size, which is what lets one
 * invocation cover a million sessions with bounded RSS.
 *
 * Everything the aggregator stores is an *integer*: event counts,
 * histogram bins, and fixed-point sums of the per-session rates
 * (milli-FDPS, microsecond latency, micro-joule energy). Integer
 * addition is associative and commutative, so the state — and
 * therefore summary() and to_json() — does not depend on the order the
 * reports arrive in. Derived floating-point figures (means, percentile
 * surfaces) are computed from the integers at read time only.
 */

#ifndef DVS_HARNESS_AGGREGATOR_H
#define DVS_HARNESS_AGGREGATOR_H

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "harness/report_sink.h"
#include "metrics/histogram.h"
#include "metrics/run_report.h"
#include "obs/drop_cause.h"

namespace dvs {

/**
 * Per-cohort accumulators. All stored state is integral (see file
 * comment); doubles appear only in the derived accessors.
 */
struct CohortStats {
    std::uint64_t sessions = 0;
    std::uint64_t errors = 0; ///< failed runs (RunReport::error set)

    // ----- event counts (plain sums) -----------------------------------
    std::uint64_t drops = 0;
    std::uint64_t frames_due = 0;
    std::uint64_t presents = 0;
    std::uint64_t stutters = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t invariant_violations = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t degradations = 0;
    std::uint64_t repromotions = 0;
    std::array<std::uint64_t, kDropCauseCount> drop_causes{};
    std::uint64_t drops_injected = 0;

    // ----- fixed-point sums of per-session rates -----------------------
    std::int64_t fdps_milli_sum = 0;      ///< llround(fdps * 1e3)
    std::int64_t latency_p95_us_sum = 0;  ///< llround(latency_p95_ms * 1e3)
    std::int64_t energy_uj_sum = 0;       ///< llround(energy_mj * 1e3)

    // ----- per-session distributions (percentile surfaces) -------------
    Histogram fdps_hist{0.0, 16.0, 64};      ///< session FDPS
    Histogram latency_hist{0.0, 120.0, 60};  ///< session p95 latency (ms)
    Histogram drops_hist{0.0, 64.0, 64};     ///< session drop count

    /** Fold one finished run in (error runs count sessions+errors only). */
    void accumulate(const RunReport &r);

    // ----- derived views -----------------------------------------------
    double mean_fdps() const;
    double mean_latency_p95_ms() const;
    double mean_energy_mj() const;
    /** Sessions that completed (entered the distributions). */
    std::uint64_t completed() const { return sessions - errors; }
};

/**
 * A ReportSink that reduces a campaign to per-cohort CohortStats, keyed
 * by each report's `label`. See the file comment for the determinism
 * contract.
 */
class CampaignAggregator final : public ReportSink
{
  public:
    /** Schema version written by to_json(). */
    static constexpr int kSchema = 1;

    /** Sink entry: accumulate, and count the report in to_json()'s
     *  `resume_pos` (reports consumed through the sink). */
    void consume(std::size_t index, RunReport &&report) override;

    /** Accumulate a report without counting it as consumed. */
    void add(const RunReport &report);

    // ----- queries ------------------------------------------------------
    std::uint64_t sessions() const { return sessions_; }
    std::uint64_t errors() const { return errors_; }
    std::uint64_t invariant_violations() const;
    std::uint64_t unattributed_drops() const;

    /** Cohorts in key order (deterministic iteration). */
    const std::map<std::string, CohortStats> &cohorts() const
    {
        return cohorts_;
    }

    // ----- serialization ------------------------------------------------

    /**
     * Deterministic human-readable roll-up: totals, per-cohort rows
     * with mean/percentile surfaces, and the drop-cause tally.
     */
    std::string summary() const;

    /** Versioned JSON dump of the full integer state. */
    std::string to_json() const;

  private:
    std::map<std::string, CohortStats> cohorts_;
    std::uint64_t sessions_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t resume_pos_ = 0; ///< reports consumed through the sink
};

} // namespace dvs

#endif // DVS_HARNESS_AGGREGATOR_H
