/**
 * @file
 * ReportSink: the streaming consumer side of the experiment harness.
 *
 * Batch campaigns used to materialize every RunReport in a vector, which
 * caps a sweep at whatever fits in memory. The streaming API inverts the
 * flow: workers finish runs and the runner *emits* each report into a
 * sink exactly once, in submission order, retaining nothing. Aggregating
 * sinks (CampaignAggregator) reduce a million sessions to a few KB of
 * integer counters; the legacy vector-returning entry points are thin
 * adapters over a VectorSink.
 */

#ifndef DVS_HARNESS_REPORT_SINK_H
#define DVS_HARNESS_REPORT_SINK_H

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "metrics/run_report.h"

namespace dvs {

/**
 * Consumer of streamed RunReports.
 *
 * The runner guarantees: consume() is called exactly once per submitted
 * point, with strictly increasing @p index (submission order), and never
 * from two threads at once — sinks need no internal locking. The calling
 * thread is unspecified; sinks must not assume it is the submitter.
 *
 * A consume() that throws aborts the stream: the throwing index still
 * counts as delivered, later indices are never delivered, and the
 * runner rethrows the exception to its caller once every worker has
 * drained. Workers never deadlock on the backpressure window.
 */
class ReportSink
{
  public:
    virtual ~ReportSink() = default;

    /** Take ownership of the finished report for point @p index. */
    virtual void consume(std::size_t index, RunReport &&report) = 0;
};

/** Collects every report, index-aligned — the legacy batch behaviour. */
class VectorSink final : public ReportSink
{
  public:
    void consume(std::size_t index, RunReport &&report) override
    {
        if (reports_.size() <= index)
            reports_.resize(index + 1);
        reports_[index] = std::move(report);
    }

    std::vector<RunReport> take() { return std::move(reports_); }
    const std::vector<RunReport> &reports() const { return reports_; }

  private:
    std::vector<RunReport> reports_;
};

/** Adapts a callable to the sink interface (campaign roll-up loops). */
class CallbackSink final : public ReportSink
{
  public:
    using Fn = std::function<void(std::size_t, RunReport &&)>;

    explicit CallbackSink(Fn fn) : fn_(std::move(fn)) {}

    void consume(std::size_t index, RunReport &&report) override
    {
        fn_(index, std::move(report));
    }

  private:
    Fn fn_;
};

} // namespace dvs

#endif // DVS_HARNESS_REPORT_SINK_H
