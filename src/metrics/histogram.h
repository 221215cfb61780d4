/**
 * @file
 * Fixed-bin histogram with CDF export (for Fig. 1-style plots).
 */

#ifndef DVS_METRICS_HISTOGRAM_H
#define DVS_METRICS_HISTOGRAM_H

#include <cstdint>
#include <string>
#include <vector>

namespace dvs {

/**
 * Equal-width histogram over [lo, hi). Out-of-range samples are counted
 * separately as underflow/overflow rather than clamped into the edge
 * bins, so bin counts describe only in-range mass and the CDF tail is
 * not silently pinned to 1.0 when samples exceed the range.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, int bins);

    void add(double x);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    int bins() const { return int(counts_.size()); }

    /** Total samples added, including under/overflow. */
    std::uint64_t count() const { return total_; }
    std::uint64_t bin_count(int i) const { return counts_[i]; }

    /** Samples below lo() / at or above hi(). */
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /** Left edge of bin @p i. */
    double bin_edge(int i) const;

    /**
     * Cumulative probability at the *right* edge of bin @p i, over all
     * samples: underflow counts toward every edge, overflow toward none,
     * so the last bin's CDF is < 1 exactly when samples overflowed.
     */
    double cdf_at(int i) const;

    /** Fraction of samples <= x. */
    double cdf(double x) const;

    /**
     * p-th percentile (p in [0, 100]) read off the binned CDF: the right
     * edge of the first bin whose cumulative count reaches p% of all
     * samples. Resolution is one bin width; underflow resolves to lo()
     * and a crossing beyond the last bin (overflow mass) to hi(). The
     * result depends only on the integer bin counts, never on the order
     * samples arrived in. @return NaN when empty
     * (no samples means no percentile surface; 0 would be
     * indistinguishable from an all-zero cohort).
     */
    double percentile(double p) const;

    /**
     * CSV rows: "bin_right_edge,pdf,cdf", preceded by "# samples,N",
     * "# underflow,N", "# overflow,N" comment lines surfacing the
     * out-of-range counts.
     */
    std::string to_csv() const;

  private:
    double lo_, hi_, width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
};

} // namespace dvs

#endif // DVS_METRICS_HISTOGRAM_H
