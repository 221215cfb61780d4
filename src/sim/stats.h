/**
 * @file
 * Lightweight statistics accumulators.
 *
 * Counter and SampleStat are the building blocks used by the metrics
 * module; StatSet groups named statistics for reporting.
 */

#ifndef DVS_SIM_STATS_H
#define DVS_SIM_STATS_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dvs {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { value_ += by; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Streaming summary of a sample set: count / mean / min / max / variance
 * (Welford), with optional retention of raw samples for percentiles.
 */
class SampleStat
{
  public:
    /** @param keep_samples retain raw values to allow percentile queries */
    explicit SampleStat(bool keep_samples = false)
        : keep_samples_(keep_samples)
    {}

    void add(double x);

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double variance() const { return n_ > 1 ? m2_ / double(n_ - 1) : 0.0; }
    double stddev() const;
    double sum() const { return sum_; }

    /**
     * p-th percentile (p in [0, 100]) by linear interpolation.
     * Calling without keep_samples = true is a fatal() configuration
     * error (enforced in release builds too, not just via assert).
     * @return NaN when no samples have been added — callers reporting an
     *         empty run must handle it explicitly (see RunReport).
     */
    double percentile(double p) const;

    /** Make room for @p n kept samples (a no-op without keep_samples). */
    void
    reserve(std::size_t n)
    {
        if (keep_samples_)
            samples_.reserve(n);
    }

    void reset();

  private:
    bool keep_samples_;
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/** A named collection of scalar results, printable as an aligned table. */
class StatSet
{
  public:
    /** Record (or overwrite) a named scalar. Insertion order is kept. */
    void set(const std::string &name, double value);

    /** Fetch a named scalar. @return 0.0 when absent. */
    double get(const std::string &name) const;

    bool has(const std::string &name) const;

    /** All (name, value) pairs in insertion order. */
    const std::vector<std::pair<std::string, double>> &entries() const
    {
        return entries_;
    }

    /** Render as an aligned "name: value" listing. */
    std::string to_string() const;

  private:
    std::vector<std::pair<std::string, double>> entries_;
    std::map<std::string, std::size_t> index_;
};

} // namespace dvs

#endif // DVS_SIM_STATS_H
