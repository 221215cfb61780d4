#include "metrics/histogram.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "sim/logging.h"

namespace dvs {

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi)
{
    if (bins <= 0 || hi <= lo)
        fatal("Histogram needs bins > 0 and hi > lo");
    width_ = (hi - lo) / bins;
    counts_.assign(std::size_t(bins), 0);
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    // x in [lo, hi): rounding can still land exactly on bins() when x is
    // a hair under hi, so clamp the index (not the sample) to the range.
    const int i = std::min(int((x - lo_) / width_), bins() - 1);
    ++counts_[std::size_t(i)];
}

double
Histogram::percentile(double p) const
{
    // NaN, not 0: an empty histogram has no percentile surface, and 0 is
    // a legitimate sample value — reporting layers must render empties
    // as "n/a" rather than as a cohort of zeros.
    if (total_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    // Integer threshold: ceil(p/100 * total) samples must be at or below
    // the reported edge. Computed in integers so the answer depends only
    // on bin counts, never on summation order.
    const double target_f = p / 100.0 * double(total_);
    std::uint64_t target = std::uint64_t(target_f);
    if (double(target) < target_f)
        ++target;
    if (target == 0)
        target = 1;
    std::uint64_t cum = underflow_;
    if (cum >= target)
        return lo_;
    for (int i = 0; i < bins(); ++i) {
        cum += counts_[std::size_t(i)];
        if (cum >= target)
            return bin_edge(i) + width_;
    }
    return hi_;
}

double
Histogram::bin_edge(int i) const
{
    return lo_ + width_ * i;
}

double
Histogram::cdf_at(int i) const
{
    if (total_ == 0)
        return 0.0;
    // Underflow samples lie below every bin edge, so they belong in every
    // cumulative count; overflow samples lie above all edges and in none.
    std::uint64_t cum = underflow_;
    for (int k = 0; k <= i; ++k)
        cum += counts_[std::size_t(k)];
    return double(cum) / double(total_);
}

double
Histogram::cdf(double x) const
{
    if (x < lo_)
        return 0.0;
    if (x >= hi_)
        return 1.0;
    const double pos = (x - lo_) / width_;
    const int i = int(pos);
    // x exactly on a bin edge: samples inside bin i are all > x.
    if (pos == double(i))
        return i == 0 ? 0.0 : cdf_at(i - 1);
    return cdf_at(i);
}

std::string
Histogram::to_csv() const
{
    char buf[96];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "# samples,%llu\n# underflow,%llu\n# overflow,%llu\n",
                  (unsigned long long)total_,
                  (unsigned long long)underflow_,
                  (unsigned long long)overflow_);
    out += buf;
    out += "bin_right_edge,pdf,cdf\n";
    std::uint64_t cum = underflow_;
    for (int i = 0; i < bins(); ++i) {
        cum += counts_[std::size_t(i)];
        const double pdf =
            total_ ? double(counts_[std::size_t(i)]) / double(total_) : 0;
        const double cdf_v = total_ ? double(cum) / double(total_) : 0;
        std::snprintf(buf, sizeof(buf), "%.6g,%.6g,%.6g\n",
                      bin_edge(i) + width_, pdf, cdf_v);
        out += buf;
    }
    return out;
}

} // namespace dvs
