#include "sim/stats.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "sim/logging.h"

namespace dvs {

void
SampleStat::add(double x)
{
    ++n_;
    sum_ += x;
    if (n_ == 1) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    const double delta = x - mean_;
    mean_ += delta / double(n_);
    m2_ += delta * (x - mean_);
    if (keep_samples_) {
        samples_.push_back(x);
        sorted_ = false;
    }
}

double
SampleStat::stddev() const
{
    return std::sqrt(variance());
}

double
SampleStat::percentile(double p) const
{
    // A release-mode caller querying a stat that never kept its samples
    // would silently read percentiles of nothing; fail loudly instead of
    // relying on assert() (a no-op under NDEBUG).
    if (!keep_samples_)
        fatal("SampleStat::percentile requires keep_samples=true");
    if (samples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = p / 100.0 * double(samples_.size() - 1);
    const std::size_t lo = std::size_t(rank);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - double(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void
SampleStat::reset()
{
    n_ = 0;
    mean_ = m2_ = min_ = max_ = sum_ = 0.0;
    samples_.clear();
    sorted_ = true;
}

void
StatSet::set(const std::string &name, double value)
{
    auto it = index_.find(name);
    if (it != index_.end()) {
        entries_[it->second].second = value;
        return;
    }
    index_[name] = entries_.size();
    entries_.emplace_back(name, value);
}

double
StatSet::get(const std::string &name) const
{
    auto it = index_.find(name);
    return it == index_.end() ? 0.0 : entries_[it->second].second;
}

bool
StatSet::has(const std::string &name) const
{
    return index_.count(name) != 0;
}

std::string
StatSet::to_string() const
{
    std::size_t width = 0;
    for (const auto &[name, _] : entries_)
        width = std::max(width, name.size());
    std::string out;
    char buf[64];
    for (const auto &[name, value] : entries_) {
        out += name;
        out.append(width - name.size() + 2, ' ');
        std::snprintf(buf, sizeof(buf), "%.6g\n", value);
        out += buf;
    }
    return out;
}

} // namespace dvs
