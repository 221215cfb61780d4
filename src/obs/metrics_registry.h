/**
 * @file
 * MetricsRegistry: typed counters and gauges, sampled on a cadence.
 *
 * Components register a metric once (a name plus a sampler closure);
 * the registry polls every sampler at a configurable interval on the
 * simulated clock and keeps the time series, exported as JSON alongside
 * the trace. Counters must be non-decreasing (monotonic totals like
 * busy nanoseconds or presents); gauges are instantaneous levels
 * (queue depth, degraded flag).
 *
 * Sampling schedules simulator events, so it is only installed when
 * forensics is enabled — an idle registry costs nothing on the hot path.
 */

#ifndef DVS_OBS_METRICS_REGISTRY_H
#define DVS_OBS_METRICS_REGISTRY_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dvs {

class Simulator;

/** Metric flavor; serialized into the JSON export. */
enum class MetricKind { kCounter, kGauge };

const char *to_string(MetricKind k);

/** One (time, value) sample of a counter or gauge. */
struct MetricSample {
    Time at = 0;
    double value = 0.0;
};

class MetricsRegistry
{
  public:
    using Sampler = std::function<double()>;

    /** Register a monotonic counter. Duplicate names are fatal(). */
    void register_counter(const std::string &name, Sampler fn);

    /** Register an instantaneous gauge. Duplicate names are fatal(). */
    void register_gauge(const std::string &name, Sampler fn);

    /** Poll every sampler once at time @p now. */
    void sample(Time now);

    /**
     * Sample every @p interval on @p sim's clock (first pass at
     * @p interval). Runs at kMetrics priority so a sample sees the
     * tick's settled state. @p interval must be > 0.
     */
    void install(Simulator &sim, Time interval);

    std::size_t size() const { return metrics_.size(); }
    std::uint64_t samples_taken() const { return samples_taken_; }

    /** Series of metric @p name; null when unknown. */
    const std::vector<MetricSample> *series(const std::string &name) const;

    /** JSON export: {"interval_ns":..., "metrics":[...]}. */
    std::string to_json() const;

  private:
    struct Metric {
        std::string name;
        MetricKind kind = MetricKind::kGauge;
        Sampler fn;
        std::vector<MetricSample> samples;
        double last = 0.0; ///< monotonicity check for counters
    };

    Metric &add(const std::string &name, MetricKind kind);
    void tick();

    std::vector<Metric> metrics_;
    std::uint64_t samples_taken_ = 0;
    bool installed_ = false;
    Simulator *sim_ = nullptr;   ///< set by install()
    Time interval_ = 0;          ///< set by install()
};

} // namespace dvs

#endif // DVS_OBS_METRICS_REGISTRY_H
