#include "obs/metrics_registry.h"

#include <cstdio>

#include "sim/logging.h"
#include "sim/simulator.h"

namespace dvs {

const char *
to_string(MetricKind k)
{
    switch (k) {
      case MetricKind::kCounter:
        return "counter";
      case MetricKind::kGauge:
        return "gauge";
    }
    return "?";
}

MetricsRegistry::Metric &
MetricsRegistry::add(const std::string &name, MetricKind kind)
{
    for (const Metric &m : metrics_) {
        if (m.name == name)
            fatal("metric '%s' registered twice", name.c_str());
    }
    Metric m;
    m.name = name;
    m.kind = kind;
    metrics_.push_back(std::move(m));
    return metrics_.back();
}

void
MetricsRegistry::register_counter(const std::string &name, Sampler fn)
{
    add(name, MetricKind::kCounter).fn = std::move(fn);
}

void
MetricsRegistry::register_gauge(const std::string &name, Sampler fn)
{
    add(name, MetricKind::kGauge).fn = std::move(fn);
}

void
MetricsRegistry::sample(Time now)
{
    for (Metric &m : metrics_) {
        const double v = m.fn();
        if (m.kind == MetricKind::kCounter && v < m.last) {
            panic("counter '%s' went backwards (%g -> %g)",
                  m.name.c_str(), m.last, v);
        }
        m.last = v;
        m.samples.push_back(MetricSample{now, v});
    }
    ++samples_taken_;
}

void
MetricsRegistry::tick()
{
    sample(sim_->now());
    // Capture only `this`: the closure fits std::function's small-buffer
    // storage, so the repeating tick never heap-allocates.
    sim_->events().schedule(sim_->now() + interval_, [this] { tick(); },
                            EventPriority::kMetrics);
}

void
MetricsRegistry::install(Simulator &sim, Time interval)
{
    if (interval <= 0)
        fatal("metrics sampling interval must be > 0");
    if (installed_)
        fatal("MetricsRegistry installed twice");
    installed_ = true;
    sim_ = &sim;
    interval_ = interval;
    sim.events().schedule(sim.now() + interval, [this] { tick(); },
                          EventPriority::kMetrics);
}

const std::vector<MetricSample> *
MetricsRegistry::series(const std::string &name) const
{
    for (const Metric &m : metrics_) {
        if (m.name == name)
            return &m.samples;
    }
    return nullptr;
}

std::string
MetricsRegistry::to_json() const
{
    std::string out = "{\"metrics\":[";
    char buf[128];
    bool first_metric = true;
    for (const Metric &m : metrics_) {
        if (!first_metric)
            out += ',';
        first_metric = false;
        out += "\n{\"name\":\"" + m.name + "\",\"type\":\"";
        out += to_string(m.kind);
        out += "\",\"samples\":[";
        for (std::size_t i = 0; i < m.samples.size(); ++i) {
            if (i)
                out += ',';
            std::snprintf(buf, sizeof(buf), "[%lld,%.17g]",
                          (long long)m.samples[i].at,
                          m.samples[i].value);
            out += buf;
        }
        out += "]}";
    }
    out += "\n]}\n";
    return out;
}

} // namespace dvs
