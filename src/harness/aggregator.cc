#include "harness/aggregator.h"

#include <cmath>
#include <cstdio>

#include "sim/logging.h"

namespace dvs {

namespace {

std::int64_t
milli(double x)
{
    return std::llround(x * 1e3);
}

} // namespace

void
CohortStats::accumulate(const RunReport &r)
{
    ++sessions;
    if (!r.error.empty()) {
        // A rejected configuration has every metric zeroed; folding the
        // zeros into the distributions would fake a perfect session.
        ++errors;
        return;
    }
    drops += r.drops;
    frames_due += r.frames_due > 0 ? std::uint64_t(r.frames_due) : 0;
    presents += r.presents;
    stutters += r.stutters;
    deadline_misses += r.deadline_misses;
    invariant_violations += r.invariant_violations;
    faults_injected += r.faults_injected;
    degradations += r.degradations;
    repromotions += r.repromotions;
    for (int c = 0; c < kDropCauseCount; ++c)
        drop_causes[std::size_t(c)] += r.drop_causes[std::size_t(c)];
    drops_injected += r.drops_injected;

    fdps_milli_sum += milli(r.fdps);
    latency_p95_us_sum += milli(r.latency_p95_ms);
    energy_uj_sum += milli(r.energy_mj);

    fdps_hist.add(r.fdps);
    latency_hist.add(r.latency_p95_ms);
    drops_hist.add(double(r.drops));
}

double
CohortStats::mean_fdps() const
{
    return completed() ? double(fdps_milli_sum) / 1e3 / double(completed())
                       : 0.0;
}

double
CohortStats::mean_latency_p95_ms() const
{
    return completed()
               ? double(latency_p95_us_sum) / 1e3 / double(completed())
               : 0.0;
}

double
CohortStats::mean_energy_mj() const
{
    return completed() ? double(energy_uj_sum) / 1e3 / double(completed())
                       : 0.0;
}

void
CampaignAggregator::add(const RunReport &report)
{
    cohorts_[report.label].accumulate(report);
    ++sessions_;
    if (!report.error.empty())
        ++errors_;
}

void
CampaignAggregator::consume(std::size_t, RunReport &&report)
{
    add(report);
    ++resume_pos_;
}

std::uint64_t
CampaignAggregator::invariant_violations() const
{
    std::uint64_t total = 0;
    for (const auto &[_, c] : cohorts_)
        total += c.invariant_violations;
    return total;
}

std::uint64_t
CampaignAggregator::unattributed_drops() const
{
    std::uint64_t total = 0;
    for (const auto &[_, c] : cohorts_)
        total += c.drop_causes[std::size_t(DropCause::kUnknown)];
    return total;
}

std::string
CampaignAggregator::summary() const
{
    char buf[512];
    std::string out;
    std::size_t key_width = std::string("cohort").size();
    for (const auto &[key, _] : cohorts_)
        key_width = std::max(key_width, key.size());

    std::uint64_t drops = 0, due = 0, violations = 0, injected = 0;
    std::array<std::uint64_t, kDropCauseCount> causes{};
    for (const auto &[_, c] : cohorts_) {
        drops += c.drops;
        due += c.frames_due;
        violations += c.invariant_violations;
        injected += c.drops_injected;
        for (int i = 0; i < kDropCauseCount; ++i)
            causes[std::size_t(i)] += c.drop_causes[std::size_t(i)];
    }

    std::snprintf(buf, sizeof(buf),
                  "campaign: %llu sessions (%llu errors) across %zu "
                  "cohorts | drops %llu of %llu due | violations %llu\n",
                  (unsigned long long)sessions_,
                  (unsigned long long)errors_, cohorts_.size(),
                  (unsigned long long)drops, (unsigned long long)due,
                  (unsigned long long)violations);
    out += buf;

    out += "drop causes:";
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (causes[std::size_t(c)] > 0) {
            std::snprintf(buf, sizeof(buf), " %s=%llu",
                          to_string(DropCause(c)),
                          (unsigned long long)causes[std::size_t(c)]);
            out += buf;
        }
    }
    std::snprintf(buf, sizeof(buf), " | injected %llu of %llu drops\n",
                  (unsigned long long)injected,
                  (unsigned long long)drops);
    out += buf;

    std::snprintf(buf, sizeof(buf),
                  "%-*s %9s %5s %9s %10s %8s | fdps %6s %6s %6s %6s | "
                  "p95lat(ms) %7s %7s | %9s\n",
                  int(key_width), "cohort", "sessions", "errs", "drops",
                  "due", "stutter", "mean", "p50", "p95", "p99", "mean",
                  "p95", "energy_mj");
    out += buf;
    for (const auto &[key, c] : cohorts_) {
        if (c.completed() == 0) {
            // No completed session means no metric surface at all (the
            // histograms are empty and their percentiles are NaN). Say
            // so instead of printing a row of zeros a reader could
            // mistake for a perfectly smooth cohort.
            std::snprintf(
                buf, sizeof(buf),
                "%-*s %9llu %5llu %9llu %10llu %8llu | fdps %6s %6s "
                "%6s %6s | p95lat(ms) %7s %7s | %9s\n",
                int(key_width), key.c_str(),
                (unsigned long long)c.sessions,
                (unsigned long long)c.errors, (unsigned long long)c.drops,
                (unsigned long long)c.frames_due,
                (unsigned long long)c.stutters, "n/a", "n/a", "n/a",
                "n/a", "n/a", "n/a", "n/a");
            out += buf;
            continue;
        }
        std::snprintf(
            buf, sizeof(buf),
            "%-*s %9llu %5llu %9llu %10llu %8llu | fdps %6.3f %6.2f "
            "%6.2f %6.2f | p95lat(ms) %7.2f %7.1f | %9.2f\n",
            int(key_width), key.c_str(), (unsigned long long)c.sessions,
            (unsigned long long)c.errors, (unsigned long long)c.drops,
            (unsigned long long)c.frames_due,
            (unsigned long long)c.stutters, c.mean_fdps(),
            c.fdps_hist.percentile(50), c.fdps_hist.percentile(95),
            c.fdps_hist.percentile(99), c.mean_latency_p95_ms(),
            c.latency_hist.percentile(95), c.mean_energy_mj());
        out += buf;
    }
    return out;
}

namespace {

void
append_histogram(std::string &out, const char *name, const Histogram &h)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"lo\": %.17g, \"hi\": %.17g, "
                  "\"underflow\": %llu, \"overflow\": %llu, \"bins\": [",
                  name, h.lo(), h.hi(), (unsigned long long)h.underflow(),
                  (unsigned long long)h.overflow());
    out += buf;
    for (int i = 0; i < h.bins(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%llu", i ? "," : "",
                      (unsigned long long)h.bin_count(i));
        out += buf;
    }
    out += "]}";
}

} // namespace

std::string
CampaignAggregator::to_json() const
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"schema\": %d,\n  \"sessions\": %llu,\n"
                  "  \"errors\": %llu,\n  \"resume_pos\": %llu,\n"
                  "  \"cohorts\": [\n",
                  kSchema, (unsigned long long)sessions_,
                  (unsigned long long)errors_,
                  (unsigned long long)resume_pos_);
    out += buf;
    std::size_t i = 0;
    for (const auto &[key, c] : cohorts_) {
        out += "    {\"key\": \"" + key + "\", ";
        std::snprintf(
            buf, sizeof(buf),
            "\"sessions\": %llu, \"errors\": %llu, \"drops\": %llu, "
            "\"frames_due\": %llu, \"presents\": %llu, "
            "\"stutters\": %llu, \"deadline_misses\": %llu, ",
            (unsigned long long)c.sessions, (unsigned long long)c.errors,
            (unsigned long long)c.drops, (unsigned long long)c.frames_due,
            (unsigned long long)c.presents,
            (unsigned long long)c.stutters,
            (unsigned long long)c.deadline_misses);
        out += buf;
        std::snprintf(
            buf, sizeof(buf),
            "\"violations\": %llu, \"faults\": %llu, "
            "\"degradations\": %llu, \"repromotions\": %llu, "
            "\"drops_injected\": %llu, ",
            (unsigned long long)c.invariant_violations,
            (unsigned long long)c.faults_injected,
            (unsigned long long)c.degradations,
            (unsigned long long)c.repromotions,
            (unsigned long long)c.drops_injected);
        out += buf;
        out += "\"drop_causes\": [";
        for (int cause = 0; cause < kDropCauseCount; ++cause) {
            std::snprintf(buf, sizeof(buf), "%s%llu", cause ? "," : "",
                          (unsigned long long)
                              c.drop_causes[std::size_t(cause)]);
            out += buf;
        }
        out += "], ";
        std::snprintf(buf, sizeof(buf),
                      "\"fdps_milli_sum\": %lld, "
                      "\"latency_p95_us_sum\": %lld, "
                      "\"energy_uj_sum\": %lld, ",
                      (long long)c.fdps_milli_sum,
                      (long long)c.latency_p95_us_sum,
                      (long long)c.energy_uj_sum);
        out += buf;
        append_histogram(out, "fdps_hist", c.fdps_hist);
        out += ", ";
        append_histogram(out, "latency_hist", c.latency_hist);
        out += ", ";
        append_histogram(out, "drops_hist", c.drops_hist);
        // Derived percentile surface for consumers that do not rebin the
        // histograms. Explicit nulls for empty cohorts (JSON has no NaN).
        out += ", \"percentiles\": {";
        if (c.completed() == 0) {
            out += "\"fdps_p50\": null, \"fdps_p95\": null, "
                   "\"fdps_p99\": null, \"latency_p95_ms\": null}";
        } else {
            std::snprintf(buf, sizeof(buf),
                          "\"fdps_p50\": %.6g, \"fdps_p95\": %.6g, "
                          "\"fdps_p99\": %.6g, \"latency_p95_ms\": %.6g}",
                          c.fdps_hist.percentile(50),
                          c.fdps_hist.percentile(95),
                          c.fdps_hist.percentile(99),
                          c.latency_hist.percentile(95));
            out += buf;
        }
        out += "}";
        out += ++i < cohorts_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace dvs
