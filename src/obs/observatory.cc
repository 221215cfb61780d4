#include "obs/observatory.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/render_system.h"
#include "sim/fnv.h"
#include "trace/dvst_io.h"
#include "trace/session_recorder.h"

namespace dvs {

double
slo_metric_value(const RunReport &r, SloMetric metric)
{
    switch (metric) {
      case SloMetric::kDropRatePercent:
        return r.frames_due > 0
                   ? 100.0 * double(r.drops) / double(r.frames_due)
                   : 0.0;
      case SloMetric::kLatencyP99Ms:
        return r.latency_p99_ms;
      case SloMetric::kStutters:
        return double(r.stutters);
      case SloMetric::kInvariantViolations:
        return double(r.invariant_violations);
      case SloMetric::kEnergyPerFrameMj:
        return r.presents > 0 ? r.energy_mj / double(r.presents) : 0.0;
    }
    return 0.0;
}

std::int64_t
anomaly_score_milli(const RunReport &r)
{
    // Relative excess over the baseline expectation; 0 when at or below.
    const auto excess = [](double value, double base) {
        return value > base ? (value - base) / std::max(base, 1e-9) : 0.0;
    };
    const CohortBaseline &b = kBaseline;
    const ScoreWeights &w = kWeights;
    const double score =
        w.drop * excess(slo_metric_value(r, SloMetric::kDropRatePercent),
                        b.drop_rate_percent) +
        w.latency * excess(r.latency_p99_ms, b.latency_p99_ms) +
        w.stutter * excess(double(r.stutters), b.stutters) +
        w.energy * excess(slo_metric_value(r, SloMetric::kEnergyPerFrameMj),
                          b.energy_per_frame_mj) +
        w.violation * double(r.invariant_violations);
    return std::llround(1000.0 * score);
}

namespace {

/**
 * FNV-1a of the canonical text of the SLOs, weights, baseline and K:
 * to_json() embeds it so that dumps scored under different constants
 * are told apart.
 */
std::uint64_t
config_fnv()
{
    char buf[256];
    std::string out = "observatory-config v1\n";
    std::snprintf(buf, sizeof(buf), "top_k=%d\n", kTopK);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "weights=%.17g,%.17g,%.17g,%.17g,%.17g\n", kWeights.drop,
                  kWeights.latency, kWeights.stutter, kWeights.energy,
                  kWeights.violation);
    out += buf;
    std::snprintf(buf, sizeof(buf), "baseline[]=%.17g,%.17g,%.17g,%.17g\n",
                  kBaseline.drop_rate_percent, kBaseline.latency_p99_ms,
                  kBaseline.stutters, kBaseline.energy_per_frame_mj);
    out += buf;
    for (const SloSpec &slo : kSlos) {
        std::snprintf(buf, sizeof(buf), "slo[%s]=%d,%.17g\n", slo.name,
                      int(slo.metric), slo.threshold);
        out += buf;
    }
    return fnv1a(out);
}

/** The names of the SLOs set in @p violated, comma-separated. */
std::string
slo_names(std::uint32_t violated, const char *sep)
{
    std::string out;
    for (std::size_t i = 0; i < kSlos.size(); ++i) {
        if (violated & (std::uint32_t(1) << i)) {
            if (!out.empty())
                out += sep;
            out += kSlos[i].name;
        }
    }
    return out;
}

} // namespace

void
Observatory::consume(std::size_t index, RunReport &&report)
{
    observe(index, report);
    ++resume_pos_;
}

void
Observatory::observe(std::uint64_t session, const RunReport &report)
{
    ++sessions_;
    CohortMonitor &c = cohorts_[report.label];
    ++c.sessions;
    if (!report.error.empty()) {
        // A failed run has every metric zeroed; checking zeros against
        // the SLOs (or scoring them) would mark it perfectly healthy.
        ++errors_;
        ++c.errors;
        return;
    }

    SessionVerdict v;
    v.session = session;
    v.label = report.label;
    for (std::size_t i = 0; i < kSlos.size(); ++i) {
        const SloSpec &slo = kSlos[i];
        if (slo_metric_value(report, slo.metric) > slo.threshold) {
            v.violated |= std::uint32_t(1) << i;
            ++c.violations[i];
        }
    }
    v.score_milli = anomaly_score_milli(report);
    v.drops = report.drops;
    v.frames_due = report.frames_due;
    v.presents = report.presents;
    v.stutters = report.stutters;
    v.invariant_violations = report.invariant_violations;
    v.latency_p99_us = std::llround(report.latency_p99_ms * 1e3);
    v.energy_uj = std::llround(report.energy_mj * 1e3);
    v.drop_causes = report.drop_causes;
    rank_insert(std::move(v));
}

void
Observatory::rank_insert(SessionVerdict &&v)
{
    const auto pos = std::lower_bound(
        top_.begin(), top_.end(), v,
        [](const SessionVerdict &a, const SessionVerdict &b) {
            return a.ranks_before(b);
        });
    if (top_.size() >= std::size_t(kTopK) && pos == top_.end())
        return;
    top_.insert(pos, std::move(v));
    if (top_.size() > std::size_t(kTopK))
        top_.pop_back();
}

std::uint64_t
Observatory::violations(std::size_t slo) const
{
    std::uint64_t total = 0;
    for (const auto &[_, c] : cohorts_)
        total += c.violations.at(slo);
    return total;
}

std::string
Observatory::summary() const
{
    char buf[512];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "observatory: %llu sessions (%llu errors) across %zu "
                  "cohorts | %zu SLOs | top-%d offenders\n",
                  (unsigned long long)sessions_,
                  (unsigned long long)errors_, cohorts_.size(),
                  kSlos.size(), kTopK);
    out += buf;

    std::uint64_t completed_total = 0;
    for (const auto &[_, c] : cohorts_)
        completed_total += c.sessions - c.errors;

    out += "slo burn-rates (violations / completed sessions):\n";
    for (std::size_t i = 0; i < kSlos.size(); ++i) {
        const std::uint64_t viol = violations(i);
        const double burn =
            completed_total ? 100.0 * double(viol) / double(completed_total)
                            : 0.0;
        std::snprintf(buf, sizeof(buf), "  %-14s %8llu / %llu  (%.2f%%)\n",
                      kSlos[i].name, (unsigned long long)viol,
                      (unsigned long long)completed_total, burn);
        out += buf;
    }

    std::size_t key_width = std::string("cohort").size();
    for (const auto &[key, _] : cohorts_)
        key_width = std::max(key_width, key.size());
    std::snprintf(buf, sizeof(buf), "%-*s %9s", int(key_width), "cohort",
                  "sessions");
    out += buf;
    for (const SloSpec &slo : kSlos) {
        std::snprintf(buf, sizeof(buf), " %12s", slo.name);
        out += buf;
    }
    out += "\n";
    for (const auto &[key, c] : cohorts_) {
        const std::uint64_t completed = c.sessions - c.errors;
        std::snprintf(buf, sizeof(buf), "%-*s %9llu", int(key_width),
                      key.c_str(), (unsigned long long)c.sessions);
        out += buf;
        for (std::size_t i = 0; i < kSlos.size(); ++i) {
            if (completed == 0) {
                std::snprintf(buf, sizeof(buf), " %12s", "n/a");
            } else {
                std::snprintf(buf, sizeof(buf), " %11.2f%%",
                              100.0 * double(c.violations[i]) /
                                  double(completed));
            }
            out += buf;
        }
        out += "\n";
    }

    if (top_.empty()) {
        out += "top offenders: none\n";
        return out;
    }
    out += "top offenders (score desc, session asc):\n";
    for (std::size_t r = 0; r < top_.size(); ++r) {
        const SessionVerdict &v = top_[r];
        const std::string slos = slo_names(v.violated, ",");
        std::snprintf(
            buf, sizeof(buf),
            "  #%zu session %llu  score %.3f  cohort %s  slos [%s]  "
            "drops %llu/%lld  stutters %llu  p99 %.2fms  "
            "energy/frame %.1fmJ\n",
            r + 1, (unsigned long long)v.session,
            double(v.score_milli) / 1e3, v.label.c_str(),
            slos.empty() ? "-" : slos.c_str(),
            (unsigned long long)v.drops, (long long)v.frames_due,
            (unsigned long long)v.stutters, double(v.latency_p99_us) / 1e3,
            v.presents ? double(v.energy_uj) / 1e3 / double(v.presents)
                       : 0.0);
        out += buf;
    }
    return out;
}

std::string
Observatory::to_json() const
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"schema\": %d,\n"
                  "  \"source\": \"dvsync-observatory\",\n"
                  "  \"config_fnv\": \"%016llx\",\n"
                  "  \"sessions\": %llu,\n  \"errors\": %llu,\n"
                  "  \"resume_pos\": %llu,\n  \"slos\": [",
                  kSchema, (unsigned long long)config_fnv(),
                  (unsigned long long)sessions_,
                  (unsigned long long)errors_,
                  (unsigned long long)resume_pos_);
    out += buf;
    for (std::size_t i = 0; i < kSlos.size(); ++i) {
        out += i ? ", \"" : "\"";
        out += kSlos[i].name;
        out += '"';
    }
    out += "],\n  \"cohorts\": [\n";
    std::size_t n = 0;
    for (const auto &[key, c] : cohorts_) {
        std::snprintf(buf, sizeof(buf),
                      "    {\"key\": \"%s\", \"sessions\": %llu, "
                      "\"errors\": %llu, \"violations\": [",
                      key.c_str(), (unsigned long long)c.sessions,
                      (unsigned long long)c.errors);
        out += buf;
        for (std::size_t i = 0; i < c.violations.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s%llu", i ? "," : "",
                          (unsigned long long)c.violations[i]);
            out += buf;
        }
        out += "]}";
        out += ++n < cohorts_.size() ? ",\n" : "\n";
    }
    out += "  ],\n  \"top\": [\n";
    for (std::size_t r = 0; r < top_.size(); ++r) {
        const SessionVerdict &v = top_[r];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"session\": %llu, \"score_milli\": %lld, "
            "\"violated\": %llu, \"cohort\": \"%s\", \"label\": \"%s\", ",
            (unsigned long long)v.session, (long long)v.score_milli,
            (unsigned long long)v.violated, v.label.c_str(),
            v.label.c_str());
        out += buf;
        std::snprintf(
            buf, sizeof(buf),
            "\"drops\": %llu, \"frames_due\": %lld, \"presents\": %llu, "
            "\"stutters\": %llu, \"invariant_violations\": %llu, "
            "\"latency_p99_us\": %lld, \"energy_uj\": %lld, "
            "\"drop_causes\": [",
            (unsigned long long)v.drops, (long long)v.frames_due,
            (unsigned long long)v.presents, (unsigned long long)v.stutters,
            (unsigned long long)v.invariant_violations,
            (long long)v.latency_p99_us, (long long)v.energy_uj);
        out += buf;
        for (int c = 0; c < kDropCauseCount; ++c) {
            std::snprintf(buf, sizeof(buf), "%s%llu", c ? "," : "",
                          (unsigned long long)
                              v.drop_causes[std::size_t(c)]);
            out += buf;
        }
        out += "]}";
        out += r + 1 < top_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

bool
capture_specimens(const Observatory &obs,
                  const std::function<Experiment(std::uint64_t)>
                      &materialize,
                  const std::string &dir, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    ::mkdir(dir.c_str(), 0755); // existing directory is fine

    char buf[512];
    std::string manifest = "{\n  \"schema\": 1,\n"
                           "  \"source\": \"dvsync-observatory\",\n"
                           "  \"specimens\": [\n";
    const std::vector<SessionVerdict> &top = obs.top();
    for (std::size_t r = 0; r < top.size(); ++r) {
        const SessionVerdict &v = top[r];

        // Re-simulate the offender from its index alone — the campaign
        // contract that every session is a pure function of (seed, index).
        const Experiment point = materialize(v.session);
        RenderSystem sys(point.config, point.scenario);
        RunReport report = sys.run();
        report.label = point.label;
        const std::int64_t rescore = anomaly_score_milli(report);
        if (report.drops != v.drops || report.frames_due != v.frames_due ||
            report.presents != v.presents ||
            report.stutters != v.stutters || rescore != v.score_milli) {
            std::snprintf(buf, sizeof(buf),
                          "session %llu re-simulation diverged from its "
                          "verdict (score %lld vs %lld, drops %llu vs "
                          "%llu) — not a pure function of its index?",
                          (unsigned long long)v.session,
                          (long long)rescore, (long long)v.score_milli,
                          (unsigned long long)report.drops,
                          (unsigned long long)v.drops);
            return fail(buf);
        }

        std::snprintf(buf, sizeof(buf), "specimen-%02zu-session-%llu.dvst",
                      r + 1, (unsigned long long)v.session);
        const std::string file = buf;
        const std::string path = dir + "/" + file;
        const std::string label =
            "observatory/session-" + std::to_string(v.session) + "/" +
            v.label;
        SessionCapture cap;
        std::string verify_error;
        if (!SessionRecorder::capture_verified(sys, label, path,
                                               &verify_error, &cap))
            return fail(verify_error);

        std::snprintf(
            buf, sizeof(buf),
            "    {\"rank\": %zu, \"file\": \"%s\", \"session\": %llu, "
            "\"score_milli\": %lld, \"cohort\": \"%s\", "
            "\"label\": \"%s\", \"slos\": [",
            r + 1, file.c_str(), (unsigned long long)v.session,
            (long long)v.score_milli, v.label.c_str(), v.label.c_str());
        manifest += buf;
        if (v.violated) {
            manifest += '"';
            manifest += slo_names(v.violated, "\", \"");
            manifest += '"';
        }
        std::snprintf(
            buf, sizeof(buf),
            "], \"drops\": %llu, \"frames_due\": %lld, "
            "\"presents\": %llu, \"stutters\": %llu, "
            "\"invariant_violations\": %llu, \"latency_p99_ms\": %.3f, "
            "\"energy_mj\": %.3f, \"drop_causes\": {",
            (unsigned long long)v.drops, (long long)v.frames_due,
            (unsigned long long)v.presents, (unsigned long long)v.stutters,
            (unsigned long long)v.invariant_violations,
            double(v.latency_p99_us) / 1e3, double(v.energy_uj) / 1e3);
        manifest += buf;
        bool first = true;
        for (int c = 0; c < kDropCauseCount; ++c) {
            if (v.drop_causes[std::size_t(c)] == 0)
                continue;
            std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu",
                          first ? "" : ", ", to_string(DropCause(c)),
                          (unsigned long long)
                              v.drop_causes[std::size_t(c)]);
            manifest += buf;
            first = false;
        }
        std::snprintf(buf, sizeof(buf),
                      "}, \"dispatch_hash\": \"%016llx\"}%s\n",
                      (unsigned long long)cap.source_dispatch_hash,
                      r + 1 < top.size() ? "," : "");
        manifest += buf;
    }
    manifest += "  ]\n}\n";

    const std::string manifest_path = dir + "/manifest.json";
    std::ofstream f(manifest_path, std::ios::trunc);
    if (!f)
        return fail("cannot write " + manifest_path);
    f << manifest;
    if (!f.flush())
        return fail("cannot write " + manifest_path);
    return true;
}

} // namespace dvs
