/**
 * @file
 * Tests of the fleet observatory: SLO evaluation and metric extraction,
 * the pure fixed-point anomaly score, the bounded top-K's tie-break and
 * merge stability, the shard/merge/resume byte-identity contract (the
 * same bar CampaignAggregator holds), the versioned checkpoint
 * round-trip with its configuration fingerprint, and the tail
 * auto-capture of specimens through SessionRecorder.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness/aggregator.h"
#include "obs/observatory.h"
#include "sim/logging.h"
#include "workload/device_population.h"

using namespace dvs;

namespace {

/** Deterministic synthetic report spanning every scored field. */
RunReport
synthetic_report(std::uint64_t i)
{
    RunReport r;
    r.label = (i % 3 == 0) ? "cohort-a" : (i % 3 == 1) ? "cohort-b"
                                                       : "cohort-c";
    r.drops = i % 11;
    r.frames_due = 120 + std::int64_t(i % 13);
    r.presents = std::uint64_t(r.frames_due) - r.drops;
    r.latency_p99_ms = 2.0 * double(i % 60);
    r.stutters = i % 6;
    r.energy_mj = double(r.presents) * (40.0 + double(i % 20));
    r.invariant_violations = (i % 97 == 0) ? 1 : 0;
    r.drop_causes[std::size_t(DropCause::kSlowRender)] = r.drops;
    if (i % 17 == 0)
        r.error = "synthetic failure";
    return r;
}

/** Observe [0, n) sliced to indices congruent to k mod s. */
Observatory
shard_fold(std::uint64_t n, std::uint64_t k, std::uint64_t s,
           const ObservatoryConfig &config = {})
{
    Observatory obs(config);
    for (std::uint64_t i = k; i < n; i += s)
        obs.observe(i, synthetic_report(i));
    return obs;
}

std::string
temp_path(const char *tag)
{
    return testing::TempDir() + "observatory_" + tag + ".json";
}

/** A report that violates no default SLO against a healthy baseline. */
RunReport
healthy_report()
{
    RunReport r;
    r.label = "fleet/healthy";
    r.drops = 2;
    r.frames_due = 200;
    r.presents = 198;
    r.latency_p99_ms = 25.0;
    r.stutters = 1;
    r.energy_mj = 198 * 40.0;
    return r;
}

} // namespace

TEST(SloMetric, ExtractsEveryMetricAndGuardsEmptyDenominators)
{
    RunReport r;
    r.drops = 30;
    r.frames_due = 120;
    r.presents = 90;
    r.latency_p99_ms = 87.5;
    r.stutters = 4;
    r.energy_mj = 4500.0;
    r.invariant_violations = 2;

    EXPECT_DOUBLE_EQ(slo_metric_value(r, SloMetric::kDropRatePercent),
                     25.0);
    EXPECT_DOUBLE_EQ(slo_metric_value(r, SloMetric::kLatencyP99Ms), 87.5);
    EXPECT_DOUBLE_EQ(slo_metric_value(r, SloMetric::kStutters), 4.0);
    EXPECT_DOUBLE_EQ(
        slo_metric_value(r, SloMetric::kInvariantViolations), 2.0);
    EXPECT_DOUBLE_EQ(slo_metric_value(r, SloMetric::kEnergyPerFrameMj),
                     50.0);

    RunReport empty;
    EXPECT_DOUBLE_EQ(slo_metric_value(empty, SloMetric::kDropRatePercent),
                     0.0);
    EXPECT_DOUBLE_EQ(
        slo_metric_value(empty, SloMetric::kEnergyPerFrameMj), 0.0);
}

TEST(AnomalyScore, IsPureNonNegativeAndOrdersSeverity)
{
    const CohortBaseline base;
    const ScoreWeights weights;

    const RunReport healthy = healthy_report();
    const std::int64_t h1 = anomaly_score_milli(healthy, base, weights);
    const std::int64_t h2 = anomaly_score_milli(healthy, base, weights);
    EXPECT_EQ(h1, h2) << "score must be a pure function of the report";
    EXPECT_GE(h1, 0);

    RunReport worse = healthy;
    worse.drops = 40;
    worse.presents = 160;
    worse.latency_p99_ms = 180.0;
    worse.stutters = 9;
    const std::int64_t w = anomaly_score_milli(worse, base, weights);
    EXPECT_GT(w, h1);

    // One invariant violation dominates every rate term: the penalty is
    // 1000.0 in score units, i.e. 1'000'000 millis.
    RunReport broken = healthy;
    broken.invariant_violations = 1;
    EXPECT_GE(anomaly_score_milli(broken, base, weights) - h1,
              1'000'000);
}

TEST(Observatory, DefaultSlosSeparateHealthyFromPathological)
{
    Observatory obs;
    obs.observe(0, healthy_report());

    RunReport bad = healthy_report();
    bad.label = "fleet/bad";
    bad.drops = 50;
    bad.presents = 150;
    bad.latency_p99_ms = 250.0;
    bad.stutters = 9;
    obs.observe(1, bad);

    ASSERT_EQ(obs.sessions(), 2u);
    const auto &cohorts = obs.cohorts();
    ASSERT_TRUE(cohorts.count("fleet/healthy"));
    ASSERT_TRUE(cohorts.count("fleet/bad"));
    for (std::uint64_t v : cohorts.at("fleet/healthy").violations)
        EXPECT_EQ(v, 0u);
    // drop-rate (25% > 10%), p99-latency (250 > 100), stutters (9 > 3)
    // violated; invariants and energy/frame not.
    const auto &bad_v = cohorts.at("fleet/bad").violations;
    ASSERT_EQ(bad_v.size(), default_slos().size());
    EXPECT_EQ(bad_v[0], 1u);
    EXPECT_EQ(bad_v[1], 1u);
    EXPECT_EQ(bad_v[2], 1u);
    EXPECT_EQ(bad_v[3], 0u);
    EXPECT_EQ(bad_v[4], 0u);

    ASSERT_EQ(obs.top().size(), 2u);
    EXPECT_EQ(obs.top()[0].session, 1u) << "offender must outrank healthy";
    EXPECT_EQ(obs.top()[0].violated, 0b00111u);
}

TEST(Observatory, TopKIsBoundedAndTieBreaksOnSessionIndex)
{
    ObservatoryConfig config;
    config.top_k = 3;
    Observatory obs(config);

    // Identical reports -> identical scores; delivered in shuffled
    // order, the retained set must be the lowest session indices.
    RunReport tie = healthy_report();
    tie.drops = 60;
    tie.presents = 140;
    for (std::uint64_t session : {9u, 2u, 7u, 4u, 11u, 3u})
        obs.observe(session, RunReport(tie));

    ASSERT_EQ(obs.top().size(), 3u);
    EXPECT_EQ(obs.top()[0].session, 2u);
    EXPECT_EQ(obs.top()[1].session, 3u);
    EXPECT_EQ(obs.top()[2].session, 4u);
}

TEST(Observatory, ErrorReportsAreCountedButNeverScored)
{
    Observatory obs;
    RunReport failed;
    failed.label = "fleet/err";
    failed.error = "boom";
    obs.observe(0, failed);

    EXPECT_EQ(obs.sessions(), 1u);
    EXPECT_EQ(obs.errors(), 1u);
    EXPECT_TRUE(obs.top().empty());
    for (std::size_t s = 0; s < obs.config().slos.size(); ++s)
        EXPECT_EQ(obs.violations(s), 0u);
}

TEST(Observatory, ShardMergeIsByteIdenticalToUnsharded)
{
    const std::uint64_t n = 500;
    const Observatory whole = shard_fold(n, 0, 1);

    Observatory merged = shard_fold(n, 0, 3);
    merged.merge(shard_fold(n, 1, 3));
    merged.merge(shard_fold(n, 2, 3));

    EXPECT_EQ(whole.to_json(), merged.to_json());
    EXPECT_EQ(whole.summary(), merged.summary());
}

TEST(Observatory, MergeIsCommutative)
{
    const std::uint64_t n = 300;
    Observatory ab = shard_fold(n, 0, 2);
    ab.merge(shard_fold(n, 1, 2));

    Observatory ba = shard_fold(n, 1, 2);
    ba.merge(shard_fold(n, 0, 2));

    EXPECT_EQ(ab.to_json(), ba.to_json());
}

TEST(Observatory, CheckpointRoundTripsExactly)
{
    const Observatory obs = shard_fold(200, 0, 1);
    const std::string path = temp_path("roundtrip");
    ASSERT_TRUE(obs.save(path));

    Observatory loaded;
    std::string error;
    ASSERT_TRUE(loaded.load(path, &error)) << error;
    EXPECT_EQ(loaded.to_json(), obs.to_json());
    EXPECT_EQ(loaded.summary(), obs.summary());
    std::remove(path.c_str());
}

TEST(Observatory, LoadRejectsMismatchedConfigAndGarbage)
{
    const Observatory obs = shard_fold(50, 0, 1);
    const std::string path = temp_path("mismatch");
    ASSERT_TRUE(obs.save(path));

    // A different K is a different fingerprint: scores would still be
    // comparable but the retained-set contract would not.
    ObservatoryConfig other;
    other.top_k = 2;
    Observatory narrow(other);
    std::string error;
    EXPECT_FALSE(narrow.load(path, &error));
    EXPECT_NE(error.find("config"), std::string::npos) << error;

    std::ofstream(path, std::ios::trunc) << "{not json";
    Observatory fresh;
    EXPECT_FALSE(fresh.load(path, &error));
    std::remove(path.c_str());
}

TEST(Observatory, ConsumeAdvancesTheWatermarkObserveDoesNot)
{
    Observatory obs;
    obs.observe(42, healthy_report());
    EXPECT_EQ(obs.resume_pos(), 0u);

    obs.consume(0, healthy_report());
    obs.consume(1, healthy_report());
    EXPECT_EQ(obs.resume_pos(), 2u);
    EXPECT_EQ(obs.sessions(), 3u);
}

TEST(Observatory, ResumedHalvesComposeToTheFullRun)
{
    const std::uint64_t n = 120;
    Observatory whole;
    for (std::uint64_t i = 0; i < n; ++i)
        whole.consume(std::size_t(i), synthetic_report(i));

    // First half, checkpoint, then a fresh observatory resumes exactly
    // where the watermark left off — the mid-stream resume path of
    // `--checkpoint` + `--resume`.
    Observatory first;
    for (std::uint64_t i = 0; i < n / 2; ++i)
        first.consume(std::size_t(i), synthetic_report(i));
    const std::string path = temp_path("resume");
    ASSERT_TRUE(first.save(path));

    Observatory resumed(
        {}, nullptr,
        [n](std::size_t i) { return n / 2 + std::uint64_t(i); });
    std::string error;
    ASSERT_TRUE(resumed.load(path, &error)) << error;
    ASSERT_EQ(resumed.resume_pos(), n / 2);
    for (std::uint64_t i = n / 2; i < n; ++i)
        resumed.consume(std::size_t(i - n / 2), synthetic_report(i));

    EXPECT_EQ(resumed.to_json(), whole.to_json());
    EXPECT_EQ(resumed.summary(), whole.summary());
    std::remove(path.c_str());
}

TEST(Observatory, EndToEndFleetIsJobsInvariant)
{
    const DevicePopulation fleet = DevicePopulation::paper_fleet(7);
    const std::uint64_t sessions = 48;

    const auto sweep = [&](int jobs) {
        Observatory obs;
        ExperimentRunner(jobs).run_stream(
            sessions,
            [&](std::size_t p) {
                return fleet.experiment(std::uint64_t(p));
            },
            obs);
        return obs.to_json();
    };
    const std::string serial = sweep(1);
    EXPECT_EQ(sweep(2), serial);
    EXPECT_EQ(sweep(4), serial);
}

TEST(Observatory, LeavesTheAggregatorStreamByteIdentical)
{
    // A passive monitor must not perturb the stream it watches: teeing
    // the observatory in beside the aggregator leaves the aggregator's
    // checkpoint byte-identical to a run without it.
    const DevicePopulation fleet = DevicePopulation::paper_fleet(7);
    const std::uint64_t sessions = 48;
    const auto aggregate = [&](bool observatory_on) {
        CampaignAggregator agg;
        Observatory obs;
        std::vector<ReportSink *> branches{&agg};
        if (observatory_on)
            branches.push_back(&obs);
        TeeSink sink(std::move(branches));
        ExperimentRunner(2).run_stream(
            sessions,
            [&](std::size_t p) {
                return fleet.experiment(std::uint64_t(p));
            },
            sink);
        return agg.to_json();
    };
    EXPECT_EQ(aggregate(true), aggregate(false));
}

TEST(Observatory, CaptureSpecimensWritesVerifiedDvstAndManifest)
{
    const DevicePopulation fleet = DevicePopulation::paper_fleet(7);
    ObservatoryConfig config;
    config.top_k = 2;
    Observatory obs(config);
    for (std::uint64_t i = 0; i < 24; ++i) {
        Experiment point = fleet.experiment(i);
        RunReport r = run_experiment(point.config, point.scenario);
        r.label = point.label;
        obs.observe(i, r);
    }
    ASSERT_EQ(obs.top().size(), 2u);

    const std::string dir = testing::TempDir() + "observatory_specimens";
    std::string error;
    ASSERT_TRUE(capture_specimens(
        obs, [&](std::uint64_t s) { return fleet.experiment(s); }, dir,
        &error))
        << error;

    std::ifstream manifest(dir + "/manifest.json");
    ASSERT_TRUE(manifest.good());
    std::string text((std::istreambuf_iterator<char>(manifest)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"source\": \"dvsync-observatory\""),
              std::string::npos);
    for (const SessionVerdict &v : obs.top()) {
        EXPECT_NE(text.find("\"session\": " + std::to_string(v.session)),
                  std::string::npos);
        char name[64];
        std::snprintf(name, sizeof(name), "specimen-%02zu-session-%llu",
                      std::size_t(&v - obs.top().data()) + 1,
                      (unsigned long long)v.session);
        EXPECT_NE(text.find(name), std::string::npos);
        std::ifstream dvst(dir + "/" + std::string(name) + ".dvst",
                           std::ios::binary);
        EXPECT_TRUE(dvst.good()) << name;
    }
}

TEST(Observatory, CaptureSpecimensDetectsReSimulationDivergence)
{
    const DevicePopulation fleet = DevicePopulation::paper_fleet(7);
    ObservatoryConfig config;
    config.top_k = 1;
    Observatory obs(config);
    for (std::uint64_t i = 0; i < 8; ++i) {
        Experiment point = fleet.experiment(i);
        RunReport r = run_experiment(point.config, point.scenario);
        r.label = point.label;
        obs.observe(i, r);
    }
    ASSERT_EQ(obs.top().size(), 1u);

    // A materializer that returns the wrong session breaks the pure
    // (seed, index) contract; capture must refuse, not snapshot it.
    const std::string dir = testing::TempDir() + "observatory_diverged";
    std::string error;
    EXPECT_FALSE(capture_specimens(
        obs,
        [&](std::uint64_t s) { return fleet.experiment(s + 1); }, dir,
        &error));
    EXPECT_NE(error.find("diverged"), std::string::npos) << error;
}
