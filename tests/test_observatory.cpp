/**
 * @file
 * Tests of the fleet observatory: SLO evaluation and metric extraction,
 * the pure fixed-point anomaly score, the bounded top-K's tie-break,
 * the pinned fingerprint of the fixed constants, the count of
 * sink-consumed reports, jobs-invariance end to end, and
 * the tail auto-capture of specimens through SessionRecorder.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "harness/aggregator.h"
#include "obs/observatory.h"
#include "test_support.h"
#include "workload/device_population.h"

using namespace dvs;

namespace {

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
    const RunReport healthy = healthy_report();
    const std::int64_t h1 = anomaly_score_milli(healthy);
    const std::int64_t h2 = anomaly_score_milli(healthy);
    EXPECT_EQ(h1, h2) << "score must be a pure function of the report";
    EXPECT_GE(h1, 0);

    RunReport worse = healthy;
    worse.drops = 40;
    worse.presents = 160;
    worse.latency_p99_ms = 180.0;
    worse.stutters = 9;
    const std::int64_t w = anomaly_score_milli(worse);
    EXPECT_GT(w, h1);

    // One invariant violation dominates every rate term: the penalty is
    // 1000.0 in score units, i.e. 1'000'000 millis.
    RunReport broken = healthy;
    broken.invariant_violations = 1;
    EXPECT_GE(anomaly_score_milli(broken) - h1, 1'000'000);
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
    static_assert(kTopK == 8);
    Observatory obs;

    // Identical reports -> identical scores; delivered in shuffled
    // order, the retained set must be the lowest session indices.
    RunReport tie = healthy_report();
    tie.drops = 60;
    tie.presents = 140;
    for (std::uint64_t session :
         {9u, 2u, 14u, 7u, 4u, 11u, 3u, 12u, 6u, 13u, 8u, 5u})
        obs.observe(session, RunReport(tie));

    ASSERT_EQ(obs.top().size(), std::size_t(kTopK));
    for (std::size_t r = 0; r < obs.top().size(); ++r)
        EXPECT_EQ(obs.top()[r].session, r + 2) << "rank " << r;
}

TEST(Observatory, ConfigFingerprintIsPinned)
{
    // to_json() embeds the FNV-1a of the SLOs, weights, baseline and K;
    // perfbench fingerprints that JSON, so the constants must not move
    // without a new pin.
    const std::string json = Observatory().to_json();
    EXPECT_NE(json.find("\"config_fnv\": \"6fe69ce3801f9ea7\","),
              std::string::npos)
        << json;
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
    for (std::size_t s = 0; s < kSlos.size(); ++s)
        EXPECT_EQ(obs.violations(s), 0u);
}

TEST(Observatory, ConsumeAdvancesTheWatermarkObserveDoesNot)
{
    // to_json()'s "resume_pos" counts reports consumed through the sink;
    // observe() scores without counting. perfbench folds through
    // observe(), so its fingerprinted JSON pins "resume_pos": 0.
    Observatory obs;
    obs.observe(42, healthy_report());
    EXPECT_EQ(resume_pos_line(obs.to_json()), "\"resume_pos\": 0,");

    obs.consume(0, healthy_report());
    obs.consume(1, healthy_report());
    EXPECT_EQ(resume_pos_line(obs.to_json()), "\"resume_pos\": 2,");
    EXPECT_EQ(obs.sessions(), 3u);
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
    // A passive monitor must not perturb the stream it watches: feeding
    // the observatory beside the aggregator, as megafleet_campaign does,
    // leaves the aggregator's dump byte-identical to a run without it.
    const DevicePopulation fleet = DevicePopulation::paper_fleet(7);
    const std::uint64_t sessions = 48;
    const auto aggregate = [&](bool observatory_on) {
        CampaignAggregator agg;
        Observatory obs;
        CallbackSink sink([&](std::size_t i, RunReport &&r) {
            if (observatory_on)
                obs.observe(i, r);
            agg.consume(i, std::move(r));
        });
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
    Observatory obs;
    for (std::uint64_t i = 0; i < 24; ++i) {
        Experiment point = fleet.experiment(i);
        RunReport r = run_experiment(point.config, point.scenario);
        r.label = point.label;
        obs.observe(i, r);
    }
    ASSERT_EQ(obs.top().size(), std::size_t(kTopK));

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
    Observatory obs;
    for (std::uint64_t i = 0; i < 12; ++i) {
        Experiment point = fleet.experiment(i);
        RunReport r = run_experiment(point.config, point.scenario);
        r.label = point.label;
        obs.observe(i, r);
    }
    ASSERT_EQ(obs.top().size(), std::size_t(kTopK));

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
