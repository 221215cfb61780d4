/**
 * @file
 * Tests of the streaming campaign pipeline: CampaignAggregator's
 * per-cohort accounting, its JSON and summary rendering, the count of
 * sink-consumed reports, and DevicePopulation's lazy pure-function
 * session stream.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "harness/aggregator.h"
#include "test_support.h"
#include "workload/device_population.h"

using namespace dvs;

namespace {

/** Deterministic synthetic report: non-trivial but cheap. */
RunReport
synthetic_report(std::uint64_t i)
{
    RunReport r;
    r.label = (i % 3 == 0) ? "cohort-a" : (i % 3 == 1) ? "cohort-b"
                                                       : "cohort-c";
    r.fdps = 0.25 * double(i % 40);
    r.latency_p95_ms = 1.5 * double(i % 50);
    r.energy_mj = 100.0 + double(i % 7);
    r.drops = i % 11;
    r.frames_due = 120 + i % 13;
    r.presents = r.frames_due - r.drops;
    r.stutters = i % 5;
    r.deadline_misses = i % 2;
    r.faults_injected = i % 3;
    r.degradations = i % 2;
    r.repromotions = i % 2;
    r.drop_causes[std::size_t(DropCause::kSlowRender)] = r.drops;
    if (i % 17 == 0)
        r.error = "synthetic failure";
    return r;
}

} // namespace

TEST(CampaignAggregator, CountsSessionsErrorsAndCauses)
{
    CampaignAggregator agg;
    for (std::uint64_t i = 0; i < 100; ++i)
        agg.add(synthetic_report(i));
    EXPECT_EQ(agg.sessions(), 100u);
    // i in {0, 17, 34, 51, 68, 85} carry the synthetic error.
    EXPECT_EQ(agg.errors(), 6u);
    EXPECT_EQ(agg.cohorts().size(), 3u);
    // Every drop is attributed kSlowRender by construction.
    EXPECT_EQ(agg.unattributed_drops(), 0u);

    std::uint64_t sessions = 0;
    for (const auto &[key, cohort] : agg.cohorts()) {
        sessions += cohort.sessions;
        EXPECT_EQ(cohort.completed(), cohort.sessions - cohort.errors)
            << key;
    }
    EXPECT_EQ(sessions, 100u);
}

TEST(CampaignAggregator, ErrorRunsStayOutOfTheDistributions)
{
    RunReport failed;
    failed.label = "c";
    failed.error = "died";
    failed.fdps = 999.0;
    RunReport good;
    good.label = "c";
    good.fdps = 2.0;
    good.frames_due = 100;

    CampaignAggregator agg;
    agg.add(failed);
    agg.add(good);
    const CohortStats &c = agg.cohorts().at("c");
    EXPECT_EQ(c.sessions, 2u);
    EXPECT_EQ(c.errors, 1u);
    // The failed run's bogus FDPS never reached the fixed-point sum.
    EXPECT_DOUBLE_EQ(c.mean_fdps(), 2.0);
}

TEST(CampaignAggregator, ResumeWatermarkTracksSinkDeliveries)
{
    // to_json()'s "resume_pos" counts reports consumed through the sink;
    // add() folds without counting. perfbench folds through add(), so
    // its fingerprinted JSON pins "resume_pos": 0.
    CampaignAggregator agg;
    EXPECT_EQ(resume_pos_line(agg.to_json()), "\"resume_pos\": 0,");
    for (std::size_t i = 0; i < 40; ++i)
        agg.consume(i, synthetic_report(i));
    EXPECT_EQ(resume_pos_line(agg.to_json()), "\"resume_pos\": 40,");
    agg.add(synthetic_report(40));
    EXPECT_EQ(agg.sessions(), 41u);
    EXPECT_EQ(resume_pos_line(agg.to_json()), "\"resume_pos\": 40,");
}

TEST(DevicePopulation, SessionsArePureFunctionsOfIndexAndSeed)
{
    const DevicePopulation a = DevicePopulation::paper_fleet(11);
    const DevicePopulation b = DevicePopulation::paper_fleet(11);
    for (std::uint64_t i : {0ull, 1ull, 999ull, 123456789ull}) {
        const SessionSpec sa = a.session(i);
        const SessionSpec sb = b.session(i);
        EXPECT_EQ(sa.cohort, sb.cohort) << i;
        EXPECT_EQ(sa.config.seed, sb.config.seed) << i;
        EXPECT_EQ(sa.config.mode, sb.config.mode) << i;
        EXPECT_EQ(sa.config.device.name, sb.config.device.name) << i;
        EXPECT_EQ(sa.scenario.name(), sb.scenario.name()) << i;
        EXPECT_EQ(a.cohort_of(i), sa.cohort) << i;
        EXPECT_EQ(sa.label, sa.cohort) << i;
    }
    // A different population seed draws a different stream.
    const DevicePopulation c = DevicePopulation::paper_fleet(12);
    int diffs = 0;
    for (std::uint64_t i = 0; i < 64; ++i)
        diffs += c.session(i).config.seed != a.session(i).config.seed;
    EXPECT_GT(diffs, 32);
}

TEST(DevicePopulation, CoversEveryCohortRoughlyByWeight)
{
    const DevicePopulation fleet = DevicePopulation::paper_fleet(1);
    std::map<std::string, int> counts;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        ++counts[fleet.cohort_of(std::uint64_t(i))];
    // 3 tiers x 2 modes, all present.
    EXPECT_EQ(counts.size(), 6u);
    // The 50/30/20 tier mix splits ~25/15/10 percent per mode; allow a
    // wide deterministic-hash tolerance.
    EXPECT_NEAR(double(counts["entry-60/VSync"]) / n, 0.25, 0.05);
    EXPECT_NEAR(double(counts["mid-90/D-VSync"]) / n, 0.15, 0.05);
    EXPECT_NEAR(double(counts["flagship-120/VSync"]) / n, 0.10, 0.05);
}

TEST(DevicePopulationDeathTest, RejectsEmptyAndNonPositiveWeights)
{
    EXPECT_EXIT(DevicePopulation({}, {}, 1),
                testing::ExitedWithCode(1), "at least one");
    std::vector<DeviceTier> tiers = {{"t", pixel5(), 0.0}};
    std::vector<AppUsageClass> apps = {
        {"a", ProfileSpec{}, 1.0, 2, 500'000'000, 0.7}};
    EXPECT_EXIT(DevicePopulation(tiers, apps, 1),
                testing::ExitedWithCode(1), "non-positive weight");
}

TEST(CampaignAggregator, EmptyCohortIsVisiblyDistinctFromAllZero)
{
    // An all-error cohort has no metric surface; a healthy cohort whose
    // every sample happens to be zero has one (of zeros). The two must
    // never render the same: the empty cohort says "n/a" in the summary
    // table and nulls in the JSON percentile block.
    RunReport failed;
    failed.label = "empty";
    failed.error = "boom";
    RunReport zero;
    zero.label = "zero";
    zero.frames_due = 100;
    zero.presents = 100; // fdps/latency/drops all exactly 0

    CampaignAggregator agg;
    agg.add(failed);
    agg.add(failed);
    agg.add(zero);

    const CohortStats &empty = agg.cohorts().at("empty");
    EXPECT_EQ(empty.completed(), 0u);
    EXPECT_TRUE(std::isnan(empty.fdps_hist.percentile(50)));

    const std::string table = agg.summary();
    // Row-level check: the empty cohort's row says n/a, the zero
    // cohort's row does not.
    std::string empty_row, zero_row;
    std::istringstream lines(table);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("empty", 0) == 0)
            empty_row = line;
        if (line.rfind("zero", 0) == 0)
            zero_row = line;
    }
    ASSERT_FALSE(empty_row.empty()) << table;
    ASSERT_FALSE(zero_row.empty()) << table;
    EXPECT_NE(empty_row.find("n/a"), std::string::npos) << empty_row;
    EXPECT_EQ(zero_row.find("n/a"), std::string::npos) << zero_row;
    EXPECT_NE(zero_row.find("0.00"), std::string::npos) << zero_row;

    const std::string json = agg.to_json();
    EXPECT_NE(json.find("\"fdps_p50\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"fdps_p50\": 0"), std::string::npos) << json;
}
