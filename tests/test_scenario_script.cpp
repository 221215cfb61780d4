/**
 * @file
 * Tests for the scenario script parser.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "workload/scenario_script.h"

using namespace dvs;
using namespace dvs::time_literals;

TEST(ScenarioScript, ParsesSegmentsAndMetadata)
{
    const ScenarioScript s = parse_scenario_script(R"(
# demo
device mate40pro
seed 42
animate 350ms heavy_rate=3 label=fling
idle 150ms
realtime 200ms
)");
    ASSERT_TRUE(s.ok) << s.error;
    EXPECT_EQ(s.device.name, "Mate 40 Pro");
    EXPECT_EQ(s.seed, 42u);
    ASSERT_EQ(s.scenario.size(), 3u);
    EXPECT_EQ(s.scenario.segments()[0].kind, SegmentKind::kAnimation);
    EXPECT_EQ(s.scenario.segments()[0].duration, 350_ms);
    EXPECT_EQ(s.scenario.segments()[0].label, "fling");
    EXPECT_EQ(s.scenario.segments()[1].kind, SegmentKind::kIdle);
    EXPECT_EQ(s.scenario.segments()[2].kind, SegmentKind::kRealtime);
}

TEST(ScenarioScript, RepeatExpandsBlocks)
{
    const ScenarioScript s = parse_scenario_script(R"(
repeat 3
  animate 100ms
  idle 50ms
end
animate 200ms
)");
    ASSERT_TRUE(s.ok) << s.error;
    EXPECT_EQ(s.scenario.size(), 7u);
    EXPECT_EQ(s.scenario.total_duration(), 3 * 150_ms + 200_ms);
}

TEST(ScenarioScript, InteractGestures)
{
    const ScenarioScript s = parse_scenario_script(R"(
interact swipe 300ms from=1800 travel=1200 label=scroll
interact pinch 400ms from=200 travel=300 noise=1.0
interact drag 200ms from=1000 travel=500
)");
    ASSERT_TRUE(s.ok) << s.error;
    ASSERT_EQ(s.scenario.size(), 3u);
    for (const Segment &seg : s.scenario.segments()) {
        EXPECT_EQ(seg.kind, SegmentKind::kInteraction);
        ASSERT_NE(seg.touch, nullptr);
        EXPECT_FALSE(seg.touch->empty());
    }
    EXPECT_EQ(s.scenario.segments()[0].label, "scroll");
    EXPECT_EQ(s.scenario.segments()[1].label, "pinch");
    // Pinch distance spans from..from+travel.
    const TouchStream &pinch = *s.scenario.segments()[1].touch;
    EXPECT_NEAR(pinch.events().front().pinch_distance, 200.0, 5.0);
}

TEST(ScenarioScript, DurationUnits)
{
    const ScenarioScript s = parse_scenario_script(
        "animate 1.5s\nidle 2500us\nanimate 100ms\n");
    ASSERT_TRUE(s.ok) << s.error;
    EXPECT_EQ(s.scenario.segments()[0].duration, 1500_ms);
    EXPECT_EQ(s.scenario.segments()[1].duration, 2500_us);
}

TEST(ScenarioScript, CostKnobsApplied)
{
    const ScenarioScript s = parse_scenario_script(
        "animate 500ms mean=0.9 sigma=0.01 heavy_rate=0 seed=5\n");
    ASSERT_TRUE(s.ok) << s.error;
    // mean=0.9 of a 60 Hz period = 15 ms; sample a few slots.
    const auto &cost = *s.scenario.segments()[0].cost;
    for (int i = 0; i < 10; ++i)
        EXPECT_NEAR(to_ms(cost.cost_for(i).total()), 15.0, 2.0);
}

TEST(ScenarioScript, ErrorsCarryLineNumbers)
{
    const ScenarioScript bad1 =
        parse_scenario_script("animate 100ms\nfrobnicate 3\n");
    EXPECT_FALSE(bad1.ok);
    EXPECT_EQ(bad1.error_line, 2);
    EXPECT_NE(bad1.error.find("frobnicate"), std::string::npos);

    EXPECT_FALSE(parse_scenario_script("animate\n").ok);
    EXPECT_FALSE(parse_scenario_script("idle -5ms\n").ok);
    EXPECT_FALSE(parse_scenario_script("device quest3\n").ok);
    EXPECT_FALSE(parse_scenario_script("repeat 2\nanimate 1ms\n").ok);
    EXPECT_FALSE(parse_scenario_script("end\n").ok);
    EXPECT_FALSE(parse_scenario_script("interact wiggle 100ms\n").ok);
    EXPECT_FALSE(parse_scenario_script("# only comments\n").ok);
}

TEST(ScenarioScript, RejectsDurationsAndSeedsOutOfRange)
{
    // Each would overflow the nanosecond clock or the seed's integer.
    for (const char *bad :
         {"idle inf", "animate nan", "animate 1e300s", "realtime -inf",
          "interact swipe 1e300s", "animate 100ms seed=-1",
          "animate 100ms seed=1e30", "realtime 100ms seed=nan",
          "interact swipe 100ms seed=-1"}) {
        const ScenarioScript s = parse_scenario_script(
            std::string("animate 100ms\n") + bad + "\n");
        EXPECT_FALSE(s.ok) << bad;
        EXPECT_EQ(s.error_line, 2) << bad;
    }
    // The largest double below 2^64 is still a seed.
    EXPECT_TRUE(
        parse_scenario_script("animate 100ms seed=18446744073709549568\n")
            .ok);
}

TEST(ScenarioScript, RejectsCostKnobsOutOfRange)
{
    // A cost model cannot be built from any of these; each fails its
    // line instead of reaching the model.
    for (const char *bad :
         {"animate 100ms mean=nan", "animate 100ms sigma=inf",
          "realtime 100ms heavy_rate=-inf", "animate 100ms alpha=nan",
          "animate 100ms heavy_min=nan", "animate 100ms heavy_max=inf",
          "animate 100ms burst=nan", "animate 100ms ui=nan",
          "interact swipe 100ms noise=nan", "interact drag 100ms from=inf",
          "interact pinch 100ms travel=-inf", "animate 100ms mean=0",
          "animate 100ms mean=-1", "realtime 100ms sigma=-0.1",
          "animate 100ms heavy_rate=-1", "animate 100ms alpha=0",
          "animate 100ms heavy_min=3 heavy_max=3",
          "animate 100ms heavy_min=4 heavy_max=2", "animate 100ms burst=-0.1",
          "animate 100ms burst=1.5", "animate 100ms ui=-0.5",
          "interact swipe 100ms ui=2"}) {
        const ScenarioScript s = parse_scenario_script(
            std::string("animate 100ms\n") + bad + "\n");
        EXPECT_FALSE(s.ok) << bad;
        EXPECT_EQ(s.error_line, 2) << bad;
    }
    // The ends of each range are accepted.
    const ScenarioScript edge = parse_scenario_script(
        "animate 100ms mean=0.01 sigma=0 heavy_rate=0 burst=0 ui=0\n"
        "animate 100ms burst=1 ui=1 heavy_min=2.9 heavy_max=3\n");
    EXPECT_TRUE(edge.ok) << edge.error;
}

TEST(ScenarioScript, RejectsNumbersWithTrailingOrMissingDigits)
{
    // Every number must be the whole word: a prefix that parses is not
    // enough, and a word with no digits is not 0.
    for (const char *bad :
         {"seed abc", "seed 12x", "seed -1", "seed 1.5",
          "seed 18446744073709551616", "repeat 2x\nanimate 1ms\nend",
          "repeat abc\nanimate 1ms\nend", "repeat 0\nanimate 1ms\nend",
          "repeat 10001\nanimate 1ms\nend", "animate 100ms mean=3x",
          "animate 100ms sigma=abc", "realtime 100ms heavy_rate=",
          "animate 100ms seed=5q", "interact swipe 100ms from=1e3px",
          "interact drag 100ms travel=+800"}) {
        const ScenarioScript s = parse_scenario_script(
            std::string("animate 100ms\n") + bad + "\n");
        EXPECT_FALSE(s.ok) << bad;
        EXPECT_EQ(s.error_line, 2) << bad;
    }
    // The ends of each range still parse.
    const ScenarioScript edge = parse_scenario_script(
        "seed 18446744073709551615\n"
        "repeat 10000\nidle 1ms\nend\n"
        "animate 100ms mean=1e-1 from=-5\n");
    ASSERT_TRUE(edge.ok) << edge.error;
    EXPECT_EQ(edge.seed, 18446744073709551615u);
    EXPECT_EQ(edge.scenario.size(), 10'001u);
}

TEST(ScenarioScript, LoadFromFile)
{
    const std::string path = ::testing::TempDir() + "/dvs_script.txt";
    {
        std::ofstream out(path);
        out << "animate 100ms\n";
    }
    const ScenarioScript s = load_scenario_script(path);
    EXPECT_TRUE(s.ok) << s.error;
    EXPECT_EQ(s.scenario.size(), 1u);
    std::remove(path.c_str());

    EXPECT_FALSE(load_scenario_script("/nonexistent/file.txt").ok);
}
