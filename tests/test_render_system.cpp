/**
 * @file
 * Tests of the RenderSystem facade and its configuration surface:
 * buffer defaults, offsets, jitter, latch leads, FPS accounting, trace
 * export wiring, and parameterized sweeps across refresh rates.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>

#include "core/render_system.h"
#include "harness/experiment_runner.h"
#include "sim/logging.h"
#include "workload/device_population.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

Scenario
steady(Time duration = 500_ms)
{
    Scenario sc("t");
    sc.animate(duration, std::make_shared<ConstantCostModel>(1_ms, 4_ms));
    return sc;
}

} // namespace

TEST(RenderSystem, FleetDispatchTotalsPerPriority)
{
    // Events dispatched per priority over paper_fleet sessions [0, 256)
    // at seed 1. A change that only makes dispatch cheaper (how a
    // completion or a vsync request is stored, say) keeps every one of
    // these; a change that adds, drops or re-prioritizes events moves
    // them, and the dispatch hashes of the .dvst corpus with them.
    // Software vsync is delivered inside the edge that triggers it, so
    // kVsyncDist counts only the deliveries that had to be scheduled
    // behind an earlier event at the edge's tick: none here.
    constexpr std::array<std::uint64_t, kEventPriorities.size()> kWant = {
        22726, // kDisplay: refresh edges and latches
        1024,  // kSegment: scenario segment boundaries
        0,     // kVsyncDist: software vsync deliveries that were scheduled
        28144, // kPipeline: UI, render and GPU completions
        0,     // kDefault
        0,     // kMetrics
    };
    const DevicePopulation pop = DevicePopulation::paper_fleet(1);
    FatalThrowsScope recoverable(true);
    std::array<std::uint64_t, kEventPriorities.size()> got{};
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < 256; ++i) {
        const Experiment exp = pop.experiment(i);
        std::optional<RenderSystem> sys;
        sys.emplace(exp.config, exp.scenario);
        sys->run();
        const EventQueue &q = sys->sim().events();
        for (std::size_t k = 0; k < got.size(); ++k)
            got[k] += q.dispatched(kEventPriorities[k]);
        total += q.dispatched();
    }
    EXPECT_EQ(got, kWant);
    EXPECT_EQ(total, 51894u) << "every dispatch counted at one priority";
}

TEST(RenderSystem, BufferDefaultsFollowArchitecture)
{
    SystemConfig vs;
    vs.device = pixel5();
    RenderSystem a(vs, steady());
    EXPECT_EQ(a.buffers(), 3); // triple buffering

    SystemConfig dv = vs;
    dv.mode = RenderMode::kDvsync;
    RenderSystem b(dv, steady());
    EXPECT_EQ(b.buffers(), 4); // paper default: one extra buffer
    EXPECT_EQ(b.prerender_limit(), 2);

    SystemConfig oh;
    oh.device = mate60_pro();
    oh.mode = RenderMode::kDvsync;
    RenderSystem c(oh, steady());
    EXPECT_EQ(c.buffers(), 5);
    EXPECT_EQ(c.prerender_limit(), 3); // §5.1: 3 back buffers
}

TEST(RenderSystem, ExplicitBuffersAndLimitRespected)
{
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    cfg.buffers = 6;
    cfg.prerender_limit = 2;
    RenderSystem sys(cfg, steady());
    EXPECT_EQ(sys.buffers(), 6);
    EXPECT_EQ(sys.prerender_limit(), 2);
}

TEST(RenderSystem, VsyncModeHasNoDvsyncComponents)
{
    SystemConfig cfg;
    RenderSystem sys(cfg, steady());
    EXPECT_EQ(sys.runtime(), nullptr);
    EXPECT_EQ(sys.dtv(), nullptr);
    EXPECT_EQ(sys.fpe(), nullptr);
    EXPECT_EQ(sys.prerender_limit(), 0);
}

TEST(RenderSystem, FpsMatchesFullRateWhenSmooth)
{
    SystemConfig cfg;
    cfg.device = mate60_pro();
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, steady(1_s));
    sys.run();
    EXPECT_EQ(sys.stats().frame_drops(), 0u);
    EXPECT_NEAR(sys.stats().fps(), 120.0, 3.0);
}

TEST(RenderSystem, FpsDegradesWithDrops)
{
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{1_ms, 4_ms}, FrameCost{1_ms, 25_ms}, 8, 4);
    Scenario sc("t");
    sc.animate(1_s, cost);
    SystemConfig cfg;
    cfg.device = mate60_pro();
    RenderSystem sys(cfg, sc);
    sys.run();
    // The paper's "95-105 FPS on the 120 Hz screen" situation.
    EXPECT_LT(sys.stats().fps(), 115.0);
    EXPECT_GT(sys.stats().fps(), 80.0);
}

TEST(RenderSystem, JitterDoesNotBreakSmoothRuns)
{
    for (RenderMode mode : {RenderMode::kVsync, RenderMode::kDvsync}) {
        SystemConfig cfg;
        cfg.mode = mode;
        cfg.vsync_jitter = 300_us;
        cfg.seed = 9;
        RenderSystem sys(cfg, steady(1_s));
        sys.run();
        EXPECT_EQ(sys.stats().frame_drops(), 0u)
            << "mode " << to_string(mode);
    }
}

TEST(RenderSystem, RunExperimentConvenience)
{
    SystemConfig cfg;
    EXPECT_EQ(run_experiment(cfg, steady(300_ms)).fdps, 0.0);
}

class RateSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(RateSweep, SmoothAtEveryRefreshRate)
{
    const double hz = GetParam();
    for (RenderMode mode : {RenderMode::kVsync, RenderMode::kDvsync}) {
        SystemConfig cfg;
        cfg.device = pixel5();
        cfg.device.refresh_hz = hz;
        cfg.mode = mode;
        // A light constant load fits every period at every rate.
        Scenario sc("t");
        sc.animate(500_ms,
                   std::make_shared<ConstantCostModel>(500'000, 2_ms));
        RenderSystem sys(cfg, sc);
        sys.run();
        EXPECT_EQ(sys.stats().frame_drops(), 0u)
            << hz << " Hz " << to_string(mode);
        EXPECT_EQ(std::int64_t(sys.stats().presents()),
                  sys.stats().frames_due());
        // Latency floor = 2 periods at each rate.
        EXPECT_NEAR(sys.stats().latency().mean(),
                    2.0 * double(period_from_hz(hz)), 2e4);
    }
}

INSTANTIATE_TEST_SUITE_P(Rates, RateSweep,
                         ::testing::Values(30.0, 60.0, 90.0, 120.0,
                                           144.0));

class LatchLeadSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(LatchLeadSweep, LatencyGrowsMonotonicallyWithLead)
{
    // A SurfaceFlinger-style latch deadline postpones tight frames; the
    // mean latency must be monotone in the lead.
    auto run_with = [](Time lead) {
        SystemConfig cfg;
        cfg.latch_lead = lead;
        Scenario sc("t");
        sc.animate(500_ms,
                   std::make_shared<ConstantCostModel>(2_ms, 6_ms));
        RenderSystem sys(cfg, sc);
        sys.run();
        return sys.stats().latency().mean();
    };
    const Time lead = Time(GetParam()) * 1_ms;
    EXPECT_LE(run_with(lead), run_with(lead + 4_ms) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Leads, LatchLeadSweep,
                         ::testing::Values(0, 4, 8));
