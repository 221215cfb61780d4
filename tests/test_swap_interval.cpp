/**
 * @file
 * Tests for the Swappy-style swap-interval pacer (the industry baseline
 * the paper positions D-VSync against).
 */

#include <gtest/gtest.h>

#include "core/render_system.h"
#include "metrics/stutter_model.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

Scenario
animation(std::shared_ptr<const FrameCostModel> cost, Time duration = 1_s)
{
    Scenario sc("t");
    sc.animate(duration, std::move(cost));
    return sc;
}

/**
 * Every frame takes ~1.3 periods (60 Hz is unreachable), so the pacer
 * raises the interval to 2 once it has a full window of frame costs and
 * holds it there.
 */
std::shared_ptr<const FrameCostModel>
over_budget()
{
    return std::make_shared<ConstantCostModel>(4_ms, 18_ms);
}

/**
 * By this time the pacer has filled its window at interval 1 and
 * settled at 2, and the frames started at interval 1 have presented.
 */
constexpr Time kSettled = 500'000'000;

} // namespace

TEST(SwapInterval, SettledIntervalHalvesRate)
{
    SystemConfig cfg;
    cfg.mode = RenderMode::kPaced;
    RenderSystem sys(cfg, animation(over_budget(), 2_s));
    sys.run();

    ASSERT_NE(sys.pacer(), nullptr);
    EXPECT_EQ(sys.pacer()->interval(), 2);
    EXPECT_EQ(sys.pacer()->interval_changes(), 1u);

    // Once settled, presents land exactly two periods apart: a steady
    // ~30 Hz cadence on the 60 Hz panel.
    Time prev = kTimeNone;
    int settled_presents = 0;
    for (const ShownFrame &f : sys.stats().shown()) {
        if (f.present_time < kSettled)
            continue;
        ++settled_presents;
        if (prev != kTimeNone) {
            EXPECT_EQ(f.present_time - prev, 2 * 16'666'666);
        }
        prev = f.present_time;
    }
    EXPECT_NEAR(settled_presents / to_seconds(2_s - kSettled), 30.0, 2.0);
}

TEST(SwapInterval, IntervalOneBehavesLikeVsync)
{
    // Light frames fit every period, so the interval never leaves 1.
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    SystemConfig paced;
    paced.mode = RenderMode::kPaced;
    RenderSystem a(paced, animation(cost));
    a.run();
    EXPECT_EQ(a.pacer()->interval(), 1);
    EXPECT_EQ(a.pacer()->interval_changes(), 0u);

    SystemConfig vsync;
    RenderSystem b(vsync, animation(cost));
    b.run();

    EXPECT_EQ(a.stats().presents(), b.stats().presents());
    EXPECT_EQ(a.stats().frame_drops(), b.stats().frame_drops());
}

TEST(SwapInterval, AutoModeRaisesIntervalUnderSustainedLoad)
{
    // Auto pacing settles at interval 2 (steady 30 Hz).
    SystemConfig cfg;
    cfg.mode = RenderMode::kPaced;
    RenderSystem sys(cfg, animation(over_budget(), 2_s));
    sys.run();

    EXPECT_EQ(sys.pacer()->interval(), 2);
    EXPECT_GT(sys.pacer()->interval_changes(), 0u);
    // A few frames run at interval 1 before auto mode settles.
    EXPECT_NEAR(sys.stats().fps(), 30.0, 6.0);
}

TEST(SwapInterval, AutoModeLowersIntervalWhenLoadLifts)
{
    // Heavy first half, light second half: the interval comes back down.
    auto light = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc("t");
    sc.animate(1_s, over_budget()).animate(2_s, light);
    SystemConfig cfg;
    cfg.mode = RenderMode::kPaced;
    RenderSystem sys(cfg, sc);
    sys.run();
    EXPECT_EQ(sys.pacer()->interval(), 1);
    EXPECT_GE(sys.pacer()->interval_changes(), 2u);
}

TEST(SwapInterval, CadenceIsNotPerceivedAsStutter)
{
    // The point of pacing: a steady half-rate cadence produces no
    // perceived stutters even though every other refresh repeats.
    SystemConfig cfg;
    cfg.mode = RenderMode::kPaced;
    RenderSystem sys(cfg, animation(over_budget(), 2_s));
    sys.run();
    ASSERT_EQ(sys.pacer()->interval(), 2);
    StutterDetector settled;
    for (const RefreshLog &r : sys.stats().refreshes()) {
        if (r.time >= kSettled)
            settled.on_refresh(r.time, r.drop);
    }
    settled.finish();
    EXPECT_EQ(settled.stutters(), 0u);
    // But the conceded refreshes count as drops (the paper's point:
    // "50 FPS without G-Sync implies 10 janks on a 60 Hz screen").
    EXPECT_GT(sys.stats().frame_drops(), 50u);
}

TEST(SwapInterval, DvsyncBeatsPacingOnSporadicKeyFrames)
{
    // Sporadic key frames slip under the pacer's p90 radar, so pacing
    // behaves like VSync and keeps dropping at each spike; D-VSync
    // absorbs them entirely at the same full frame rate.
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{1_ms, 5_ms}, FrameCost{2_ms, 30_ms}, 20, 10);

    SystemConfig paced;
    paced.mode = RenderMode::kPaced;
    RenderSystem a(paced, animation(cost, 2_s));
    a.run();

    SystemConfig dvsync;
    dvsync.mode = RenderMode::kDvsync;
    RenderSystem b(dvsync, animation(cost, 2_s));
    b.run();

    EXPECT_GT(a.stats().frame_drops(), 0u);
    EXPECT_EQ(b.stats().frame_drops(), 0u);
    EXPECT_GE(b.stats().fps(), a.stats().fps());
    EXPECT_NEAR(b.stats().fps(), 60.0, 2.0);
}
