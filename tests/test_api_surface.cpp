/**
 * @file
 * Tests of the dual-channel decoupling API surface (§4.5) under dynamic
 * use: limit shrinking, predictor unregistration mid-run, display-time
 * queries over time, and defensive producer entry points.
 */

#include <gtest/gtest.h>

#include "core/render_system.h"
#include "input/gesture.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

Scenario
animation(Time duration)
{
    Scenario sc("t");
    sc.animate(duration, std::make_shared<ConstantCostModel>(1_ms, 4_ms));
    return sc;
}

} // namespace

TEST(ApiSurface, PrerenderLimitShrinksMidRun)
{
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    cfg.buffers = 6; // limit 4
    RenderSystem sys(cfg, animation(1_s));
    EXPECT_EQ(sys.prerender_limit(), 4);

    sys.sim().events().schedule(
        300_ms, [&] { sys.runtime()->set_prerender_limit(1); });
    sys.run();

    EXPECT_EQ(sys.prerender_limit(), 1);
    EXPECT_EQ(sys.queue().capacity(), 3);
    // The queue retired slots lazily but the run stayed smooth.
    EXPECT_EQ(sys.stats().frame_drops(), 0u);
    EXPECT_LE(sys.queue().slots().size(), 3u);
}

TEST(ApiSurface, QueryDisplayTimeAdvancesWithTheRun)
{
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, animation(1_s));
    std::vector<Time> promised;
    for (Time at : {200_ms, 500_ms, 800_ms}) {
        sys.sim().events().schedule(at, [&] {
            promised.push_back(sys.runtime()->query_display_time());
        });
    }
    sys.run();
    ASSERT_EQ(promised.size(), 3u);
    EXPECT_LT(promised[0], promised[1]);
    EXPECT_LT(promised[1], promised[2]);
    // Peeking must not consume the promise chain: presents stay exact.
    EXPECT_EQ(sys.dtv()->promise_error().max(), 0.0);
}

TEST(ApiSurface, UnregisteringPredictorFallsBackMidRun)
{
    GestureTiming timing;
    timing.duration = 800_ms;
    auto touch =
        std::make_shared<TouchStream>(make_swipe(timing, 1800, 1200));
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    Scenario sc("t");
    sc.interact(touch, cost, "scroll");

    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, sc);
    sys.runtime()->register_predictor("scroll",
                                      std::make_shared<LinearPredictor>());
    sys.sim().events().schedule(400_ms, [&] {
        sys.runtime()->ipl().unregister_predictor("scroll");
    });
    sys.run();

    bool pre_before = false, fallback_after = false;
    for (const auto &rec : sys.producer().records()) {
        if (rec.trigger_time < 380_ms && rec.pre_rendered)
            pre_before = true;
        if (rec.trigger_time > 450_ms && !rec.pre_rendered)
            fallback_after = true;
    }
    EXPECT_TRUE(pre_before);
    EXPECT_TRUE(fallback_after);
}

TEST(ApiSurface, PredictorOverheadAppearsInFrameCosts)
{
    GestureTiming timing;
    timing.duration = 400_ms;
    auto touch =
        std::make_shared<TouchStream>(make_swipe(timing, 1800, 900));
    auto cost = std::make_shared<ConstantCostModel>(2_ms, 4_ms);
    Scenario sc("t");
    sc.interact(touch, cost, "scroll");

    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, sc);
    sys.runtime()->register_predictor("scroll",
                                      std::make_shared<LinearPredictor>());
    sys.run();

    for (const auto &rec : sys.producer().records())
        EXPECT_EQ(rec.cost.ui_time, 2_ms + kPredictorOverhead);
}

TEST(ApiSurface, SkipSlotsClampsAndIgnoresBadInput)
{
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, animation(300_ms));
    // Before any segment is active, skip is a no-op.
    sys.producer().skip_slots(5);
    sys.producer().skip_slots(-3);
    // Mid-run, a huge skip clamps at the segment end.
    sys.sim().events().schedule(150_ms,
                                [&] { sys.producer().skip_slots(1000); });
    sys.run();
    const SegmentState &st = sys.producer().segment_state(0);
    EXPECT_EQ(st.next_slot, st.total_slots);
}

TEST(ApiSurface, SegmentQueriesToleratebadIndices)
{
    SystemConfig cfg;
    RenderSystem sys(cfg, animation(100_ms));
    EXPECT_FALSE(sys.producer().segment_has_more(-1));
    EXPECT_FALSE(sys.producer().segment_has_more(99));
}
