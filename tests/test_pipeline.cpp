/**
 * @file
 * Tests of the rendering pipeline under the conventional VSync pacer:
 * the §2 behaviours — the 2-period pipeline, frame drops on heavy
 * frames, buffer stuffing after a drop, and absorption of the next long
 * frame by the standing stuffed buffer.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/render_system.h"
#include "pipeline/exec_resource.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

/** A VSync run over one animation segment with the given cost model. */
RenderSystem
make_vsync_run(std::shared_ptr<const FrameCostModel> cost, Time duration,
               int buffers = 0)
{
    Scenario sc("t");
    sc.animate(duration, std::move(cost));
    SystemConfig cfg;
    cfg.device = pixel5();
    cfg.mode = RenderMode::kVsync;
    cfg.buffers = buffers;
    return RenderSystem(cfg, sc);
}

constexpr Time kPeriod = 16'666'666; // 60 Hz

} // namespace

// ----- ExecResource ----------------------------------------------------------

TEST(ExecResource, SerializesWork)
{
    Simulator sim;
    ExecResource r(sim, "t");
    std::vector<Time> done;
    EXPECT_TRUE(r.idle());
    Time s1 = r.run(10_ms, [&] { done.push_back(sim.now()); });
    EXPECT_EQ(s1, 0);
    EXPECT_FALSE(r.idle());
    Time s2 = r.run(5_ms, [&] { done.push_back(sim.now()); });
    EXPECT_EQ(s2, 10_ms); // queued behind
    sim.run();
    EXPECT_EQ(done, (std::vector<Time>{10_ms, 15_ms}));
    EXPECT_EQ(r.total_busy(), 15_ms);
    EXPECT_EQ(r.jobs(), 2u);
    EXPECT_TRUE(r.idle());
}

TEST(ExecResource, ZeroDurationWorkCompletesSameTick)
{
    Simulator sim;
    ExecResource r(sim, "t");
    bool ran = false;
    r.run(0, [&] { ran = true; });
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.now(), 0);
}

TEST(ExecResource, CompletionsFollowSubmissionOrder)
{
    // Completions pop a FIFO, so the contract is that they fire in
    // submission order whatever the mix: zero-duration jobs, jobs queued
    // behind a busy resource, a cost transform stretching one job, two
    // jobs ending on the same tick, and a completion callback that
    // submits again. Done listeners run after each job's own callback.
    Simulator sim;
    ExecResource r(sim, "t");
    std::vector<std::string> log;
    auto note = [&](const std::string &what) {
        log.push_back(what + "@" + std::to_string(sim.now() / 1_ms));
    };
    r.add_cost_transform(
        [](Time, Time d) { return d == 3_ms ? 3 * d : d; }); // job 2: 9 ms
    r.add_done_listener([&] { note("L"); });

    EXPECT_EQ(r.run(0, [&] { note("j0"); }), 0);
    EXPECT_EQ(r.run(5_ms,
                    [&] {
                        note("j1");
                        // Submitted at 5 ms, queued behind j2 and j3.
                        EXPECT_EQ(r.run(2_ms, [&] { note("j4"); }), 14_ms);
                    }),
              0);
    EXPECT_EQ(r.run(3_ms, [&] { note("j2"); }), 5_ms);
    EXPECT_EQ(r.run(0, [&] { note("j3"); }), 14_ms); // same tick as j2
    sim.run();

    const std::vector<std::string> want = {
        "j0@0",  "L@0",  "j1@5",  "L@5",  "j2@14",
        "L@14", "j3@14", "L@14", "j4@16", "L@16"};
    EXPECT_EQ(log, want);
    EXPECT_EQ(r.jobs(), 5u);
    EXPECT_EQ(r.total_busy(), 16_ms);
    EXPECT_TRUE(r.idle());
}

TEST(ExecResource, LongBacklogCompletesInSubmissionOrder)
{
    // A resource that never drains while work keeps arriving: each
    // completion submits one more job behind a 200-job backlog.
    Simulator sim;
    ExecResource r(sim, "t");
    std::vector<int> done;
    int submitted = 0;
    std::function<void()> submit = [&] {
        const int k = submitted++;
        r.run(k % 3 == 0 ? 0 : 1_ms, [&, k] {
            done.push_back(k);
            if (submitted < 500)
                submit();
        });
    };
    for (int i = 0; i < 200; ++i)
        submit();
    sim.run();
    ASSERT_EQ(done.size(), 500u);
    for (int k = 0; k < 500; ++k)
        EXPECT_EQ(done[std::size_t(k)], k);
    EXPECT_TRUE(r.idle());
}

TEST(ExecResource, TeardownMidRunWithPendingWork)
{
    // A RenderSystem destroyed mid-run, while a vsync batch is in flight
    // (delivery pending at edge + offset) and completions are queued on
    // a busy resource: every captured state is destroyed, none runs.
    Scenario sc("t");
    sc.animate(1_s, std::make_shared<ConstantCostModel>(4_ms, 9_ms));
    SystemConfig cfg;
    cfg.device = pixel5();
    cfg.mode = RenderMode::kVsync;
    cfg.vsync_app_offset = 2_ms;

    auto token = std::make_shared<int>(0); // use_count tracks captures
    bool ran = false;
    {
        RenderSystem sys(cfg, sc);
        sys.hw_vsync().start();
        sys.producer().start(0);
        const Time edge = 10 * kPeriod;
        sys.sim().events().schedule(edge - 1_ms, [&sys, &ran, token] {
            // Snapshotted into the edge's batch, delivered at edge+2 ms.
            sys.distributor().request_callback(
                VsyncChannel::kApp,
                [&ran, token](const SwVsync &) { ran = true; });
            ExecResource &gpu = sys.producer().gpu();
            gpu.run(30_ms, [&ran, token] { ran = true; });
            gpu.run(1_ms, [&ran, token] { ran = true; });
        });
        sys.sim().run_until(edge + 1_ms);
        EXPECT_FALSE(ran);
        EXPECT_FALSE(sys.producer().gpu().idle());
        EXPECT_EQ(token.use_count(), 4) << "batch entry + two queued jobs";
    }
    EXPECT_FALSE(ran);
    EXPECT_EQ(token.use_count(), 1);
}

// ----- steady-state pipeline ----------------------------------------------------

TEST(VsyncPipeline, SteadyStateLatencyIsTwoPeriods)
{
    auto cost = std::make_shared<ConstantCostModel>(2_ms, 5_ms);
    RenderSystem sys = make_vsync_run(cost, 500_ms);
    sys.run();

    EXPECT_EQ(sys.stats().frame_drops(), 0u);
    EXPECT_EQ(sys.stats().buffer_stuffing(), 0u);
    EXPECT_GT(sys.stats().presents(), 25u);
    // Latency == 2 periods for every frame.
    EXPECT_NEAR(sys.stats().latency().mean(), double(2 * kPeriod),
                double(1_us));
    EXPECT_NEAR(sys.stats().latency().max(), double(2 * kPeriod),
                double(1_us));
}

TEST(VsyncPipeline, EveryDueFramePresentsWhenLoadIsLight)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    RenderSystem sys = make_vsync_run(cost, 1_s);
    sys.run();
    EXPECT_EQ(std::int64_t(sys.stats().presents()),
              sys.stats().frames_due());
}

TEST(VsyncPipeline, PipelineStagesOverlap)
{
    // UI of frame n+1 runs while frame n renders (§2's pipeline).
    auto cost = std::make_shared<ConstantCostModel>(4_ms, 9_ms);
    RenderSystem sys = make_vsync_run(cost, 200_ms);
    sys.run();
    const auto &recs = sys.producer().records();
    ASSERT_GE(recs.size(), 4u);
    // Frame 2's UI starts before frame 1's render ends.
    EXPECT_LT(recs[2].ui_start, recs[1].render_end);
    EXPECT_EQ(sys.stats().frame_drops(), 0u);
}

// ----- the Figure 2 story ---------------------------------------------------------

TEST(VsyncPipeline, HeavyFrameDropsAndStuffsSuccessors)
{
    // Every 20th frame takes ~2 periods of render time.
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{2_ms, 5_ms}, FrameCost{2_ms, 30_ms}, 20, -10);
    RenderSystem sys = make_vsync_run(cost, 500_ms);
    sys.run();

    EXPECT_GE(sys.stats().frame_drops(), 1u);
    EXPECT_GT(sys.stats().buffer_stuffing(), 0u);

    // After the drop, later frames carry 3-period latency.
    EXPECT_NEAR(sys.stats().latency().max(), double(3 * kPeriod),
                double(1_us));
}

TEST(VsyncPipeline, StandingBufferAbsorbsNextHeavyFrame)
{
    // Two heavy frames: the first drops; the second is absorbed by the
    // standing stuffed buffer (§2: "until another long frame emerges").
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{2_ms, 5_ms}, FrameCost{2_ms, 30_ms}, 10, -5);
    RenderSystem sys = make_vsync_run(cost, 300_ms);
    sys.run();
    // Slots 5 and 15 are heavy; only the first causes a drop.
    EXPECT_EQ(sys.stats().frame_drops(), 1u);
}

TEST(VsyncPipeline, TripleBufferingBlocksProducerWhenQueueFull)
{
    // Render faster than the screen consumes is impossible under VSync
    // pacing, but a long UI stall followed by catch-up exercises the
    // dequeue-blocking path: with only 2 slots nothing deadlocks.
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 2_ms);
    RenderSystem sys = make_vsync_run(cost, 300_ms, /*buffers=*/2);
    sys.run();
    EXPECT_GT(sys.stats().presents(), 10u);
}

TEST(VsyncPipeline, UiOverrunSkipsSlots)
{
    // A UI stage longer than one period forces trigger slots to skip.
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{2_ms, 5_ms}, FrameCost{40_ms, 5_ms}, 15, -7);
    RenderSystem sys = make_vsync_run(cost, 500_ms);
    sys.run();
    EXPECT_GT(sys.stats().frame_drops(), 0u);
    // Fewer frames produced than slots owed (some slots skipped).
    EXPECT_LT(std::int64_t(sys.stats().presents()),
              sys.stats().frames_due());
}

// ----- segment bookkeeping -------------------------------------------------------

TEST(VsyncPipeline, SegmentAnchoredOnFirstTrigger)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc("t");
    sc.idle(25_ms).animate(200_ms, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kVsync;
    RenderSystem sys(cfg, sc);
    sys.run();

    const SegmentState &st = sys.producer().segment_state(1);
    // Segment starts at 25 ms; first edge after is 33.33 ms.
    EXPECT_EQ(st.anchor, 2 * kPeriod);
    EXPECT_GT(st.total_slots, 10);
    EXPECT_EQ(st.produced, st.total_slots);
    EXPECT_EQ(st.started, st.total_slots);
}

TEST(VsyncPipeline, IdleSegmentsProduceNothing)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc("t");
    sc.animate(100_ms, cost).idle(200_ms).animate(100_ms, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kVsync;
    RenderSystem sys(cfg, sc);
    sys.run();

    // No drops during the idle gap: repeats there are not "due".
    EXPECT_EQ(sys.stats().frame_drops(), 0u);
    for (const auto &rec : sys.producer().records())
        EXPECT_NE(rec.segment_index, 1);
}

TEST(VsyncPipeline, RecordsHaveCompleteLifecycles)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    RenderSystem sys = make_vsync_run(cost, 300_ms);
    sys.run();
    for (const auto &r : sys.producer().records()) {
        EXPECT_NE(r.ui_start, kTimeNone);
        EXPECT_LE(r.ui_start, r.ui_end);
        EXPECT_LE(r.ui_end, r.render_start);
        EXPECT_LT(r.render_start, r.render_end);
        EXPECT_EQ(r.render_end, r.queue_time);
        EXPECT_NE(r.present_time, kTimeNone);
        EXPECT_GT(r.present_time, r.queue_time);
        EXPECT_FALSE(r.pre_rendered);
        EXPECT_EQ(r.kind, SegmentKind::kAnimation);
    }
}

TEST(VsyncPipeline, ContentTimestampEqualsTriggerEdge)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    RenderSystem sys = make_vsync_run(cost, 200_ms);
    sys.run();
    for (const auto &r : sys.producer().records()) {
        EXPECT_EQ(r.content_timestamp, r.trigger_time);
        EXPECT_EQ(r.timeline_timestamp, r.content_timestamp);
    }
}

// ----- compositor latch deadline ----------------------------------------------------

TEST(Compositor, LatchLeadDelaysTightFrames)
{
    // Renders finish ~7 ms after the edge; with a 12 ms latch lead they
    // miss the next edge (16.7 - 7 = 9.7 < 12) and wait one more period.
    auto cost = std::make_shared<ConstantCostModel>(2_ms, 5_ms);

    RenderSystem direct = make_vsync_run(cost, 300_ms);
    direct.run();
    SystemConfig cfg;
    cfg.mode = RenderMode::kVsync;
    cfg.latch_lead = 12_ms;
    Scenario sc("t");
    sc.animate(300_ms, cost);
    RenderSystem sf(cfg, sc);
    sf.run();

    EXPECT_GT(sf.latch().missed_deadline(), 0u);
    EXPECT_GT(sf.stats().latency().mean(), direct.stats().latency().mean());
}
