/**
 * @file
 * Chaos tests: deterministic fault plans, the fault injector, the
 * invariant monitor under every fault mix, and the runtime's graceful
 * degradation (D-VSync -> VSync fall-back and re-promotion).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/render_system.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_monitor.h"
#include "sim/logging.h"
#include "test_support.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

Scenario
mixed_scenario(Time animation = 600_ms)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    Scenario sc("chaos");
    sc.animate(animation, cost)
        .idle(100_ms)
        .realtime(200_ms, cost)
        .animate(animation / 2, cost);
    return sc;
}

} // namespace

// ----- FaultPlan ----------------------------------------------------------

TEST(FaultPlan, ReplaysByteForByteFromSeed)
{
    for (const FaultMix &mix : FaultMix::campaign_mixes()) {
        const FaultPlan a = FaultPlan::generate(17, 1_s, mix);
        const FaultPlan b = FaultPlan::generate(17, 1_s, mix);
        EXPECT_EQ(a, b) << mix.name;
        EXPECT_EQ(a.debug_string(), b.debug_string()) << mix.name;
        EXPECT_EQ(a.windows().size(),
                  mix.kinds.size() * std::size_t(mix.windows_per_kind));
    }
}

TEST(FaultPlan, DifferentSeedsDiffer)
{
    const FaultMix mix = FaultMix::everything();
    EXPECT_NE(FaultPlan::generate(1, 1_s, mix),
              FaultPlan::generate(2, 1_s, mix));
}

TEST(FaultPlan, WindowsSortedAndWithinHorizon)
{
    const FaultPlan plan =
        FaultPlan::generate(5, 800_ms, FaultMix::everything());
    Time prev = 0;
    for (const FaultWindow &w : plan.windows()) {
        EXPECT_GE(w.start, prev);
        EXPECT_GT(w.end, w.start);
        EXPECT_LE(w.end, 800_ms);
        prev = w.start;
    }
}

TEST(FaultPlan, ActiveAndMagnitudeFollowWindows)
{
    const FaultPlan plan =
        FaultPlan::generate(9, 1_s, FaultMix::compute());
    for (const FaultWindow &w : plan.windows()) {
        EXPECT_TRUE(plan.active(w.kind, w.start));
        EXPECT_NE(plan.magnitude(w.kind, w.start), 0.0);
        // Windows are half-open, but same-kind windows may overlap: at
        // w.end the fault is only off if no sibling window covers it.
        bool covered = false;
        for (const FaultWindow &o : plan.windows())
            covered = covered || (o.kind == w.kind && o.contains(w.end));
        EXPECT_EQ(plan.active(w.kind, w.end), covered);
    }
    EXPECT_FALSE(plan.active(FaultKind::kQueueStall, 0)); // not in mix
}

TEST(FaultPlan, RejectsNonPositiveHorizon)
{
    FatalThrowsScope scope(true);
    EXPECT_THROW(FaultPlan::generate(1, 0, FaultMix::display()),
                 ConfigError);
}

// ----- clean runs ---------------------------------------------------------

TEST(InvariantMonitor, CleanRunsHaveZeroViolations)
{
    for (RenderMode mode : {RenderMode::kVsync, RenderMode::kDvsync}) {
        SystemConfig cfg;
        cfg.mode = mode;
        RenderSystem sys(cfg, mixed_scenario());
        const RunReport r = sys.run();
        expect_no_invariant_violations(sys);
        expect_frame_conservation(sys);
        EXPECT_EQ(r.invariant_violations, 0u) << to_string(mode);
        EXPECT_EQ(r.faults_injected, 0u);
        EXPECT_EQ(r.degradations, 0u);
        EXPECT_TRUE(r.timeline.empty());
    }
}

namespace {

/**
 * A panel fed by hand, watched by a monitor attached to a producer that
 * never starts: every buffer the test queues is presented without the
 * producer having queued a frame.
 */
struct HandFedPanel {
    Simulator sim;
    HwVsyncGenerator hw{sim, 100.0};
    BufferQueue queue{3};
    Panel panel{hw, queue};
    VsyncDistributor dist{sim, hw};
    Producer producer{sim, mixed_scenario(), queue, dist};
    InvariantMonitor monitor;

    HandFedPanel() { monitor.attach(producer, panel, 0); }

    /** Queue frame ids[i] 5 ms before edge i + 1, then run past them. */
    void
    present(const std::vector<std::uint64_t> &ids)
    {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            sim.events().schedule(Time(i) * 10_ms + 5_ms, [this, id = ids[i]] {
                FrameBuffer *buf = queue.try_dequeue(sim.now());
                ASSERT_NE(buf, nullptr);
                buf->meta().frame_id = id;
                queue.queue(buf, sim.now());
            });
        }
        hw.start();
        sim.run_until(Time(ids.size()) * 10_ms + 1_ms);
    }

    /** Logged violations named @p invariant. */
    std::vector<InvariantViolation>
    logged(const std::string &invariant) const
    {
        std::vector<InvariantViolation> out;
        for (const InvariantViolation &v : monitor.log())
            if (v.invariant == invariant)
                out.push_back(v);
        return out;
    }
};

} // namespace

TEST(InvariantMonitor, RepresentedOlderFrameBreaksUniquenessAndOrder)
{
    // Frame 0 comes back after frame 2: latched twice, and out of FIFO
    // order. Frame 900 lies past the producer's reserved frame count and
    // breaks neither.
    HandFedPanel t;
    ASSERT_LT(t.producer.records_reserved(), 900u);
    t.present({0, 2, 0, 900});
    EXPECT_EQ(t.panel.presented(), 4u);

    const auto doubles = t.logged("double-present");
    ASSERT_EQ(doubles.size(), 1u);
    EXPECT_EQ(doubles[0].detail, "frame 0 latched twice");
    EXPECT_EQ(doubles[0].time, 30_ms);
    const auto order = t.logged("fifo-order");
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0].detail, "frame 0 after frame 2");
    EXPECT_EQ(order[0].time, 30_ms);
}

TEST(InvariantMonitor, PresentsBeyondQueuedFramesBreakConservation)
{
    // Nothing was queued through the producer, so every present is one
    // too many: recorded live at each, and once more at finalize().
    HandFedPanel t;
    t.present({0, 1});
    const auto live = t.logged("frame-conservation");
    ASSERT_EQ(live.size(), 2u);
    EXPECT_EQ(live[0].detail, "1 presents > 0 queued");
    EXPECT_EQ(live[1].detail, "2 presents > 0 queued");
    EXPECT_TRUE(t.logged("double-present").empty());
    EXPECT_TRUE(t.logged("fifo-order").empty());

    t.monitor.finalize(t.sim.now());
    t.monitor.finalize(t.sim.now()); // idempotent
    const auto all = t.logged("frame-conservation");
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[2].detail, "run end: 2 presents > 0 queued");
    EXPECT_EQ(t.monitor.violations(), 3u);
}

// ----- faulted runs -------------------------------------------------------

TEST(FaultInjector, EveryMixRunsCleanThroughTheMonitor)
{
    const Time horizon = mixed_scenario().total_duration();
    for (const FaultMix &mix : FaultMix::campaign_mixes()) {
        for (std::uint64_t seed : {1ull, 23ull}) {
            for (RenderMode mode :
                 {RenderMode::kVsync, RenderMode::kDvsync}) {
                auto plan = std::make_shared<const FaultPlan>(
                    FaultPlan::generate(seed, horizon, mix));
                SystemConfig cfg;
                cfg.mode = mode;
                cfg.seed = seed;
                cfg.faults = plan;
                RenderSystem sys(cfg, mixed_scenario());
                const RunReport r = sys.run();
                SCOPED_TRACE(mix.name + "/" + to_string(mode) +
                             "/seed=" + std::to_string(seed));
                expect_no_invariant_violations(sys);
                expect_frame_conservation(sys);
                EXPECT_EQ(r.invariant_violations, 0u);
                // The pipeline survived and kept presenting.
                EXPECT_GT(r.presents, 0u);
                EXPECT_EQ(r.faults_injected,
                          sys.fault_injector()->injected_total());
            }
        }
    }
}

TEST(FaultInjector, CountsActivationsPerKind)
{
    const Time horizon = mixed_scenario().total_duration();
    auto plan = std::make_shared<const FaultPlan>(
        FaultPlan::generate(3, horizon, FaultMix::everything()));
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    cfg.faults = plan;
    RenderSystem sys(cfg, mixed_scenario());
    sys.run();
    EXPECT_GT(sys.fault_injector()->injected_total(), 0u);
    // At least the always-hit kinds fired (edges and frames flow through
    // their hooks every refresh while a window is open).
    EXPECT_GT(sys.fault_injector()->injected(FaultKind::kVsyncEdgeLoss),
              0u);
    EXPECT_GT(sys.fault_injector()->injected(FaultKind::kThermalThrottle),
              0u);
}

TEST(FaultInjector, FaultedRunsReplayByteForByte)
{
    const Time horizon = mixed_scenario().total_duration();
    auto plan = std::make_shared<const FaultPlan>(
        FaultPlan::generate(11, horizon, FaultMix::everything()));
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    cfg.seed = 11;
    cfg.faults = plan;
    RenderSystem a(cfg, mixed_scenario());
    RenderSystem b(cfg, mixed_scenario());
    EXPECT_EQ(a.run().debug_string(), b.run().debug_string());
}

// ----- graceful degradation -----------------------------------------------

TEST(Degradation, MultiSecondStallDegradesThenRepromotes)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    Scenario sc("stall");
    sc.animate(4_s, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, sc);
    sys.runtime()->attach_watchdog(sys.panel(), sys.monitor());

    // The display dies for 2 seconds mid-animation (screen off / panel
    // hang); the watchdog must fall back to VSync pacing, resync DTV,
    // and re-promote once presents are stable again.
    sys.sim().events().schedule(1_s, [&] { sys.hw_vsync().stop(); });
    sys.sim().events().schedule(3_s, [&] { sys.hw_vsync().start(); });
    const RunReport r = sys.run();

    EXPECT_GE(r.degradations, 1u);
    EXPECT_GE(r.repromotions, 1u);
    EXPECT_GE(r.dtv_resyncs, 1u);
    EXPECT_EQ(sys.dtv()->resyncs(), r.dtv_resyncs);
    ASSERT_GE(r.timeline.size(), 2u);
    EXPECT_EQ(r.timeline[0].to, Transition::kVsync) << r.debug_string();
    EXPECT_EQ(r.timeline[0].reason, Transition::Reason::kDisplayStall)
        << r.debug_string();
    EXPECT_EQ(r.timeline[1].to, Transition::kDvsync) << r.debug_string();
    // Back on the decoupled path by the end of the run.
    EXPECT_FALSE(sys.runtime()->degraded());
    EXPECT_TRUE(sys.runtime()->enabled());
    expect_frame_conservation(sys);
    expect_no_invariant_violations(sys);
}

TEST(Degradation, WatchdogOffByDefaultKeepsRunsUntouched)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    Scenario sc("stall");
    sc.animate(2_s, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, sc);
    sys.sim().events().schedule(500_ms, [&] { sys.hw_vsync().stop(); });
    sys.sim().events().schedule(1500_ms, [&] { sys.hw_vsync().start(); });
    const RunReport r = sys.run();
    EXPECT_EQ(r.degradations, 0u);
    EXPECT_TRUE(r.timeline.empty());
}

// ----- timeline text ------------------------------------------------------
//
// The exact report text of each watchdog transition kind no bench golden
// shows; debug_string() and the report fingerprint are built from it.

TEST(TimelineText, InvariantPressureDegradeAndRepromote)
{
    Scenario sc("pressure");
    sc.animate(1_s, std::make_shared<ConstantCostModel>(1_ms, 4_ms));
    InvariantMonitor pressure; // fed by hand below
    RenderSystem sys(SystemConfig().with_mode(RenderMode::kDvsync), sc);
    sys.runtime()->attach_watchdog(sys.panel(), &pressure);
    sys.sim().events().schedule(200_ms, [&] {
        for (int i = 0; i < 3; ++i)
            pressure.on_budget(sys.sim().now(), 2.0, 1.0);
    });
    const std::string s = sys.run().debug_string();
    EXPECT_TRUE(s.ends_with(
        "\n  t=216666658 degrade [invariant-pressure] 3 recent violations "
        "-> VSync pacing, DTV resync"
        "\n  t=749999970 repromote after 32 stable presents -> D-VSync"))
        << s;
}

TEST(TimelineText, DtvDesyncDegrade)
{
    // 70 ms GPU hangs make pre-rendered frames present far from the
    // display time DTV promised them.
    Scenario sc("desync");
    sc.animate(2_s, std::make_shared<ConstantCostModel>(
                        FrameCost{1_ms, 4_ms, 4_ms}));
    auto plan = std::make_shared<const FaultPlan>(FaultPlan::from_windows(
        1, "pin", {{FaultKind::kGpuHang, 300_ms, 1500_ms, 70e6}}));
    const std::string s =
        run_experiment(
            SystemConfig().with_mode(RenderMode::kDvsync).with_faults(plan),
            sc)
            .debug_string();
    EXPECT_TRUE(s.ends_with(
        "\n  t=749999970 degrade [dtv-desync] 5 consecutive off-promise "
        "presents -> VSync pacing, DTV resync"
        "\n  t=1283333282 repromote after 32 stable presents -> D-VSync"))
        << s;
}

TEST(TimelineText, BackoffSuffixOnAQuickSecondDegrade)
{
    Scenario sc("backoff");
    sc.animate(2_s, std::make_shared<ConstantCostModel>(1_ms, 4_ms));
    RenderSystem sys(SystemConfig().with_mode(RenderMode::kDvsync), sc);
    sys.runtime()->attach_watchdog(sys.panel(), sys.monitor());
    for (Time at : {100_ms, 1_s}) {
        sys.sim().events().schedule(at, [&sys] {
            sys.runtime()->force_degrade(sys.sim().now(), "pinned");
        });
    }
    const std::string s = sys.run().debug_string();
    EXPECT_TRUE(s.ends_with(
        "\n  t=100000000 degrade [forced] pinned -> VSync pacing, DTV resync"
        "\n  t=633333308 repromote after 32 stable presents -> D-VSync"
        "\n  t=1000000000 degrade [forced] pinned -> VSync pacing, DTV "
        "resync (backoff x2: 64 stable presents to re-promote)"
        "\n  t=2066666584 repromote after 64 stable presents -> D-VSync"))
        << s;
}

// ----- recovery paths -----------------------------------------------------

TEST(Recovery, ScreenOffOnAcrossLtpoRateSwitch)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    for (RenderMode mode : {RenderMode::kVsync, RenderMode::kDvsync}) {
        Scenario sc("ltpo-off-on");
        sc.animate(2_s, cost);
        SystemConfig cfg;
        cfg.mode = mode;
        RenderSystem sys(cfg, sc);
        // Screen off at 500 ms; while dark, the panel switches from
        // 60 Hz to 120 Hz (LTPO decision applied at the next edge after
        // restart); screen back on at 1.2 s.
        sys.sim().events().schedule(500_ms, [&] { sys.hw_vsync().stop(); });
        sys.sim().events().schedule(
            800_ms, [&] { sys.hw_vsync().request_rate(120.0); });
        sys.sim().events().schedule(1200_ms,
                                    [&] { sys.hw_vsync().start(); });
        const RunReport r = sys.run();
        SCOPED_TRACE(to_string(mode));
        expect_frame_conservation(sys);
        expect_no_invariant_violations(sys);
        // Production resumed at the new rate.
        Time last_present = 0;
        for (const ShownFrame &f : sys.stats().shown())
            last_present = std::max(last_present, f.present_time);
        EXPECT_GT(last_present, 1300_ms);
        EXPECT_DOUBLE_EQ(sys.hw_vsync().rate_hz(), 120.0);
        EXPECT_GT(r.presents, 0u);
    }
}

TEST(Recovery, QueueAtCapacityDuringRuntimeSwitch)
{
    // Zero-cost frames fill the queue to the pre-render limit almost
    // immediately; toggling the runtime off and on right then exercises
    // the kDvsync -> kVsync -> kDvsync pacing switch with no free slots.
    auto cost = std::make_shared<ConstantCostModel>(0, 0);
    Scenario sc("full-queue-switch");
    sc.animate(1_s, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, sc);
    for (int i = 1; i <= 6; ++i) {
        sys.sim().events().schedule(Time(i) * 100_ms, [&sys, i] {
            sys.runtime()->set_enabled(i % 2 == 0);
        });
    }
    const RunReport r = sys.run();
    expect_frame_conservation(sys);
    expect_no_invariant_violations(sys);
    EXPECT_EQ(r.drops, 0u);
    EXPECT_GT(sys.fpe()->pre_rendered_frames(), 0u);
    EXPECT_GT(sys.fpe()->fallback_frames(), 0u);
}

TEST(Recovery, DtvResyncDropsPendingPromises)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    Scenario sc("resync");
    sc.animate(1_s, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, sc);
    bool saw_pending = false;
    sys.sim().events().schedule(500_ms, [&] {
        saw_pending = sys.dtv()->pending_promises() > 0;
        sys.dtv()->resync();
        EXPECT_EQ(sys.dtv()->pending_promises(), 0u);
    });
    sys.run();
    EXPECT_TRUE(saw_pending);
    EXPECT_EQ(sys.dtv()->resyncs(), 1u);
    // The chain re-anchors and keeps presenting cleanly afterwards.
    expect_frame_conservation(sys);
    expect_no_invariant_violations(sys);
}
