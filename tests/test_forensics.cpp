/**
 * @file
 * Frame-forensics tests: drop root-cause classification (one
 * deterministic scenario per cause), the attribution invariant, the
 * flow-event round trip through the Chrome trace export, the forensics
 * dump JSON, and the MetricsRegistry sampler.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "buffer/buffer_queue.h"
#include "core/display_time_virtualizer.h"
#include "core/dvsync_config.h"
#include "core/dvsync_runtime.h"
#include "core/frame_pre_executor.h"
#include "core/render_system.h"
#include "display/hw_vsync.h"
#include "display/panel.h"
#include "fault/fault_plan.h"
#include "metrics/frame_stats.h"
#include "obs/drop_classifier.h"
#include "obs/json_view.h"
#include "obs/metrics_registry.h"
#include "pipeline/producer.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "sim/tracing.h"
#include "vsyncsrc/vsync_distributor.h"
#include "workload/app_profiles.h"
#include "workload/frame_cost.h"
#include "workload/scenario.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

std::uint64_t
cause_sum(const std::array<std::uint64_t, kDropCauseCount> &counts)
{
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts)
        sum += c;
    return sum;
}

/** A single-kind fault plan, deterministic from the seed. */
std::shared_ptr<const FaultPlan>
one_kind_plan(FaultKind kind, std::uint64_t seed, Time horizon,
              int windows = 4)
{
    FaultMix m;
    m.name = to_string(kind);
    m.kinds = {kind};
    m.windows_per_kind = windows;
    return std::make_shared<const FaultPlan>(
        FaultPlan::generate(seed, horizon, m));
}

void
expect_attributed(const RunReport &r)
{
    EXPECT_GT(r.drops, 0u);
    EXPECT_EQ(cause_sum(r.drop_causes), r.drops);
    EXPECT_EQ(r.drop_causes[int(DropCause::kUnknown)], 0u);
}

} // namespace

// ----- per-cause scenarios (emergent, no faults) --------------------------

TEST(DropClassifier, SlowUiWhenUiStageOverruns)
{
    // 40 ms of UI work per frame spans multiple refresh periods, so
    // dropped edges catch the owed frame still in its UI stage.
    Scenario sc("slow-ui");
    sc.animate(400_ms,
               std::make_shared<ConstantCostModel>(FrameCost{40_ms, 1_ms}));
    const RunReport r = run_experiment(
        SystemConfig().with_mode(RenderMode::kDvsync), sc);
    expect_attributed(r);
    EXPECT_GT(r.drop_causes[int(DropCause::kSlowUi)], 0u);
    EXPECT_EQ(r.drops_injected, 0u);
}

TEST(DropClassifier, SlowRenderWhenRenderStageOverruns)
{
    Scenario sc("slow-render");
    sc.animate(400_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 25_ms}));
    const RunReport r = run_experiment(SystemConfig(), sc);
    expect_attributed(r);
    EXPECT_EQ(r.drop_causes[int(DropCause::kSlowRender)], r.drops);
    EXPECT_EQ(r.drops_injected, 0u);
}

TEST(DropClassifier, LatchMissUnderVsyncJitter)
{
    // Jittered edges latch early against buffers queued for the nominal
    // timeline: the content was ready, the latch missed it.
    Scenario sc("latch-miss");
    sc.animate(600_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 4_ms}));
    const RunReport r = run_experiment(SystemConfig()
                                           .with_mode(RenderMode::kDvsync)
                                           .with_vsync_jitter(2_ms),
                                       sc);
    expect_attributed(r);
    EXPECT_GT(r.drop_causes[int(DropCause::kLatchMiss)], 0u);
}

// ----- per-cause scenarios (fault-injected) -------------------------------

TEST(DropClassifier, QueueStuffedUnderBufferAllocFailure)
{
    // Failed buffer allocations stall the producer between its render
    // stage and the queue; the screen starves while frames wait for a
    // free slot — the queue-stuffing signature, tagged as injected.
    Scenario sc("queue-stuffed");
    sc.animate(900_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 4_ms}));
    const RunReport r = run_experiment(
        SystemConfig()
            .with_mode(RenderMode::kDvsync)
            .with_seed(1)
            .with_faults(one_kind_plan(FaultKind::kBufferAllocFail, 1,
                                       900_ms)),
        sc);
    expect_attributed(r);
    EXPECT_GT(r.drop_causes[int(DropCause::kQueueStuffed)], 0u);
    EXPECT_GT(r.drops_injected, 0u);
}

TEST(DropClassifier, GpuContentionUnderInjectedGpuHang)
{
    // A GPU-heavy workload plus injected GPU hangs: the owed frame sits
    // in its GPU phase at every dropped edge, inside a hang window.
    Scenario sc("gpu-hang");
    sc.animate(900_ms, std::make_shared<ConstantCostModel>(
                           FrameCost{1_ms, 2_ms, 9_ms}));
    const RunReport r = run_experiment(
        SystemConfig().with_seed(1).with_faults(
            one_kind_plan(FaultKind::kGpuHang, 1, 900_ms)),
        sc);
    expect_attributed(r);
    EXPECT_EQ(r.drop_causes[int(DropCause::kGpuContention)], r.drops);
    EXPECT_EQ(r.drops_injected, r.drops);
}

TEST(DropClassifier, ConsumerSideFaultsTagInjectedFault)
{
    // Edge loss and latch stalls leave no producer-side trace: the
    // pipeline delivered, the consumer was sabotaged.
    FaultMix m;
    m.name = "consumer";
    m.kinds = {FaultKind::kVsyncEdgeLoss, FaultKind::kQueueStall};
    m.windows_per_kind = 3;
    Scenario sc("consumer-faults");
    sc.animate(900_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 4_ms}));
    const RunReport r = run_experiment(
        SystemConfig()
            .with_mode(RenderMode::kDvsync)
            .with_seed(1)
            .with_faults(std::make_shared<const FaultPlan>(
                FaultPlan::generate(1, 900_ms, m))),
        sc);
    expect_attributed(r);
    EXPECT_GT(r.drop_causes[int(DropCause::kInjectedFault)], 0u);
    EXPECT_GT(r.drops_injected, 0u);
}

// ----- thermal causes -----------------------------------------------------

TEST(DropClassifier, ThermalThrottleWhenThePlantTripsEmergently)
{
    // A GPU-heavy soak under a constrained envelope: the plant trips,
    // the slowed clock pushes frames past their deadlines, and the
    // classifier splits those drops from generic slow-render. No fault
    // plan: every throttle drop must stay un-injected (emergent).
    const Time p = pixel5().period();
    Scenario sc("thermal-soak");
    sc.realtime(1'500_ms, std::make_shared<ConstantCostModel>(FrameCost{
                              Time(0.06 * p), Time(0.12 * p),
                              Time(0.78 * p)}));
    const RunReport r = run_experiment(SystemConfig()
                                           .with_mode(RenderMode::kDvsync)
                                           .with_thermal_envelope(0.5),
                                       sc);
    expect_attributed(r);
    EXPECT_GT(r.thermal_trips, 0u);
    EXPECT_GT(r.drop_causes[int(DropCause::kThermalThrottle)], 0u);
    EXPECT_EQ(r.drops_injected, 0u);
}

TEST(DropClassifier, InjectedThrottleWindowsSplitFromEmergentTrips)
{
    // The same soak with injected thermal-throttle fault windows on
    // top: drops inside a window count as injected via
    // FaultPlan::active_in, the rest stay emergent.
    const Time p = pixel5().period();
    Scenario sc("thermal-soak-injected");
    sc.realtime(1'500_ms, std::make_shared<ConstantCostModel>(FrameCost{
                              Time(0.06 * p), Time(0.12 * p),
                              Time(0.78 * p)}));
    const RunReport r = run_experiment(
        SystemConfig()
            .with_mode(RenderMode::kDvsync)
            .with_seed(1)
            .with_thermal_envelope(0.5)
            .with_faults(one_kind_plan(FaultKind::kThermalThrottle, 1,
                                       1'500_ms)),
        sc);
    expect_attributed(r);
    EXPECT_GT(r.drop_causes[int(DropCause::kThermalThrottle)], 0u);
    EXPECT_GT(r.drops_injected, 0u);
    EXPECT_LT(r.drops_injected, r.drops); // both flavors present
}

// ----- pacing-level causes (harness) --------------------------------------
//
// kDegraded and kDtvDesync attribute drops whose owed frame was never
// started — the pacing layer skipped the slot. The full simulator's
// producer is eager enough that emergent runs always have the owed frame
// in flight (and classify as slow-*), so these tests pin the branch with
// a pacer that deliberately declines trigger edges after the first
// frame: every later owed slot drops with an idle pipeline, exactly the
// state DTV slot-skips and degraded pacing leave behind.

namespace {

class ThrottlePacer : public VsyncPacer
{
  public:
    explicit ThrottlePacer(int accept) : accept_(accept) {}
    bool accept_vsync_trigger(const SwVsync &) override
    {
        return accepted_ < accept_ ? (++accepted_, true) : false;
    }

  private:
    int accept_;
    int accepted_ = 0;
};

struct IdleDropHarness {
    Simulator sim{1};
    BufferQueue queue{3};
    HwVsyncGenerator hw;
    Panel panel;
    VsyncDistributor dist;
    Producer producer;
    FrameStats stats;
    ThrottlePacer pacer{1};

    IdleDropHarness()
        : hw(sim, 60.0), panel(hw, queue), dist(sim, hw),
          producer(sim, make_scenario(), queue, dist),
          stats(producer, panel)
    {
        producer.set_pacer(&pacer);
    }

    static Scenario make_scenario()
    {
        Scenario sc("throttled");
        sc.animate(100_ms, std::make_shared<ConstantCostModel>(
                               FrameCost{1_ms, 2_ms}));
        return sc;
    }

    DropClassifier::Context context()
    {
        DropClassifier::Context cc;
        cc.producer = &producer;
        cc.queue = &queue;
        cc.stats = &stats;
        cc.gpu = &producer.gpu();
        return cc;
    }

    void run()
    {
        hw.start();
        producer.start(0);
        sim.run_until(200_ms);
        hw.stop();
    }
};

} // namespace

TEST(DropClassifier, DegradedTagsIdleDropsWhileOnFallback)
{
    IdleDropHarness h;
    DvsyncConfig dc;
    DisplayTimeVirtualizer dtv(h.sim, h.hw, h.panel, dc);
    DvsyncRuntime runtime(dc);
    FramePreExecutor fpe(dtv, h.queue, h.panel, runtime, dc);
    runtime.bind(h.producer, dtv, fpe, h.queue);

    DropClassifier::Context cc = h.context();
    cc.runtime = &runtime;
    cc.dtv = &dtv;
    DropClassifier cls(cc, h.panel);

    runtime.force_degrade(0, "test kill switch");
    h.run();

    EXPECT_GT(cls.total(), 0u);
    EXPECT_EQ(cls.total(), h.stats.frame_drops());
    EXPECT_EQ(cls.counts()[int(DropCause::kDegraded)], cls.total());
    EXPECT_EQ(cls.unknown_drops(), 0u);
}

TEST(DropClassifier, DtvDesyncTagsIdleSlotSkips)
{
    // Same idle drops with a healthy (non-degraded) runtime: a D-VSync
    // producer only skips owed slots through DTV drop elasticity.
    IdleDropHarness h;
    DvsyncConfig dc;
    DisplayTimeVirtualizer dtv(h.sim, h.hw, h.panel, dc);
    DvsyncRuntime runtime(dc);
    FramePreExecutor fpe(dtv, h.queue, h.panel, runtime, dc);
    runtime.bind(h.producer, dtv, fpe, h.queue);

    DropClassifier::Context cc = h.context();
    cc.runtime = &runtime;
    cc.dtv = &dtv;
    DropClassifier cls(cc, h.panel);

    h.run();

    EXPECT_GT(cls.total(), 0u);
    EXPECT_EQ(cls.counts()[int(DropCause::kDtvDesync)], cls.total());
    EXPECT_EQ(cls.unknown_drops(), 0u);
}

TEST(DropClassifier, DtvDesyncTagsDropsAfterPromiseChainResets)
{
    // Resyncs landing between refreshes flip the "resyncs changed since
    // the last present" signal — the DTV-only branch, no runtime needed.
    IdleDropHarness h;
    DvsyncConfig dc;
    DisplayTimeVirtualizer dtv(h.sim, h.hw, h.panel, dc);

    DropClassifier::Context cc = h.context();
    cc.dtv = &dtv;
    DropClassifier cls(cc, h.panel);

    for (Time at = 8_ms; at < 200_ms; at += 16_ms)
        h.sim.events().schedule(at, [&dtv] { dtv.resync(); });
    h.run();

    EXPECT_GT(cls.total(), 0u);
    EXPECT_EQ(cls.counts()[int(DropCause::kDtvDesync)], cls.total());
}

TEST(DropClassifier, GovernorCappedTagsPacerSkipsWhileARungIsEngaged)
{
    // Idle-pipeline drops with an engaged governor rung in context: the
    // ladder throttled production on purpose, so the skips attribute to
    // governor-capped ahead of the DTV-elasticity bucket.
    IdleDropHarness h;
    DropClassifier::Context cc = h.context();
    bool capping = true;
    cc.governor_capped = [&capping] { return capping; };
    DropClassifier cls(cc, h.panel);
    h.run();

    EXPECT_GT(cls.total(), 0u);
    EXPECT_EQ(cls.counts()[int(DropCause::kGovernorCapped)], cls.total());
    EXPECT_EQ(cls.unknown_drops(), 0u);
}

TEST(DropClassifier, GovernorCappedYieldsWhenNoRungIsEngaged)
{
    // The same wiring with the ladder at nominal: the closure answers
    // false and the drops fall through to the usual buckets.
    IdleDropHarness h;
    DropClassifier::Context cc = h.context();
    cc.governor_capped = [] { return false; };
    DropClassifier cls(cc, h.panel);
    h.run();

    EXPECT_GT(cls.total(), 0u);
    EXPECT_EQ(cls.counts()[int(DropCause::kGovernorCapped)], 0u);
}

TEST(DropClassifier, UnknownOnlyWithoutAnyMechanism)
{
    // With no runtime, DTV, or fault plan in context the same idle drops
    // have no mechanism left — the kUnknown bucket the campaigns assert
    // stays empty in fully-wired systems.
    IdleDropHarness h;
    DropClassifier cls(h.context(), h.panel);
    h.run();

    EXPECT_GT(cls.total(), 0u);
    EXPECT_EQ(cls.counts()[int(DropCause::kUnknown)], cls.total());
}

// ----- forced degradation (kill switch) -----------------------------------

TEST(DvsyncRuntime, ForceDegradeRecordsTransitionAndStaysDegraded)
{
    Scenario sc("forced");
    sc.animate(300_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 4_ms}));
    RenderSystem sys(SystemConfig().with_mode(RenderMode::kDvsync), sc);
    sys.sim().events().schedule(50_ms, [&sys] {
        sys.runtime()->force_degrade(sys.sim().now(), "vendor kill switch");
    });
    const RunReport r = sys.run();
    EXPECT_EQ(r.degradations, 1u);
    EXPECT_EQ(r.repromotions, 0u); // no watchdog: stays on the fallback
    EXPECT_TRUE(sys.runtime()->degraded());
    ASSERT_FALSE(r.timeline.empty());
    EXPECT_EQ(r.timeline.front().reason, Transition::Reason::kForced);
    EXPECT_EQ(r.timeline.front().detail, "vendor kill switch");
    // Idempotent: a second pull of the switch is a no-op.
    sys.runtime()->force_degrade(sys.sim().now(), "again");
    EXPECT_EQ(sys.runtime()->degradations(), 1u);
}

// ----- attribution invariant ----------------------------------------------

TEST(DropAttribution, CountsSumToDropsAcrossAChaosRun)
{
    Scenario sc("chaos-like");
    sc.animate(600_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 4_ms}));
    const RunReport r = run_experiment(
        SystemConfig()
            .with_mode(RenderMode::kDvsync)
            .with_seed(3)
            .with_faults(std::make_shared<const FaultPlan>(
                FaultPlan::generate(3, 600_ms, FaultMix::everything()))),
        sc);
    // RenderSystem::report() panics on a mismatch; this re-checks the
    // arithmetic from the outside and pins the injected <= total bound.
    EXPECT_EQ(cause_sum(r.drop_causes), r.drops);
    EXPECT_EQ(r.drop_causes[int(DropCause::kUnknown)], 0u);
    EXPECT_LE(r.drops_injected, r.drops);
}

TEST(DropAttribution, PerSurfaceCountsSumInMultiSurfaceRuns)
{
    auto heavy = std::make_shared<ConstantCostModel>(FrameCost{2_ms, 14_ms});
    auto light = std::make_shared<ConstantCostModel>(FrameCost{1_ms, 3_ms});
    Scenario a("app");
    a.animate(600_ms, heavy);
    Scenario b("status");
    b.animate(600_ms, light);
    RenderSystem sys(
        SystemConfig().with_budget_mb(24.0),
        {SurfaceDesc().with_name("app").with_scenario(a).with_buffer_mb(
             12.0),
         SurfaceDesc().with_name("status").with_scenario(b).with_buffer_mb(
             10.0)});
    const RunReport r = sys.run();

    std::uint64_t total = 0;
    for (const SurfaceReport &s : r.surfaces) {
        EXPECT_EQ(cause_sum(s.drop_causes), s.drops) << s.name;
        EXPECT_EQ(s.drop_causes[int(DropCause::kUnknown)], 0u) << s.name;
        total += cause_sum(s.drop_causes);
    }
    EXPECT_EQ(cause_sum(r.drop_causes), total);
    EXPECT_EQ(cause_sum(r.drop_causes), r.drops);
}

TEST(DropAttribution, ForensicsLeavesASweepBitIdenticalAndIsCheap)
{
    // A small fig11-style sweep (app swipes under VSync and D-VSync) run
    // with and without forensics. The metrics sampler only reads
    // component state, so the summed results must be bit-identical; its
    // cost is bounded on the deterministic metric, extra dispatched
    // events, because wall clock is too noisy to bound a few percent.
    struct Totals {
        double fdps = 0.0;
        double latency_ms = 0.0;
        std::uint64_t drops = 0;
        std::uint64_t presents = 0;
        std::uint64_t events = 0;
    };
    const auto sweep = [](bool forensics) {
        Totals t;
        const std::vector<ProfileSpec> &apps = pixel5_app_profiles();
        for (std::size_t i = 0; i < 4; ++i) {
            for (const RenderMode mode :
                 {RenderMode::kVsync, RenderMode::kDvsync}) {
                const std::uint64_t seed = 100 + i;
                const Scenario sc = make_swipe_scenario(
                    apps[i].name, 8, 500_ms,
                    make_cost_model(apps[i], 60.0, seed), 0.7);
                RenderSystem sys(SystemConfig()
                                     .with_mode(mode)
                                     .with_seed(seed)
                                     .with_forensics(forensics),
                                 sc);
                const RunReport r = sys.run();
                t.fdps += r.fdps;
                t.latency_ms += r.latency_p99_ms;
                t.drops += r.drops;
                t.presents += r.presents;
                t.events += sys.sim().events().dispatched();
            }
        }
        return t;
    };
    const Totals off = sweep(false);
    const Totals on = sweep(true);
    EXPECT_GT(off.drops, 0u);
    EXPECT_EQ(on.fdps, off.fdps);
    EXPECT_EQ(on.latency_ms, off.latency_ms);
    EXPECT_EQ(on.drops, off.drops);
    EXPECT_EQ(on.presents, off.presents);
    EXPECT_GT(on.events, off.events); // the sampler does run
    EXPECT_LE(double(on.events - off.events), 0.05 * double(off.events));
}

// ----- flow-event round trip ----------------------------------------------

TEST(FrameForensics, FlowEventsRoundTripThroughTraceExport)
{
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{1_ms, 5_ms}, FrameCost{2_ms, 40_ms}, 20, 10);
    Scenario sc("flows");
    sc.animate(400_ms, cost);
    RenderSystem sys(SystemConfig().with_mode(RenderMode::kDvsync), sc);
    sys.run();

    TraceLog log;
    sys.export_trace(log);
    std::string err;
    const JsonValue trace = JsonValue::parse(log.to_json(), &err);
    ASSERT_TRUE(trace.is_array()) << err;

    // Every flow that starts must terminate, on the same frame name.
    std::map<std::uint64_t, std::string> started;
    std::set<std::uint64_t> finished;
    std::uint64_t steps = 0;
    for (const JsonValue &ev : trace.items()) {
        const std::string ph = ev.string_at("ph");
        if (ph != "s" && ph != "t" && ph != "f")
            continue;
        const std::uint64_t id = std::uint64_t(ev.number_at("id", -1.0));
        if (ph == "s") {
            EXPECT_FALSE(started.count(id)) << "flow started twice";
            started[id] = ev.string_at("name");
        } else if (ph == "t") {
            ++steps;
        } else {
            EXPECT_TRUE(started.count(id)) << "flow finished unseen";
            EXPECT_EQ(started[id], ev.string_at("name"));
            finished.insert(id);
        }
    }
    ASSERT_FALSE(started.empty());
    EXPECT_GT(steps, 0u);
    for (const auto &[id, name] : started)
        EXPECT_TRUE(finished.count(id)) << "unterminated flow " << name;

    // The flows correspond 1:1 to frames that left the UI stage.
    const FrameForensics f = sys.forensics();
    ASSERT_EQ(f.surfaces().size(), 1u);
    std::uint64_t chains_with_spans = 0;
    for (const FrameChain &c : f.surfaces()[0].chains)
        chains_with_spans += !c.spans.empty();
    EXPECT_EQ(started.size(), chains_with_spans);
}

TEST(FrameForensics, ChainsCoverEveryFrameAndOrderSpans)
{
    Scenario sc("chains");
    sc.animate(300_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 4_ms}));
    RenderSystem sys(SystemConfig().with_mode(RenderMode::kDvsync), sc);
    sys.run();

    const FrameForensics f = sys.forensics();
    ASSERT_EQ(f.surfaces().size(), 1u);
    const SurfaceForensics &s = f.surfaces()[0];
    EXPECT_EQ(s.chains.size(), sys.producer().records().size());
    EXPECT_EQ(cause_sum(s.cause_counts), s.drops.size());
    for (const FrameChain &c : s.chains) {
        ASSERT_FALSE(c.spans.empty());
        Time cursor = c.spans.front().t0;
        for (const FrameSpan &sp : c.spans) {
            EXPECT_GE(sp.t0, cursor) << sp.stage;
            if (sp.t1 != kTimeNone) {
                EXPECT_GE(sp.t1, sp.t0) << sp.stage;
                cursor = sp.t0;
            }
        }
        if (c.present != kTimeNone) {
            EXPECT_STREQ(c.spans.back().stage, "display.present");
            EXPECT_GE(c.latency(), 0);
        }
    }
}

// ----- forensics dump round trip ------------------------------------------

TEST(FrameForensics, DumpRoundTripsThroughJson)
{
    Scenario sc("dump");
    sc.animate(400_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 25_ms}));
    SystemConfig cfg = SystemConfig().with_forensics(true);
    cfg.metrics_interval = cfg.device.period();
    RenderSystem sys(cfg, sc);
    const RunReport r = sys.run();

    const std::string path = ::testing::TempDir() + "/dvs_forensics.json";
    ASSERT_TRUE(sys.save_forensics(path));
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::remove(path.c_str());

    std::string err;
    const JsonValue dump = JsonValue::parse(text, &err);
    ASSERT_TRUE(dump.is_object()) << err;
    EXPECT_EQ(dump.string_at("source"), "dvsync-forensics");
    EXPECT_EQ(dump.number_at("schema"), 1.0);
    EXPECT_EQ(dump.string_at("scenario"), "dump");
    EXPECT_EQ(dump.string_at("mode"), "VSync");

    ASSERT_TRUE(dump.at("surfaces").is_array());
    const JsonValue &surface = dump.at("surfaces").items().at(0);
    EXPECT_EQ(surface.at("drops").items().size(), r.drops);
    std::uint64_t from_causes = 0;
    for (int c = 0; c < kDropCauseCount; ++c) {
        from_causes += std::uint64_t(
            surface.at("causes").number_at(to_string(DropCause(c))));
    }
    EXPECT_EQ(from_causes, r.drops);
    EXPECT_EQ(surface.at("frames").items().size(),
              sys.producer().records().size());

    // The metrics sampler ran on the dense cadence and was embedded.
    ASSERT_TRUE(dump.at("metrics").is_object());
    EXPECT_GT(dump.at("metrics").at("metrics").items().size(), 0u);
}

// ----- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistry, SamplesOnTheConfiguredCadence)
{
    Scenario sc("cadence");
    sc.animate(600_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 4_ms}));
    SystemConfig cfg =
        SystemConfig().with_mode(RenderMode::kDvsync).with_forensics(true);
    cfg.metrics_interval = cfg.device.period(); // dense: one per refresh
    RenderSystem sys(cfg, sc);
    const RunReport r = sys.run();

    const MetricsRegistry *m = sys.metrics();
    ASSERT_NE(m, nullptr);
    EXPECT_GT(m->samples_taken(), 30u);

    const std::vector<MetricSample> *presents = m->series("panel.presents");
    ASSERT_NE(presents, nullptr);
    ASSERT_FALSE(presents->empty());
    double last = -1.0;
    for (const MetricSample &s : *presents) {
        EXPECT_GE(s.value, last); // counters never decrease
        last = s.value;
    }
    EXPECT_LE(std::uint64_t(last), r.presents);
    EXPECT_EQ(m->series("no.such.metric"), nullptr);
}

TEST(MetricsRegistry, OffByDefaultAndDuplicateNamesAreFatal)
{
    Scenario sc("off");
    sc.animate(100_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 4_ms}));
    RenderSystem sys(SystemConfig(), sc);
    EXPECT_EQ(sys.metrics(), nullptr); // forensics off: no registry

    FatalThrowsScope scope(true);
    MetricsRegistry reg;
    reg.register_gauge("dup", [] { return 0.0; });
    EXPECT_THROW(reg.register_counter("dup", [] { return 0.0; }),
                 ConfigError);
}
