/**
 * @file
 * Closed-loop governor tests: the RC thermal/DVFS plant (monotone
 * heating, Newton cooling, emergent trips, the governor floor,
 * bit-identical replay), the graded ladder driven through fake
 * sensors (hold/promote hysteresis, handoff gating, exponential
 * re-promotion backoff, the flap-storm transition bound), the watchdog
 * flap-storm bound, and end-to-end determinism of governed runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/render_system.h"
#include "display/device_config.h"
#include "governor/governor.h"
#include "metrics/power_model.h"
#include "workload/frame_cost.h"
#include "workload/scenario.h"

using namespace dvs;
using namespace dvs::time_literals;

// ----- thermal plant ------------------------------------------------------

namespace {

ThermalParams
tight_envelope()
{
    // Constrained chassis: sustained level-0 power at ~60% duty settles
    // past the throttle threshold.
    return thermal_params_for(2600.0, 19.0, 0.5);
}

/** Drive @p plant with a fixed duty cycle for @p jobs jobs. */
void
soak(ThermalPlant &plant, Time start, int jobs, Time busy, Time period)
{
    for (int i = 0; i < jobs; ++i) {
        const Time t = start + Time(i) * period;
        plant.on_busy(t, t + busy);
    }
}

} // namespace

TEST(ThermalPlant, HeatsMonotonicallyTowardSteadyState)
{
    ThermalPlant plant(tight_envelope());
    const double r = plant.params().resistance_c_per_w;
    // 100% duty at level 0: steady state = ambient + R * P. Heating is
    // monotone until the ladder trips (a trip lowers the power, so the
    // die cools afterwards — that phase belongs to the trip test).
    const double steady =
        plant.params().ambient_c +
        r * plant.params().levels.front().power_mw / 1000.0;
    double prev = plant.temperature_c();
    int jobs = 0;
    for (; jobs < 200 && plant.throttle_trips() == 0; ++jobs) {
        const Time t = Time(jobs) * 10_ms;
        plant.on_busy(t, t + 10_ms);
        if (plant.throttle_trips() > 0)
            break;
        EXPECT_GE(plant.temperature_c(), prev);
        EXPECT_LE(plant.temperature_c(), steady + 1e-9);
        prev = plant.temperature_c();
    }
    EXPECT_GT(plant.temperature_c(), plant.params().start_c);
    // Sustained 100% duty past the scaled budget must eventually trip,
    // and the peak never exceeds the pre-trip climb.
    EXPECT_GT(plant.throttle_trips(), 0u);
    EXPECT_GE(plant.peak_temp_c(), plant.params().throttle_c);
    EXPECT_GE(plant.peak_temp_c(), plant.temperature_c());
}

TEST(ThermalPlant, CoolsTowardAmbientWhenIdle)
{
    ThermalPlant plant(tight_envelope());
    soak(plant, 0, 40, 10_ms, 10_ms); // heat up at full duty
    const double hot = plant.temperature_c();
    ASSERT_GT(hot, plant.params().start_c);

    // temperature_at projects idle decay without mutating the plant.
    double prev = hot;
    for (Time dt = 100_ms; dt <= 2'000_ms; dt += 100_ms) {
        const double projected = plant.temperature_at(400_ms + dt);
        EXPECT_LT(projected, prev);
        EXPECT_GT(projected, plant.params().ambient_c);
        prev = projected;
    }
    EXPECT_NEAR(plant.temperature_at(400_ms + 100'000_ms),
                plant.params().ambient_c, 1e-6);
    EXPECT_EQ(plant.temperature_c(), hot); // const projection
}

TEST(ThermalPlant, EmergentThrottleTripsAndReleases)
{
    ThermalPlant plant(tight_envelope());
    ASSERT_EQ(plant.level(), 0);
    soak(plant, 0, 200, 8_ms, 10_ms); // 80% duty: past the threshold
    EXPECT_GT(plant.throttle_trips(), 0u);
    EXPECT_GT(plant.level(), 0);
    EXPECT_TRUE(plant.throttled());
    EXPECT_GT(plant.gpu_energy_mj(), 0.0);

    // A long idle gap cools below the release band; the next accounted
    // job releases one step per job until the ladder is home.
    const int tripped = plant.level();
    Time t = 200 * 10_ms + 10'000_ms;
    for (int i = 0; i < tripped; ++i) {
        plant.on_busy(t, t + 10_us);
        t += 5'000_ms;
    }
    EXPECT_EQ(plant.level(), 0);
    EXPECT_FALSE(plant.throttled());
}

TEST(ThermalPlant, GovernorFloorCapsTheClockAndRelease)
{
    ThermalPlant plant(tight_envelope());
    plant.set_governor_floor(2);
    EXPECT_EQ(plant.level(), 2); // floor pulls the level down immediately
    EXPECT_EQ(plant.governor_floor(), 2);
    EXPECT_FALSE(plant.throttled()); // at the floor, not past it
    EXPECT_GT(plant.slowdown(), 1.0);

    // Cool and account a job: release never climbs above the floor.
    plant.on_busy(20'000_ms, 20'000_ms + 10_us);
    EXPECT_EQ(plant.level(), 2);

    // Releasing the floor lets the ladder recover.
    plant.set_governor_floor(0);
    plant.on_busy(40'000_ms, 40'000_ms + 10_us);
    plant.on_busy(60'000_ms, 60'000_ms + 10_us);
    EXPECT_EQ(plant.level(), 0);
}

TEST(ThermalPlant, ScaleDurationFollowsTheLadder)
{
    ThermalPlant plant(tight_envelope());
    EXPECT_EQ(plant.scale_duration(10_ms), 10_ms); // level 0: identity
    plant.set_governor_floor(1);
    const double speed = plant.params().levels[1].speed;
    EXPECT_EQ(plant.scale_duration(10_ms),
              Time(double(10_ms) * (1.0 / speed)));
}

TEST(ThermalPlant, ReplayIsBitIdentical)
{
    ThermalPlant a(tight_envelope());
    ThermalPlant b(tight_envelope());
    for (int i = 0; i < 300; ++i) {
        const Time t = Time(i) * 7_ms;
        a.on_busy(t, t + 5_ms);
        b.on_busy(t, t + 5_ms);
    }
    EXPECT_EQ(a.temperature_c(), b.temperature_c());
    EXPECT_EQ(a.peak_temp_c(), b.peak_temp_c());
    EXPECT_EQ(a.gpu_energy_mj(), b.gpu_energy_mj());
    EXPECT_EQ(a.level(), b.level());
    EXPECT_EQ(a.throttle_trips(), b.throttle_trips());
}

TEST(ThermalPlant, EnvelopeScaleShrinksTheBudget)
{
    const ThermalParams nominal = thermal_params_for(3000.0, 20.0, 1.0);
    const ThermalParams tight = thermal_params_for(3000.0, 20.0, 0.5);
    EXPECT_EQ(nominal.throttle_c, nominal.ambient_c + 20.0);
    EXPECT_EQ(nominal.release_c, nominal.throttle_c - 4.0);
    // Half the dissipation budget doubles the thermal resistance: the
    // same power settles twice as far above ambient.
    EXPECT_DOUBLE_EQ(tight.resistance_c_per_w,
                     2.0 * nominal.resistance_c_per_w);
    // Dissipating exactly the (scaled) budget settles at the threshold.
    EXPECT_NEAR(nominal.ambient_c +
                    nominal.resistance_c_per_w * 3000.0 / 1000.0,
                nominal.throttle_c, 1e-9);
}

// ----- the ladder, driven through fake sensors ----------------------------

namespace {

/**
 * Throttle point of the hand-built ladders: demote at 40 °C, calm at
 * or below 36 °C. The tests below drive 45 °C as pressure, 30 °C as calm.
 */
constexpr double kThrottleC = 42.0;

/**
 * A governor wired to fake sensors: tests poke temp/energy/drops and
 * tick the control loop by hand; every hook invocation is recorded.
 */
struct LadderHarness {
    double temp_c = 30.0;
    double gpu_mj = 0.0;
    std::uint64_t drops = 0;
    std::vector<std::pair<int, bool>> actions; // (rung, engage)
    int handoffs = 0;
    bool handoff_cleared = true;
    Governor gov;

    /** The governor's typed view of the three fields above. */
    struct Sensors final : SensorSource {
        const LadderHarness *h;
        explicit Sensors(const LadderHarness *harness) : h(harness) {}
        double temp_c(Time) const override { return h->temp_c; }
        double gpu_mj() const override { return h->gpu_mj; }
        std::uint64_t drops() const override { return h->drops; }
    } sensors{this};

    LadderHarness() : gov(kThrottleC, make_hooks(this)) {}

    static GovernorHooks make_hooks(LadderHarness *h)
    {
        GovernorHooks hooks;
        hooks.trim_prerender = [h](bool on) {
            h->actions.emplace_back(1, on);
        };
        hooks.ltpo_cap = [h](bool on) { h->actions.emplace_back(2, on); };
        hooks.dvfs_cap = [h](bool on) { h->actions.emplace_back(3, on); };
        hooks.handoff = [h](Time) { ++h->handoffs; };
        hooks.handoff_cleared = [h] { return h->handoff_cleared; };
        return hooks;
    }

    void tick(Time now) { gov.tick(now); }
};

/** Governor bound to the harness sensors on a bare simulator. */
struct BoundLadder : LadderHarness {
    Simulator sim{1};
    BoundLadder()
    {
        gov.install(sim, sensors, 10_ms);
        gov.tick(0); // prime the differentiated sensors
    }
};

} // namespace

TEST(Governor, HoldTicksGateEveryDemotion)
{
    static_assert(Governor::kHoldTicks == 2);
    BoundLadder h;
    h.temp_c = 45.0; // pressure
    h.tick(10_ms);   // streak 1 of kHoldTicks
    EXPECT_EQ(h.gov.rung(), 0);
    h.tick(20_ms); // streak kHoldTicks: demote
    EXPECT_EQ(h.gov.rung(), 1);
    ASSERT_EQ(h.actions.size(), 1u);
    EXPECT_EQ(h.actions[0], std::make_pair(1, true));
    // The streak resets after the demotion: one pressured tick is not
    // enough to fall further.
    h.tick(30_ms);
    EXPECT_EQ(h.gov.rung(), 1);
}

TEST(Governor, LadderWalksEveryRungAndHandoffIsEnterOnly)
{
    BoundLadder h;
    h.temp_c = 45.0;
    for (int i = 1; i <= 20; ++i)
        h.tick(Time(i) * 10_ms);
    EXPECT_EQ(h.gov.rung(), 4);
    EXPECT_EQ(h.gov.max_rung(), 4);
    EXPECT_EQ(h.gov.demotions(), 4u);
    EXPECT_EQ(h.handoffs, 1); // enter-only, never re-fired
    EXPECT_TRUE(h.gov.capping());
    // Engagement order is the ladder order.
    ASSERT_EQ(h.actions.size(), 3u);
    EXPECT_EQ(h.actions[0], std::make_pair(1, true));
    EXPECT_EQ(h.actions[1], std::make_pair(2, true));
    EXPECT_EQ(h.actions[2], std::make_pair(3, true));
}

TEST(Governor, WithoutHandoffHookLadderTopsOutAtDvfs)
{
    LadderHarness base;
    GovernorHooks hooks = LadderHarness::make_hooks(&base);
    hooks.handoff = nullptr;
    Governor gov(kThrottleC, hooks);
    Simulator sim{1};
    gov.install(sim, base.sensors, 10_ms);
    EXPECT_EQ(gov.max_rung(), 3);
    gov.tick(0);
    base.temp_c = 45.0;
    for (int i = 1; i <= 20; ++i)
        gov.tick(Time(i) * 10_ms);
    EXPECT_EQ(gov.rung(), 3);
    EXPECT_EQ(base.handoffs, 0);
}

TEST(Governor, PromotionWaitsForTheWatchdogAtHandoff)
{
    BoundLadder h;
    h.temp_c = 45.0;
    for (int i = 1; i <= 20; ++i)
        h.tick(Time(i) * 10_ms);
    ASSERT_EQ(h.gov.rung(), 4);

    // Calm, but the watchdog still owns the degraded runtime.
    h.temp_c = 30.0;
    h.handoff_cleared = false;
    for (int i = 21; i <= 40; ++i)
        h.tick(Time(i) * 10_ms);
    EXPECT_EQ(h.gov.rung(), 4);

    // The watchdog re-promotes; the governor may now climb. The rapid
    // demotion burst drove the backoff to its cap, so every promotion
    // costs kPromoteTicks * kBackoffCap calm ticks.
    ASSERT_EQ(h.gov.backoff_multiplier(), Governor::kBackoffCap);
    h.handoff_cleared = true;
    const int climb = 4 * Governor::kPromoteTicks * Governor::kBackoffCap;
    for (int i = 41; i <= 40 + climb; ++i)
        h.tick(Time(i) * 10_ms);
    EXPECT_EQ(h.gov.rung(), 0);
    EXPECT_EQ(h.gov.promotions(), 4u);
    // Disengagement order is the reverse ladder order.
    std::vector<std::pair<int, bool>> releases(h.actions.end() - 3,
                                               h.actions.end());
    EXPECT_EQ(releases[0], std::make_pair(3, false));
    EXPECT_EQ(releases[1], std::make_pair(2, false));
    EXPECT_EQ(releases[2], std::make_pair(1, false));
}

TEST(Governor, NewDropsBlockTheCalmStreak)
{
    BoundLadder h;
    h.temp_c = 45.0;
    h.tick(10_ms);
    h.tick(20_ms);
    ASSERT_EQ(h.gov.rung(), 1);

    // Cool but still dropping: never calm, never promoted.
    h.temp_c = 30.0;
    for (int i = 3; i <= 30; ++i) {
        h.drops += 1;
        h.tick(Time(i) * 10_ms);
    }
    EXPECT_EQ(h.gov.rung(), 1);
    // Drops stop: promotion after kPromoteTicks calm ticks (the backoff
    // is 1 after a single demotion).
    ASSERT_EQ(h.gov.backoff_multiplier(), 1);
    for (int i = 1; i < Governor::kPromoteTicks; ++i)
        h.tick(Time(30 + i) * 10_ms);
    EXPECT_EQ(h.gov.rung(), 1);
    h.tick(Time(30 + Governor::kPromoteTicks) * 10_ms);
    EXPECT_EQ(h.gov.rung(), 0);
}

TEST(Governor, TimelineReportsTheEnergyRate)
{
    BoundLadder h;
    h.temp_c = 45.0;
    // 2 mJ per ms of simulated time = 2000 mW.
    for (int i = 1; i <= Governor::kHoldTicks; ++i) {
        h.gpu_mj += 20.0;
        h.tick(Time(i) * 10_ms);
    }
    EXPECT_EQ(h.gov.rung(), 1);
    ASSERT_FALSE(h.gov.transitions().empty());
    const GovernorSensors &s = h.gov.transitions().front().sensors;
    EXPECT_TRUE(s.rate_sensed);
    EXPECT_DOUBLE_EQ(s.rate_mw, 2000.0);
}

TEST(Governor, TimelineTextWithoutASensedRate)
{
    BoundLadder h;
    h.temp_c = 45.0;
    // Two ticks at one instant: no time elapsed, so no energy rate.
    h.tick(10_ms);
    h.tick(10_ms);
    ASSERT_EQ(h.gov.rung(), 1);
    RunReport r;
    r.timeline = h.gov.transitions();
    const std::string s = r.debug_string();
    EXPECT_TRUE(s.ends_with("\n  t=10000000 governor demote 0->1 "
                            "[temp=45.0C rate=0mW drops=+0 backoff=x1] "
                            "trim-prerender"))
        << s;
}

TEST(Governor, ReDemotionDoublesThePromotionBackoff)
{
    BoundLadder h;
    const auto flap_once = [&h](Time base) {
        h.temp_c = 45.0;
        Time t = base;
        while (h.gov.rung() == 0) {
            t += 10_ms;
            h.tick(t);
        }
        h.temp_c = 30.0;
        while (h.gov.rung() == 1) {
            t += 10_ms;
            h.tick(t);
        }
        return t;
    };
    Time t = flap_once(0);
    EXPECT_EQ(h.gov.backoff_multiplier(), 1);
    const std::uint64_t p1_ticks = h.gov.ticks();

    // Re-demoting within the window doubles the backoff...
    t = flap_once(t);
    EXPECT_EQ(h.gov.backoff_multiplier(), 2);
    t = flap_once(t);
    EXPECT_EQ(h.gov.backoff_multiplier(), 4);
    t = flap_once(t);
    t = flap_once(t);
    EXPECT_EQ(h.gov.backoff_multiplier(), Governor::kBackoffCap);
    t = flap_once(t);
    EXPECT_EQ(h.gov.backoff_multiplier(), Governor::kBackoffCap);

    // ...and a demotion after a quiet spell past the window resets it.
    h.temp_c = 45.0;
    t += Governor::kBackoffWindow + 10_ms;
    h.tick(t);
    h.tick(t + 10_ms);
    EXPECT_EQ(h.gov.rung(), 1);
    EXPECT_EQ(h.gov.backoff_multiplier(), 1);
    (void)p1_ticks;
}

TEST(Governor, FlapStormTransitionsAreBounded)
{
    // An adversarial workload that re-pressures the instant the governor
    // relaxes: the exponential backoff must keep the transition count
    // sublinear in the tick count until the cap, then at the cap-sized
    // cycle length — far below one transition per opportunity.
    BoundLadder h;
    const int kTicks = 4000;
    for (int i = 1; i <= kTicks; ++i) {
        h.temp_c = h.gov.rung() == 0 ? 45.0 : 30.0;
        h.tick(Time(i) * 10_ms);
    }
    const std::uint64_t transitions =
        h.gov.demotions() + h.gov.promotions();
    // Worst case at the cap: one demote+promote per
    // (hold + promote*cap) ticks, plus the pre-cap ramp.
    const std::uint64_t cycle =
        std::uint64_t(Governor::kHoldTicks) +
        std::uint64_t(Governor::kPromoteTicks) * Governor::kBackoffCap;
    EXPECT_LE(transitions, 2 * (kTicks / cycle) + 16);
    EXPECT_GE(transitions, 4u); // it did flap, the bound is not vacuous
    EXPECT_EQ(h.gov.backoff_multiplier(), Governor::kBackoffCap);
    EXPECT_EQ(h.gov.transitions().size(), transitions);
}

TEST(Governor, InstallTicksOnTheSimulatorCadence)
{
    BoundLadder h; // install(10ms) + manual prime tick at t=0
    h.temp_c = 45.0;
    h.sim.run_until(65_ms); // scheduled ticks at 10,20,...,60 ms
    EXPECT_EQ(h.gov.ticks(), 7u);
    EXPECT_GT(h.gov.rung(), 0);
    EXPECT_DEATH(h.gov.install(h.sim, h.sensors, 10_ms), "installed twice");
}

// ----- watchdog flap storm ------------------------------------------------

TEST(DvsyncRuntime, WatchdogBackoffBoundsAFlapStorm)
{
    // A storm of kill switches every 150 ms over 4 s of smooth
    // animation. Without backoff every re-promotion would be yanked
    // back immediately (~26 degradations); the exponential stable-streak
    // requirement must keep the transition count logarithmic.
    Scenario sc("flap-storm");
    sc.animate(4'000_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 3_ms}));
    RenderSystem sys(SystemConfig().with_mode(RenderMode::kDvsync), sc);
    sys.runtime()->attach_watchdog(sys.panel(), sys.monitor());
    int storms = 0;
    for (Time at = 150_ms; at < 4'000_ms; at += 150_ms) {
        ++storms;
        sys.sim().events().schedule(at, [&sys] {
            sys.runtime()->force_degrade(sys.sim().now(), "flap storm");
        });
    }
    const RunReport r = sys.run();
    ASSERT_GE(storms, 20);
    EXPECT_GE(r.degradations, 2u); // it flapped more than once...
    EXPECT_LE(r.degradations, 8u); // ...but far below one per storm
    EXPECT_LE(r.repromotions, r.degradations);
    EXPECT_GE(sys.runtime()->backoff_multiplier(), 2);
    // The timeline narrates the growing re-promotion price.
    bool saw_backoff = false;
    for (const Transition &t : r.timeline)
        saw_backoff = saw_backoff || (t.to == Transition::kVsync &&
                                      t.backoff > 1);
    EXPECT_TRUE(saw_backoff);
}

// ----- governed runs end to end -------------------------------------------

namespace {

Scenario
hot_scenario(const DeviceConfig &dev)
{
    const Time p = dev.period();
    Scenario sc("hot");
    sc.animate(400_ms, std::make_shared<ConstantCostModel>(FrameCost{
                           Time(0.06 * p), Time(0.12 * p), Time(0.5 * p)}))
        .realtime(1'000_ms,
                  std::make_shared<ConstantCostModel>(
                      FrameCost{Time(0.06 * p), Time(0.12 * p),
                                Time(0.78 * p)}));
    return sc;
}

/** Mate 40 Pro throttles at 45 °C: the ladder demotes at 43, calms at 39. */
SystemConfig
governed_config()
{
    return SystemConfig()
        .with_device(mate40_pro())
        .with_mode(RenderMode::kDvsync)
        .with_thermal_envelope(0.5)
        .with_governor(true);
}

} // namespace

TEST(Governor, ThresholdsFollowTheDeviceThrottlePoint)
{
    Scenario sc("bare");
    sc.animate(100_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 3_ms}));
    for (const DeviceConfig &dev : all_devices()) {
        RenderSystem sys(SystemConfig()
                             .with_device(dev)
                             .with_mode(RenderMode::kDvsync)
                             .with_thermal_envelope(0.5)
                             .with_governor(true),
                         sc);
        ASSERT_NE(sys.governor(), nullptr) << dev.name;
        const double throttle_c = sys.plant()->params().throttle_c;
        EXPECT_EQ(throttle_c, 25.0 + dev.thermal_headroom_c) << dev.name;
        EXPECT_EQ(sys.governor()->demote_c(), throttle_c - 2.0) << dev.name;
        EXPECT_EQ(sys.governor()->calm_c(), throttle_c - 6.0) << dev.name;
    }
    // The presets do not share one throttle point, so neither do their
    // ladders.
    EXPECT_NE(pixel5().thermal_headroom_c, mate60_pro().thermal_headroom_c);
}

TEST(Governor, EngagesUnderAConstrainedEnvelope)
{
    const Scenario sc = hot_scenario(mate40_pro());
    RenderSystem sys(governed_config(), sc);
    const RunReport r = sys.run();
    EXPECT_TRUE(r.thermal_on);
    EXPECT_GT(r.governor_demotions, 0u);
    EXPECT_GT(r.peak_temp_c, 40.0);
    EXPECT_GT(r.gpu_energy_mj, 0.0);
    // Governor transitions are merged into the run timeline in time
    // order alongside any watchdog lines.
    bool saw_governor = false;
    Time prev_t = -1;
    for (const Transition &t : r.timeline) {
        saw_governor =
            saw_governor || t.source == Transition::Source::kGovernor;
        EXPECT_GE(t.at, prev_t);
        prev_t = t.at;
    }
    EXPECT_TRUE(saw_governor);
    EXPECT_EQ(r.invariant_violations, 0u);
    EXPECT_EQ(r.drop_causes[int(DropCause::kUnknown)], 0u);
}

TEST(Governor, RequiresTheThermalPlant)
{
    Scenario sc("bare");
    sc.animate(100_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 3_ms}));
    EXPECT_DEATH(
        { RenderSystem sys(SystemConfig().with_governor(true), sc); },
        "thermal");
}

TEST(Governor, GovernedRunsAreDeterministic)
{
    // The whole closed loop — sensors, ladder, DVFS floor, LTPO cap — is
    // a pure function of the event schedule, so a rerun is identical.
    const Scenario sc = hot_scenario(mate40_pro());
    const RunReport first = RenderSystem(governed_config(), sc).run();
    const RunReport again = RenderSystem(governed_config(), sc).run();
    EXPECT_GT(first.governor_demotions, 0u);
    EXPECT_EQ(first.debug_string(), again.debug_string());
}
