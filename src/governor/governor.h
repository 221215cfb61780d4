/**
 * @file
 * Closed-loop thermal/energy governor with a graded degradation ladder.
 *
 * The paper measures D-VSync's power cost open-loop (§6.7); the governor
 * closes the loop: pre-rendering spends joules *now* to avoid stutters
 * *later*, and under thermal pressure something must decide when that
 * trade stops being worth it. Rather than the watchdog's all-or-nothing
 * collapse to VSync pacing, the governor walks a graded ladder, one rung
 * per control decision:
 *
 *   rung 0  nominal        — full pre-render depth, native rate, full clock
 *   rung 1  trim-prerender — cap the pre-render queue at depth 1
 *   rung 2  ltpo-cap       — request the panel's lowest LTPO rate
 *   rung 3  dvfs-cap       — floor the GPU ladder at a slower level
 *   rung 4  handoff        — force the PR 3 watchdog's VSync fallback
 *
 * Sensors are three typed reads through a SensorSource: die
 * temperature, cumulative GPU energy (differentiated into a rate the
 * timeline prints), and the drop counter. Actions are injected as
 * closures (GovernorHooks) so this library depends only on sim + obs,
 * never on the core runtime.
 *
 * Thresholds are derived, not configured: the governor takes the
 * plant's throttle point and demotes at throttle - 2 °C (engaging
 * before the plant trips), counting a tick calm only at or below
 * throttle - 6 °C. The hysteresis and backoff knobs are constants.
 *
 * No-flap guarantee: a demotion requires `kHoldTicks` consecutive ticks
 * at the current rung (per-rung hysteresis), a promotion requires a calm
 * streak of `kPromoteTicks * backoff` ticks, and every re-demotion
 * within `kBackoffWindow` of the previous one doubles the backoff (up to
 * `kBackoffCap`). A workload that keeps re-triggering pressure therefore
 * pays exponentially longer calm streaks before each retry, so the
 * transition count over any horizon T is O(rungs * log(T)) rather than
 * O(T) — the flap-storm test pins this bound.
 *
 * Determinism: the tick is an ordinary event at kMetrics priority, so it
 * runs after every display, vsync and pipeline event of its tick and
 * reads settled sensor values; the control loop is a pure function of
 * the event schedule.
 */

#ifndef DVS_GOVERNOR_GOVERNOR_H
#define DVS_GOVERNOR_GOVERNOR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "metrics/run_report.h"
#include "sim/time.h"

namespace dvs {

class Simulator;

/**
 * What the governor senses, read once per tick. RenderSystem backs it
 * with the thermal plant and the surface's FrameStats.
 */
class SensorSource
{
  public:
    virtual ~SensorSource() = default;

    /** Die temperature at @p now (°C). */
    virtual double temp_c(Time now) const = 0;

    /** Cumulative GPU energy (mJ). */
    virtual double gpu_mj() const = 0;

    /** Cumulative frame drops. */
    virtual std::uint64_t drops() const = 0;
};

/**
 * Actuators, injected by the wiring layer (RenderSystem). A null hook
 * turns its rung into a pass-through state: the ladder still walks it,
 * it just does nothing (e.g. ltpo_cap on a fixed-rate panel). A null
 * `handoff` removes rung 4 entirely — the ladder tops out at dvfs-cap.
 */
struct GovernorHooks {
    /** Rung 1: cap (true) / restore (false) the pre-render depth. */
    std::function<void(bool)> trim_prerender;

    /** Rung 2: request lowest LTPO rate (true) / native rate (false). */
    std::function<void(bool)> ltpo_cap;

    /** Rung 3: floor the DVFS ladder (true) / release it (false). */
    std::function<void(bool)> dvfs_cap;

    /** Rung 4 entry: force the watchdog's VSync fallback. */
    std::function<void(Time now)> handoff;

    /** Rung 4 exit gate: has the watchdog re-promoted on its own? */
    std::function<bool()> handoff_cleared;
};

class Governor
{
  public:
    /** Consecutive pressured ticks required before each demotion. */
    static constexpr int kHoldTicks = 2;

    /** Calm ticks (scaled by the backoff) required before a promotion. */
    static constexpr int kPromoteTicks = 6;

    /** Backoff multiplier cap. */
    static constexpr int kBackoffCap = 8;

    /** Re-demotion within this window doubles the backoff. */
    static constexpr Time kBackoffWindow = 1'500'000'000; // 1.5 s

    /**
     * A ladder for a plant that throttles at @p throttle_c (°C): demote
     * at throttle_c - 2, calm at or below throttle_c - 6.
     */
    Governor(double throttle_c, GovernorHooks hooks);

    /**
     * Run the control loop every @p interval on @p sim's clock (first
     * tick at @p interval), reading @p sensors. Must be called at most
     * once; kMetrics priority keeps ticks on settled barrier state.
     */
    void install(Simulator &sim, const SensorSource &sensors,
                 Time interval);

    /**
     * One control decision at time @p now. Public so unit tests can
     * drive the ladder against fake sensors without a simulator.
     */
    void tick(Time now);

    /** Current ladder rung (0 = nominal). */
    int rung() const { return rung_; }

    /** Highest rung this ladder can reach (4, or 3 without handoff). */
    int max_rung() const { return max_rung_; }

    /** Is any rung engaged (the DropClassifier's governor_capped)? */
    bool capping() const { return rung_ > 0; }

    std::uint64_t demotions() const { return demotions_; }
    std::uint64_t promotions() const { return promotions_; }
    std::uint64_t ticks() const { return ticks_; }

    /** Current re-promotion backoff multiplier (1 = no backoff). */
    int backoff_multiplier() const { return backoff_; }

    /** Ladder moves in time order, surfaced as RunReport::timeline. */
    const std::vector<Transition> &transitions() const
    {
        return transitions_;
    }

    /** Demote while the die is at or above this (°C). */
    double demote_c() const { return demote_c_; }

    /** Count a tick as calm only at or below this (°C). */
    double calm_c() const { return calm_c_; }

  private:
    GovernorSensors read_sensors(Time now);
    void apply(int rung, bool engage, Time now);
    /** Demote or promote one rung to @p to, and log the move. */
    void step(Time now, int to, const GovernorSensors &s);

    double demote_c_;
    double calm_c_;
    GovernorHooks hooks_;
    const SensorSource *sensors_ = nullptr;
    bool installed_ = false;
    int max_rung_ = 4;

    int rung_ = 0;
    int pressure_streak_ = 0;
    int calm_streak_ = 0;
    int backoff_ = 1;
    Time last_demote_ = kTimeNone;
    std::uint64_t demotions_ = 0;
    std::uint64_t promotions_ = 0;
    std::uint64_t ticks_ = 0;

    // Previous cumulative sensor values, for differentiation.
    bool have_prev_ = false;
    Time prev_at_ = 0;
    double prev_mj_ = 0.0;
    double prev_drops_ = 0.0;

    std::vector<Transition> transitions_;
};

} // namespace dvs

#endif // DVS_GOVERNOR_GOVERNOR_H
