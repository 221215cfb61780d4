/**
 * @file
 * Hardware VSync generator.
 *
 * Emits one HW-VSync event per panel refresh on the simulator's event
 * queue, notifying registered listeners (the panel latch, the software
 * vsync distributor, DTV calibration) and then the end-of-edge hook (the
 * distributor's in-place delivery). Supports per-tick rate decisions so
 * an LTPO policy can stretch or shrink the next period.
 */

#ifndef DVS_DISPLAY_HW_VSYNC_H
#define DVS_DISPLAY_HW_VSYNC_H

#include <cstdint>
#include <functional>
#include <vector>

#include "display/display_timing.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace dvs {

/** One hardware vsync edge. */
struct VsyncEdge {
    Time timestamp;      ///< time of the edge
    std::uint64_t index; ///< monotonic edge counter
    double rate_hz;      ///< refresh rate in force for the coming period
};

/**
 * Generates the hardware VSync signal of the screen.
 *
 * Listener order is registration order; the panel must be registered
 * before software consumers so the latch happens first on each edge
 * (matching hardware, where scan-out samples the front buffer).
 */
class HwVsyncGenerator
{
  public:
    using Listener = std::function<void(const VsyncEdge &)>;

    /**
     * A rate policy is consulted on every edge for the rate of the *next*
     * period, enabling LTPO-style dynamic refresh. Returning 0 keeps the
     * current rate.
     */
    using RatePolicy = std::function<double(const VsyncEdge &)>;

    HwVsyncGenerator(Simulator &sim, double rate_hz, Time first_edge = 0);

    /** Register a listener (called on every edge, in order). */
    void add_listener(Listener fn) { listeners_.push_back(std::move(fn)); }

    /**
     * Install the end-of-edge hook: it runs on every notified edge after
     * every listener and after the next edge has been scheduled, so
     * events it schedules take sequence numbers after the next edge's.
     * The software vsync distributor delivers through it. There is one
     * per generator: a second installation is fatal.
     */
    void set_end_of_edge(Listener fn);

    /** Install the per-edge rate policy (LTPO co-design hook). */
    void set_rate_policy(RatePolicy p) { rate_policy_ = std::move(p); }

    /**
     * Add Gaussian timing jitter to emitted edges (real panels wander by
     * tens of microseconds). Draws are clamped to ±3σ and the ideal grid
     * is preserved, so jitter never accumulates.
     *
     * Edge ordering under jitter: a jittered emission time is clamped to
     * the simulator's `now()` at scheduling time, so an edge never fires
     * before the edge that scheduled it — emitted timestamps are
     * monotonic as long as 3σ stays below half a period (the generator
     * never reorders the grid, only perturbs each edge around it). The
     * same clamp makes a restart after stop() safe: the first resumed
     * edge lands on the grid at or after the restart instant, never in
     * the past.
     *
     * A stddev of 0 disables jitter. Negative stddev is a configuration
     * error, as is a positive stddev without an RNG.
     */
    void set_jitter(Time stddev, Rng *rng);

    // ----- fault-injection hooks (src/fault) ---------------------------

    /**
     * Edge-loss fault hook: consulted per edge; returning true suppresses
     * listener notification and the end-of-edge hook for that edge (the
     * panel misses a refresh, software consumers see no tick) while the
     * grid keeps advancing — modelling a lost HW-VSync interrupt.
     */
    using EdgeFault = std::function<bool(const VsyncEdge &)>;
    void set_edge_fault(EdgeFault fn) { edge_fault_ = std::move(fn); }

    /**
     * Clock-drift fault hook: scale factor applied to the grid step after
     * each edge (1.0 = nominal). Sustained scaling accumulates phase
     * drift, exactly like a skewed panel oscillator; DTV must recalibrate
     * its model to follow.
     */
    using PeriodScale = std::function<double(Time)>;
    void set_period_scale(PeriodScale fn)
    {
        period_scale_ = std::move(fn);
    }

    /** Start emitting edges. */
    void start();

    /** Stop after the current edge; no further edges are scheduled. */
    void stop();

    const DisplayTiming &timing() const { return timing_; }
    double rate_hz() const { return timing_.rate_hz(); }
    Time period() const { return timing_.period(); }
    std::uint64_t edges_emitted() const { return edge_index_; }

    /**
     * Request a rate change that takes effect at the next edge (used when
     * no LTPO policy is installed, e.g. scenario-scripted switches).
     */
    void request_rate(double rate_hz) { requested_rate_ = rate_hz; }

  private:
    void emit_edge();
    Time jittered(Time ideal) const;

    Simulator &sim_;
    DisplayTiming timing_;
    Time jitter_stddev_ = 0;
    Rng *jitter_rng_ = nullptr;
    std::vector<Listener> listeners_;
    Listener end_of_edge_;
    RatePolicy rate_policy_;
    EdgeFault edge_fault_;
    PeriodScale period_scale_;
    double requested_rate_ = 0.0;
    std::uint64_t edge_index_ = 0;
    Time next_edge_;
    bool running_ = false;
};

} // namespace dvs

#endif // DVS_DISPLAY_HW_VSYNC_H
