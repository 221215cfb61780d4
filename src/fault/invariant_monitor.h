/**
 * @file
 * Runtime invariant watchdog.
 *
 * The InvariantMonitor is a passive observer hooked into the present
 * fence and the producer's queued-frame path. On every event it checks
 * the pipeline invariants that silent corruption would otherwise only
 * surface as subtly wrong metrics:
 *
 *  - present timestamps are monotonic;
 *  - no frame is latched or presented twice, and presented frame ids
 *    are strictly FIFO (no reordering across the buffer queue);
 *  - frame conservation: every presented frame was queued exactly once,
 *    and presents never exceed queued frames (checked per event and at
 *    finalize());
 *  - pre-render depth (queued + in production) never exceeds the
 *    configured limit;
 *  - DTV never virtualizes a display time into the past: a pre-rendered
 *    frame's D-Timestamp is at or after its trigger time.
 *
 * Violations are recorded — never thrown or aborted on — so a chaos run
 * completes and reports them through RunReport instead of corrupting
 * metrics silently. The DvsyncRuntime's degradation policy reads the
 * recent-violation pressure from here.
 */

#ifndef DVS_FAULT_INVARIANT_MONITOR_H
#define DVS_FAULT_INVARIANT_MONITOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "display/panel.h"
#include "pipeline/producer.h"
#include "sim/time.h"

namespace dvs {

/** One recorded invariant violation. */
struct InvariantViolation {
    Time time = 0;
    std::string invariant; ///< short stable name, e.g. "monotonic-present"
    std::string detail;

    friend bool operator==(const InvariantViolation &,
                           const InvariantViolation &) = default;
};

/**
 * Always-on pipeline invariant checker: RenderSystem builds one per
 * surface, plus a cross-surface one on a composed display.
 */
class InvariantMonitor
{
  public:
    InvariantMonitor() = default;

    /**
     * Subscribe to the pipeline. @p max_depth bounds the number of
     * pre-rendered frames accumulated in the buffer queue (the FPE's
     * pre-render limit + 1 for the frame in flight when the limit was
     * checked); <= 0 disables the depth check (VSync baseline).
     */
    void attach(Producer &producer, Panel &panel, int max_depth);

    // ----- cross-surface invariants (multi-surface composition) --------
    //
    // A display-level monitor watches every surface of one compositor;
    // the per-surface FIFO/conservation checks stay with each surface's
    // own monitor (attach() above), while the checks below only make
    // sense across surfaces sharing one display.

    /**
     * Watch @p panel as surface @p surface_id of a shared display: no
     * surface may have two buffers latched at the same refresh edge (the
     * compositor latches at most one buffer per surface per refresh).
     */
    void watch_latches(int surface_id, Panel &panel);

    /**
     * Budget invariant of the buffer-memory arbiter: the extra-buffer
     * memory in use must never exceed the device budget. Records an
     * "arbiter-over-budget" violation when @p used_mb > @p budget_mb.
     * Wired to BufferBudgetArbiter::set_budget_check.
     */
    void on_budget(Time now, double used_mb, double budget_mb);

    /** Total violations recorded (the log itself is capped). */
    std::uint64_t violations() const { return violation_count_; }

    /** Violations recorded at or after @p since (watchdog pressure). */
    std::uint64_t violations_since(Time since) const;

    /** The first kMaxLogged violations, with details. */
    const std::vector<InvariantViolation> &log() const { return log_; }

    /**
     * End-of-run conservation check: presents must not exceed queued
     * frames. Records a violation if broken; idempotent.
     */
    void finalize(Time now);

    static constexpr int kMaxLogged = 64;

  private:
    void on_present(const PresentEvent &ev);
    void on_queued(const FrameRecord &rec);
    void on_surface_latch(int surface_id, const PresentEvent &ev);
    void record(Time t, const char *invariant, std::string detail);

    int max_depth_ = 0;

    /** Per-surface last latched edge index (-1 = none yet). */
    std::vector<std::int64_t> last_latch_edge_;

    Time last_present_time_ = kTimeNone;
    std::int64_t last_presented_frame_ = -1;
    std::uint64_t presents_seen_ = 0;
    std::uint64_t queued_seen_ = 0;
    int prerendered_queued_ = 0;
    /**
     * Per-frame presented flags, indexed by frame id: sized at attach()
     * for every frame the producer reserved, doubled past that.
     */
    std::vector<bool> presented_;

    std::uint64_t violation_count_ = 0;
    std::vector<InvariantViolation> log_;
    /** Violation timestamps (all of them) for windowed pressure. */
    std::vector<Time> violation_times_;
    bool finalized_ = false;
};

} // namespace dvs

#endif // DVS_FAULT_INVARIANT_MONITOR_H
