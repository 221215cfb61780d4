/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are executed in (time, priority, insertion-sequence) order, which
 * makes simulations fully reproducible: two events scheduled for the same
 * tick with the same priority run in the order they were scheduled.
 *
 * Complexity guarantees (the simulator's hot path — see DESIGN.md):
 *  - schedule():        O(log n) heap push, O(1) callback storage, no
 *                       heap allocation once the slot map and heap have
 *                       grown to the run's pending-event peak
 *  - cancel():          O(1) slot lookup + amortized O(log n) pruning
 *  - dispatch:          O(log n) heap pop, O(1) callback lookup
 *  - next_event_time(): O(1), never reports a cancelled event
 *
 * Callback storage is a slot map: an EventId encodes {slot index,
 * generation}, so lookup is an array index plus a generation check. Each
 * slot holds its callback inline (InlineCallback: 64 bytes of capture; a
 * larger capture does not compile), so scheduling never allocates a
 * callback. Cancelled slots are recycled through a free list immediately
 * (memory is bounded by the maximum number of *concurrently pending*
 * events, not by the total scheduled over a run). Heap entries of
 * cancelled events are skipped lazily at dispatch; dead entries at the
 * top are pruned eagerly on cancel, and the heap is compacted whenever
 * dead entries outnumber live ones, so cancel-heavy workloads stay
 * O(live) in memory too.
 */

#ifndef DVS_SIM_EVENT_QUEUE_H
#define DVS_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/time.h"

namespace dvs {

/**
 * Priorities order events that fire at the same tick. Lower values run
 * first. The defaults encode the natural hardware/software layering: the
 * display latches a buffer before software reacts to the same vsync edge.
 */
enum class EventPriority : int {
    kDisplay = 0,   ///< panel refresh / buffer latch
    kSegment = 5,    ///< scenario segment boundaries
    kVsyncDist = 10, ///< software vsync distribution
    kPipeline = 20,  ///< pipeline stage completions
    kDefault = 50,   ///< everything else
    kMetrics = 90,   ///< end-of-tick bookkeeping
};

/**
 * Handle used to cancel a scheduled event. Encodes {slot, generation};
 * treat it as opaque. A handle goes stale once its event fires or is
 * cancelled — using it afterwards is a detected no-op, even if the
 * underlying slot has been recycled for a newer event.
 */
using EventId = std::uint64_t;

/**
 * A deterministic discrete-event queue.
 *
 * The queue owns the virtual clock: `now()` advances only as events are
 * dispatched. Callbacks may schedule further events (including at the
 * current time, which run after all currently pending same-tick events of
 * lower or equal ordering).
 */
class EventQueue
{
  public:
    /** Move-only, stored inline in the event's slot (see InlineCallback). */
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current virtual time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when. @p fn is any
     * `void()` callable of at most 64 bytes (or a Callback), built in
     * place in the event's slot.
     * @pre when >= now()
     * @return an id usable with cancel().
     */
    template <class F>
    EventId
    schedule(Time when, F &&fn, EventPriority prio = EventPriority::kDefault)
    {
        const std::uint32_t slot = acquire_slot();
        slots_[slot].fn = std::forward<F>(fn);
        return push(when, prio, slot);
    }

    /** Schedule @p fn to run @p delay after the current time. */
    template <class F>
    EventId
    schedule_in(Time delay, F &&fn,
                EventPriority prio = EventPriority::kDefault)
    {
        return schedule(now() + delay, std::forward<F>(fn), prio);
    }

    /**
     * Cancel a pending event. Cancelling an already-fired, already-
     * cancelled, or unknown id is a no-op: stale handles are rejected by
     * the generation check even after their slot is recycled.
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** Whether any events remain pending. */
    bool empty() const { return live_count_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return live_count_; }

    /**
     * Time of the earliest pending event, or kTimeNone when empty.
     * Cancelled events are never reported: cancel() eagerly prunes dead
     * entries off the top of the heap.
     */
    Time next_event_time() const;

    /**
     * Run events until the queue empties or the next event lies beyond
     * @p horizon. The clock is left at the last dispatched event (or moved
     * to @p horizon when @p advance_to_horizon is set).
     * @return number of events dispatched.
     */
    std::uint64_t run_until(Time horizon, bool advance_to_horizon = true);

    /** Run all events to exhaustion. @return number dispatched. */
    std::uint64_t run() { return run_until(kTimeMax, false); }

    /** Total number of events dispatched over the queue's lifetime. */
    std::uint64_t dispatched() const { return dispatched_; }

    /**
     * FNV-style fold of every dispatched event's (when, prio, seq) in
     * dispatch order: a fingerprint of the whole event schedule, which
     * `.dvst` replay verification and the queue checksum tests pin.
     */
    std::uint64_t dispatch_hash() const { return dispatch_hash_; }

    /**
     * Pre-size the slot map and heap (data-layout hint for runs with a
     * known pending-event ceiling; avoids growth reallocations on the
     * hot path).
     */
    void reserve(std::size_t events)
    {
        heap_.reserve(events);
        slots_.reserve(events);
    }

  private:
    friend struct EventQueueTestPeer;

    /** Bits of an Entry key that hold the insertion sequence number. */
    static constexpr int kSeqBits = 56;
    static constexpr std::uint64_t kSeqMask =
        (std::uint64_t(1) << kSeqBits) - 1;

    /**
     * A heap entry. `key` packs the priority into its top 8 bits above a
     * 56-bit insertion sequence number, so (when, key) compares in two
     * words exactly as (when, prio, seq) would.
     */
    struct Entry {
        Time when;
        std::uint64_t key;
        EventId id;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : key > o.key;
        }
    };

    /**
     * One callback slot. `gen` is bumped every time the slot is released
     * (fire or cancel), which invalidates every EventId minted for a
     * previous occupancy in O(1).
     */
    struct Slot {
        Callback fn;
        std::uint32_t gen = 1;
        std::uint32_t next_free = kNullSlot;
        bool live = false;
    };

    static constexpr std::uint32_t kNullSlot = 0xffffffffu;

    static std::uint32_t slot_of(EventId id)
    {
        return std::uint32_t(id);
    }
    static std::uint32_t gen_of(EventId id)
    {
        return std::uint32_t(id >> 32);
    }
    static EventId make_id(std::uint32_t slot, std::uint32_t gen)
    {
        return (EventId(gen) << 32) | EventId(slot);
    }

    bool
    is_live(EventId id) const
    {
        const std::uint32_t slot = slot_of(id);
        return slot < slots_.size() && slots_[slot].live &&
               slots_[slot].gen == gen_of(id);
    }

    std::uint32_t
    acquire_slot()
    {
        std::uint32_t slot;
        if (free_head_ != kNullSlot) {
            slot = free_head_;
            free_head_ = slots_[slot].next_free;
        } else {
            slot = std::uint32_t(slots_.size());
            slots_.emplace_back();
        }
        Slot &s = slots_[slot];
        s.live = true;
        s.next_free = kNullSlot;
        return slot;
    }

    EventId
    push(Time when, EventPriority prio, std::uint32_t slot)
    {
        assert(when >= now_ && "cannot schedule events in the past");
        assert(unsigned(prio) < 256 && "priority must fit the key's 8 bits");
        if (next_seq_ > kSeqMask)
            seq_overflow();
        const EventId id = make_id(slot, slots_[slot].gen);
        const std::uint64_t key =
            (std::uint64_t(prio) << kSeqBits) | next_seq_++;
        heap_.push_back(Entry{when, key, id});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        ++live_count_;
        return id;
    }

    void
    release_slot(std::uint32_t slot)
    {
        Slot &s = slots_[slot];
        s.live = false;
        ++s.gen; // stale EventIds for this slot now fail the generation check
        s.next_free = free_head_;
        free_head_ = slot;
    }

    void
    prune_dead_top()
    {
        while (!heap_.empty() && !is_live(heap_.front().id)) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            heap_.pop_back();
            --heap_dead_;
        }
    }

    void maybe_compact();
    [[noreturn]] static void seq_overflow();

    void fold_dispatch(Time when, std::uint64_t key)
    {
        constexpr std::uint64_t kPrime = 0x100000001b3ULL;
        std::uint64_t h = dispatch_hash_;
        h = (h ^ std::uint64_t(when)) * kPrime;
        h = (h ^ (key >> kSeqBits)) * kPrime; // prio
        h = (h ^ (key & kSeqMask)) * kPrime;  // seq
        dispatch_hash_ = h;
    }

    // Min-heap on (when, key) via the std heap algorithms; a plain
    // vector (rather than std::priority_queue) so compaction can filter
    // dead entries in place.
    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNullSlot;
    std::size_t heap_dead_ = 0; ///< cancelled entries still in heap_

    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t dispatch_hash_ = 0xcbf29ce484222325ULL;
    std::size_t live_count_ = 0;
};

} // namespace dvs

#endif // DVS_SIM_EVENT_QUEUE_H
