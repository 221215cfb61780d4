/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are executed in (time, priority, insertion-sequence) order, which
 * makes simulations fully reproducible: two events scheduled for the same
 * tick with the same priority run in the order they were scheduled.
 *
 * Complexity guarantees (the simulator's hot path — see DESIGN.md):
 *  - schedule(): O(log n) heap push, O(1) callback storage, no heap
 *                allocation once the slots and heap have grown to the
 *                run's pending-event peak
 *  - dispatch:   O(log n) heap pop, O(1) callback lookup
 *
 * Each heap entry names the slot that holds its callback inline
 * (InlineCallback: 64 bytes of capture; a larger capture does not
 * compile), so scheduling never allocates a callback. A slot returns to a
 * free list as its event fires, so memory is bounded by the maximum
 * number of *concurrently pending* events, not by the total scheduled
 * over a run. There is no cancellation: a scheduled event fires unless
 * the queue is destroyed first.
 */

#ifndef DVS_SIM_EVENT_QUEUE_H
#define DVS_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <array>
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
    kVsyncDist = 10, ///< software vsync the edge could not deliver in place
    kPipeline = 20,  ///< pipeline stage completions
    kDefault = 50,   ///< everything else
    kMetrics = 90,   ///< end-of-tick bookkeeping
};

/** Every EventPriority, in the order they run within one tick. */
inline constexpr std::array<EventPriority, 6> kEventPriorities = {
    EventPriority::kDisplay,  EventPriority::kSegment,
    EventPriority::kVsyncDist, EventPriority::kPipeline,
    EventPriority::kDefault,  EventPriority::kMetrics,
};

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
     */
    template <class F>
    void
    schedule(Time when, F &&fn, EventPriority prio = EventPriority::kDefault)
    {
        const std::uint32_t slot = acquire_slot();
        slots_[slot].fn = std::forward<F>(fn);
        push(when, prio, slot);
    }

    /** Schedule @p fn to run @p delay after the current time. */
    template <class F>
    void
    schedule_in(Time delay, F &&fn,
                EventPriority prio = EventPriority::kDefault)
    {
        schedule(now() + delay, std::forward<F>(fn), prio);
    }

    /** Whether any events remain pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /**
     * Whether an event of a priority below @p prio is pending at now():
     * one peek at the heap top, whose key holds the priority.
     */
    bool
    pending_now_below(EventPriority prio) const
    {
        return !heap_.empty() && heap_.front().when == now_ &&
               heap_.front().key < (std::uint64_t(prio) << kSeqBits);
    }

    /**
     * Run events until the queue empties or the next event lies beyond
     * @p horizon, then move the clock to @p horizon (kTimeMax leaves it
     * at the last dispatched event).
     * @return number of events dispatched.
     */
    std::uint64_t run_until(Time horizon);

    /** Run all events to exhaustion. @return number dispatched. */
    std::uint64_t run() { return run_until(kTimeMax); }

    /** Total number of events dispatched over the queue's lifetime. */
    std::uint64_t dispatched() const { return dispatched_; }

    /** Events of priority @p prio dispatched over the queue's lifetime. */
    std::uint64_t
    dispatched(EventPriority prio) const
    {
        return dispatched_by_prio_[kPrioIndex[std::size_t(prio)]];
    }

    /**
     * FNV-style fold of every dispatched event's (when, prio, seq) in
     * dispatch order: a fingerprint of the whole event schedule, which
     * `.dvst` replay verification and the queue checksum tests pin.
     */
    std::uint64_t dispatch_hash() const { return dispatch_hash_; }

    /**
     * Pre-size the slots and heap (data-layout hint for runs with a
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

    /** Index into dispatched_by_prio_ of each 8-bit priority value. */
    static constexpr std::array<std::uint8_t, 256> kPrioIndex = [] {
        std::array<std::uint8_t, 256> index{};
        for (std::size_t i = 0; i < kEventPriorities.size(); ++i)
            index[std::size_t(kEventPriorities[i])] = std::uint8_t(i);
        return index;
    }();

    /**
     * A heap entry. `key` packs the priority into its top 8 bits above a
     * 56-bit insertion sequence number, so (when, key) compares in two
     * words exactly as (when, prio, seq) would. `slot` holds the
     * callback.
     */
    struct Entry {
        Time when;
        std::uint64_t key;
        std::uint32_t slot;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : key > o.key;
        }
    };

    /** One callback slot; `next_free` links it into the free list. */
    struct Slot {
        Callback fn;
        std::uint32_t next_free = kNullSlot;
    };

    static constexpr std::uint32_t kNullSlot = 0xffffffffu;

    std::uint32_t
    acquire_slot()
    {
        if (free_head_ == kNullSlot) {
            slots_.emplace_back();
            return std::uint32_t(slots_.size() - 1);
        }
        const std::uint32_t slot = free_head_;
        free_head_ = slots_[slot].next_free;
        return slot;
    }

    void
    push(Time when, EventPriority prio, std::uint32_t slot)
    {
        assert(when >= now_ && "cannot schedule events in the past");
        assert(unsigned(prio) < 256 && "priority must fit the key's 8 bits");
        assert((kPrioIndex[std::size_t(prio)] != 0 ||
                prio == kEventPriorities[0]) &&
               "priority missing from kEventPriorities");
        if (next_seq_ > kSeqMask)
            seq_overflow();
        const std::uint64_t key =
            (std::uint64_t(prio) << kSeqBits) | next_seq_++;
        heap_.push_back(Entry{when, key, slot});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }

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
    // vector (rather than std::priority_queue) so reserve() can pre-size
    // it.
    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNullSlot;

    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::array<std::uint64_t, kEventPriorities.size()> dispatched_by_prio_{};
    std::uint64_t dispatch_hash_ = 0xcbf29ce484222325ULL;
};

} // namespace dvs

#endif // DVS_SIM_EVENT_QUEUE_H
