#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace dvs {

bool
EventQueue::is_live(EventId id) const
{
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].gen == gen_of(id);
}

std::uint32_t
EventQueue::acquire_slot()
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
EventQueue::push(Time when, EventPriority prio, std::uint32_t slot)
{
    assert(when >= now_ && "cannot schedule events in the past");
    const EventId id = make_id(slot, slots_[slot].gen);
    heap_.push_back(Entry{when, static_cast<int>(prio), next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++live_count_;
    return id;
}

void
EventQueue::release_slot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.live = false;
    ++s.gen; // stale EventIds for this slot now fail the generation check
    s.next_free = free_head_;
    free_head_ = slot;
}

void
EventQueue::prune_dead_top()
{
    while (!heap_.empty() && !is_live(heap_.front().id)) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        --heap_dead_;
    }
}

void
EventQueue::maybe_compact()
{
    // Cancelled entries buried below the top are skipped lazily; rebuild
    // the heap once they outnumber the live ones so a cancel-heavy
    // workload stays O(live) in memory. The comparator is a strict total
    // order (seq is unique), so rebuilding cannot perturb dispatch order.
    if (heap_dead_ <= 64 || heap_dead_ <= heap_.size() / 2)
        return;
    std::erase_if(heap_, [this](const Entry &e) { return !is_live(e.id); });
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_dead_ = 0;
}

bool
EventQueue::cancel(EventId id)
{
    if (!is_live(id))
        return false;
    slots_[slot_of(id)].fn.reset(); // captured state dies with the event
    release_slot(slot_of(id));
    --live_count_;
    ++heap_dead_; // the heap entry is now dead; pruned below or at dispatch
    prune_dead_top();
    maybe_compact();
    return true;
}

Time
EventQueue::next_event_time() const
{
    // Dead entries never rest on top: cancel() prunes eagerly and
    // run_until() pops them before checking its horizon, so the top entry
    // is always a live event.
    return heap_.empty() ? kTimeNone : heap_.front().when;
}

std::uint64_t
EventQueue::run_until(Time horizon, bool advance_to_horizon)
{
    std::uint64_t n = 0;
    for (;;) {
        prune_dead_top();
        if (heap_.empty() || heap_.front().when > horizon)
            break;

        const Entry e = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();

        // Move the callback out before running it: it may schedule, and a
        // growing slot map relocates every slot.
        const std::uint32_t slot = slot_of(e.id);
        Callback fn = std::move(slots_[slot].fn);
        release_slot(slot);
        now_ = e.when;
        --live_count_;
        ++dispatched_;
        fold_dispatch(e.when, e.prio, e.seq);
        ++n;
        fn();
    }
    if (advance_to_horizon && horizon != kTimeMax && now_ < horizon)
        now_ = horizon;
    return n;
}

} // namespace dvs
