#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace dvs {

bool
EventQueue::is_live(EventId id) const
{
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].gen == gen_of(id);
}

std::uint32_t
EventQueue::acquire_slot(Callback fn)
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
    s.fn = std::move(fn);
    s.live = true;
    s.next_free = kNullSlot;
    return slot;
}

EventQueue::Callback
EventQueue::release_slot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    Callback fn = std::move(s.fn);
    s.fn = nullptr;
    s.live = false;
    ++s.gen; // stale EventIds for this slot now fail the generation check
    s.next_free = free_head_;
    free_head_ = slot;
    return fn;
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

EventId
EventQueue::schedule(Time when, Callback fn, EventPriority prio)
{
    assert(when >= now_ && "cannot schedule events in the past");
    const std::uint32_t slot = acquire_slot(std::move(fn));
    const EventId id = make_id(slot, slots_[slot].gen);
    heap_.push_back(Entry{when, static_cast<int>(prio), next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    ++live_count_;
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    if (!is_live(id))
        return false;
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

        Callback fn = release_slot(slot_of(e.id));
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
