#include "sim/event_queue.h"

#include "sim/logging.h"

namespace dvs {

void
EventQueue::seq_overflow()
{
    panic("event queue exhausted its 2^56 sequence numbers");
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
        // Only a cancelled entry can surface dead on top of the heap.
        if (heap_dead_ != 0)
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
        fold_dispatch(e.when, e.key);
        ++n;
        fn();
    }
    if (advance_to_horizon && horizon != kTimeMax && now_ < horizon)
        now_ = horizon;
    return n;
}

} // namespace dvs
