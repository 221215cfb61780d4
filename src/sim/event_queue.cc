#include "sim/event_queue.h"

#include "sim/logging.h"

namespace dvs {

void
EventQueue::seq_overflow()
{
    panic("event queue exhausted its 2^56 sequence numbers");
}

std::uint64_t
EventQueue::run_until(Time horizon)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when <= horizon) {
        const Entry e = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();

        // Move the callback out before running it: it may schedule, and
        // growing the slots relocates every one of them.
        Callback fn = std::move(slots_[e.slot].fn);
        slots_[e.slot].next_free = free_head_;
        free_head_ = e.slot;
        now_ = e.when;
        ++dispatched_;
        ++dispatched_by_prio_[kPrioIndex[e.key >> kSeqBits]];
        fold_dispatch(e.when, e.key);
        ++n;
        fn();
    }
    if (horizon != kTimeMax && now_ < horizon)
        now_ = horizon;
    return n;
}

} // namespace dvs
