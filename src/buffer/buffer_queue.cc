#include "buffer/buffer_queue.h"

#include <algorithm>
#include <cassert>

#include "sim/logging.h"

namespace dvs {

BufferQueue::BufferQueue(int capacity) : capacity_(capacity)
{
    if (capacity < 2)
        fatal("BufferQueue needs at least 2 slots (front + back), got %d",
              capacity);
    if (capacity > kMaxSlots)
        fatal("BufferQueue holds at most %d slots, got %d", kMaxSlots,
              capacity);
    for (int i = 0; i < capacity; ++i)
        make_slot();
}

void
BufferQueue::make_slot()
{
    // A new slot takes the first unused storage entry; its number is the
    // live slot count, as if the retired slots had never been.
    std::size_t i = 0;
    while (in_use_[i])
        ++i;
    in_use_[i] = true;
    FrameBuffer &buf = storage_[i];
    buf = FrameBuffer(slot_count_);
    slots_[std::size_t(slot_count_++)] = &buf;
    free_.push_back(&buf);
}

void
BufferQueue::retire(FrameBuffer *buf)
{
    in_use_[std::size_t(buf - storage_.data())] = false;
    FrameBuffer **end = slots_.data() + slot_count_;
    FrameBuffer **pos = std::find(slots_.data(), end, buf);
    std::copy(pos + 1, end, pos);
    --slot_count_;
}

int
BufferQueue::dequeued_count() const
{
    int n = 0;
    for (const FrameBuffer *s : slots()) {
        if (s->state() == BufferState::kDequeued)
            ++n;
    }
    return n;
}

FrameBuffer *
BufferQueue::try_dequeue(Time now)
{
    if (free_.empty())
        return nullptr;
    if (alloc_fault_ && alloc_fault_(now))
        return nullptr;
    FrameBuffer *buf = free_.pop_front();
    assert(buf->state_ == BufferState::kFree);
    buf->state_ = BufferState::kDequeued;
    buf->dequeue_time_ = now;
    buf->queue_time_ = kTimeNone;
    buf->latch_time_ = kTimeNone;
    buf->meta_ = FrameMeta{};
    return buf;
}

void
BufferQueue::queue(FrameBuffer *buf, Time now)
{
    assert(buf && buf->state_ == BufferState::kDequeued);
    buf->state_ = BufferState::kQueued;
    buf->queue_time_ = now;
    queued_.push_back(buf);
}

void
BufferQueue::cancel(FrameBuffer *buf)
{
    assert(buf && buf->state_ == BufferState::kDequeued);
    release_to_free(buf);
}

FrameBuffer *
BufferQueue::acquire(Time now)
{
    if (queued_.empty())
        return nullptr;
    if (stall_fault_ && stall_fault_(now))
        return nullptr;
    FrameBuffer *next = queued_.pop_front();
    assert(next->state_ == BufferState::kQueued);

    FrameBuffer *old = front_;
    front_ = next;
    next->state_ = BufferState::kFront;
    next->latch_time_ = now;

    if (old) {
        assert(old->state_ == BufferState::kFront);
        release_to_free(old);
    }
    return next;
}

void
BufferQueue::release_to_free(FrameBuffer *buf)
{
    if (pending_shrink_ > 0) {
        // A shrink request retires slots as they free up instead of
        // yanking buffers out from under the producer or the screen.
        --pending_shrink_;
        buf->state_ = BufferState::kFree;
        retire(buf);
        return;
    }
    buf->state_ = BufferState::kFree;
    free_.push_back(buf);
    if (on_free_)
        on_free_();
}

void
BufferQueue::set_capacity(int capacity)
{
    if (capacity < 2)
        fatal("BufferQueue capacity must be >= 2, got %d", capacity);
    if (capacity > kMaxSlots)
        fatal("BufferQueue holds at most %d slots, got %d", kMaxSlots,
              capacity);
    pending_shrink_ = 0;
    while (slot_count_ < capacity) {
        make_slot();
        if (on_free_)
            on_free_();
    }
    if (slot_count_ > capacity) {
        int excess = slot_count_ - capacity;
        // Retire free slots immediately; the remainder lazily.
        while (excess > 0 && !free_.empty()) {
            retire(free_.pop_back());
            --excess;
        }
        pending_shrink_ = excess;
    }
    capacity_ = capacity;
}

} // namespace dvs
