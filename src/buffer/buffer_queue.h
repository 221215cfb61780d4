/**
 * @file
 * FIFO buffer queue between the rendering pipeline and the screen.
 *
 * Mirrors the producer/consumer model of §2: the producer dequeues a free
 * slot, renders into it, and queues it; the screen acquires queued buffers
 * in FIFO order, one per refresh, releasing the previously displayed
 * buffer. Capacity is configurable: VSync triple buffering uses 3 slots,
 * D-VSync enlarges the queue (the paper's default is 4, up to 7 in the
 * Fig. 11 sweep).
 */

#ifndef DVS_BUFFER_BUFFER_QUEUE_H
#define DVS_BUFFER_BUFFER_QUEUE_H

#include <array>
#include <cstddef>
#include <functional>
#include <span>

#include "buffer/frame_buffer.h"
#include "sim/inline_ring.h"
#include "sim/time.h"

namespace dvs {

/**
 * A fixed-capacity FIFO queue of frame buffers.
 *
 * Invariants (checked in debug builds and by the test suite):
 *  - exactly @c capacity slots exist at all times, partitioned among
 *    free / dequeued / queued / front;
 *  - at most one slot is in the kFront state;
 *  - buffers are acquired in exactly the order they were queued.
 *
 * The queue owns its buffers by value, in storage for kMaxSlots of them
 * that never moves, so the pointers the pipeline and the screen hold
 * stay valid while the capacity changes.
 */
class BufferQueue
{
  public:
    /** Deepest queue any configuration may ask for. */
    static constexpr int kMaxSlots = 16;

    /**
     * @param capacity total slot count (1 front + capacity-1 back),
     *        2..kMaxSlots.
     */
    explicit BufferQueue(int capacity);

    int capacity() const { return capacity_; }

    /** Slots available for the producer to render into. */
    int free_count() const { return int(free_.size()); }

    /** Rendered frames waiting to be displayed. */
    int queued_count() const { return int(queued_.size()); }

    /** Slots currently held by the producer. */
    int dequeued_count() const;

    /**
     * Producer side: take a free slot for rendering.
     * @return nullptr when no slot is free (producer must wait).
     */
    FrameBuffer *try_dequeue(Time now);

    /**
     * Producer side: submit a rendered buffer to the FIFO.
     * @pre buf was obtained from try_dequeue() and not yet queued.
     */
    void queue(FrameBuffer *buf, Time now);

    /**
     * Producer side: return a dequeued slot unrendered (e.g. a cancelled
     * frame). The slot becomes free again.
     */
    void cancel(FrameBuffer *buf);

    /**
     * Consumer side: latch the oldest queued buffer for display and
     * release the previously displayed buffer (if any) back to the free
     * list.
     * @return nullptr when nothing is queued (the screen repeats the
     *         previous frame).
     */
    FrameBuffer *acquire(Time now);

    /** The buffer currently on screen (nullptr before the first latch). */
    FrameBuffer *front() const { return front_; }

    /** Peek the next buffer that acquire() would return. */
    FrameBuffer *peek_queued() const
    {
        return queued_.empty() ? nullptr : queued_.front();
    }

    /**
     * Register a callback invoked whenever a slot becomes free (after
     * acquire() releases the old front, or cancel()). Used by producers
     * blocked on a full queue.
     */
    void on_slot_free(std::function<void()> cb) { on_free_ = std::move(cb); }

    /**
     * Fire the slot-free callback without freeing anything: a retry kick
     * for producers parked by a transient allocation fault (the fault
     * injector calls this when an allocation-failure window closes).
     */
    void notify_free()
    {
        if (on_free_)
            on_free_();
    }

    // ----- fault-injection hooks (src/fault) ---------------------------

    /**
     * Allocation-failure fault: while the hook returns true, try_dequeue
     * fails even when free slots exist (transient allocator pressure).
     * Pair with notify_free() at window end or the producer stays parked.
     */
    using AllocFault = std::function<bool(Time)>;
    void set_alloc_fault(AllocFault fn) { alloc_fault_ = std::move(fn); }

    /**
     * Transient consumer stall: while the hook returns true, acquire()
     * refuses to latch (the screen repeats its front buffer), modelling a
     * stalled consumer/HWC. Clears itself when the window ends — the next
     * vsync edge latches normally.
     */
    using StallFault = std::function<bool(Time)>;
    void set_stall_fault(StallFault fn) { stall_fault_ = std::move(fn); }

    /**
     * Grow or shrink the total capacity at runtime (decoupling-aware API:
     * pre-render limit reconfiguration). Shrinking below the number of
     * in-use slots takes effect lazily as buffers free up.
     * @param capacity 2..kMaxSlots
     */
    void set_capacity(int capacity);

    /** All live slots in creation order, for tests and introspection. */
    std::span<FrameBuffer *const> slots() const
    {
        return {slots_.data(), std::size_t(slot_count_)};
    }

  private:
    void make_slot();
    void retire(FrameBuffer *buf);
    void release_to_free(FrameBuffer *buf);

    int capacity_;
    std::array<FrameBuffer, kMaxSlots> storage_;
    std::array<bool, kMaxSlots> in_use_{};
    std::array<FrameBuffer *, kMaxSlots> slots_{};
    int slot_count_ = 0;
    InlineRing<FrameBuffer *, kMaxSlots> free_;
    InlineRing<FrameBuffer *, kMaxSlots> queued_;
    FrameBuffer *front_ = nullptr;
    std::function<void()> on_free_;
    AllocFault alloc_fault_;
    StallFault stall_fault_;
    int pending_shrink_ = 0;
};

} // namespace dvs

#endif // DVS_BUFFER_BUFFER_QUEUE_H
