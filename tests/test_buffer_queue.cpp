/**
 * @file
 * Unit and invariant tests for the frame buffer queue.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "buffer/buffer_queue.h"
#include "sim/logging.h"
#include "sim/random.h"

using namespace dvs;

TEST(BufferQueue, InitialStateAllFree)
{
    BufferQueue q(3);
    EXPECT_EQ(q.capacity(), 3);
    EXPECT_EQ(q.free_count(), 3);
    EXPECT_EQ(q.queued_count(), 0);
    EXPECT_EQ(q.dequeued_count(), 0);
    EXPECT_EQ(q.front(), nullptr);
    EXPECT_EQ(q.peek_queued(), nullptr);
}

TEST(BufferQueue, DequeueQueueAcquireCycle)
{
    BufferQueue q(3);
    FrameBuffer *b = q.try_dequeue(100);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->state(), BufferState::kDequeued);
    EXPECT_EQ(b->dequeue_time(), 100);
    EXPECT_EQ(q.free_count(), 2);

    q.queue(b, 200);
    EXPECT_EQ(b->state(), BufferState::kQueued);
    EXPECT_EQ(b->queue_time(), 200);
    EXPECT_EQ(q.queued_count(), 1);
    EXPECT_EQ(q.peek_queued(), b);

    FrameBuffer *shown = q.acquire(300);
    EXPECT_EQ(shown, b);
    EXPECT_EQ(b->state(), BufferState::kFront);
    EXPECT_EQ(b->latch_time(), 300);
    EXPECT_EQ(q.front(), b);
    EXPECT_EQ(q.queued_count(), 0);
}

TEST(BufferQueue, DequeueFailsWhenExhausted)
{
    BufferQueue q(2);
    EXPECT_NE(q.try_dequeue(0), nullptr);
    EXPECT_NE(q.try_dequeue(0), nullptr);
    EXPECT_EQ(q.try_dequeue(0), nullptr);
}

TEST(BufferQueue, AcquireEmptyReturnsNull)
{
    BufferQueue q(2);
    EXPECT_EQ(q.acquire(0), nullptr);
}

TEST(BufferQueue, FifoOrderPreserved)
{
    BufferQueue q(4);
    FrameBuffer *a = q.try_dequeue(0);
    FrameBuffer *b = q.try_dequeue(0);
    FrameBuffer *c = q.try_dequeue(0);
    a->meta().frame_id = 1;
    b->meta().frame_id = 2;
    c->meta().frame_id = 3;
    q.queue(b, 10); // queue out of dequeue order on purpose
    q.queue(a, 11);
    q.queue(c, 12);
    EXPECT_EQ(q.acquire(20)->meta().frame_id, 2u);
    EXPECT_EQ(q.acquire(30)->meta().frame_id, 1u);
    EXPECT_EQ(q.acquire(40)->meta().frame_id, 3u);
}

TEST(BufferQueue, AcquireReleasesPreviousFront)
{
    BufferQueue q(3);
    FrameBuffer *a = q.try_dequeue(0);
    q.queue(a, 1);
    q.acquire(2);
    EXPECT_EQ(q.free_count(), 2);

    FrameBuffer *b = q.try_dequeue(3);
    q.queue(b, 4);
    q.acquire(5);
    // a returned to the free list when b was latched.
    EXPECT_EQ(q.free_count(), 2);
    EXPECT_EQ(a->state(), BufferState::kFree);
    EXPECT_EQ(q.front(), b);
}

TEST(BufferQueue, OnSlotFreeFiresOnRelease)
{
    BufferQueue q(2);
    int fires = 0;
    q.on_slot_free([&] { ++fires; });

    FrameBuffer *a = q.try_dequeue(0);
    q.queue(a, 1);
    q.acquire(2); // first latch: nothing released
    EXPECT_EQ(fires, 0);

    FrameBuffer *b = q.try_dequeue(3);
    q.queue(b, 4);
    q.acquire(5); // a released
    EXPECT_EQ(fires, 1);
}

TEST(BufferQueue, CancelReturnsSlot)
{
    BufferQueue q(2);
    int fires = 0;
    q.on_slot_free([&] { ++fires; });
    FrameBuffer *a = q.try_dequeue(0);
    EXPECT_EQ(q.free_count(), 1);
    q.cancel(a);
    EXPECT_EQ(q.free_count(), 2);
    EXPECT_EQ(fires, 1);
}

TEST(BufferQueue, MetaClearedOnDequeue)
{
    BufferQueue q(2);
    FrameBuffer *a = q.try_dequeue(0);
    a->meta().frame_id = 77;
    a->meta().pre_rendered = true;
    q.queue(a, 1);
    q.acquire(2);
    FrameBuffer *b = q.try_dequeue(3);
    q.queue(b, 4);
    q.acquire(5); // frees a

    FrameBuffer *again = q.try_dequeue(6);
    ASSERT_EQ(again, a);
    EXPECT_EQ(again->meta().frame_id, 0u);
    EXPECT_FALSE(again->meta().pre_rendered);
    EXPECT_EQ(again->queue_time(), kTimeNone);
}

TEST(BufferQueue, GrowCapacityAddsFreeSlots)
{
    BufferQueue q(2);
    q.set_capacity(5);
    EXPECT_EQ(q.capacity(), 5);
    EXPECT_EQ(q.free_count(), 5);
    EXPECT_EQ(q.slots().size(), 5u);
}

TEST(BufferQueue, ShrinkCapacityRetiresFreeSlotsImmediately)
{
    BufferQueue q(5);
    q.set_capacity(3);
    EXPECT_EQ(q.capacity(), 3);
    EXPECT_EQ(q.free_count(), 3);
    EXPECT_EQ(q.slots().size(), 3u);
}

TEST(BufferQueue, ShrinkWithBusySlotsRetiresLazily)
{
    BufferQueue q(4);
    FrameBuffer *a = q.try_dequeue(0);
    FrameBuffer *b = q.try_dequeue(0);
    FrameBuffer *c = q.try_dequeue(0);
    q.queue(a, 1);
    q.queue(b, 1);
    q.queue(c, 1);
    // Three slots queued, one free: shrinking to 2 retires the free slot
    // immediately and one more lazily as buffers release.
    q.set_capacity(2);
    EXPECT_EQ(q.capacity(), 2);
    EXPECT_EQ(q.slots().size(), 3u); // one retirement still pending

    q.acquire(2); // a -> front (nothing released yet)
    EXPECT_EQ(q.slots().size(), 3u);
    q.acquire(3); // b -> front, a released -> retired, not freed
    EXPECT_EQ(q.slots().size(), 2u);
    EXPECT_EQ(q.free_count(), 0);
    q.acquire(4); // c -> front, b released -> back on the free list
    EXPECT_EQ(q.slots().size(), 2u);
    EXPECT_EQ(q.free_count(), 1);
}

TEST(BufferQueue, HeldBuffersSurviveRegrowthIntoRetiredStorage)
{
    // Buffers live in storage that never moves: a slot the producer or
    // the screen holds keeps its address while the queue shrinks and
    // grows, and a regrown slot reuses retired storage under the next
    // slot number.
    BufferQueue q(4);
    FrameBuffer *held = q.try_dequeue(0);
    ASSERT_NE(held, nullptr);
    q.set_capacity(2); // retires two free slots at once
    EXPECT_EQ(q.slots().size(), 2u);
    q.set_capacity(BufferQueue::kMaxSlots);
    ASSERT_EQ(q.slots().size(), std::size_t(BufferQueue::kMaxSlots));
    for (int i = 0; i < BufferQueue::kMaxSlots; ++i)
        EXPECT_EQ(q.slots()[std::size_t(i)]->slot(), i);
    EXPECT_EQ(std::count(q.slots().begin(), q.slots().end(), held), 1);
    EXPECT_EQ(held->state(), BufferState::kDequeued);
    q.queue(held, 1);
    EXPECT_EQ(q.acquire(2), held);
    EXPECT_EQ(q.free_count(), BufferQueue::kMaxSlots - 1);
}

TEST(BufferQueue, CapacityIsBoundedByItsStorage)
{
    FatalThrowsScope scope(true);
    EXPECT_THROW(BufferQueue(BufferQueue::kMaxSlots + 1), ConfigError);
    BufferQueue q(BufferQueue::kMaxSlots);
    EXPECT_EQ(q.free_count(), BufferQueue::kMaxSlots);
    EXPECT_THROW(q.set_capacity(BufferQueue::kMaxSlots + 1), ConfigError);
    EXPECT_EQ(q.capacity(), BufferQueue::kMaxSlots);
}

TEST(BufferQueue, SlotStateNamesAreStable)
{
    EXPECT_STREQ(to_string(BufferState::kFree), "free");
    EXPECT_STREQ(to_string(BufferState::kDequeued), "dequeued");
    EXPECT_STREQ(to_string(BufferState::kQueued), "queued");
    EXPECT_STREQ(to_string(BufferState::kFront), "front");
}

/** Random workout: the slot partition invariant always holds. */
TEST(BufferQueue, RandomizedPartitionInvariant)
{
    Rng rng(99);
    BufferQueue q(4);
    std::vector<FrameBuffer *> held;
    Time t = 0;
    for (int step = 0; step < 5000; ++step) {
        ++t;
        switch (rng.uniform_int(0, 2)) {
          case 0: {
            if (FrameBuffer *b = q.try_dequeue(t))
                held.push_back(b);
            break;
          }
          case 1: {
            if (!held.empty()) {
                q.queue(held.back(), t);
                held.pop_back();
            }
            break;
          }
          case 2:
            q.acquire(t);
            break;
        }
        const int front = q.front() ? 1 : 0;
        EXPECT_EQ(q.free_count() + q.queued_count() + int(held.size()) +
                      front,
                  q.capacity());
    }
}
