/**
 * @file
 * Unit tests for the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lifetime_probe.h"
#include "sim/event_queue.h"
#include "sim/inline_ring.h"

using namespace dvs;
using namespace dvs::time_literals;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTickOrderedByPriorityThenSequence)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(2); }, EventPriority::kPipeline);
    q.schedule(10, [&] { order.push_back(1); }, EventPriority::kDisplay);
    q.schedule(10, [&] { order.push_back(3); }, EventPriority::kPipeline);
    q.schedule(10, [&] { order.push_back(4); }, EventPriority::kMetrics);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, ClockAdvancesOnlyThroughEvents)
{
    EventQueue q;
    Time seen = -1;
    q.schedule(500, [&] { seen = q.now(); });
    q.run();
    EXPECT_EQ(seen, 500);
}

TEST(EventQueue, RunUntilStopsAtHorizon)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    const auto n = q.run_until(20);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockToHorizon)
{
    EventQueue q;
    q.schedule(5, [] {});
    q.run_until(100);
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    std::vector<Time> times;
    std::function<void()> chain = [&] {
        times.push_back(q.now());
        if (times.size() < 5)
            q.schedule_in(10, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(times, (std::vector<Time>{0, 10, 20, 30, 40}));
}

TEST(EventQueue, SameTimeSelfScheduledEventRunsAfterPending)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(10, [&] { order.push_back(3); });
    });
    q.schedule(10, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, DispatchedCounterAccumulates)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(i, [] {});
    q.run();
    EXPECT_EQ(q.dispatched(), 7u);
}

TEST(EventQueue, DispatchedCountsSplitByPriority)
{
    // Priority k gets k + 1 events, and a callback schedules one more
    // kMetrics event for its own tick: each event counts at its own
    // priority.
    EventQueue q;
    for (std::size_t k = 0; k < kEventPriorities.size(); ++k) {
        for (std::size_t i = 0; i <= k; ++i)
            q.schedule(Time(i), [] {}, kEventPriorities[k]);
    }
    q.schedule(3, [&q] {
        q.schedule(q.now(), [] {}, EventPriority::kMetrics);
    });
    q.run();
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < kEventPriorities.size(); ++k) {
        const std::uint64_t want =
            k + 1 + (kEventPriorities[k] == EventPriority::kDefault) +
            (kEventPriorities[k] == EventPriority::kMetrics);
        EXPECT_EQ(q.dispatched(kEventPriorities[k]), want) << "priority " << k;
        sum += q.dispatched(kEventPriorities[k]);
    }
    EXPECT_EQ(sum, q.dispatched());
}

TEST(EventQueue, DispatchOrderMatchesStableSortModel)
{
    // Determinism pin for the storage rewrite: the queue must dispatch a
    // pseudo-random workload in exactly (time, priority,
    // insertion-sequence) order — the same order a stable sort of the
    // schedule calls produces.
    struct Scheduled {
        Time when;
        int prio;
        int tag;
    };
    const EventPriority prios[] = {
        EventPriority::kDisplay, EventPriority::kVsyncDist,
        EventPriority::kPipeline, EventPriority::kDefault,
        EventPriority::kMetrics};

    EventQueue q;
    std::vector<Scheduled> model;
    std::vector<int> fired;
    std::uint64_t rng = 0x2545f4914f6cdd1dULL;
    for (int tag = 0; tag < 2000; ++tag) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const Time when = Time(rng % 101);
        const EventPriority prio = prios[(rng >> 32) % 5];
        model.push_back(Scheduled{when, int(prio), tag});
        q.schedule(when, [&fired, tag] { fired.push_back(tag); }, prio);
    }
    std::stable_sort(model.begin(), model.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         return a.prio < b.prio;
                     });
    q.run();
    ASSERT_EQ(fired.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i)
        EXPECT_EQ(fired[i], model[i].tag) << "at dispatch index " << i;
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Time last = -1;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        const Time when = (i * 7919) % 1000;
        q.schedule(when, [&, when] {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    q.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.dispatched(), 5000u);
}

// ----- packed (prio, seq) heap key ----------------------------------------

namespace dvs {

/** Reaches the sequence counter, which no real run can exhaust. */
struct EventQueueTestPeer {
    static void set_next_seq(EventQueue &q, std::uint64_t seq)
    {
        q.next_seq_ = seq;
    }
};

} // namespace dvs

namespace {

/** FNV fold of one dispatched event, as the dispatch hash defines it. */
std::uint64_t
fold_event(std::uint64_t h, Time when, EventPriority prio, std::uint64_t seq)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    h = (h ^ std::uint64_t(when)) * kPrime;
    h = (h ^ std::uint64_t(prio)) * kPrime;
    return (h ^ seq) * kPrime;
}

} // namespace

TEST(EventQueue, AllPrioritiesAtOneTickDispatchByPrioThenSeq)
{
    // Four events of each priority, scheduled in a shuffled order at one
    // tick: dispatch must sort by priority, then by scheduling order.
    std::vector<std::pair<int, int>> plan; // (priority index, seq)
    for (int copy = 0; copy < 4; ++copy)
        for (int p = 0; p < 6; ++p)
            plan.emplace_back(p, 0);
    std::uint64_t x = 12345;
    for (std::size_t i = plan.size() - 1; i > 0; --i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(plan[i], plan[std::size_t(x >> 33) % (i + 1)]);
    }
    EventQueue q;
    std::vector<std::pair<int, int>> fired;
    for (std::size_t seq = 0; seq < plan.size(); ++seq) {
        plan[seq].second = int(seq);
        const std::pair<int, int> ev = plan[seq];
        q.schedule(7, [&fired, ev] { fired.push_back(ev); },
                   kEventPriorities[ev.first]);
    }
    q.run();
    std::vector<std::pair<int, int>> want = plan;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(fired, want);
}

TEST(EventQueue, DispatchHashFoldsWhenPrioSeq)
{
    // Events at mixed times and priorities, some scheduled by callbacks.
    EventQueue q;
    std::uint64_t want = 0xcbf29ce484222325ULL;
    std::uint64_t seq = 0;
    std::function<void(Time, EventPriority, int)> add;
    add = [&](Time when, EventPriority prio, int children) {
        const std::uint64_t my_seq = seq++;
        q.schedule(
            when,
            [&, when, prio, children, my_seq] {
                want = fold_event(want, when, prio, my_seq);
                for (int c = 0; c < children; ++c)
                    add(q.now() + c, kEventPriorities[(c + 2) % 6], 0);
            },
            prio);
    };
    for (int i = 0; i < 30; ++i)
        add(Time(i % 7) * 3, kEventPriorities[i % 6], i % 3);
    q.run();
    EXPECT_EQ(q.dispatched(), 30u + 30u);
    EXPECT_EQ(q.dispatch_hash(), want);
}

TEST(EventQueue, SequenceExhaustionFailsLoudly)
{
    // The key holds 56 bits of sequence; the last one is usable, the
    // next schedule must stop the run rather than wrap into the
    // priority bits.
    EventQueue q;
    EventQueueTestPeer::set_next_seq(q, (std::uint64_t(1) << 56) - 1);
    int ran = 0;
    q.schedule(1, [&ran] { ++ran; });
    q.run();
    EXPECT_EQ(ran, 1);
    EXPECT_DEATH(q.schedule(2, [] {}), "2\\^56 sequence numbers");
}

// ----- inline callback storage -------------------------------------------

TEST(EventQueue, MoveOnlyCaptureRunsExactlyOnce)
{
    EventQueue q;
    int ran = 0;
    int seen = 0;
    auto payload = std::make_unique<int>(42);
    q.schedule(10, [&ran, &seen, p = std::move(payload)] {
        ++ran;
        seen = *p;
    });
    q.run();
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(q.dispatched(), 1u);
}

TEST(EventQueue, CapturedStateDestroyedOnceWhenFired)
{
    int live = 0, owner_dtors = 0, ran = 0;
    {
        EventQueue q;
        q.schedule(10, [&ran, probe = LifetimeProbe(&live, &owner_dtors)] {
            ++ran;
        });
        q.run();
        EXPECT_EQ(ran, 1);
        EXPECT_EQ(owner_dtors, 1) << "state must die right after firing";
        EXPECT_EQ(live, 0);
    }
    EXPECT_EQ(owner_dtors, 1);
}

TEST(EventQueue, CapturedStateDestroyedOnceWithQueue)
{
    int live = 0, owner_dtors = 0, ran = 0;
    {
        EventQueue q;
        for (int i = 0; i < 40; ++i) {
            q.schedule(Time(100 + i),
                       [&ran, probe = LifetimeProbe(&live, &owner_dtors)] {
                           ++ran;
                       });
        }
        q.run_until(119); // fires 20, leaves 20 pending
        EXPECT_EQ(ran, 20);
        EXPECT_EQ(owner_dtors, 20);
    }
    EXPECT_EQ(ran, 20);
    EXPECT_EQ(owner_dtors, 40) << "pending captures die with the queue";
    EXPECT_EQ(live, 0);
}

TEST(EventQueue, NonTrivialCapturesDestroyedOnceAcrossGrowth)
{
    // std::string and shared_ptr captures take the type-erased relocate
    // and destroy path. Schedule enough of them to grow the slots several
    // times, then fire some and leave the rest to the queue's
    // destructor: each capture dies exactly once, and the strings arrive
    // intact after every relocation.
    auto token = std::make_shared<int>(0);
    struct {
        int fired = 0;
        int bad = 0;
    } seen;
    {
        EventQueue q;
        for (int i = 0; i < 600; ++i) {
            std::string name = "event-" + std::to_string(i) +
                               "-with-a-name-too-long-for-sso";
            q.schedule(Time(1 + i % 300),
                       [&seen, i, name = std::move(name), token] {
                           ++seen.fired;
                           seen.bad +=
                               name != "event-" + std::to_string(i) +
                                           "-with-a-name-too-long-for-sso";
                       });
        }
        EXPECT_EQ(token.use_count(), 601);
        q.run_until(150); // 300 of the 600 are due by then
        EXPECT_EQ(seen.fired, 300);
        EXPECT_EQ(token.use_count(), 301)
            << "a fired capture dies right after its call";
    }
    EXPECT_EQ(token.use_count(), 1) << "pending captures die with the queue";
    EXPECT_EQ(seen.bad, 0);
}

TEST(EventQueue, StdFunctionLvalueIsCopiedIn)
{
    EventQueue q;
    int ran = 0;
    std::function<void()> fn = [&ran] { ++ran; };
    q.schedule(1, fn);
    q.schedule_in(2, fn);
    EXPECT_TRUE(bool(fn)) << "an lvalue must be copied, not moved from";
    q.run();
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, FullCapacityCaptureSurvivesSlotGrowth)
{
    // A capture of exactly the inline capacity, whose callback schedules
    // enough events to grow (relocate) the slot map while it runs: the
    // running callback was moved out of its slot, so its state stays
    // valid throughout.
    EventQueue q;
    std::array<std::uint64_t, 5> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = 0x1000 + i;
    std::uint64_t sum = 0;
    int fired = 0;
    auto cb = [&q, &sum, &fired, payload] {
        for (int i = 0; i < 1000; ++i)
            q.schedule_in(1, [&fired] { ++fired; });
        for (std::uint64_t v : payload)
            sum += v;
    };
    static_assert(sizeof(cb) == EventQueue::Callback::kCapacity);
    q.schedule(0, cb);
    q.run();
    EXPECT_EQ(fired, 1000);
    EXPECT_EQ(sum, 5u * 0x1000 + 10u);
}

// ----- InlineRing -------------------------------------------------------------

TEST(InlineRing, StaysFifoAcrossWrapAndSpill)
{
    // Interleaved pushes and pops walk the head around the inline
    // storage; a burst past it moves to the heap mid-wrap. Order is the
    // model deque's throughout.
    InlineRing<int, 4> ring;
    std::deque<int> model;
    int next = 0;
    for (int round = 0; round < 40; ++round) {
        const int pushes = round % 7 == 6 ? 9 : 2;
        for (int k = 0; k < pushes; ++k) {
            ring.push_back(next);
            model.push_back(next++);
        }
        while (ring.size() > 1) {
            ASSERT_EQ(ring.front(), model.front());
            ASSERT_EQ(ring.back(), model.back());
            for (std::size_t i = 0; i < model.size(); ++i)
                ASSERT_EQ(ring[i], model[i]);
            ASSERT_EQ(ring.pop_front(), model.front());
            model.pop_front();
        }
    }
    EXPECT_GT(ring.capacity(), 4u) << "the burst never spilled";
    EXPECT_EQ(ring.pop_back(), model.back());
    EXPECT_TRUE(ring.empty());
}

TEST(InlineRing, HoldsMoveOnlyCallbacksAndReleasesTheirState)
{
    // A ring of move-only inline callables, as the vsync distributor
    // keeps its requests: each must run once, in order, and its captured
    // state must die exactly once, also when it spilled to the heap or
    // was cleared unrun.
    int live = 0, owner_dtors = 0;
    std::vector<int> ran;
    {
        InlineRing<EventQueue::Callback, 2> ring;
        for (int i = 0; i < 5; ++i) {
            ring.push_back(EventQueue::Callback(
                [i, &ran, probe = LifetimeProbe(&live, &owner_dtors)] {
                    ran.push_back(i);
                }));
        }
        for (int i = 0; i < 3; ++i) {
            EventQueue::Callback fn = ring.pop_front();
            fn();
        }
        EXPECT_EQ(owner_dtors, 3);
        ring.push_back(EventQueue::Callback(
            [&ran, probe = LifetimeProbe(&live, &owner_dtors)] {
                ran.push_back(99);
            }));
        ring.clear();
        EXPECT_EQ(owner_dtors, 6);
    }
    EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(live, 0);
    EXPECT_EQ(owner_dtors, 6);
}

namespace {

/** splitmix64 stream: deterministic inputs for the checksum mixes. */
struct SplitMix {
    std::uint64_t s;
    std::uint64_t next()
    {
        s += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/**
 * Chain mix (the simulator's steady state): `width` self-rescheduling
 * chains, each fired event scheduling its successor, until `events`
 * have been scheduled. Folds (chain, fire time) of every fired event.
 */
std::uint64_t
chain_mix(EventQueue &q, int events, int width, std::uint64_t &fired)
{
    std::uint64_t checksum = kFnvBasis;
    std::uint64_t budget = std::uint64_t(events);
    std::function<void(std::uint64_t)> arm = [&](std::uint64_t chain) {
        checksum = (checksum ^ chain) * kFnvPrime;
        checksum = (checksum ^ std::uint64_t(q.now())) * kFnvPrime;
        ++fired;
        if (budget == 0)
            return;
        --budget;
        SplitMix rng{chain * 7919 + fired};
        q.schedule(q.now() + 1 + Time(rng.next() % 997),
                   [&arm, chain] { arm(chain); });
    };
    for (int c = 0; c < width && budget > 0; ++c) {
        --budget;
        q.schedule(Time(c + 1), [&arm, c] { arm(std::uint64_t(c)); });
    }
    q.run();
    return checksum;
}

} // namespace

TEST(EventQueue, ChainMixChecksumIsPinned)
{
    EventQueue q;
    std::uint64_t fired = 0;
    EXPECT_EQ(chain_mix(q, 200'000, 256, fired), 0x333b3eca44014f2dULL);
    EXPECT_EQ(fired, 200'000u);
    EXPECT_EQ(q.dispatched(), fired);
}
