/**
 * @file
 * Unit tests for the software vsync layer: timeline model, distributor,
 * and choreographer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "display/hw_vsync.h"
#include "lifetime_probe.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "vsyncsrc/choreographer.h"
#include "vsyncsrc/vsync_distributor.h"
#include "vsyncsrc/vsync_model.h"

using namespace dvs;
using namespace dvs::time_literals;

// ----- VsyncModel -----------------------------------------------------------

TEST(VsyncModel, LearnsPeriodFromSamples)
{
    VsyncModel m(10_ms);
    for (int i = 0; i < 10; ++i)
        m.add_sample(Time(i) * 11_ms); // actual period 11 ms
    EXPECT_EQ(m.period(), 11_ms);
    EXPECT_EQ(m.last_edge(), 99_ms);
}

TEST(VsyncModel, PredictNextFollowsGrid)
{
    VsyncModel m(10_ms);
    for (int i = 0; i <= 5; ++i)
        m.add_sample(Time(i) * 10_ms);
    EXPECT_EQ(m.predict_next(50_ms), 60_ms); // strictly after
    EXPECT_EQ(m.predict_next(54_ms), 60_ms);
    EXPECT_EQ(m.predict_next(75_ms), 80_ms);
}

TEST(VsyncModel, PredictWithoutSamplesUsesNominalGrid)
{
    VsyncModel m(10_ms);
    EXPECT_EQ(m.predict_next(0), 10_ms);
    EXPECT_EQ(m.predict_next(25_ms), 30_ms);
}

TEST(VsyncModel, JitteredSamplesAverageOut)
{
    VsyncModel m(10_ms, 8);
    const Time jitter[] = {100_us, 0, 0 - 100_us, 50_us, 0 - 50_us,
                           80_us,  0, 0 - 80_us};
    for (int i = 0; i < 8; ++i)
        m.add_sample(Time(i) * 10_ms + jitter[i % 8]);
    EXPECT_NEAR(double(m.period()), double(10_ms), double(60_us));
}

TEST(VsyncModel, RateChangeResetsWindow)
{
    VsyncModel m(10_ms);
    for (int i = 0; i < 5; ++i)
        m.add_sample(Time(i) * 10_ms);
    // Jump to a 20 ms cadence: the first big delta clears the window.
    m.add_sample(60_ms);
    m.add_sample(80_ms);
    m.add_sample(100_ms);
    EXPECT_EQ(m.period(), 20_ms);
}

TEST(VsyncModel, PredictionErrorMeasuredAgainstGrid)
{
    VsyncModel m(10_ms);
    m.add_sample(0);
    m.add_sample(10_ms);
    EXPECT_EQ(m.prediction_error(20_ms), 0);
    EXPECT_EQ(m.prediction_error(20_ms + 200_us), 200_us);
    EXPECT_EQ(m.prediction_error(20_ms - 200_us), -Time(200_us));
}

TEST(VsyncModel, ResetRestoresNominal)
{
    VsyncModel m(10_ms);
    for (int i = 0; i < 6; ++i)
        m.add_sample(Time(i) * 12_ms);
    m.reset();
    EXPECT_EQ(m.period(), 10_ms);
    EXPECT_EQ(m.last_edge(), kTimeNone);
    EXPECT_EQ(m.samples(), 0u);
}

namespace {

/**
 * Brute-force twin of VsyncModel's estimator: a plain window of per-edge
 * deltas whose mean is recomputed from scratch on every query. The model
 * keeps a running sum instead; the two must agree exactly.
 */
struct ShadowModel {
    Time nominal;
    std::size_t window;
    Time period;
    Time last_edge = kTimeNone;
    std::deque<Time> recent;
    std::uint64_t samples = 0;

    ShadowModel(Time nominal_period, std::size_t w)
        : nominal(nominal_period), window(w), period(nominal_period)
    {
    }

    static Time
    mean(const std::deque<Time> &xs)
    {
        Time sum = 0;
        for (Time x : xs)
            sum += x;
        return sum / Time(xs.size());
    }

    void
    add(Time edge, int grid_steps)
    {
        ++samples;
        if (last_edge != kTimeNone && edge > last_edge) {
            const Time delta = (edge - last_edge) / grid_steps;
            if (!recent.empty()) {
                const Time ref = mean(recent);
                const Time dev = delta > ref ? delta - ref : ref - delta;
                if (dev > ref / 4)
                    recent.clear();
            }
            recent.push_back(delta);
            if (recent.size() > window)
                recent.pop_front();
        }
        last_edge = edge;
        if (recent.size() >= 2)
            period = mean(recent);
    }
};

} // namespace

TEST(VsyncModel, RunningSumMatchesBruteForceMean)
{
    // Seeded edge streams with jitter, LTPO-style rate switches (which
    // restart the window), sparse calibration steps, repeated edges, and
    // reset()/set_nominal_period() mid-stream. At every step the model's
    // running-sum estimate must equal the shadow window's recomputed
    // mean, bit for bit.
    const Time periods[] = {16'666'666, 11'111'111, 8'333'333, 33'333'333,
                            10'000'000};
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        std::mt19937_64 rng(seed);
        const std::size_t window = 2 + std::size_t(rng() % 17);
        Time base = periods[rng() % 5];
        VsyncModel model(base, int(window));
        ShadowModel shadow(base, window);
        Time t = Time(rng() % 1'000'000);
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t r = rng() % 1000;
            if (r < 3) {
                model.reset();
                shadow = ShadowModel(shadow.nominal, window);
            } else if (r < 6) {
                base = periods[rng() % 5];
                model.set_nominal_period(base);
                shadow.nominal = base;
                shadow.period = base;
                shadow.recent.clear();
            } else if (r < 20) {
                base = periods[rng() % 5]; // silent rate switch
            }
            const int grid_steps = rng() % 8 == 0 ? 1 + int(rng() % 4) : 1;
            const Time jitter = Time(rng() % 400'001) - 200'000;
            if (rng() % 50 != 0) // else: a repeated edge, no delta
                t += Time(grid_steps) * base + jitter;
            model.add_sample(t, grid_steps);
            shadow.add(t, grid_steps);
            ASSERT_EQ(model.period(), shadow.period)
                << "seed " << seed << " step " << step;
            ASSERT_EQ(model.last_edge(), shadow.last_edge);
            ASSERT_EQ(model.samples(), shadow.samples);
        }
    }
}

// ----- VsyncDistributor ------------------------------------------------------

class DistributorTest : public ::testing::Test
{
  protected:
    DistributorTest() : hw(sim, 100.0), dist(sim, hw) {}

    Simulator sim;
    HwVsyncGenerator hw;
    VsyncDistributor dist;
};

TEST_F(DistributorTest, CallbacksAreOneShot)
{
    int calls = 0;
    dist.request_callback(VsyncChannel::kApp,
                          [&](const SwVsync &) { ++calls; });
    hw.start();
    sim.run_until(50_ms);
    EXPECT_EQ(calls, 1);
}

TEST_F(DistributorTest, CallbackCarriesEdgeTimestamp)
{
    SwVsync seen{};
    Time delivered = kTimeNone;
    sim.events().schedule(5_ms, [&] {
        dist.request_callback(VsyncChannel::kApp, [&](const SwVsync &sw) {
            seen = sw;
            delivered = sim.now();
        });
    });
    hw.start();
    sim.run_until(30_ms);
    EXPECT_EQ(seen.timestamp, 10_ms);
    EXPECT_EQ(delivered, 10_ms) << "delivered on the edge itself";
    EXPECT_DOUBLE_EQ(seen.rate_hz, 100.0);
}

TEST_F(DistributorTest, RequestDuringDeliveryWaitsForNextEdge)
{
    std::vector<Time> deliveries;
    std::function<void(const SwVsync &)> cb = [&](const SwVsync &sw) {
        deliveries.push_back(sw.timestamp);
        if (deliveries.size() < 3)
            dist.request_callback(VsyncChannel::kApp, cb);
    };
    dist.request_callback(VsyncChannel::kApp, cb);
    hw.start();
    sim.run_until(50_ms);
    EXPECT_EQ(deliveries, (std::vector<Time>{0, 10_ms, 20_ms}));
}

TEST_F(DistributorTest, RecycledBatchRequestsWaitForNextEdge)
{
    // Every batch is delivered off the front of its channel's request
    // ring while later requests queue behind it. Requests made while one
    // is being delivered — on the same channel or another — still belong
    // to the next edge, and a batch keeps request order.
    std::vector<std::pair<char, Time>> app; // (callback, edge) on kApp
    std::vector<Time> rs_delivered;
    int a_calls = 0;
    std::function<void(const SwVsync &)> a = [&](const SwVsync &sw) {
        app.emplace_back('A', sw.timestamp);
        if (++a_calls < 5)
            dist.request_callback(VsyncChannel::kApp, a);
    };
    std::function<void(const SwVsync &)> b = [&](const SwVsync &) {
        EXPECT_EQ(dist.pending(VsyncChannel::kRs), 0u)
            << "the batch in delivery is no longer pending";
        rs_delivered.push_back(sim.now());
        dist.request_callback(VsyncChannel::kApp, [&](const SwVsync &s2) {
            app.emplace_back('C', s2.timestamp);
        });
        if (rs_delivered.size() < 4)
            dist.request_callback(VsyncChannel::kRs, b);
    };
    dist.request_callback(VsyncChannel::kApp, a);
    dist.request_callback(VsyncChannel::kRs, b);
    hw.start();
    sim.run_until(60_ms);
    EXPECT_EQ(rs_delivered, (std::vector<Time>{0, 10_ms, 20_ms, 30_ms}));
    const std::vector<std::pair<char, Time>> want = {
        {'A', 0},     {'A', 10_ms}, {'C', 10_ms}, {'A', 20_ms},
        {'C', 20_ms}, {'A', 30_ms}, {'C', 30_ms}, {'A', 40_ms},
        {'C', 40_ms}};
    EXPECT_EQ(app, want);
    for (VsyncChannel ch :
         {VsyncChannel::kApp, VsyncChannel::kRs, VsyncChannel::kSf})
        EXPECT_EQ(dist.pending(ch), 0u);
}

TEST_F(DistributorTest, ChannelsAreIndependent)
{
    int app = 0, rs = 0, sf = 0;
    dist.request_callback(VsyncChannel::kApp, [&](const SwVsync &) { ++app; });
    dist.request_callback(VsyncChannel::kRs, [&](const SwVsync &) { ++rs; });
    dist.request_callback(VsyncChannel::kSf, [&](const SwVsync &) { ++sf; });
    EXPECT_EQ(dist.pending(VsyncChannel::kApp), 1u);
    hw.start();
    sim.run_until(15_ms);
    EXPECT_EQ(app, 1);
    EXPECT_EQ(rs, 1);
    EXPECT_EQ(sf, 1);
    EXPECT_EQ(dist.pending(VsyncChannel::kApp), 0u);
}

TEST_F(DistributorTest, ModelTracksHardware)
{
    hw.start();
    sim.run_until(100_ms);
    EXPECT_EQ(dist.model().period(), 10_ms);
    EXPECT_EQ(dist.model().last_edge(), 100_ms);
}

TEST_F(DistributorTest, EarlierEventAtTheEdgeSchedulesDelivery)
{
    // A batch is delivered in place, at the end of its edge, unless an
    // event that a scheduled kVsyncDist event would run behind is pending
    // at the edge's tick. Then it and every later batch of the edge are
    // scheduled, and callbacks still run after that event and after every
    // listener of the edge.
    int dtv = 0; // a later listener, standing in for DTV calibration
    hw.add_listener([&](const VsyncEdge &) { ++dtv; });
    const EventQueue &q = sim.events();
    std::vector<std::string> order;
    const auto request = [&](VsyncChannel ch, const char *name) {
        dist.request_callback(ch, [&, name](const SwVsync &sw) {
            order.push_back(name);
            EXPECT_EQ(dtv, int(sw.index) + 1) << name << " saw the listener";
            EXPECT_EQ(sim.now(), sw.timestamp);
        });
    };

    // Edge 0 is quiet: both batches are delivered in place.
    request(VsyncChannel::kRs, "rs0");
    request(VsyncChannel::kApp, "app0");
    hw.start();
    sim.run_until(5_ms);
    EXPECT_EQ(order, (std::vector<std::string>{"app0", "rs0"}));
    EXPECT_EQ(q.dispatched(EventPriority::kVsyncDist), 0u);

    // Edge 1 shares its tick with a segment boundary.
    sim.events().schedule(
        10_ms, [&] { order.push_back("segment"); }, EventPriority::kSegment);
    request(VsyncChannel::kRs, "rs1");
    request(VsyncChannel::kApp, "app1");
    sim.run_until(15_ms);
    EXPECT_EQ(order, (std::vector<std::string>{"app0", "rs0", "segment",
                                               "app1", "rs1"}));
    EXPECT_EQ(q.dispatched(EventPriority::kVsyncDist), 2u);

    // Edge 2 is quiet again.
    request(VsyncChannel::kApp, "app2");
    sim.run_until(25_ms);
    EXPECT_EQ(order.back(), "app2");
    EXPECT_EQ(q.dispatched(EventPriority::kVsyncDist), 2u);
}

TEST_F(DistributorTest, EventScheduledByADeliverySchedulesLaterBatches)
{
    // A callback delivered in place may schedule an event that runs
    // before the edge's next batch would have: that batch waits for it.
    std::vector<std::string> order;
    dist.request_callback(VsyncChannel::kApp, [&](const SwVsync &) {
        order.push_back("app");
        sim.events().schedule(
            sim.now(), [&] { order.push_back("latch"); },
            EventPriority::kDisplay);
    });
    dist.request_callback(VsyncChannel::kSf, [&](const SwVsync &sw) {
        order.push_back("sf");
        EXPECT_EQ(sw.timestamp, 0);
    });
    hw.start();
    sim.run_until(5_ms);
    EXPECT_EQ(order, (std::vector<std::string>{"app", "latch", "sf"}));
    EXPECT_EQ(sim.events().dispatched(EventPriority::kVsyncDist), 1u);
}

TEST_F(DistributorTest, SameTickEdgesKeepTheirBatches)
{
    // A zero period scale puts edge 2 on edge 1's tick. Edge 1 defers its
    // batch behind edge 2's event; edge 2's batch must then wait behind
    // it too, or it would take edge 1's callback off the ring.
    int scaled = 0;
    hw.set_period_scale([&](Time now) {
        return now == 10_ms && scaled++ == 0 ? 1e-12 : 1.0;
    });
    std::vector<std::pair<char, std::uint64_t>> seen; // (callback, edge)
    hw.add_listener([&](const VsyncEdge &e) {
        if (e.index == 1)
            dist.request_callback(VsyncChannel::kApp, [&](const SwVsync &sw) {
                seen.emplace_back('B', sw.index);
            });
    });
    sim.events().schedule(5_ms, [&] {
        dist.request_callback(VsyncChannel::kApp, [&](const SwVsync &sw) {
            seen.emplace_back('A', sw.index);
        });
    });
    hw.start();
    sim.run_until(15_ms);
    ASSERT_EQ(hw.edges_emitted(), 3u) << "edges 1 and 2 share 10 ms";
    const std::vector<std::pair<char, std::uint64_t>> want = {{'A', 1},
                                                              {'B', 2}};
    EXPECT_EQ(seen, want);
    EXPECT_EQ(sim.events().dispatched(EventPriority::kVsyncDist), 2u);
}

TEST_F(DistributorTest, LostEdgeDeliversNothing)
{
    hw.set_edge_fault([](const VsyncEdge &e) { return e.index == 1; });
    std::vector<std::uint64_t> seen;
    sim.events().schedule(5_ms, [&] {
        dist.request_callback(VsyncChannel::kApp, [&](const SwVsync &sw) {
            seen.push_back(sw.index);
        });
    });
    hw.start();
    sim.run_until(15_ms);
    EXPECT_TRUE(seen.empty()) << "the edge at 10 ms was lost";
    EXPECT_EQ(dist.pending(VsyncChannel::kApp), 1u);
    sim.run_until(25_ms);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{2}));
    EXPECT_EQ(sim.events().dispatched(EventPriority::kVsyncDist), 0u);
}

TEST_F(DistributorTest, OneEndOfEdgeHookPerGenerator)
{
    FatalThrowsScope recoverable(true);
    EXPECT_THROW((VsyncDistributor{sim, hw}), ConfigError);
}

// ----- VsyncDistributor::Callback ---------------------------------------------

TEST(VsyncCallback, ForwardsItsArgumentByReference)
{
    const SwVsync sw{10_ms, 7, 90.0};
    const SwVsync *seen = nullptr;
    VsyncDistributor::Callback fn = [&seen](const SwVsync &s) { seen = &s; };
    ASSERT_TRUE(bool(fn));
    fn(sw);
    EXPECT_EQ(seen, &sw) << "the delivery is passed through, not copied";

    // A std::function fits the 32 bytes too, and an lvalue is copied in.
    std::uint64_t index = 0;
    std::function<void(const SwVsync &)> f = [&index](const SwVsync &s) {
        index = s.index;
    };
    VsyncDistributor::Callback wrapped = f;
    EXPECT_TRUE(bool(f));
    wrapped(sw);
    EXPECT_EQ(index, 7u);
}

TEST(VsyncCallback, DeliveredCaptureDestroyedOnce)
{
    int live = 0, owner_dtors = 0, ran = 0;
    {
        Simulator sim;
        HwVsyncGenerator hw(sim, 100.0);
        VsyncDistributor dist(sim, hw);
        dist.request_callback(
            VsyncChannel::kApp,
            [&ran, probe = LifetimeProbe(&live, &owner_dtors)](
                const SwVsync &) { ++ran; });
        EXPECT_EQ(live, 1) << "stored once, in the request ring";
        hw.start();
        sim.run_until(5_ms);
        EXPECT_EQ(ran, 1);
        EXPECT_EQ(owner_dtors, 1) << "released right after it ran";
        EXPECT_EQ(live, 0);
    }
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(owner_dtors, 1);
    EXPECT_EQ(live, 0);
}

TEST(VsyncCallback, DroppedCaptureDestroyedOnceAtTeardown)
{
    // Requests on two channels wait for an edge that never comes.
    int live = 0, owner_dtors = 0, ran = 0;
    {
        Simulator sim;
        HwVsyncGenerator hw(sim, 100.0);
        VsyncDistributor dist(sim, hw);
        hw.start();
        sim.run_until(1_ms); // edge 0 has been delivered
        dist.request_callback(
            VsyncChannel::kRs,
            [&ran, probe = LifetimeProbe(&live, &owner_dtors)](
                const SwVsync &) { ++ran; });
        dist.request_callback(
            VsyncChannel::kApp,
            [&ran, probe = LifetimeProbe(&live, &owner_dtors)](
                const SwVsync &) { ++ran; });
        EXPECT_EQ(live, 2);
        EXPECT_EQ(owner_dtors, 0);
    }
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(owner_dtors, 2);
    EXPECT_EQ(live, 0);
}

// ----- Choreographer ----------------------------------------------------------

TEST_F(DistributorTest, ChoreographerCoalescesPosts)
{
    Choreographer ch(dist, VsyncChannel::kApp);
    int calls = 0;
    ch.set_callback([&](const SwVsync &) { ++calls; });
    ch.post_frame_callback();
    ch.post_frame_callback();
    ch.post_frame_callback();
    EXPECT_TRUE(ch.armed());
    hw.start();
    sim.run_until(25_ms);
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(ch.armed());
    EXPECT_EQ(ch.callbacks_delivered(), 1u);
}

TEST_F(DistributorTest, ChoreographerRepostInsideCallback)
{
    Choreographer ch(dist, VsyncChannel::kApp);
    std::vector<Time> frames;
    ch.set_callback([&](const SwVsync &sw) {
        frames.push_back(sw.timestamp);
        if (frames.size() < 3)
            ch.post_frame_callback();
    });
    ch.post_frame_callback();
    hw.start();
    sim.run_until(60_ms);
    EXPECT_EQ(frames, (std::vector<Time>{0, 10_ms, 20_ms}));
}
