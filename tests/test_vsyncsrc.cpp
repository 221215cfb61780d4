/**
 * @file
 * Unit tests for the software vsync layer: timeline model, distributor,
 * and choreographer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include "display/hw_vsync.h"
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
    sim.events().schedule(5_ms, [&] {
        dist.request_callback(VsyncChannel::kApp,
                              [&](const SwVsync &sw) { seen = sw; });
    });
    hw.start();
    sim.run_until(30_ms);
    EXPECT_EQ(seen.timestamp, 10_ms);
    EXPECT_EQ(seen.delivery_time, 10_ms);
    EXPECT_DOUBLE_EQ(seen.rate_hz, 100.0);
}

TEST_F(DistributorTest, OffsetsDelayDelivery)
{
    dist.set_offset(VsyncChannel::kRs, 2_ms);
    Time delivered = kTimeNone;
    Time stamp = kTimeNone;
    sim.events().schedule(5_ms, [&] {
        dist.request_callback(VsyncChannel::kRs, [&](const SwVsync &sw) {
            delivered = sim.now();
            stamp = sw.timestamp;
        });
    });
    hw.start();
    sim.run_until(30_ms);
    EXPECT_EQ(delivered, 12_ms);
    EXPECT_EQ(stamp, 10_ms); // timestamp is the edge, not the delivery
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
    // From the second edge on, every batch is delivered from a recycled
    // vector. Requests made while one is being delivered — on the same
    // channel or another — still belong to the next edge, and a batch
    // keeps request order.
    dist.set_offset(VsyncChannel::kRs, 3_ms);
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
    EXPECT_EQ(rs_delivered, (std::vector<Time>{3_ms, 13_ms, 23_ms, 33_ms}));
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
