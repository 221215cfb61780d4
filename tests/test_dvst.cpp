/**
 * @file
 * Trace record/replay tests: .dvst byte-level io and CRC-32, capture
 * round trips (the traces/ corpus included, byte for byte), concurrent
 * encode/decode, the bit-exact replay contract (both pacing modes),
 * trace transforms, and strict-loader behavior on corrupt, truncated,
 * and version-skewed files (including a per-byte mutation fuzz loop,
 * also run over the frame-trace CSV, scenario-script and forensics-dump
 * loaders).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/input_prediction_layer.h"
#include "fault/fault_plan.h"
#include "input/gesture.h"
#include "obs/json_view.h"
#include "sim/logging.h"
#include "test_support.h"
#include "trace/dvst_io.h"
#include "trace/session_recorder.h"
#include "trace/trace_replay.h"
#include "trace/transforms.h"
#include "workload/app_profiles.h"
#include "workload/frame_cost.h"
#include "workload/scenario_script.h"
#include "workload/trace.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

Scenario
mixed_scenario(Time animation = 400_ms)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    GestureTiming timing;
    timing.duration = 200_ms;
    Scenario sc("mixed");
    sc.animate(animation, cost)
        .idle(50_ms)
        .interact(std::make_shared<const TouchStream>(
                      make_swipe(timing, 1800.0, 900.0)),
                  cost)
        .realtime(100_ms, cost);
    return sc;
}

SystemConfig
faulted_config(RenderMode mode, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.seed = seed;
    cfg.faults = std::make_shared<const FaultPlan>(FaultPlan::generate(
        seed, mixed_scenario().total_duration(), FaultMix::everything()));
    return cfg;
}

SessionCapture
record_single(RenderMode mode, std::uint64_t seed, RunReport *report = nullptr)
{
    RenderSystem sys(faulted_config(mode, seed), mixed_scenario());
    const RunReport r = sys.run();
    if (report)
        *report = r;
    return SessionRecorder::capture(sys, "test-single");
}

std::vector<SurfaceDesc>
two_surfaces()
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    auto spiky = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{1_ms, 3_ms, 2_ms}, FrameCost{2_ms, 9_ms, 6_ms}, 7);
    Scenario app("app");
    app.animate(400_ms, spiky);
    Scenario status("status");
    status.animate(300_ms, cost);
    return {
        SurfaceDesc()
            .with_name("app")
            .with_scenario(std::move(app))
            .with_buffer_mb(12.0)
            .with_weight(3.0),
        SurfaceDesc()
            .with_name("status")
            .with_scenario(std::move(status))
            .with_buffer_mb(10.0)
            .with_start_at(50_ms),
    };
}

SessionCapture
record_multi(RunReport *report = nullptr)
{
    RenderSystem sys(SystemConfig().with_budget_mb(24.0).with_seed(7),
                     two_surfaces());
    const RunReport r = sys.run();
    if (report)
        *report = r;
    return SessionRecorder::capture(sys, "test-multi");
}

/** A deliberately tiny capture to keep the fuzz loop fast. */
SessionCapture
tiny_capture(RenderMode mode = RenderMode::kDvsync)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc("tiny");
    sc.animate(60_ms, cost);
    RenderSystem sys(SystemConfig().with_mode(mode), sc);
    sys.run();
    return SessionRecorder::capture(
        sys, std::string("tiny-") + to_string(mode));
}

/** The composed-display twin of tiny_capture(), with a fault plan. */
SessionCapture
tiny_composed_capture()
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario app("app");
    app.animate(60_ms, cost);
    Scenario bar("bar");
    bar.animate(40_ms, cost);
    std::vector<SurfaceDesc> surfaces;
    surfaces.push_back(
        SurfaceDesc().with_name("app").with_scenario(std::move(app)));
    surfaces.push_back(SurfaceDesc()
                           .with_name("bar")
                           .with_scenario(std::move(bar))
                           .with_start_at(10_ms));
    SystemConfig cfg = SystemConfig().with_budget_mb(24.0).with_faults(
        std::make_shared<const FaultPlan>(
            FaultPlan::generate(3, 60_ms, FaultMix::everything())));
    RenderSystem sys(cfg, std::move(surfaces));
    sys.run();
    return SessionRecorder::capture(sys, "tiny-composed");
}

/** tiny_capture() on a governed D-VSync device: plant and ladder on. */
SessionCapture
tiny_governed_capture()
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc("tiny");
    sc.animate(60_ms, cost);
    RenderSystem sys(SystemConfig()
                         .with_mode(RenderMode::kDvsync)
                         .with_thermal_envelope(0.5)
                         .with_governor(true),
                     sc);
    sys.run();
    return SessionRecorder::capture(sys, "tiny-governed");
}

} // namespace

// ----- byte-level io ------------------------------------------------------

TEST(DvstIo, VarintsRoundTripEdgeValues)
{
    ByteWriter w;
    const std::uint64_t u_vals[] = {0, 1, 127, 128, 300, 1ull << 32,
                                    ~0ull};
    const std::int64_t s_vals[] = {0, 1, -1, 63, -64, 1ll << 40,
                                   INT64_MIN, INT64_MAX};
    const double d_vals[] = {0.0, -0.0, 1.5, 120.0, -3.25e300};
    for (std::uint64_t v : u_vals)
        w.varint(v);
    for (std::int64_t v : s_vals)
        w.svarint(v);
    for (double v : d_vals)
        w.f64(v);
    w.str("hello .dvst");

    ByteReader r(w.bytes());
    for (std::uint64_t v : u_vals)
        EXPECT_EQ(r.varint(), v);
    for (std::int64_t v : s_vals)
        EXPECT_EQ(r.svarint(), v);
    for (double v : d_vals) {
        const double got = r.f64();
        EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
    }
    EXPECT_EQ(r.str(), "hello .dvst");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
}

TEST(DvstIo, ReaderLatchesFailurePastEnd)
{
    ByteWriter w;
    w.varint(7);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), 7u);
    EXPECT_EQ(r.varint(), 0u); // past end
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.error().empty());
}

TEST(DvstIo, CountIsBoundedByRemainingPayload)
{
    ByteWriter w;
    w.varint(1u << 30); // claims a billion elements...
    ByteReader r(w.bytes());
    r.count(8); // ...of >= 8 bytes each, in a 5-byte payload
    EXPECT_FALSE(r.ok());
}

namespace {

/** Bit-at-a-time CRC-32: the definition the sliced tables must match. */
std::uint32_t
bitwise_crc32(const unsigned char *p, std::size_t n)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
}

std::uint32_t
le32_at(std::string_view bytes, std::size_t pos)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(std::uint8_t(bytes[pos + i])) << (8 * i);
    return v;
}

std::string
read_file(const std::filesystem::path &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream buf;
    buf << f.rdbuf();
    return buf.str();
}

} // namespace

TEST(DvstIo, Crc32KnownAnswers)
{
    EXPECT_EQ(dvst_crc32("", 0), 0u);
    EXPECT_EQ(dvst_crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(dvst_crc32("The quick brown fox jumps over the lazy dog", 43),
              0x414FA339u);
}

TEST(DvstIo, Crc32SlicingMatchesBitwiseAtEveryAlignment)
{
    std::mt19937 rng(7);
    unsigned char buf[8 + 67];
    for (unsigned char &b : buf)
        b = static_cast<unsigned char>(rng());
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 67; ++len)
            EXPECT_EQ(dvst_crc32(buf + offset, len),
                      bitwise_crc32(buf + offset, len))
                << "offset " << offset << " length " << len;
}

TEST(DvstIo, SectionThatGrowsTheBufferGetsItsLengthAndCrc)
{
    ByteWriter w; // the open section regrows the buffer many times
    w.u8(0xAB);
    w.begin_section("TEST");
    for (std::uint64_t i = 0; i < 3000; ++i)
        w.varint(i * 977);
    w.str(std::string(1500, 'x'));
    w.end_section();
    w.begin_section("NEXT");
    w.end_section();

    const std::string_view bytes = w.bytes();
    ASSERT_GE(bytes.size(), 1u + 12 + 12);
    EXPECT_EQ(bytes.substr(1, 4), "TEST");
    const std::uint32_t len = le32_at(bytes, 5);
    ASSERT_EQ(bytes.size(), 1u + 12 + len + 12);
    const auto *payload =
        reinterpret_cast<const unsigned char *>(bytes.data() + 9);
    EXPECT_EQ(le32_at(bytes, 9 + len), bitwise_crc32(payload, len));
    ByteReader r(bytes.substr(9, len));
    for (std::uint64_t i = 0; i < 3000; ++i)
        ASSERT_EQ(r.varint(), i * 977);
    EXPECT_EQ(r.str(), std::string(1500, 'x'));
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());

    // An empty section: zero length, CRC of nothing.
    const std::size_t next = 1 + 12 + len;
    EXPECT_EQ(bytes.substr(next, 4), "NEXT");
    EXPECT_EQ(le32_at(bytes, next + 4), 0u);
    EXPECT_EQ(le32_at(bytes, next + 8), 0u);
}

TEST(DvstIo, BytesEqualsTakeAndTakeLeavesTheWriterEmpty)
{
    ByteWriter w;
    w.u64(0x0102030405060708ull);
    w.str("payload");
    w.svarint(-300);
    const std::string viewed(w.bytes());
    const std::string taken = w.take();
    EXPECT_EQ(taken, viewed);
    EXPECT_EQ(taken.size(), 8u + 1 + 7 + 2);
    EXPECT_TRUE(w.bytes().empty());
    w.u8(9);
    EXPECT_EQ(w.take(), std::string(1, '\x09'));
}

TEST(DvstIo, MaxVarintTakesTenBytesAndRoundTrips)
{
    ByteWriter w;
    w.varint(UINT64_MAX);
    ASSERT_EQ(w.bytes().size(), 10u);
    EXPECT_EQ(std::uint8_t(w.bytes()[9]), 0x01);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), UINT64_MAX);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
}

TEST(DvstIo, VarintOneByteBoundary)
{
    // 0x7F is the largest one-byte varint; 0x80 starts a two-byte one.
    const std::string bytes("\x7F\x80\x01\x00", 4);
    ByteReader r(bytes);
    EXPECT_EQ(r.varint(), 0x7Fu);
    EXPECT_EQ(r.varint(), 0x80u);
    EXPECT_EQ(r.varint(), 0u);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());

    ByteWriter w;
    w.varint(0x7F);
    w.varint(0x80);
    EXPECT_EQ(std::string(w.bytes()), bytes.substr(0, 3));
}

TEST(DvstIo, VarintCutShortAtTheEndLatches)
{
    for (const std::string &bytes :
         {std::string("\x80", 1), std::string("\xFF\xFF", 2),
          std::string("\x05\x80", 2)}) {
        ByteReader r(bytes);
        while (r.ok() && !r.at_end())
            r.varint();
        EXPECT_FALSE(r.ok()) << bytes.size() << " bytes";
        EXPECT_EQ(r.error(), "truncated payload");
        EXPECT_EQ(r.varint(), 0u);
        EXPECT_EQ(r.u64(), 0u);
        EXPECT_EQ(r.error(), "truncated payload"); // first failure kept
    }
}

TEST(DvstIo, OverlongVarintAndShortFixedReadsLatch)
{
    const std::string overlong = std::string(10, '\x80') + '\0';
    ByteReader r(overlong);
    EXPECT_EQ(r.varint(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error(), "varint longer than 64 bits");

    const std::string three("\x01\x02\x03", 3);
    ByteReader fixed(three);
    EXPECT_EQ(fixed.u32(), 0u);
    EXPECT_FALSE(fixed.ok());
    EXPECT_EQ(fixed.u8(), 0u);
}

// ----- capture round trips ------------------------------------------------

TEST(Capture, CorpusReencodesByteIdentically)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(DVS_TRACES_DIR))
        if (entry.path().extension() == ".dvst")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty()) << "no .dvst files in " << DVS_TRACES_DIR;
    for (const std::filesystem::path &path : files) {
        SCOPED_TRACE(path.filename().string());
        const std::string bytes = read_file(path);
        SessionCapture cap;
        std::string error;
        ASSERT_TRUE(SessionCapture::decode(bytes, cap, error)) << error;
        EXPECT_EQ(cap.encode(), bytes);
    }
}

TEST(Capture, ConcurrentEncodeDecodeFromFourThreads)
{
    // Each thread's first CRC may be the process's first: nothing here
    // may lazily build shared state.
    struct Result {
        std::string bytes;
        std::string reencoded;
        std::string error;
        bool decoded = false;
    };
    std::vector<Result> results(4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([t, &results] {
            Result &res = results[t];
            for (int round = 0; round < 3; ++round) {
                const SessionCapture cap = record_single(
                    t % 2 ? RenderMode::kVsync : RenderMode::kDvsync,
                    std::uint64_t(t + 1));
                res.bytes = cap.encode();
                SessionCapture back;
                res.decoded =
                    SessionCapture::decode(res.bytes, back, res.error);
                if (!res.decoded)
                    return;
                res.reencoded = back.encode();
            }
        });
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < 4; ++t) {
        SCOPED_TRACE(t);
        const Result &res = results[t];
        ASSERT_TRUE(res.decoded) << res.error;
        EXPECT_EQ(res.reencoded, res.bytes);
        const SessionCapture serial = record_single(
            t % 2 ? RenderMode::kVsync : RenderMode::kDvsync,
            std::uint64_t(t + 1));
        EXPECT_EQ(serial.encode(), res.bytes);
    }
}


TEST(Capture, SingleSessionRoundTripsThroughBytes)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    ASSERT_TRUE(cap.verbatim);
    ASSERT_NE(cap.source_dispatch_hash, 0u);
    ASSERT_EQ(cap.kind, SessionCapture::Kind::kSingle);
    ASSERT_EQ(cap.surfaces.size(), 1u);
    const SurfaceCapture &surface = cap.surfaces[0];
    ASSERT_EQ(surface.scenario.segments.size(), 4u);
    EXPECT_TRUE(surface.scenario.segments[1].costs.frames.empty()); // idle
    EXPECT_FALSE(surface.scenario.segments[2].touch.empty());

    const std::string bytes = cap.encode();
    SessionCapture back;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(bytes, back, error)) << error;

    EXPECT_EQ(back.label, cap.label);
    EXPECT_EQ(back.verbatim, cap.verbatim);
    EXPECT_EQ(back.source_dispatch_hash, cap.source_dispatch_hash);
    EXPECT_EQ(back.source_report_fnv, cap.source_report_fnv);
    EXPECT_EQ(back.config.mode, cap.config.mode);
    EXPECT_EQ(back.config.seed, cap.config.seed);
    ASSERT_TRUE(back.config.faults);
    EXPECT_EQ(*back.config.faults, *cap.config.faults);
    ASSERT_EQ(back.surfaces.size(), 1u);
    const SurfaceCapture &decoded = back.surfaces[0];
    // CONF stores the surface list of both device kinds.
    EXPECT_EQ(decoded.name, surface.name);
    EXPECT_EQ(decoded.dvsync_aware, surface.dvsync_aware);
    EXPECT_EQ(decoded.buffer_mb, surface.buffer_mb);
    EXPECT_EQ(decoded.max_extra_buffers, surface.max_extra_buffers);
    EXPECT_EQ(decoded.weight, surface.weight);
    EXPECT_EQ(decoded.start_at, surface.start_at);
    ASSERT_EQ(decoded.scenario.segments.size(),
              surface.scenario.segments.size());
    for (std::size_t i = 0; i < surface.scenario.segments.size(); ++i) {
        const SegmentCapture &a = surface.scenario.segments[i];
        const SegmentCapture &b = decoded.scenario.segments[i];
        EXPECT_EQ(b.kind, a.kind);
        EXPECT_EQ(b.duration, a.duration);
        ASSERT_EQ(b.costs.frames.size(), a.costs.frames.size());
        for (std::size_t f = 0; f < a.costs.frames.size(); ++f)
            EXPECT_EQ(b.costs.frames[f].total(), a.costs.frames[f].total());
        ASSERT_EQ(b.touch.size(), a.touch.size());
    }

    // Re-encoding the decoded capture reproduces the bytes exactly.
    EXPECT_EQ(back.encode(), bytes);
}

TEST(Capture, MultiSessionRoundTripsThroughBytes)
{
    const SessionCapture cap = record_multi();
    ASSERT_EQ(cap.kind, SessionCapture::Kind::kMulti);
    ASSERT_EQ(cap.surfaces.size(), 2u);

    const std::string bytes = cap.encode();
    SessionCapture back;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(bytes, back, error)) << error;
    ASSERT_EQ(back.surfaces.size(), 2u);
    EXPECT_EQ(back.surfaces[0].name, "app");
    EXPECT_EQ(back.surfaces[1].start_at, 50_ms);
    EXPECT_EQ(back.surfaces[0].weight, 3.0);
    EXPECT_EQ(back.config.display.budget_mb, 24.0);
    EXPECT_EQ(back.config.seed, 7u);
    EXPECT_EQ(back.encode(), bytes);
}

TEST(Capture, ComposedDisplaySettingsSurviveVerifiedCapture)
{
    // CONF carries every SystemConfig field for both device kinds, so a
    // composed display's non-default settings replay bit-exactly.
    const struct {
        const char *field;
        void (*set)(SystemConfig &);
    } cases[] = {
        {"dtv_calibration_interval",
         [](SystemConfig &c) { c.dtv_calibration_interval = 4; }},
    };
    const std::string path =
        testing::TempDir() + "/dvst_composed_setting.dvst";
    for (const auto &tc : cases) {
        SCOPED_TRACE(tc.field);
        SystemConfig cfg = SystemConfig().with_budget_mb(24.0);
        tc.set(cfg);
        RenderSystem sys(cfg, two_surfaces());
        sys.run();
        SessionCapture loaded;
        std::string error;
        EXPECT_TRUE(SessionRecorder::capture_verified(sys, "x", path,
                                                      &error, &loaded))
            << error;
        EXPECT_EQ(loaded.config.dtv_calibration_interval,
                  cfg.dtv_calibration_interval);
        std::remove(path.c_str());
    }
}

TEST(Capture, EncodeIsDeterministic)
{
    const SessionCapture a = record_single(RenderMode::kVsync, 3);
    const SessionCapture b = record_single(RenderMode::kVsync, 3);
    EXPECT_EQ(a.encode(), b.encode());
}

TEST(Capture, GovernorThermalSessionRoundTripsAndReplays)
{
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{1_ms, 4_ms, 3_ms}, FrameCost{2_ms, 8_ms, 14_ms}, 5);
    Scenario sc("soak");
    sc.animate(1_s, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    cfg.with_thermal_envelope(0.4);
    cfg.with_governor(true);

    RenderSystem sys(cfg, sc);
    const RunReport recorded = sys.run();
    const SessionCapture cap = SessionRecorder::capture(sys, "governed");

    SessionCapture back;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(cap.encode(), back, error)) << error;
    EXPECT_TRUE(back.config.thermal.enabled);
    EXPECT_EQ(back.config.thermal.envelope_scale, 0.4);
    EXPECT_TRUE(back.config.governor);

    const ReplayResult replay = replay_session(back);
    EXPECT_EQ(replay.verify_against(back), "");
    EXPECT_EQ(replay.report, recorded);
}

namespace {

/**
 * Require every cost-table entry of @p sys's capture to equal what the
 * segment's live cost model returns for that slot: capture fills the
 * tables from the run's frame records, and must land where a fresh
 * sample would. @return the slots the run passed over without starting
 * a frame, summed over every producing segment.
 */
std::int64_t
expect_tables_match_fresh_sampling(RenderSystem &sys)
{
    const SessionCapture cap = SessionRecorder::capture(sys, "tables");
    std::int64_t skipped = 0;
    EXPECT_EQ(cap.surfaces.size(), sys.size());
    for (int p = 0; p < int(sys.size()) && p < int(cap.surfaces.size());
         ++p) {
        const Producer &producer = sys.producer(p);
        const Scenario &scenario = producer.scenario();
        const ScenarioCapture &sc = cap.surfaces[std::size_t(p)].scenario;
        EXPECT_EQ(sc.segments.size(), scenario.size());
        for (std::size_t i = 0;
             i < scenario.size() && i < sc.segments.size(); ++i) {
            const Segment &seg = scenario.segments()[i];
            const std::vector<FrameCost> &table = sc.segments[i].costs.frames;
            if (!seg.produces_frames()) {
                EXPECT_TRUE(table.empty());
                continue;
            }
            EXPECT_FALSE(table.empty());
            for (std::size_t s = 0; s < table.size(); ++s) {
                const FrameCost fresh = seg.cost->cost_for(
                    std::int64_t(s) + std::int64_t(i) * kCostIndexStride);
                if (!(table[s] == fresh)) {
                    ADD_FAILURE() << "surface " << p << " segment " << i
                                  << " slot " << s << ": table ui/render/gpu "
                                  << table[s].ui_time << "/"
                                  << table[s].render_time << "/"
                                  << table[s].gpu_time << ", model "
                                  << fresh.ui_time << "/"
                                  << fresh.render_time << "/"
                                  << fresh.gpu_time;
                    return skipped;
                }
            }
            const SegmentState &st = producer.segment_state(int(i));
            skipped += st.next_slot - st.started;
        }
    }
    return skipped;
}

std::shared_ptr<const FrameCostModel>
app_costs(double hz, std::uint64_t seed)
{
    return make_cost_model(pixel5_app_profiles().front(), hz, seed);
}

} // namespace

TEST(Capture, CostTableEqualsFreshSampling)
{
    GestureTiming timing;
    timing.duration = 400_ms;
    const auto swipe = std::make_shared<const TouchStream>(
        make_swipe(timing, 1800.0, 900.0));

    {
        SCOPED_TRACE("single-app VSync");
        Scenario sc("vsync");
        sc.animate(300_ms, app_costs(60.0, 1))
            .idle(40_ms)
            .realtime(200_ms, app_costs(60.0, 2));
        RenderSystem sys(SystemConfig().with_mode(RenderMode::kVsync), sc);
        sys.run();
        expect_tables_match_fresh_sampling(sys);
    }
    {
        // The predictor's UI overhead is added to every interaction
        // frame's ui_time; capture must take it back out.
        SCOPED_TRACE("D-VSync with an IPL interaction");
        Scenario sc("ipl");
        sc.animate(200_ms, app_costs(60.0, 3))
            .interact(swipe, app_costs(60.0, 4), "scroll");
        RenderSystem sys(SystemConfig().with_mode(RenderMode::kDvsync), sc);
        sys.runtime()->register_predictor(
            "scroll", std::make_shared<LinearPredictor>());
        sys.run();
        const auto &records = sys.producer().records();
        EXPECT_TRUE(std::any_of(records.begin(), records.end(),
                                [](const FrameRecord &r) {
                                    return r.extra_ui_time > 0;
                                }));
        expect_tables_match_fresh_sampling(sys);
    }
    {
        // Heavy key frames under a fault plan: drop elasticity skips
        // timeline slots, which the run never sampled.
        SCOPED_TRACE("D-VSync under a fault plan");
        Scenario sc("faulted");
        sc.animate(600_ms, app_costs(120.0, 5)).realtime(200_ms,
                                                          app_costs(120.0, 6));
        SystemConfig cfg;
        cfg.mode = RenderMode::kDvsync;
        cfg.seed = 2;
        cfg.faults = std::make_shared<const FaultPlan>(FaultPlan::generate(
            2, sc.total_duration(), FaultMix::everything()));
        RenderSystem sys(cfg, sc);
        sys.run();
        EXPECT_GT(expect_tables_match_fresh_sampling(sys), 0);
    }
    {
        // The same at 120 Hz: a 72-slot segment whose frames start past
        // slot 32 after skips, so its costs span more than one of the
        // producer's batches.
        SCOPED_TRACE("D-VSync at 120 Hz, skips across batches");
        Scenario sc("faulted-120");
        sc.animate(600_ms, app_costs(120.0, 5)).realtime(200_ms,
                                                          app_costs(120.0, 6));
        SystemConfig cfg = SystemConfig().with_device(mate60_pro());
        cfg.mode = RenderMode::kDvsync;
        cfg.seed = 2;
        cfg.faults = std::make_shared<const FaultPlan>(FaultPlan::generate(
            6, sc.total_duration(), FaultMix::everything()));
        RenderSystem sys(cfg, sc);
        sys.run();
        const auto &records = sys.producer().records();
        EXPECT_TRUE(std::any_of(
            records.begin(), records.end(),
            [](const FrameRecord &r) { return r.slot >= 40; }));
        EXPECT_GT(expect_tables_match_fresh_sampling(sys), 0);
    }
    {
        // The corpus's composed session, rebuilt live: four surfaces
        // sharing one GPU, each with its own producer and records.
        SCOPED_TRACE("composed 4-surface display");
        SessionCapture cap;
        std::string error;
        ASSERT_TRUE(SessionCapture::load(
            std::string(DVS_TRACES_DIR) + "/fleet-4surface.dvst", cap, error))
            << error;
        ASSERT_EQ(cap.kind, SessionCapture::Kind::kMulti);
        ASSERT_EQ(cap.surfaces.size(), 4u);
        RenderSystem sys(cap.config, build_surfaces(cap));
        sys.run();
        expect_tables_match_fresh_sampling(sys);
    }
}

// ----- the bit-exact replay contract --------------------------------------

TEST(Replay, SingleSessionBitExactBothModes)
{
    for (RenderMode mode : {RenderMode::kVsync, RenderMode::kDvsync}) {
        SCOPED_TRACE(to_string(mode));
        RunReport recorded;
        const SessionCapture cap = record_single(mode, 11, &recorded);

        // Round trip through bytes first: replay what a file would hold.
        SessionCapture loaded;
        std::string error;
        ASSERT_TRUE(SessionCapture::decode(cap.encode(), loaded, error))
            << error;

        const ReplayResult replay = replay_session(loaded);
        EXPECT_TRUE(replay.verbatim);
        EXPECT_EQ(replay.verify_against(loaded), "");
        EXPECT_EQ(replay.dispatch_hash, cap.source_dispatch_hash);
        EXPECT_EQ(replay.report, recorded); // field-by-field
    }
}

TEST(Replay, MultiSurfaceSessionBitExact)
{
    RunReport recorded;
    const SessionCapture cap = record_multi(&recorded);
    SessionCapture loaded;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(cap.encode(), loaded, error))
        << error;
    const ReplayResult replay = replay_session(loaded);
    EXPECT_EQ(replay.verify_against(loaded), "");
    EXPECT_EQ(replay.report, recorded);
}

TEST(Replay, ModeOverrideIsDeterministicButNotVerbatim)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 5);
    ReplayOptions opts;
    opts.mode = RenderMode::kVsync;
    const ReplayResult a = replay_session(cap, opts);
    const ReplayResult b = replay_session(cap, opts);
    EXPECT_FALSE(a.verbatim);
    EXPECT_EQ(a.report, b.report); // what-if runs are still deterministic
    EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
    EXPECT_FALSE(a.verify_against(cap).empty());
}

TEST(Replay, MultiModeOverrideFlipsEverySurface)
{
    const SessionCapture cap = record_multi();
    ReplayOptions opts;
    opts.mode = RenderMode::kVsync;
    const ReplayResult forced = replay_session(cap, opts);
    for (const SurfaceReport &s : forced.report.surfaces)
        EXPECT_EQ(s.mode, "VSync") << s.name;
    const ReplayResult again = replay_session(cap, opts);
    EXPECT_EQ(forced.report, again.report);
}

// ----- transforms ---------------------------------------------------------

TEST(Transforms, TimeWarpScalesScriptAndClearsContract)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    const SessionCapture warped = time_warp(cap, 0.5);

    EXPECT_FALSE(warped.verbatim);
    EXPECT_EQ(warped.source_dispatch_hash, 0u);
    ASSERT_EQ(warped.lineage.size(), 1u);
    EXPECT_NE(warped.lineage[0].find("time-warp"), std::string::npos);
    const ScenarioCapture &sc = cap.surfaces[0].scenario;
    for (std::size_t i = 0; i < sc.segments.size(); ++i) {
        const SegmentCapture &a = sc.segments[i];
        const SegmentCapture &b = warped.surfaces[0].scenario.segments[i];
        EXPECT_EQ(b.duration, a.duration / 2);
        // Costs untouched: compression raises effective load.
        ASSERT_EQ(b.costs.frames.size(), a.costs.frames.size());
    }
    ASSERT_TRUE(warped.config.faults);
    for (std::size_t i = 0; i < cap.config.faults->windows().size(); ++i)
        EXPECT_EQ(warped.config.faults->windows()[i].start,
                  Time(std::llround(
                      double(cap.config.faults->windows()[i].start) * 0.5)));
}

TEST(Transforms, TruncateKeepsPrefixAndDropsLaterFaults)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    // Cut inside the first segment (400 ms animation).
    const SessionCapture cut = truncate_capture(cap, 150_ms);
    ASSERT_EQ(cut.surfaces[0].scenario.segments.size(), 1u);
    EXPECT_EQ(cut.surfaces[0].scenario.segments[0].duration, 150_ms);
    ASSERT_TRUE(cut.config.faults);
    for (const FaultWindow &w : cut.config.faults->windows()) {
        EXPECT_LT(w.start, 150_ms);
        EXPECT_LE(w.end, 150_ms);
    }
}

TEST(Transforms, LoopRepeatsSegments)
{
    const SessionCapture cap = record_single(RenderMode::kVsync, 2);
    const SessionCapture looped = loop_capture(cap, 3);
    EXPECT_EQ(looped.surfaces[0].scenario.segments.size(),
              cap.surfaces[0].scenario.segments.size() * 3);
}

TEST(Transforms, AmplifyOnlyTouchesFramesOverThreshold)
{
    SessionCapture cap = tiny_capture(); // constant 1+3 ms frames
    const auto first_cost = [](const SessionCapture &c) {
        return c.surfaces[0].scenario.segments[0].costs.frames[0].total();
    };
    const Time total = first_cost(cap);
    EXPECT_EQ(first_cost(amplify_heavy_frames(cap, total, 2.0)), total);
    EXPECT_EQ(first_cost(amplify_heavy_frames(cap, total - 1, 2.0)),
              2 * total);
}

TEST(Transforms, SpliceDensifiesInteractionWithinRecordedSpan)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    const SegmentCapture &orig = cap.surfaces[0].scenario.segments[2];
    ASSERT_EQ(orig.kind, SegmentKind::kInteraction);
    const SessionCapture spliced =
        splice_input_burst(cap, 20_ms, 100_ms, 1_ms);
    const SegmentCapture &seg = spliced.surfaces[0].scenario.segments[2];
    EXPECT_GT(seg.touch.size(), orig.touch.size());
    // The recorded span (and so the derived segment duration) holds.
    EXPECT_EQ(seg.touch.front().timestamp, orig.touch.front().timestamp);
    EXPECT_EQ(seg.touch.back().timestamp, orig.touch.back().timestamp);
    Time prev = seg.touch.front().timestamp;
    for (const TouchEvent &ev : seg.touch) {
        EXPECT_GE(ev.timestamp, prev);
        prev = ev.timestamp;
    }
}

TEST(Transforms, TransformedCaptureReplaysDeterministically)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    const SessionCapture mutated =
        amplify_heavy_frames(time_warp(cap, 0.75), 4_ms, 1.5);
    ASSERT_EQ(mutated.lineage.size(), 2u);

    // Transforms survive the file format...
    SessionCapture loaded;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(mutated.encode(), loaded, error))
        << error;
    EXPECT_EQ(loaded.lineage, mutated.lineage);

    // ...and replay as a deterministic new scenario, not a recording.
    const ReplayResult a = replay_session(loaded);
    const ReplayResult b = replay_session(loaded);
    EXPECT_EQ(a.report, b.report);
    EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
    EXPECT_FALSE(a.verify_against(loaded).empty());
}

// ----- strict loader ------------------------------------------------------

TEST(Loader, RejectsBadMagicAndLeavesOutputUntouched)
{
    std::string bytes = tiny_capture().encode();
    bytes[0] = 'X';
    SessionCapture out;
    out.label = "sentinel";
    std::string error;
    EXPECT_FALSE(SessionCapture::decode(bytes, out, error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(out.label, "sentinel");
}

TEST(Loader, RejectsVersionSkewNamingBothVersions)
{
    static_assert(SessionCapture::kSchemaVersion == 5);
    // Version 4 is the retired format (its CONF stored the vsync
    // offsets, the watchdog flag and the governor's thresholds and
    // knobs, its FALT the fault target); 6 is from the future.
    for (char version : {char(4), char(6)}) {
        std::string bytes = tiny_capture().encode();
        bytes[4] = version; // u16 LE version low byte
        SessionCapture out;
        std::string error;
        EXPECT_FALSE(SessionCapture::decode(bytes, out, error));
        EXPECT_NE(error.find("version"), std::string::npos) << error;
        EXPECT_NE(error.find(std::to_string(int(version))),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find("reads version 5"), std::string::npos) << error;
    }
}

TEST(Loader, RejectsEveryTruncation)
{
    const std::string bytes = tiny_capture().encode();
    SessionCapture out;
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        std::string error;
        EXPECT_FALSE(SessionCapture::decode(bytes.substr(0, n), out, error))
            << "prefix of " << n << " bytes parsed";
        EXPECT_FALSE(error.empty());
    }
}

TEST(Loader, RejectsCapturesReplayCannotBuild)
{
    const struct {
        const char *shape;
        const char *error;
        void (*mutate)(SessionCapture &);
    } cases[] = {
        {"producing segment without a cost table", "no cost table",
         [](SessionCapture &c) {
             c.surfaces[0].scenario.segments[3].costs.frames.clear();
         }},
        {"interaction segment without touch events", "no touch events",
         [](SessionCapture &c) {
             c.surfaces[0].scenario.segments[2].touch.clear();
         }},
        {"touch timestamps going backwards", "go backwards",
         [](SessionCapture &c) {
             std::vector<TouchEvent> &touch =
                 c.surfaces[0].scenario.segments[2].touch;
             std::swap(touch[1], touch[2]);
         }},
        {"single-app capture with two surfaces", "exactly one surface",
         [](SessionCapture &c) { c.surfaces.push_back(c.surfaces[0]); }},
        {"composed capture of a D-VSync config", "leave config.mode",
         [](SessionCapture &c) {
             c.kind = SessionCapture::Kind::kMulti;
             c.config.mode = RenderMode::kDvsync;
         }},
        {"queue deeper than its buffer storage", "holds at most",
         [](SessionCapture &c) {
             c.config.buffers = BufferQueue::kMaxSlots + 1;
         }},
        {"composed surface granted past the buffer storage", "holds at most",
         [](SessionCapture &c) {
             c.kind = SessionCapture::Kind::kMulti;
             c.config.mode = RenderMode::kVsync;
             c.surfaces[0].max_extra_buffers = BufferQueue::kMaxSlots;
         }},
    };
    const SessionCapture recorded = record_single(RenderMode::kDvsync, 11);
    for (const auto &tc : cases) {
        SCOPED_TRACE(tc.shape);
        SessionCapture cap = recorded;
        tc.mutate(cap);
        SessionCapture out;
        std::string error;
        EXPECT_FALSE(SessionCapture::decode(cap.encode(), out, error));
        EXPECT_NE(error.find(tc.error), std::string::npos) << error;
    }
}

TEST(Loader, RejectsTrailingGarbage)
{
    std::string bytes = tiny_capture().encode();
    bytes += '\0';
    SessionCapture out;
    std::string error;
    EXPECT_FALSE(SessionCapture::decode(bytes, out, error));
    EXPECT_FALSE(error.empty());
}

TEST(Loader, EverySingleByteMutationFailsCleanly)
{
    // Both device kinds; the composed capture also covers CONF's
    // surface list and a FALT section, the governed one CONF's thermal
    // and governor flags. The default-settings VSync capture is also a
    // valid one-surface composed configuration, so only the CRC over
    // CONF's kind byte keeps a flipped kind from loading as the other
    // device.
    for (const SessionCapture &cap :
         {tiny_capture(), tiny_capture(RenderMode::kVsync),
          tiny_governed_capture(), tiny_composed_capture()}) {
        SCOPED_TRACE(cap.label);
        ASSERT_EQ(cap.config.faults != nullptr,
                  cap.kind == SessionCapture::Kind::kMulti);
        SessionCapture out;
        for_each_byte_mutant(cap.encode(), [&](const std::string &bytes,
                                               std::size_t i, int mutant) {
            std::string error;
            EXPECT_FALSE(SessionCapture::decode(bytes, out, error))
                << "byte " << i << " mutant " << mutant << " parsed as valid";
            EXPECT_FALSE(error.empty()) << "byte " << i;
        });
    }
}

// The text loaders get the same two mutants per byte. A text mutant may
// still be valid input (a digit changed, say), so each one must either
// parse or fail with a message; none may crash or hang.

TEST(Loader, FrameTraceCsvMutantsParseOrWarn)
{
    FrameTrace trace;
    trace.name = "fuzz";
    trace.rate_hz = 90.0;
    trace.frames = {{1_ms, 2_ms, 3_ms}, {500_us, 7'500'000, 0}};
    for_each_byte_mutant(trace.to_csv(), [](const std::string &csv,
                                            std::size_t i, int mutant) {
        testing::internal::CaptureStderr();
        const FrameTrace back = FrameTrace::from_csv(csv);
        const std::string warning = testing::internal::GetCapturedStderr();
        SCOPED_TRACE(testing::Message() << "byte " << i << " mutant "
                                        << mutant << ": " << warning);
        EXPECT_TRUE(warning.empty() ||
                    warning.find("trace line ") != std::string::npos);
        EXPECT_TRUE(std::isfinite(back.rate_hz) && back.rate_hz > 0);
        for (const FrameCost &f : back.frames) {
            EXPECT_GE(f.ui_time, 0);
            EXPECT_GE(f.render_time, 0);
            EXPECT_GE(f.gpu_time, 0);
        }
    });
}

TEST(Loader, ScenarioScriptMutantsParseOrFail)
{
    // Every directive, knob and suffix kind the format has.
    const std::string pristine = R"(# fuzz
device mate60pro
seed 42
repeat 2
  animate 350ms heavy_rate=3 heavy_min=1.2 heavy_max=3 alpha=2 label=fling
  idle 150us
end
interact swipe 1s from=1800 travel=1200 noise=0.5 label=scroll
realtime 500ms mean=0.5 sigma=0.1 burst=0.2 ui=0.3 seed=7
)";
    ASSERT_TRUE(parse_scenario_script(pristine).ok);
    FatalThrowsScope recoverable(true);
    for_each_byte_mutant(pristine, [](const std::string &text, std::size_t i,
                                      int mutant) {
        SCOPED_TRACE(testing::Message() << "byte " << i << " mutant "
                                        << mutant);
        try {
            const ScenarioScript s = parse_scenario_script(text);
            if (!s.ok) {
                EXPECT_FALSE(s.error.empty());
                EXPECT_GT(s.error_line, 0);
            }
        } catch (const ConfigError &e) {
            EXPECT_STRNE(e.what(), "");
        }
    });
}

TEST(Loader, ForensicsDumpMutantsParseOrFail)
{
    // A short session's dump: a few frames, drops and their causes.
    Scenario sc("fuzz");
    sc.animate(60_ms,
               std::make_shared<ConstantCostModel>(FrameCost{1_ms, 25_ms}));
    RenderSystem sys(SystemConfig().with_forensics(true), sc);
    sys.run();
    const std::string path = testing::TempDir() + "/dvs_fuzz_forensics.json";
    ASSERT_TRUE(sys.save_forensics(path));
    std::ifstream in(path);
    const std::string pristine((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    ASSERT_TRUE(JsonValue::parse(pristine).is_object());

    for_each_byte_mutant(pristine, [](const std::string &text, std::size_t i,
                                      int mutant) {
        std::string error;
        const JsonValue dump = JsonValue::parse(text, &error);
        if (error.empty())
            EXPECT_TRUE(dump.is_object()) << "byte " << i << " mutant "
                                          << mutant;
        else
            EXPECT_TRUE(dump.is_null()) << "byte " << i << ": " << error;
    });
}

TEST(Loader, SaveLoadRoundTripsThroughDisk)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    const std::string path =
        testing::TempDir() + "/dvst_roundtrip_test.dvst";
    ASSERT_TRUE(cap.save(path));
    SessionCapture back;
    std::string error;
    ASSERT_TRUE(SessionCapture::load(path, back, error)) << error;
    EXPECT_EQ(back.encode(), cap.encode());
    std::remove(path.c_str());
}

TEST(Loader, MissingFileReportsPath)
{
    SessionCapture out;
    std::string error;
    EXPECT_FALSE(
        SessionCapture::load("/nonexistent/nope.dvst", out, error));
    EXPECT_NE(error.find("/nonexistent/nope.dvst"), std::string::npos)
        << error;
}
