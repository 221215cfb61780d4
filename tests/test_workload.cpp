/**
 * @file
 * Unit and property tests for workload models: distributions, traces,
 * scenarios, and the paper's profile tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "sim/random.h"
#include "workload/app_profiles.h"
#include "workload/distributions.h"
#include "workload/frame_cost.h"
#include "workload/game_traces.h"
#include "workload/os_case_profiles.h"
#include "workload/scenario.h"
#include "workload/trace.h"

using namespace dvs;
using namespace dvs::time_literals;

// ----- cost models -----------------------------------------------------------

TEST(CostModels, ConstantAlwaysSame)
{
    ConstantCostModel m(2_ms, 5_ms);
    EXPECT_EQ(m.cost_for(0).ui_time, 2_ms);
    EXPECT_EQ(m.cost_for(999).render_time, 5_ms);
    EXPECT_EQ(m.cost_for(7).total(), 7_ms);
}

TEST(CostModels, PeriodicSpikeHitsInterval)
{
    PeriodicSpikeCostModel m({1_ms, 1_ms}, {1_ms, 20_ms}, 10);
    EXPECT_EQ(m.cost_for(0).render_time, 20_ms);
    EXPECT_EQ(m.cost_for(5).render_time, 1_ms);
    EXPECT_EQ(m.cost_for(10).render_time, 20_ms);
    EXPECT_EQ(m.cost_for(19).render_time, 1_ms);
}

TEST(CostModels, PeriodicSpikePhaseShifts)
{
    PeriodicSpikeCostModel m({1_ms, 1_ms}, {1_ms, 20_ms}, 10, 3);
    EXPECT_EQ(m.cost_for(7).render_time, 20_ms); // 7+3 = 10
    EXPECT_EQ(m.cost_for(0).render_time, 1_ms);
}

TEST(PowerLaw, DeterministicPerIndex)
{
    PowerLawParams p;
    PowerLawCostModel a(p, 42), b(p, 42);
    for (std::int64_t i = 0; i < 200; ++i) {
        EXPECT_EQ(a.cost_for(i).total(), b.cost_for(i).total());
        EXPECT_EQ(a.is_heavy(i), b.is_heavy(i));
    }
}

TEST(PowerLaw, DifferentSeedsDiffer)
{
    PowerLawParams p;
    PowerLawCostModel a(p, 1), b(p, 2);
    int same = 0;
    for (std::int64_t i = 0; i < 100; ++i)
        same += a.cost_for(i).total() == b.cost_for(i).total();
    EXPECT_LT(same, 5);
}

TEST(PowerLaw, HeavyFractionNearProbability)
{
    PowerLawParams p;
    p.heavy_prob = 0.05;
    p.heavy_burst_prob = 0.0;
    PowerLawCostModel m(p, 7);
    int heavy = 0;
    const int n = 20000;
    for (std::int64_t i = 0; i < n; ++i)
        heavy += m.is_heavy(i);
    EXPECT_NEAR(double(heavy) / n, 0.05, 0.01);
}

TEST(PowerLaw, PowerLawShapeMatchesFigure1)
{
    // Fig. 1: the vast majority of frames are short; a small tail of key
    // frames exceeds one vsync period.
    PowerLawParams p;
    p.short_mean_ms = 7.0;
    p.heavy_prob = 0.05;
    p.heavy_min_ms = 18.0;
    p.heavy_max_ms = 50.0;
    PowerLawCostModel m(p, 11);
    int over_one_period = 0;
    const int n = 20000;
    for (std::int64_t i = 0; i < n; ++i)
        over_one_period += to_ms(m.cost_for(i).total()) > 16.7;
    const double frac = double(over_one_period) / n;
    EXPECT_GT(frac, 0.02);
    EXPECT_LT(frac, 0.10);
}

TEST(PowerLaw, UiFractionSplitsCost)
{
    PowerLawParams p;
    p.ui_fraction = 0.25;
    PowerLawCostModel m(p, 3);
    for (std::int64_t i = 0; i < 50; ++i) {
        const FrameCost c = m.cost_for(i);
        EXPECT_NEAR(double(c.ui_time) / double(c.total()), 0.25, 0.01);
    }
}

TEST(PowerLaw, BurstsFollowHeavyFrames)
{
    PowerLawParams p;
    p.heavy_prob = 0.05;
    p.heavy_burst_prob = 0.9;
    PowerLawCostModel m(p, 13);
    int heavy_after_heavy = 0, heavy_total = 0;
    for (std::int64_t i = 0; i < 50000; ++i) {
        if (m.is_heavy(i)) {
            ++heavy_total;
            heavy_after_heavy += m.is_heavy(i + 1);
        }
    }
    // P(heavy_{i+1} | heavy_i) should be much higher than base rate.
    EXPECT_GT(double(heavy_after_heavy) / heavy_total, 0.5);
}

namespace {

/**
 * Reference power-law sampler: the model as first written, with the
 * log, both pows and -1/alpha recomputed on every call and a fresh
 * stream built for each heavy decision.
 */
struct ReferencePowerLaw {
    PowerLawParams p;
    std::uint64_t seed;

    bool
    is_heavy(std::int64_t i) const
    {
        Rng rng(hash_index(seed ^ 0xabcdefULL, i));
        if (rng.chance(p.heavy_prob))
            return true;
        if (p.heavy_burst_prob > 0 && i > 0) {
            Rng prev(hash_index(seed ^ 0xabcdefULL, i - 1));
            if (prev.chance(p.heavy_prob))
                return rng.chance(p.heavy_burst_prob);
        }
        return false;
    }

    FrameCost
    cost_for(std::int64_t i) const
    {
        Rng rng(hash_index(seed, i));
        const double mu =
            std::log(p.short_mean_ms) - p.short_sigma * p.short_sigma / 2.0;
        double ms = rng.lognormal(mu, p.short_sigma);
        if (is_heavy(i)) {
            const double u = rng.uniform();
            const double la = std::pow(p.heavy_min_ms, p.heavy_alpha);
            const double ha = std::pow(p.heavy_max_ms, p.heavy_alpha);
            ms += std::pow(-(u * ha - u * la - ha) / (ha * la),
                           -1.0 / p.heavy_alpha);
        }
        FrameCost c;
        c.ui_time = from_ms(ms * p.ui_fraction);
        c.render_time = from_ms(ms * (1.0 - p.ui_fraction));
        return c;
    }
};

} // namespace

TEST(PowerLaw, BitEqualToReferenceSampler)
{
    std::vector<PowerLawParams> sets(6);
    sets[1].heavy_prob = 0.08;
    sets[1].heavy_burst_prob = 0.6;
    sets[1].heavy_alpha = 0.9;
    sets[1].heavy_min_ms = 11.1;
    sets[1].heavy_max_ms = 83.3;
    sets[2].heavy_prob = 0.0;
    sets[2].heavy_burst_prob = 0.5; // no key frame, so never a burst
    sets[3].heavy_prob = 1.0;
    sets[3].short_mean_ms = 2.7;
    sets[3].short_sigma = 0.6;
    sets[3].ui_fraction = 0.5;
    sets[4].heavy_prob = 0.3;
    sets[4].heavy_burst_prob = 1.0;
    sets[4].heavy_alpha = 2.4;
    sets[4].ui_fraction = 0.0;
    // Costs near 10^15 ns, where a double's last bit is worth under a
    // nanosecond: a sampler that drifts by one ulp changes cost_for().
    sets[5].short_mean_ms = 3e9;
    sets[5].heavy_prob = 0.2;
    sets[5].heavy_min_ms = 1e9;
    sets[5].heavy_max_ms = 6e9;
    const std::uint64_t seeds[] = {0, 1, 7, 0xdeadbeefULL,
                                   0xfedcba9876543210ULL};
    std::uint64_t heavy = 0, checked = 0;
    for (std::size_t s = 0; s < sets.size(); ++s) {
        for (std::uint64_t seed : seeds) {
            const PowerLawCostModel model(sets[s], seed);
            const ReferencePowerLaw ref{sets[s], seed};
            for (std::int64_t i = 0; i <= 4096; ++i) {
                const bool h = model.is_heavy(i);
                ASSERT_EQ(h, ref.is_heavy(i))
                    << "set " << s << " seed " << seed << " index " << i;
                ASSERT_EQ(model.cost_for(i), ref.cost_for(i))
                    << "set " << s << " seed " << seed << " index " << i;
                heavy += h;
                ++checked;
            }
        }
    }
    // Both the light-only and the heavy branch were exercised.
    EXPECT_GT(heavy, 0u);
    EXPECT_LT(heavy, checked);
}

TEST(PowerLaw, HashIndexAvalanches)
{
    const std::uint64_t a = hash_index(1, 100);
    const std::uint64_t b = hash_index(1, 101);
    EXPECT_NE(a, b);
    EXPECT_NE(hash_index(1, 100), hash_index(2, 100));
}

// ----- traces ---------------------------------------------------------------

TEST(Trace, CsvRoundTrip)
{
    FrameTrace t;
    t.name = "test trace";
    t.rate_hz = 90.0;
    t.frames = {{1_ms, 2_ms}, {500_us, 7'500'000}};
    const FrameTrace back = FrameTrace::from_csv(t.to_csv());
    EXPECT_EQ(back.name, "test trace");
    EXPECT_DOUBLE_EQ(back.rate_hz, 90.0);
    ASSERT_EQ(back.frames.size(), 2u);
    EXPECT_EQ(back.frames[0].ui_time, 1_ms);
    EXPECT_EQ(back.frames[1].render_time, 7'500'000);
}

TEST(Trace, FileRoundTrip)
{
    FrameTrace t;
    t.name = "file";
    t.frames = {{1_ms, 1_ms}};
    const std::string path = ::testing::TempDir() + "/dvs_trace.csv";
    ASSERT_TRUE(t.save(path));
    const FrameTrace back = FrameTrace::load(path);
    ASSERT_EQ(back.frames.size(), 1u);
    EXPECT_EQ(back.frames[0].total(), 2_ms);
    std::remove(path.c_str());
}

TEST(Trace, MalformedRowsIgnored)
{
    const FrameTrace t =
        FrameTrace::from_csv("ui_us,render_us\n1.0,2.0\ngarbage\n3.0,4.0\n");
    EXPECT_EQ(t.frames.size(), 2u);
}

TEST(Trace, NonNumericRowWarnsWithLineNumber)
{
    ::testing::internal::CaptureStderr();
    const FrameTrace t = FrameTrace::from_csv(
        "# trace: bad\nui_us,render_us,gpu_us\n1.0,2.0,0\nnot,a,number\n");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(t.frames.size(), 1u);
    EXPECT_NE(err.find("line 4"), std::string::npos) << err;
    EXPECT_NE(err.find("malformed row"), std::string::npos) << err;
}

TEST(Trace, TruncatedRowWarnsWithLineNumber)
{
    // A single field is not a frame: ui and render are both required.
    ::testing::internal::CaptureStderr();
    const FrameTrace t =
        FrameTrace::from_csv("ui_us,render_us,gpu_us\n5.0\n1.0,2.0,3.0\n");
    const std::string err = ::testing::internal::GetCapturedStderr();
    ASSERT_EQ(t.frames.size(), 1u);
    EXPECT_EQ(t.frames[0].ui_time, 1_us);
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Trace, MissingHeaderWarnsOnceButStillParses)
{
    ::testing::internal::CaptureStderr();
    const FrameTrace t = FrameTrace::from_csv("1.0,2.0\n3.0,4.0\n");
    const std::string err = ::testing::internal::GetCapturedStderr();
    // Rows parse anyway (the format is self-describing enough), but the
    // missing ui_us header is diagnosed exactly once, with its line.
    EXPECT_EQ(t.frames.size(), 2u);
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    EXPECT_NE(err.find("before ui_us header"), std::string::npos) << err;
    EXPECT_EQ(err.find("before ui_us header"),
              err.rfind("before ui_us header"))
        << "warned more than once: " << err;
}

TEST(Trace, ReplayWrapsAround)
{
    FrameTrace t;
    t.frames = {{1_ms, 0}, {2_ms, 0}, {3_ms, 0}};
    TraceCostModel m(std::move(t));
    EXPECT_EQ(m.cost_for(0).ui_time, 1_ms);
    EXPECT_EQ(m.cost_for(4).ui_time, 2_ms);
    EXPECT_EQ(m.cost_for(3000002).ui_time, 3_ms);
}

TEST(Trace, CrlfLineEndingsParseWithoutWarnings)
{
    // A Windows-saved trace: every line, including the last, ends \r\n.
    ::testing::internal::CaptureStderr();
    const FrameTrace t = FrameTrace::from_csv(
        "# trace: crlf\r\n# rate_hz: 120\r\nui_us,render_us,gpu_us\r\n"
        "1.0,2.0,3.0\r\n4.0,5.0,6.0\r\n");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "") << "spurious warning: " << err;
    EXPECT_EQ(t.name, "crlf");
    EXPECT_DOUBLE_EQ(t.rate_hz, 120.0);
    ASSERT_EQ(t.frames.size(), 2u);
    EXPECT_EQ(t.frames[0].ui_time, 1_us);
    EXPECT_EQ(t.frames[1].gpu_time, 6_us);
}

TEST(Trace, TrailingNewlineParsesWithoutWarnings)
{
    // Both a trailing '\n' and a trailing "\r\n" leave a final blank line
    // that must not be diagnosed as a malformed row.
    ::testing::internal::CaptureStderr();
    const FrameTrace lf =
        FrameTrace::from_csv("ui_us,render_us\n1.0,2.0\n\n");
    const FrameTrace crlf =
        FrameTrace::from_csv("ui_us,render_us\r\n1.0,2.0\r\n\r\n");
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "") << "spurious warning: " << err;
    EXPECT_EQ(lf.frames.size(), 1u);
    EXPECT_EQ(crlf.frames.size(), 1u);
}

TEST(Trace, SegmentSlotModeMapsSlotAndClamps)
{
    FrameTrace t;
    t.frames = {{1_ms, 0}, {2_ms, 0}, {3_ms, 0}};
    TraceCostModel m(std::move(t), TraceIndexMode::kSegmentSlot);
    EXPECT_EQ(m.index_mode(), TraceIndexMode::kSegmentSlot);
    // Slot is recovered modulo the per-segment stride, so segment 2's
    // slot 1 (index 1 + 2 * stride) reads entry 1 — no wraparound.
    EXPECT_EQ(m.cost_for(0).ui_time, 1_ms);
    EXPECT_EQ(m.cost_for(1 + 2 * kCostIndexStride).ui_time, 2_ms);
    // Past the end of the capture the last entry is held, not wrapped.
    EXPECT_EQ(m.cost_for(7).ui_time, 3_ms);
    EXPECT_EQ(m.cost_for(500 + kCostIndexStride).ui_time, 3_ms);
}

// ----- scenarios ---------------------------------------------------------------

TEST(Scenario, BuilderAccumulatesSegments)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 1_ms);
    Scenario sc("s");
    sc.animate(100_ms, cost).idle(50_ms).animate(200_ms, cost, "second");
    ASSERT_EQ(sc.size(), 3u);
    EXPECT_EQ(sc.total_duration(), 350_ms);
    EXPECT_EQ(sc.active_duration(), 300_ms);
    EXPECT_EQ(sc.segment_start(2), 150_ms);
    EXPECT_EQ(sc.segment_at(120_ms), 1);
    EXPECT_EQ(sc.segment_at(500_ms), -1);
    EXPECT_EQ(sc.segments()[2].label, "second");
}

TEST(Scenario, SegmentKindsAndFlags)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 1_ms);
    auto touch = std::make_shared<TouchStream>();
    touch->push({0, TouchPhase::kDown, 0, 0, 0});
    touch->push({100_ms, TouchPhase::kUp, 0, 100, 0});

    Scenario sc("k");
    sc.animate(10_ms, cost).interact(touch, cost).realtime(10_ms, cost);
    EXPECT_TRUE(sc.segments()[0].deterministic());
    EXPECT_TRUE(sc.segments()[0].produces_frames());
    EXPECT_FALSE(sc.segments()[1].deterministic());
    EXPECT_TRUE(sc.segments()[1].produces_frames());
    EXPECT_EQ(sc.segments()[1].duration, 100_ms);
    EXPECT_FALSE(sc.segments()[2].deterministic());
    EXPECT_STREQ(to_string(sc.segments()[2].kind), "realtime");
}

TEST(Scenario, SwipeFactoryAlternatesAnimIdle)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 1_ms);
    Scenario sc = make_swipe_scenario("sw", 3, 500_ms, cost, 0.7);
    ASSERT_EQ(sc.size(), 6u);
    EXPECT_EQ(sc.segments()[0].duration, 350_ms);
    EXPECT_EQ(sc.segments()[1].kind, SegmentKind::kIdle);
    EXPECT_EQ(sc.total_duration(), 1500_ms);
}

// ----- profile tables ------------------------------------------------------------

TEST(Profiles, TwentyFiveAppsInPaperOrder)
{
    const auto &apps = pixel5_app_profiles();
    ASSERT_EQ(apps.size(), 25u);
    EXPECT_EQ(apps.front().name, "Walmart");
    EXPECT_EQ(apps.back().name, "Pinterest");
    // Fig. 11: the population averages ~2.04 FDPS under VSync.
    double sum = 0;
    for (const auto &a : apps)
        sum += a.paper_fdps;
    EXPECT_NEAR(sum / apps.size(), 2.04, 0.15);
    EXPECT_NE(find_app_profile("QQMusic"), nullptr);
    EXPECT_EQ(find_app_profile("NoSuchApp"), nullptr);
}

TEST(Profiles, QQMusicIsSkewed)
{
    const ProfileSpec *qq = find_app_profile("QQMusic");
    const ProfileSpec *walmart = find_app_profile("Walmart");
    ASSERT_NE(qq, nullptr);
    ASSERT_NE(walmart, nullptr);
    // §6.1 analysis: QQMusic's long frames defeat even 7 buffers.
    EXPECT_GT(qq->heavy_max_periods, 6.0);
    EXPECT_LT(walmart->heavy_max_periods, 3.0);
}

TEST(Profiles, MakeParamsScalesWithRefreshRate)
{
    const ProfileSpec &app = pixel5_app_profiles()[0];
    const PowerLawParams p60 = make_params(app, 60.0);
    const PowerLawParams p120 = make_params(app, 120.0);
    EXPECT_NEAR(p60.short_mean_ms, 2 * p120.short_mean_ms, 1e-9);
    EXPECT_NEAR(p60.heavy_prob, 2 * p120.heavy_prob, 1e-9);
}

TEST(Profiles, SeventyFiveOsCases)
{
    const auto &cases = os_cases();
    ASSERT_EQ(cases.size(), 75u);
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_EQ(cases[i].id, int(i) + 1);
    EXPECT_NE(find_os_case("cls notif ctr"), nullptr);
    EXPECT_EQ(find_os_case("nonexistent"), nullptr);
}

TEST(Profiles, OsCaseDropPopulationsMatchFigures)
{
    // Fig. 13 left: 9 cases with drops on Mate 40 Pro, average 3.17.
    auto m40 = cases_with_drops(OsConfig::kMate40Gles);
    EXPECT_EQ(m40.size(), 9u);
    double sum = 0;
    for (const auto *c : m40)
        sum += case_fdps(*c, OsConfig::kMate40Gles);
    EXPECT_NEAR(sum / double(m40.size()), 3.17, 0.3);

    // Fig. 13 right: 20 cases on Mate 60 Pro GLES, average 7.51.
    auto m60g = cases_with_drops(OsConfig::kMate60Gles);
    EXPECT_EQ(m60g.size(), 20u);
    sum = 0;
    for (const auto *c : m60g)
        sum += case_fdps(*c, OsConfig::kMate60Gles);
    EXPECT_NEAR(sum / double(m60g.size()), 7.51, 0.5);

    // Fig. 12: 29 cases on Mate 60 Pro Vulkan, average 8.42.
    auto m60v = cases_with_drops(OsConfig::kMate60Vk);
    EXPECT_EQ(m60v.size(), 29u);
    sum = 0;
    for (const auto *c : m60v)
        sum += case_fdps(*c, OsConfig::kMate60Vk);
    EXPECT_NEAR(sum / double(m60v.size()), 8.42, 0.5);
}

TEST(Profiles, DropPopulationsSortedDescending)
{
    for (OsConfig cfg : {OsConfig::kMate40Gles, OsConfig::kMate60Gles,
                         OsConfig::kMate60Vk}) {
        auto cases = cases_with_drops(cfg);
        for (std::size_t i = 1; i < cases.size(); ++i) {
            EXPECT_GE(case_fdps(*cases[i - 1], cfg),
                      case_fdps(*cases[i], cfg));
        }
    }
}

TEST(Profiles, OsCaseSpecRespectsConfig)
{
    const OsCase *c = find_os_case("cls notif ctr");
    ASSERT_NE(c, nullptr);
    const ProfileSpec spec = make_os_case_spec(*c, OsConfig::kMate60Vk);
    EXPECT_GT(spec.heavy_per_sec, 0);
    EXPECT_DOUBLE_EQ(spec.paper_fdps, c->fdps_mate60_vk);
    EXPECT_DOUBLE_EQ(os_config_refresh_hz(OsConfig::kMate60Vk), 120.0);
    EXPECT_DOUBLE_EQ(os_config_refresh_hz(OsConfig::kMate40Gles), 90.0);
}

// ----- game traces -----------------------------------------------------------------

TEST(Games, FifteenGamesMatchFigure14)
{
    const auto &games = game_list();
    ASSERT_EQ(games.size(), 15u);
    double sum = 0;
    for (const auto &g : games) {
        sum += g.paper_fdps;
        EXPECT_TRUE(g.rate_hz == 30.0 || g.rate_hz == 60.0 ||
                    g.rate_hz == 90.0);
    }
    EXPECT_NEAR(sum / games.size(), 0.79, 0.1); // Fig. 14 average
    EXPECT_STREQ(games.front().name, "Honor of Kings (UI)");
    EXPECT_DOUBLE_EQ(games.back().rate_hz, 90.0); // LTK
}

TEST(Games, TraceLengthMatchesDurationAndRate)
{
    const GameInfo &g = game_list()[1]; // Identity V, 30 Hz
    const FrameTrace t = make_game_trace(g, 10_s, 5);
    EXPECT_EQ(t.frames.size(), 300u);
    EXPECT_DOUBLE_EQ(t.rate_hz, 30.0);
    EXPECT_NE(t.name.find("Identity V"), std::string::npos);
}

TEST(Games, TraceIsDeterministicPerSeed)
{
    const GameInfo &g = game_list()[0];
    const FrameTrace a = make_game_trace(g, 2_s, 9);
    const FrameTrace b = make_game_trace(g, 2_s, 9);
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < a.frames.size(); ++i)
        EXPECT_EQ(a.frames[i].total(), b.frames[i].total());
}

TEST(Games, TraceMostFramesFitTheirPeriod)
{
    const GameInfo &g = game_list()[6]; // 8 Ball Pool, 60 Hz
    const FrameTrace t = make_game_trace(g, 30_s, 3);
    const Time period = period_from_hz(g.rate_hz);
    int fit = 0;
    for (const FrameCost &c : t.frames)
        fit += c.total() <= period;
    EXPECT_GT(double(fit) / double(t.frames.size()), 0.9);
}
