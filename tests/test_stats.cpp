/**
 * @file
 * Unit tests for statistics accumulators and time formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "metrics/histogram.h"
#include "sim/stats.h"
#include "sim/time.h"

using namespace dvs;
using namespace dvs::time_literals;

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SampleStat, EmptyIsZero)
{
    SampleStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SampleStat, BasicMoments)
{
    SampleStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001); // sample stddev
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SampleStat, PercentilesInterpolate)
{
    SampleStat s(/*keep_samples=*/true);
    for (int i = 1; i <= 100; ++i)
        s.add(double(i));
    EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(s.percentile(95), 95.05, 0.01);
}

TEST(SampleStat, PercentileOfEmptySetIsNaN)
{
    SampleStat s(/*keep_samples=*/true);
    EXPECT_TRUE(std::isnan(s.percentile(50)));
    s.add(1.0);
    s.reset();
    EXPECT_TRUE(std::isnan(s.percentile(95)));
}

TEST(SampleStatDeathTest, PercentileWithoutKeptSamplesIsFatal)
{
    SampleStat s(/*keep_samples=*/false);
    s.add(1.0);
    // fatal() even in release builds: the old assert() vanished under
    // NDEBUG and silently returned percentiles of nothing.
    EXPECT_EXIT(s.percentile(50), ::testing::ExitedWithCode(1),
                "keep_samples");
}

TEST(SampleStat, PercentileUnaffectedByInsertionOrder)
{
    SampleStat s(true);
    for (double x : {5.0, 1.0, 3.0, 2.0, 4.0})
        s.add(x);
    EXPECT_NEAR(s.percentile(50), 3.0, 1e-9);
}

TEST(SampleStat, ResetClearsEverything)
{
    SampleStat s(true);
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(HistogramPercentile, ReadsBinEdgesDeterministically)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(0.05 + double(i % 10)); // 10 samples per bin
    EXPECT_DOUBLE_EQ(h.percentile(10), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(95), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 10.0);

    // Underflow mass resolves to lo, overflow pushes crossings to hi.
    Histogram u(0.0, 10.0, 10);
    u.add(-5.0);
    u.add(-6.0);
    u.add(1.5);
    EXPECT_DOUBLE_EQ(u.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(u.percentile(99), 2.0);
    Histogram o(0.0, 10.0, 10);
    o.add(1.5);
    o.add(50.0);
    EXPECT_DOUBLE_EQ(o.percentile(99), 10.0);

    // Empty histograms have no percentile surface: NaN, not 0, so an
    // empty cohort can never masquerade as an all-zero one.
    Histogram empty(0.0, 10.0, 10);
    EXPECT_TRUE(std::isnan(empty.percentile(50)));
    EXPECT_TRUE(std::isnan(empty.percentile(99)));
}

TEST(StatSet, InsertGetOverwrite)
{
    StatSet set;
    set.set("a", 1.0);
    set.set("b", 2.0);
    set.set("a", 3.0);
    EXPECT_TRUE(set.has("a"));
    EXPECT_FALSE(set.has("c"));
    EXPECT_DOUBLE_EQ(set.get("a"), 3.0);
    EXPECT_DOUBLE_EQ(set.get("b"), 2.0);
    EXPECT_DOUBLE_EQ(set.get("missing"), 0.0);
    ASSERT_EQ(set.entries().size(), 2u);
    EXPECT_EQ(set.entries()[0].first, "a"); // insertion order kept
}

TEST(StatSet, ToStringContainsEntries)
{
    StatSet set;
    set.set("frame_drops", 42.0);
    const std::string out = set.to_string();
    EXPECT_NE(out.find("frame_drops"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TimeHelpers, ConversionsRoundTrip)
{
    EXPECT_EQ(1_ms, 1'000'000);
    EXPECT_EQ(1_us, 1'000);
    EXPECT_EQ(1_s, 1'000'000'000);
    EXPECT_DOUBLE_EQ(to_ms(16'666'666), 16.666666);
    EXPECT_EQ(from_ms(16.666666), 16'666'666);
    EXPECT_EQ(period_from_hz(60.0), 16'666'666);
    EXPECT_EQ(period_from_hz(120.0), 8'333'333);
}

TEST(TimeHelpers, FormatTimePicksUnits)
{
    EXPECT_EQ(format_time(500), "500 ns");
    EXPECT_EQ(format_time(kTimeNone), "<none>");
    EXPECT_NE(format_time(2_ms).find("ms"), std::string::npos);
    EXPECT_NE(format_time(12_s).find(" s"), std::string::npos);
    EXPECT_NE(format_time(3_us).find("us"), std::string::npos);
}
