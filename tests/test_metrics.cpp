/**
 * @file
 * Unit tests for the metrics layer: latency breakdown, stutter model,
 * power model, histogram, reporters, and the RunReport fingerprint
 * string.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>

#include "metrics/histogram.h"
#include "metrics/latency.h"
#include "metrics/power_model.h"
#include "metrics/reporter.h"
#include "metrics/run_report.h"
#include "metrics/stutter_model.h"
#include "sim/fnv.h"

using namespace dvs;
using namespace dvs::time_literals;

// ----- StutterDetector --------------------------------------------------------

TEST(Stutter, HoldOfTwoRefreshesIsOneStutter)
{
    StutterDetector d;
    Time t = 0;
    d.on_refresh(t += 10_ms, false);
    d.on_refresh(t += 10_ms, true);
    d.on_refresh(t += 10_ms, true);
    d.on_refresh(t += 10_ms, false);
    d.finish();
    EXPECT_EQ(d.stutters(), 1u);
}

TEST(Stutter, LongHoldStillOneStutter)
{
    StutterDetector d;
    Time t = 0;
    for (int i = 0; i < 6; ++i)
        d.on_refresh(t += 10_ms, true);
    d.finish();
    EXPECT_EQ(d.stutters(), 1u);
}

TEST(Stutter, SingleIsolatedDropIsInvisible)
{
    StutterDetector d;
    Time t = 0;
    d.on_refresh(t += 10_ms, false);
    d.on_refresh(t += 10_ms, true);
    for (int i = 0; i < 20; ++i)
        d.on_refresh(t += 10_ms, false);
    d.finish();
    EXPECT_EQ(d.stutters(), 0u);
}

TEST(Stutter, ClusteredSinglesBecomeVisible)
{
    StutterDetector d;
    Time t = 0;
    // Three isolated drops within 500 ms at an *irregular* rhythm.
    const int gaps[] = {10, 4, 14};
    for (int k = 0; k < 3; ++k) {
        d.on_refresh(t += 10_ms, true);
        for (int i = 0; i < gaps[k]; ++i)
            d.on_refresh(t += 10_ms, false);
    }
    d.finish();
    EXPECT_EQ(d.stutters(), 1u);
}

TEST(Stutter, SteadyCadenceIsNotStutter)
{
    // An app paced at half rate misses every other refresh with a
    // perfectly steady spacing: uniform slower motion, not stutter.
    StutterDetector d;
    Time t = 0;
    for (int k = 0; k < 30; ++k) {
        d.on_refresh(t += 10_ms, true);
        d.on_refresh(t += 10_ms, false);
    }
    d.finish();
    EXPECT_EQ(d.stutters(), 0u);
}

TEST(Stutter, SpreadOutSinglesStayInvisible)
{
    StutterDetector d;
    Time t = 0;
    for (int k = 0; k < 3; ++k) {
        d.on_refresh(t += 10_ms, true);
        for (int i = 0; i < 100; ++i) // 1 s apart
            d.on_refresh(t += 10_ms, false);
    }
    d.finish();
    EXPECT_EQ(d.stutters(), 0u);
}

TEST(Stutter, TrailingRunFlushedByFinish)
{
    StutterDetector d;
    d.on_refresh(10_ms, true);
    d.on_refresh(20_ms, true);
    EXPECT_EQ(d.stutters(), 0u);
    d.finish();
    EXPECT_EQ(d.stutters(), 1u);
}

// ----- PowerModel --------------------------------------------------------------

TEST(Power, EnergyScalesWithBusyTime)
{
    PowerModel pm;
    RunActivity idle{10_s, 0, 0, false, 0};
    RunActivity busy{10_s, 2_s, 600, false, 0};
    EXPECT_GT(pm.energy_mj(busy), pm.energy_mj(idle));
    EXPECT_NEAR(pm.energy_mj(idle), pm.params().base_mw * 10.0, 1e-6);
}

TEST(Power, DvsyncOverheadIsFractionOfAPercent)
{
    // §6.7: decoupled pre-rendering costs 0.13%-0.37% end to end.
    PowerModel pm;
    RunActivity vsync;
    vsync.wall_time = 30 * 60_s;
    vsync.pipeline_busy = 10 * 60_s;
    vsync.frames_produced = 100000;

    RunActivity dvsync = vsync;
    dvsync.dvsync_on = true;
    const double inc = pm.percent_increase(vsync, dvsync);
    EXPECT_GT(inc, 0.0);
    EXPECT_LT(inc, 1.0);

    RunActivity with_zdp = dvsync;
    with_zdp.predicted_frames = 10000; // 10% of frames invoke ZDP
    const double inc2 = pm.percent_increase(vsync, with_zdp);
    EXPECT_GT(inc2, inc);
    EXPECT_LT(inc2, 1.0);
}

#include <cmath>

TEST(Power, PercentIncreaseIsNanOnAnEmptyBaseline)
{
    // A zero-energy baseline is a config bug: the comparison must read
    // as "no answer" (NaN, rendered "n/a" by the campaign roll-ups),
    // never as 0% which would mask it.
    PowerModel pm;
    RunActivity empty;
    RunActivity busy{10_s, 2_s, 600, false, 0};
    EXPECT_TRUE(std::isnan(pm.percent_increase(empty, busy)));
    EXPECT_TRUE(std::isnan(pm.percent_increase(empty, empty)));
    // A valid baseline still answers, even against an empty subject.
    EXPECT_NEAR(pm.percent_increase(busy, busy), 0.0, 1e-12);
    EXPECT_NEAR(pm.percent_increase(busy, empty), -100.0, 1e-9);
}

TEST(Power, InstructionOverheadMatchesPaper)
{
    // §6.7: 10.793M vs 10.849M instructions per frame => +0.52%.
    PowerModel pm;
    RunActivity a{1_s, 0, 1000, false, 0};
    RunActivity b{1_s, 0, 1000, true, 0};
    const double increase =
        100.0 * (pm.instructions(b) - pm.instructions(a)) /
        pm.instructions(a);
    EXPECT_NEAR(increase, 0.52, 0.02);
}

// ----- latency breakdown ----------------------------------------------------------

TEST(Latency, EmptyStatsYieldZeros)
{
    // A breakdown over an empty run must not crash or divide by zero.
    // (Construct a minimal run with no frames via direct struct use.)
    LatencyBreakdown b;
    EXPECT_EQ(b.mean_ms, 0.0);
}

// ----- histogram -------------------------------------------------------------------

TEST(Histogram, BinsAndCdf)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_EQ(h.bin_count(3), 1u);
    EXPECT_NEAR(h.cdf(5.0), 0.5, 1e-9);
    EXPECT_NEAR(h.cdf(-1.0), 0.0, 1e-9);
    EXPECT_NEAR(h.cdf(99.0), 1.0, 1e-9);
    EXPECT_NEAR(h.cdf_at(9), 1.0, 1e-9);
}

TEST(Histogram, OutOfRangeCountedSeparatelyNotClamped)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(100.0);
    h.add(5.0);
    // Edge bins hold only in-range mass; the tails are tracked apart.
    EXPECT_EQ(h.bin_count(0), 0u);
    EXPECT_EQ(h.bin_count(4), 0u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, CdfTailReflectsOverflow)
{
    Histogram h(0.0, 10.0, 5);
    for (int i = 0; i < 9; ++i)
        h.add(double(i) + 0.5); // 9 in-range samples
    h.add(50.0);                // 1 overflow
    // Before the fix the overflow clamped into the last bin and the CDF
    // reported 1.0 at the right edge; now the tail is honest.
    EXPECT_NEAR(h.cdf_at(4), 0.9, 1e-9);
    // Underflow counts toward every edge, keeping interior values exact.
    Histogram u(0.0, 10.0, 5);
    u.add(-1.0);
    u.add(1.0);
    EXPECT_NEAR(u.cdf_at(0), 1.0, 1e-9);
}

TEST(Histogram, CsvHasHeaderRowsAndTailCounts)
{
    Histogram h(0.0, 2.0, 2);
    h.add(0.5);
    h.add(1.5);
    h.add(9.0);
    const std::string csv = h.to_csv();
    EXPECT_NE(csv.find("bin_right_edge,pdf,cdf"), std::string::npos);
    EXPECT_NE(csv.find("# samples,3"), std::string::npos);
    EXPECT_NE(csv.find("# underflow,0"), std::string::npos);
    EXPECT_NE(csv.find("# overflow,1"), std::string::npos);
}

// ----- reporter ---------------------------------------------------------------------

TEST(Reporter, TableAlignsColumns)
{
    TableReporter t({"name", "fdps"});
    t.add_row({"Walmart", "4.80"});
    t.add_row({"X", "3.60"});
    const std::string out = t.to_string();
    EXPECT_NE(out.find("Walmart"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    // Every line has the same position for the second column.
    const auto first_line_end = out.find('\n');
    EXPECT_NE(first_line_end, std::string::npos);
}

TEST(Reporter, NumFormatsPrecision)
{
    EXPECT_EQ(TableReporter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TableReporter::num(2.0, 0), "2");
}

TEST(Reporter, AsciiBarProportional)
{
    EXPECT_EQ(ascii_bar(5.0, 10.0, 10).size(), 5u);
    EXPECT_EQ(ascii_bar(10.0, 10.0, 10).size(), 10u);
    EXPECT_EQ(ascii_bar(0.0, 10.0, 10).size(), 0u);
    EXPECT_EQ(ascii_bar(20.0, 10.0, 10).size(), 10u); // clamped
}

// ----- RunReport::debug_string ------------------------------------------------

namespace {

/**
 * A transition's line as the watchdog (std::to_string concatenation)
 * and the governor (snprintf) each built it before transitions became
 * data.
 */
std::string
snprintf_transition(const Transition &t)
{
    if (t.source == Transition::Source::kGovernor) {
        static const char *const kRungs[] = {
            "nominal", "trim-prerender", "ltpo-cap", "dvfs-cap", "handoff"};
        const GovernorSensors &s = t.sensors;
        char buf[2048]; // three %.0f/%.1f of DBL_MAX still fit
        std::snprintf(buf, sizeof(buf),
                      "t=%lld governor %s %d->%d "
                      "[temp=%.1fC rate=%.0fmW drops=+%.0f backoff=x%d] %s",
                      (long long)t.at, t.to > t.from ? "demote" : "promote",
                      t.from, t.to, s.temp_c,
                      s.rate_sensed ? s.rate_mw : 0.0, s.new_drops,
                      t.backoff,
                      t.to >= 0 && t.to < 5 ? kRungs[t.to] : "?");
        return buf;
    }
    const std::string at = "t=" + std::to_string(t.at);
    if (t.to == Transition::kDvsync) {
        return at + " repromote after " +
               std::to_string(t.required_streak) +
               " stable presents -> D-VSync";
    }
    std::string line = at + " degrade [";
    switch (t.reason) {
      case Transition::Reason::kNone:
        line += "?] ";
        break;
      case Transition::Reason::kInvariantPressure:
        line += "invariant-pressure] " + std::to_string(t.count) +
                " recent violations";
        break;
      case Transition::Reason::kDisplayStall:
        line += "display-stall] " + std::to_string(t.count) +
                " ns since last present";
        break;
      case Transition::Reason::kDtvDesync:
        line += "dtv-desync] " + std::to_string(t.count) +
                " consecutive off-promise presents";
        break;
      case Transition::Reason::kForced:
        line += "forced] " + t.detail;
        break;
    }
    line += " -> VSync pacing, DTV resync";
    if (t.backoff > 1) {
        line += " (backoff x" + std::to_string(t.backoff) + ": " +
                std::to_string(t.required_streak) +
                " stable presents to re-promote)";
    }
    return line;
}

/**
 * The snprintf formatter debug_string() used to be, kept as the oracle
 * of its output. Its first buffer truncates at 1023 bytes, so callers
 * keep reports short enough that it never does (checked here).
 */
std::string
snprintf_debug_string(const RunReport &r)
{
    char buf[1024];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "label=%s scenario=%s mode=%s device=%s hz=%.17g buffers=%d "
        "limit=%d seed=%llu fdps=%.17g fd%%=%.17g fps=%.17g drops=%llu "
        "due=%lld presents=%llu direct=%llu stuffed=%llu "
        "lat(ms)=[%.17g %.17g %.17g %.17g %.17g] stutters=%llu "
        "deadline_misses=%llu wall=%lld busy=%lld produced=%llu "
        "predicted=%llu dvsync=%d energy_mj=%.17g repeats=%d",
        r.label.c_str(), r.scenario.c_str(), r.config.mode.c_str(),
        r.config.device.c_str(), r.config.refresh_hz, r.config.buffers,
        r.config.prerender_limit, (unsigned long long)r.config.seed, r.fdps,
        r.fd_percent, r.fps, (unsigned long long)r.drops,
        (long long)r.frames_due, (unsigned long long)r.presents,
        (unsigned long long)r.direct, (unsigned long long)r.stuffed,
        r.latency_mean_ms, r.latency_p50_ms, r.latency_p95_ms,
        r.latency_p99_ms, r.latency_max_ms, (unsigned long long)r.stutters,
        (unsigned long long)r.deadline_misses,
        (long long)r.activity.wall_time, (long long)r.activity.pipeline_busy,
        (unsigned long long)r.activity.frames_produced,
        (unsigned long long)r.activity.predicted_frames,
        int(r.activity.dvsync_on), r.energy_mj, r.repeats);
    EXPECT_LT(n, int(sizeof(buf))) << "oracle input too long";
    std::string out = buf;
    std::snprintf(buf, sizeof(buf),
                  " violations=%llu faults=%llu degradations=%llu "
                  "repromotions=%llu resyncs=%llu error=%s",
                  (unsigned long long)r.invariant_violations,
                  (unsigned long long)r.faults_injected,
                  (unsigned long long)r.degradations,
                  (unsigned long long)r.repromotions,
                  (unsigned long long)r.dtv_resyncs,
                  r.error.empty() ? "-" : r.error.c_str());
    out += buf;

    const auto causes_of =
        [&buf](const std::array<std::uint64_t, kDropCauseCount> &causes,
               std::uint64_t injected) {
            std::string s = " causes=[";
            for (int c = 0; c < kDropCauseCount; ++c) {
                if (c >= kDropCauseLegacyCount && causes[c] == 0)
                    continue;
                std::snprintf(buf, 64, "%s%s=%llu", c ? " " : "",
                              to_string(DropCause(c)),
                              (unsigned long long)causes[c]);
                s += buf;
            }
            std::snprintf(buf, 64, "] injected_drops=%llu",
                          (unsigned long long)injected);
            s += buf;
            return s;
        };
    out += causes_of(r.drop_causes, r.drops_injected);
    if (r.thermal_on) {
        std::snprintf(
            buf, sizeof(buf),
            " thermal=[peak_c=%.17g final_c=%.17g trips=%llu "
            "dvfs_end=%d gpu_mj=%.17g] governor=[demotions=%llu "
            "promotions=%llu rung_end=%d]",
            r.peak_temp_c, r.final_temp_c,
            (unsigned long long)r.thermal_trips, r.dvfs_level_end,
            r.gpu_energy_mj, (unsigned long long)r.governor_demotions,
            (unsigned long long)r.governor_promotions, r.governor_rung_end);
        out += buf;
    }
    if (!r.surfaces.empty()) {
        std::snprintf(buf, sizeof(buf),
                      " budget_mb=%.17g used_mb=%.17g rearb=%llu",
                      r.budget_mb, r.budget_used_mb,
                      (unsigned long long)r.rearbitrations);
        out += buf;
        for (const SurfaceReport &s : r.surfaces) {
            std::snprintf(
                buf, sizeof(buf),
                "\n  surface=%s mode=%s buffers=%d extra=%d mb=%.17g "
                "fdps=%.17g fd%%=%.17g drops=%llu due=%lld presents=%llu "
                "p95=%.17g violations=%llu degradations=%llu "
                "repromotions=%llu",
                s.name.c_str(), s.mode.c_str(), s.buffers, s.extra_buffers,
                s.buffer_mb, s.fdps, s.fd_percent,
                (unsigned long long)s.drops, (long long)s.frames_due,
                (unsigned long long)s.presents, s.latency_p95_ms,
                (unsigned long long)s.invariant_violations,
                (unsigned long long)s.degradations,
                (unsigned long long)s.repromotions);
            out += buf;
            out += causes_of(s.drop_causes, s.drops_injected);
        }
    }
    // A composed run prefixed each line with "[<surface name>] ".
    for (const Transition &t : r.timeline) {
        out += "\n  ";
        if (!r.surfaces.empty())
            out += "[" + r.surfaces[std::size_t(t.surface)].name + "] ";
        out += snprintf_transition(t);
    }
    return out;
}

/** Seeded random report fields, edge values weighted in. */
class ReportFuzzer
{
  public:
    explicit ReportFuzzer(std::uint64_t seed) : rng_(seed) {}

    double real()
    {
        using L = std::numeric_limits<double>;
        static const double kEdges[] = {
            0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 16.666666666666668, 60.0,
            1e300, -1e300, 1e-300, L::min(), L::denorm_min(),
            -L::denorm_min(), 2.5e-310, L::max(), L::lowest(),
            L::infinity(), -L::infinity(), L::quiet_NaN(),
            -L::quiet_NaN(), 123456789012345678.0, 1e16, 1e17, 9.5e-5};
        switch (pick(5)) {
          case 0:
            return kEdges[pick(std::size(kEdges))];
          case 1: { // any bit pattern: every exponent, NaN payloads
            const std::uint64_t bits = rng_();
            double v;
            std::memcpy(&v, &bits, sizeof v);
            return v;
          }
          case 2: // small integers print without exponent or point
            return double(std::int64_t(pick(2000001)) - 1000000);
          default: // report-like magnitudes
            return std::uniform_real_distribution<double>(-1e3, 1e5)(rng_);
        }
    }

    std::uint64_t u64()
    {
        static const std::uint64_t kEdges[] = {
            0, 1, 9, 10, 99, 100, std::numeric_limits<std::uint64_t>::max(),
            std::uint64_t(std::numeric_limits<std::int64_t>::max()),
            std::uint64_t(std::numeric_limits<std::int64_t>::max()) + 1};
        switch (pick(3)) {
          case 0:
            return kEdges[pick(std::size(kEdges))];
          case 1:
            return rng_() >> pick(64);
          default:
            return pick(1000);
        }
    }

    std::int64_t i64()
    {
        static const std::int64_t kEdges[] = {
            0, -1, 1, std::numeric_limits<std::int64_t>::min(),
            std::numeric_limits<std::int64_t>::max()};
        if (pick(3) == 0)
            return kEdges[pick(std::size(kEdges))];
        return std::int64_t(rng_()) >> pick(64);
    }

    int i32()
    {
        static const int kEdges[] = {0, -1, 1, 3, 5,
                                     std::numeric_limits<int>::min(),
                                     std::numeric_limits<int>::max()};
        if (pick(2) == 0)
            return kEdges[pick(std::size(kEdges))];
        return int(std::int32_t(std::uint32_t(rng_())));
    }

    /** Up to @p max_len bytes: printable text, '%' signs and NULs. */
    std::string text(std::size_t max_len)
    {
        std::string s(pick(max_len + 1), ' ');
        for (char &c : s) {
            const std::size_t k = pick(40);
            c = k == 0 ? '\0' : k == 1 ? '%' : char(' ' + pick(95));
        }
        return s;
    }

    bool coin() { return pick(2) == 0; }

    std::size_t pick(std::size_t n)
    {
        return std::size_t(rng_() % n);
    }

    void causes(std::array<std::uint64_t, kDropCauseCount> &causes)
    {
        const bool extended = coin();
        for (int c = 0; c < kDropCauseCount; ++c)
            causes[c] = c >= kDropCauseLegacyCount && !extended ? 0 : u64();
    }

    /** A transition of surface 0..surfaces-1 (any index if none). */
    Transition transition(std::size_t surfaces)
    {
        Transition t;
        t.at = i64();
        t.surface = surfaces > 0 ? int(pick(surfaces)) : i32();
        t.backoff = i32();
        t.required_streak = i32();
        if (coin()) {
            t.source = Transition::Source::kGovernor;
            t.from = int(pick(7)) - 1; // out-of-ladder rungs too
            t.to = int(pick(7)) - 1;
            t.sensors = {real(), real(), real(), coin()};
            return t;
        }
        const bool degrade = coin();
        t.from = degrade ? Transition::kDvsync : Transition::kVsync;
        t.to = degrade ? Transition::kVsync : Transition::kDvsync;
        if (degrade) {
            t.reason = Transition::Reason(pick(5));
            t.count = i64();
            if (t.reason == Transition::Reason::kForced)
                t.detail = text(24);
        }
        return t;
    }

    RunReport report()
    {
        RunReport r;
        r.label = text(32);
        r.scenario = text(24);
        r.config.mode = text(12);
        r.config.device = text(16);
        r.config.refresh_hz = real();
        r.config.buffers = i32();
        r.config.prerender_limit = i32();
        r.config.seed = u64();
        r.fdps = real();
        r.fd_percent = real();
        r.fps = real();
        r.drops = u64();
        r.frames_due = i64();
        r.presents = u64();
        r.direct = u64();
        r.stuffed = u64();
        r.latency_mean_ms = real();
        r.latency_p50_ms = real();
        r.latency_p95_ms = real();
        r.latency_p99_ms = real();
        r.latency_max_ms = real();
        r.stutters = u64();
        r.deadline_misses = u64();
        r.activity.wall_time = i64();
        r.activity.pipeline_busy = i64();
        r.activity.frames_produced = u64();
        r.activity.predicted_frames = u64();
        r.activity.dvsync_on = coin();
        r.energy_mj = real();
        r.invariant_violations = u64();
        r.faults_injected = u64();
        r.degradations = u64();
        r.repromotions = u64();
        r.dtv_resyncs = u64();
        causes(r.drop_causes);
        r.drops_injected = u64();
        r.thermal_on = coin();
        r.peak_temp_c = real();
        r.final_temp_c = real();
        r.thermal_trips = u64();
        r.dvfs_level_end = i32();
        r.gpu_energy_mj = real();
        r.governor_demotions = u64();
        r.governor_promotions = u64();
        r.governor_rung_end = i32();
        if (coin()) {
            r.budget_mb = real();
            r.budget_used_mb = real();
            r.rearbitrations = u64();
            r.surfaces.resize(1 + pick(3));
            for (SurfaceReport &s : r.surfaces) {
                s.name = text(16);
                s.mode = text(8);
                s.buffers = i32();
                s.extra_buffers = i32();
                s.buffer_mb = real();
                s.fdps = real();
                s.fd_percent = real();
                s.drops = u64();
                s.frames_due = i64();
                s.presents = u64();
                s.latency_p95_ms = real();
                s.invariant_violations = u64();
                s.degradations = u64();
                s.repromotions = u64();
                causes(s.drop_causes);
                s.drops_injected = u64();
            }
        }
        r.timeline.resize(pick(4));
        for (Transition &t : r.timeline)
            t = transition(r.surfaces.size());
        if (coin())
            r.error = text(64);
        r.repeats = i32();
        return r;
    }

  private:
    std::mt19937_64 rng_;
};

} // namespace

TEST(RunReportString, MatchesTheSnprintfFormatterOnRandomReports)
{
    ReportFuzzer fuzz(20250303);
    for (int i = 0; i < 2000; ++i) {
        const RunReport r = fuzz.report();
        ASSERT_EQ(r.debug_string(), snprintf_debug_string(r))
            << "report " << i;
        ASSERT_EQ(r.fingerprint(), fnv1a(r.debug_string())) << "report " << i;
    }
}

TEST(RunReportString, DefaultAndRealisticReportsMatchTheOracle)
{
    RunReport r;
    EXPECT_EQ(r.debug_string(), snprintf_debug_string(r));
    EXPECT_EQ(r.fingerprint(), fnv1a(r.debug_string()));
    r.label = "paper-fleet/0042";
    r.config.mode = "D-VSync";
    r.config.refresh_hz = 120.0;
    r.fdps = 0.36666666666666664;
    r.latency_p95_ms = 16.666666666666668;
    r.drops = 11;
    r.drop_causes[std::size_t(DropCause::kThermalThrottle)] = 3;
    r.thermal_on = true;
    r.peak_temp_c = 41.25;
    Transition stall;
    stall.at = 100;
    stall.from = Transition::kDvsync;
    stall.reason = Transition::Reason::kDisplayStall;
    stall.count = 150'000'000;
    stall.required_streak = 32;
    Transition back = stall;
    back.at = 200;
    std::swap(back.from, back.to);
    back.reason = Transition::Reason::kNone;
    Transition governor;
    governor.at = 200;
    governor.source = Transition::Source::kGovernor;
    governor.to = 1;
    governor.sensors = {44.25, 1234.5, 2.0, true};
    r.timeline = {stall, back, governor};
    EXPECT_EQ(r.debug_string(), snprintf_debug_string(r));
    EXPECT_EQ(r.fingerprint(), fnv1a(r.debug_string()));
}

TEST(RunReportString, LongLabelKeepsEveryLaterField)
{
    // The snprintf formatter wrote into a 1024-byte buffer, so a long
    // label cut off everything after it and two reports differing only
    // there printed (and fingerprinted) the same.
    RunReport r;
    r.label = std::string(2000, 'L');
    r.drops = 7;
    r.drop_causes[std::size_t(DropCause::kSlowRender)] = 7;
    r.error = "replay diverged";
    const std::string s = r.debug_string();
    EXPECT_EQ(s.rfind("label=" + r.label + " scenario=", 0), 0u);
    EXPECT_NE(s.find(" drops=7 "), std::string::npos);
    EXPECT_NE(s.find(" repeats=1 violations=0 "), std::string::npos);
    EXPECT_NE(s.find(" error=replay diverged causes=["), std::string::npos);
    EXPECT_NE(s.find(" slow-render=7 "), std::string::npos);

    EXPECT_EQ(r.fingerprint(), fnv1a(s));

    RunReport other = r;
    other.drops = 8;
    EXPECT_NE(other.debug_string(), s);
    EXPECT_NE(other.fingerprint(), r.fingerprint());
}
