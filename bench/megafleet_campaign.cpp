/**
 * @file
 * Megafleet campaign (`BENCH_megafleet.json`): one million simulated
 * user sessions streamed through the sink/aggregator pipeline.
 *
 * The point of this bench is the *shape* of the computation, not any
 * single number: a weighted device-tier x app-class population
 * (DevicePopulation) materializes each (config, scenario, seed) lazily,
 * the harness streams every finished RunReport into a
 * CampaignAggregator, and nothing else is ever retained. Peak RSS is
 * measured and printed — it must stay flat whether the campaign runs
 * 10k or 1M sessions, which is the property that makes fleet-scale
 * sweeps possible at all.
 *
 * With --observatory the same stream also feeds an Observatory
 * (src/obs/observatory.h): per-cohort SLO burn-rate monitors plus a
 * bounded top-K anomaly ranking. --specimens=DIR then re-simulates the
 * final top-K offenders and writes verified bit-exact .dvst captures
 * plus a manifest — the tail of a million-session campaign, in
 * replayable form.
 *
 * Usage: megafleet_campaign [--sessions=N] [--jobs=N] [--seed=N]
 *                           [--out=PATH] [--rss-limit-mb=N] [--golden]
 *                           [--observatory] [--specimens=DIR]
 *   --sessions=N     campaign size (default 1000000)
 *   --seed=N         population seed (default 1)
 *   --observatory    feed the stream to the SLO/anomaly observatory
 *                    too and print its summary after the aggregator's
 *   --specimens=DIR  after the run, re-simulate the top-K offenders
 *                    into DIR as verified .dvst specimens +
 *                    manifest.json (needs --observatory)
 *   --out=PATH       JSON bench record (default BENCH_megafleet.json;
 *                    "-" suppresses the file)
 *   --rss-limit-mb=N fail if peak RSS exceeds N MB (default 1024)
 *   --golden         deterministic 240-session replay for the golden
 *                    check (summary only: no timing, no RSS)
 *
 * Exits nonzero when any session fails, violates an invariant, drops a
 * frame without an attributed cause, exceeds the RSS bound, or fails
 * specimen capture/verification.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "bench_common.h"
#include "harness/aggregator.h"
#include "obs/observatory.h"
#include "sim/logging.h"
#include "workload/device_population.h"

using namespace dvs;
using namespace dvs::bench;

namespace {

/** Peak resident set size of this process, in MB. */
double
peak_rss_mb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    // Linux reports ru_maxrss in KB (macOS in bytes; this repo's CI is
    // Linux, and the value is informational elsewhere).
    return double(usage.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const bool golden = args.bool_flag("golden");
    const std::uint64_t sessions_flag = args.u64_flag("sessions", 1'000'000);
    const std::uint64_t sessions = golden ? 240 : sessions_flag;
    const std::uint64_t seed = args.u64_flag("seed", 1);
    const std::string out_flag =
        args.string_flag("out", "BENCH_megafleet.json");
    const std::string out_path = golden ? "-" : out_flag;
    const double rss_limit_mb = args.double_flag("rss-limit-mb", 1024.0);
    const int jobs = args.jobs();
    const bool observatory_on = args.bool_flag("observatory");
    const std::string specimens_dir = args.string_flag("specimens");
    args.finish();

    if (!specimens_dir.empty() && !observatory_on)
        fatal("--specimens needs --observatory");
    if (sessions < 1)
        fatal("--sessions must be >= 1");

    const DevicePopulation fleet = DevicePopulation::paper_fleet(seed);

    // The aggregator keys cohorts by report label, which the population
    // sets to "<tier>/<mode>" — six cohorts, each with its twin.
    CampaignAggregator agg;

    // The observatory rides the same stream; its verdicts carry session
    // indices so any offender can be re-materialized later.
    std::optional<Observatory> obs;
    if (observatory_on)
        obs.emplace();

    const ExperimentRunner runner(jobs);
    CallbackSink sink([&](std::size_t i, RunReport &&r) {
        if (obs)
            obs->observe(i, r);
        agg.consume(i, std::move(r));
    });

    const auto t0 = std::chrono::steady_clock::now();
    runner.run_stream(
        sessions, [&](std::size_t i) { return fleet.experiment(i); }, sink);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::fputs(agg.summary().c_str(), stdout);
    if (obs)
        std::fputs(obs->summary().c_str(), stdout);

    if (obs && !specimens_dir.empty()) {
        std::string error;
        if (!capture_specimens(
                *obs,
                [&](std::uint64_t session) {
                    return fleet.experiment(session);
                },
                specimens_dir, &error))
            fatal("specimen capture failed: %s", error.c_str());
        std::fprintf(stderr, "observatory: %zu specimens written to %s\n",
                     obs->top().size(), specimens_dir.c_str());
    }

    const double rss_mb = peak_rss_mb();
    if (!golden) {
        std::printf("\nthroughput: %llu sessions in %.2f s (%.0f/s, "
                    "jobs=%d)\n",
                    (unsigned long long)sessions, wall_s,
                    wall_s > 0 ? double(sessions) / wall_s : 0.0,
                    runner.jobs());
        std::printf("peak RSS: %.1f MB (limit %.0f MB)\n", rss_mb,
                    rss_limit_mb);
    }

    if (out_path != "-") {
        BenchJson record("megafleet_campaign");
        record.u64("sessions", agg.sessions());
        record.u64("cohorts", agg.cohorts().size());
        record.u64("errors", agg.errors());
        record.u64("violations", agg.invariant_violations());
        record.boolean("observatory", observatory_on);
        record.num("wall_s", wall_s, 3);
        record.num("sessions_per_sec",
                   wall_s > 0 ? double(sessions) / wall_s : 0.0, 1);
        record.num("peak_rss_mb", rss_mb, 1);
        record.i64("jobs", runner.jobs());
        record.write(out_path);
        std::fprintf(stderr, "record written to %s\n", out_path.c_str());
    }

    // Acceptance: a fleet campaign must complete clean — failed
    // sessions, invariant violations, unattributed drops, or an
    // unbounded memory footprint all fail the bench.
    int rc = 0;
    if (agg.errors() > 0) {
        std::printf("FAIL: %llu failed sessions\n",
                    (unsigned long long)agg.errors());
        rc = 1;
    }
    if (agg.invariant_violations() > 0) {
        std::printf("FAIL: %llu invariant violations\n",
                    (unsigned long long)agg.invariant_violations());
        rc = 1;
    }
    if (agg.unattributed_drops() > 0) {
        std::printf("FAIL: %llu drops without an attributed cause\n",
                    (unsigned long long)agg.unattributed_drops());
        rc = 1;
    }
    if (rss_limit_mb > 0 && rss_mb > rss_limit_mb) {
        std::printf("FAIL: peak RSS %.1f MB exceeds the %.0f MB bound\n",
                    rss_mb, rss_limit_mb);
        rc = 1;
    }
    return rc;
}
