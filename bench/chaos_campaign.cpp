/**
 * @file
 * Chaos campaign (`BENCH_chaos.json`): N seeds x fault-mix grid x both
 * architectures through the parallel experiment harness.
 *
 * Every point runs the mixed chaos scenario (animation, idle, realtime,
 * animation) under a deterministic FaultPlan generated from its seed,
 * with the invariant monitor on and the degradation watchdog armed. The
 * campaign's acceptance bar: zero invariant violations and zero aborted
 * runs across the whole grid — faults may cost frames, never
 * correctness. Any failure replays byte-for-byte from its (seed, mix)
 * pair.
 *
 * Usage: chaos_campaign [--seeds=N] [--jobs=N] [--out=PATH] [--golden]
 *                       [--forensics=PATH]
 *   --seeds=N    seeds per (mix, mode) cell (default 50)
 *   --out=PATH   where to write the JSON record (default
 *                BENCH_chaos.json; "-" suppresses the file)
 *   --golden     deterministic single-seed replay dump for the golden
 *                check (prints fault plans + per-run reports, no JSON)
 *   --forensics=PATH  additionally run the canonical specimen (the
 *                everything mix, seed 1, D-VSync) with frame forensics
 *                on and write its dump JSON to PATH — feed it to
 *                dvsync_inspect
 *   --record=BASE  record the canonical specimen under both pacing
 *                modes as replayable .dvst captures (BASE.vsync.dvst +
 *                BASE.dvsync.dvst — feed them to trace_campaign), each
 *                reloaded and replay-verified as it is written, and
 *                exit without running the campaign grid
 *   --observatory  tee the stream into the SLO/anomaly observatory
 *                (cohorts = "mix/mode" cells) and print its summary
 *   --top-k=N    observatory offender ranking depth (default 8)
 *   --specimens=DIR  re-simulate the observatory's top-K offenders into
 *                DIR as verified .dvst specimens + manifest.json
 *                (needs --observatory)
 *
 * Exits nonzero when any run violates an invariant, fails, or drops a
 * frame the classifier cannot attribute to a cause.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/fault_plan.h"
#include "obs/observatory.h"
#include "sim/logging.h"
#include "trace/session_recorder.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::bench;
using namespace dvs::time_literals;

namespace {

Scenario
chaos_scenario()
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    Scenario sc("chaos");
    sc.animate(600_ms, cost)
        .idle(100_ms)
        .realtime(200_ms, cost)
        .animate(300_ms, cost);
    return sc;
}

struct Cell {
    std::string mix;
    std::string mode;
    int runs = 0;
    std::uint64_t violations = 0;
    std::uint64_t faults = 0;
    std::uint64_t presents = 0;
    std::uint64_t drops = 0;
    std::uint64_t degradations = 0;
    std::uint64_t repromotions = 0;
    int errors = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    int seeds = args.int_flag("seeds", 50);
    bool golden = args.bool_flag("golden");
    std::string out_path = args.string_flag("out", "BENCH_chaos.json");
    const std::string forensics_path = args.string_flag("forensics");
    const std::string record_base = args.string_flag("record");
    const int jobs = args.jobs();
    const bool observatory_on = args.bool_flag("observatory");
    const int top_k = args.int_flag("top-k", 8);
    const std::string specimens_dir = args.string_flag("specimens");
    args.finish();
    if (!specimens_dir.empty() && !observatory_on)
        fatal("--specimens needs --observatory");
    if (seeds < 1)
        fatal("--seeds must be >= 1");
    if (golden) {
        seeds = 1;
        out_path = "-";
    }

    const Scenario scenario = chaos_scenario();
    const Time horizon = scenario.total_duration();
    const std::vector<FaultMix> mixes = FaultMix::campaign_mixes();
    const RenderMode modes[] = {RenderMode::kVsync, RenderMode::kDvsync};

    if (!record_base.empty()) {
        // Record the canonical specimen (everything mix, seed 1) under
        // each pacing mode as a verbatim .dvst capture.
        for (RenderMode mode : modes) {
            SystemConfig cfg =
                SystemConfig()
                    .with_mode(mode)
                    .with_seed(1)
                    .with_faults(std::make_shared<const FaultPlan>(
                        FaultPlan::generate(1, horizon,
                                            FaultMix::everything())));
            RenderSystem sys(cfg, scenario);
            sys.run();
            const std::string path =
                record_base +
                (mode == RenderMode::kVsync ? ".vsync.dvst"
                                            : ".dvsync.dvst");
            std::string error;
            if (!SessionRecorder::capture_verified(
                    sys,
                    std::string("chaos/everything/seed1/") + to_string(mode),
                    path, &error))
                fatal("capture failed: %s", error.c_str());
            std::fprintf(stderr, "capture written to %s\n", path.c_str());
        }
        return 0;
    }

    // The grid, mix-major: every (mix, mode) cell holds `seeds` runs.
    std::vector<Experiment> points;
    for (const FaultMix &mix : mixes) {
        if (golden) {
            std::fputs(
                FaultPlan::generate(1, horizon, mix).debug_string().c_str(),
                stdout);
        }
        for (RenderMode mode : modes) {
            for (int s = 0; s < seeds; ++s) {
                const std::uint64_t seed = std::uint64_t(s) + 1;
                Experiment point;
                point.scenario = scenario;
                point.config =
                    SystemConfig()
                        .with_mode(mode)
                        .with_seed(seed)
                        .with_faults(std::make_shared<const FaultPlan>(
                            FaultPlan::generate(seed, horizon, mix)));
                point.label = mix.name + "/" + to_string(mode) + "/seed" +
                              std::to_string(seed);
                points.push_back(std::move(point));
            }
        }
    }

    // Streaming fold: every report lands in its (mix, mode) cell and
    // the campaign-wide cause tally on delivery, then is dropped —
    // nothing is retained, whatever --seeds says.
    std::vector<Cell> cells;
    for (const FaultMix &mix : mixes) {
        for (RenderMode mode : modes) {
            Cell cell;
            cell.mix = mix.name;
            cell.mode = to_string(mode);
            cells.push_back(cell);
        }
    }
    std::uint64_t cause_totals[kDropCauseCount] = {};
    std::uint64_t injected_drops = 0;
    std::uint64_t total_drops = 0;
    CallbackSink sink([&](std::size_t idx, RunReport &&r) {
        Cell &cell = cells[idx / std::size_t(seeds)];
        ++cell.runs;
        cell.violations += r.invariant_violations;
        cell.faults += r.faults_injected;
        cell.presents += r.presents;
        cell.drops += r.drops;
        cell.degradations += r.degradations;
        cell.repromotions += r.repromotions;
        for (int c = 0; c < kDropCauseCount; ++c)
            cause_totals[c] += r.drop_causes[c];
        injected_drops += r.drops_injected;
        total_drops += r.drops;
        if (!r.error.empty()) {
            ++cell.errors;
            std::printf("ERROR %s: %s\n", r.label.c_str(),
                        r.error.c_str());
        }
        if (r.invariant_violations > 0) {
            std::printf("VIOLATIONS %s: %llu\n", r.label.c_str(),
                        (unsigned long long)r.invariant_violations);
        }
        if (golden)
            std::printf("%s\n", r.debug_string().c_str());
    });

    // The observatory keys cohorts by (mix, mode) cell — the label
    // minus its "/seedN" tail — so burn rates compare cells, not
    // individual seeds.
    ObservatoryConfig obs_config;
    obs_config.top_k = top_k;
    std::optional<Observatory> obs;
    if (observatory_on)
        obs.emplace(obs_config, [](const RunReport &r) {
            return r.label.substr(0, r.label.rfind('/'));
        });

    const ExperimentRunner runner(jobs);
    if (obs) {
        TeeSink tee({&sink, &*obs});
        runner.run_stream(points, tee);
    } else {
        runner.run_stream(points, sink);
    }

    std::uint64_t total_violations = 0;
    int total_errors = 0;
    for (const Cell &cell : cells) {
        total_violations += cell.violations;
        total_errors += cell.errors;
    }

    std::printf("chaos campaign: %d seeds x %zu mixes x 2 modes "
                "(%zu runs)\n\n",
                seeds, mixes.size(), points.size());
    std::printf("%-11s %-9s %5s %10s %8s %9s %7s %8s %6s\n", "mix", "mode",
                "runs", "violations", "faults", "presents", "drops",
                "degrades", "errs");
    for (const Cell &c : cells) {
        std::printf("%-11s %-9s %5d %10llu %8llu %9llu %7llu %8llu %6d\n",
                    c.mix.c_str(), c.mode.c_str(), c.runs,
                    (unsigned long long)c.violations,
                    (unsigned long long)c.faults,
                    (unsigned long long)c.presents,
                    (unsigned long long)c.drops,
                    (unsigned long long)c.degradations, c.errors);
    }
    // Root-cause roll-up: every drop in the campaign must carry a cause.
    std::printf("\ndrop causes (all runs):");
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (cause_totals[c] > 0)
            std::printf(" %s=%llu", to_string(DropCause(c)),
                        (unsigned long long)cause_totals[c]);
    }
    std::printf(" | injected %llu of %llu drops\n",
                (unsigned long long)injected_drops,
                (unsigned long long)total_drops);

    std::printf("\ntotal: %llu violations, %d failed runs\n",
                (unsigned long long)total_violations, total_errors);

    if (obs) {
        std::fputs(obs->summary().c_str(), stdout);
        if (!specimens_dir.empty()) {
            std::string error;
            if (!capture_specimens(
                    obs.value(),
                    [&](std::uint64_t session) { return points[session]; },
                    specimens_dir, &error))
                fatal("specimen capture failed: %s", error.c_str());
            std::fprintf(stderr,
                         "observatory: %zu specimens written to %s\n",
                         obs->top().size(), specimens_dir.c_str());
        }
    }

    if (!forensics_path.empty()) {
        // The canonical forensics specimen: the everything mix under
        // D-VSync at seed 1, with the metrics sampler on.
        const FaultMix *everything = &mixes.back();
        for (const FaultMix &mix : mixes) {
            if (mix.name == "everything")
                everything = &mix;
        }
        SystemConfig cfg =
            SystemConfig()
                .with_mode(RenderMode::kDvsync)
                .with_seed(1)
                .with_forensics(true)
                .with_faults(std::make_shared<const FaultPlan>(
                    FaultPlan::generate(1, horizon, *everything)));
        // Dense per-refresh series: this specimen exists to be
        // inspected, not to bound overhead.
        cfg.metrics_interval = cfg.device.period();
        RenderSystem sys(cfg, scenario);
        sys.run();
        if (!sys.save_forensics(forensics_path))
            fatal("cannot write forensics dump %s", forensics_path.c_str());
        // stderr: the path is caller-chosen and must not pollute goldens.
        std::fprintf(stderr, "forensics dump written to %s\n",
                     forensics_path.c_str());
    }

    if (out_path != "-") {
        BenchJson record("chaos_campaign");
        record.i64("seeds", seeds);
        record.u64("runs", points.size());
        record.u64("total_violations", total_violations);
        record.i64("failed_runs", total_errors);
        std::string cell_json = "[\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            char line[512];
            std::snprintf(
                line, sizeof(line),
                "    {\"mix\": \"%s\", \"mode\": \"%s\", \"runs\": %d, "
                "\"violations\": %llu, \"faults\": %llu, "
                "\"presents\": %llu, \"drops\": %llu, "
                "\"degradations\": %llu, \"repromotions\": %llu, "
                "\"errors\": %d}%s\n",
                c.mix.c_str(), c.mode.c_str(), c.runs,
                (unsigned long long)c.violations,
                (unsigned long long)c.faults,
                (unsigned long long)c.presents,
                (unsigned long long)c.drops,
                (unsigned long long)c.degradations,
                (unsigned long long)c.repromotions, c.errors,
                i + 1 < cells.size() ? "," : "");
            cell_json += line;
        }
        cell_json += "  ]";
        record.raw("cells", cell_json);
        record.write(out_path);
        std::printf("chaos record written to %s\n", out_path.c_str());
    }

    bool failed = total_violations > 0 || total_errors > 0;
    if (cause_totals[int(DropCause::kUnknown)] > 0) {
        std::printf("UNATTRIBUTED DROPS: %llu frames carry no cause\n",
                    (unsigned long long)
                        cause_totals[int(DropCause::kUnknown)]);
        failed = true;
    }
    if (failed) {
        std::printf("CHAOS CAMPAIGN FAILED\n");
        return 1;
    }
    return 0;
}
