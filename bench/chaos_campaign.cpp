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
 *
 * Exits nonzero when any run violates an invariant, fails, or drops a
 * frame the classifier cannot attribute to a cause.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/fault_plan.h"
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
    CohortStats stats;
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
    args.finish();
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
    // the campaign-wide total on delivery, then is dropped —
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
    CohortStats all;
    CallbackSink sink([&](std::size_t idx, RunReport &&r) {
        cells[idx / std::size_t(seeds)].stats.accumulate(r);
        all.accumulate(r);
        if (!r.error.empty()) {
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

    const ExperimentRunner runner(jobs);
    runner.run_stream(points, sink);

    std::printf("chaos campaign: %d seeds x %zu mixes x 2 modes "
                "(%zu runs)\n\n",
                seeds, mixes.size(), points.size());
    std::printf("%-11s %-9s %5s %10s %8s %9s %7s %8s %6s\n", "mix", "mode",
                "runs", "violations", "faults", "presents", "drops",
                "degrades", "errs");
    for (const Cell &c : cells) {
        const CohortStats &st = c.stats;
        std::printf("%-11s %-9s %5llu %10llu %8llu %9llu %7llu %8llu "
                    "%6llu\n",
                    c.mix.c_str(), c.mode.c_str(),
                    (unsigned long long)st.sessions,
                    (unsigned long long)st.invariant_violations,
                    (unsigned long long)st.faults_injected,
                    (unsigned long long)st.presents,
                    (unsigned long long)st.drops,
                    (unsigned long long)st.degradations,
                    (unsigned long long)st.errors);
    }
    // Root-cause roll-up: every drop in the campaign must carry a cause.
    print_drop_causes(all, "\ndrop causes (all runs)");

    std::printf("\ntotal: %llu violations, %llu failed runs\n",
                (unsigned long long)all.invariant_violations,
                (unsigned long long)all.errors);

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
        record.u64("total_violations", all.invariant_violations);
        record.u64("failed_runs", all.errors);
        std::string cell_json = "[\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            const CohortStats &st = c.stats;
            char line[512];
            std::snprintf(
                line, sizeof(line),
                "    {\"mix\": \"%s\", \"mode\": \"%s\", \"runs\": %llu, "
                "\"violations\": %llu, \"faults\": %llu, "
                "\"presents\": %llu, \"drops\": %llu, "
                "\"degradations\": %llu, \"repromotions\": %llu, "
                "\"errors\": %llu}%s\n",
                c.mix.c_str(), c.mode.c_str(),
                (unsigned long long)st.sessions,
                (unsigned long long)st.invariant_violations,
                (unsigned long long)st.faults_injected,
                (unsigned long long)st.presents,
                (unsigned long long)st.drops,
                (unsigned long long)st.degradations,
                (unsigned long long)st.repromotions,
                (unsigned long long)st.errors,
                i + 1 < cells.size() ? "," : "");
            cell_json += line;
        }
        cell_json += "  ]";
        record.raw("cells", cell_json);
        record.write(out_path);
        std::printf("chaos record written to %s\n", out_path.c_str());
    }

    bool failed = all.invariant_violations > 0 || all.errors > 0;
    if (flag_unattributed(all))
        failed = true;
    if (failed) {
        std::printf("CHAOS CAMPAIGN FAILED\n");
        return 1;
    }
    return 0;
}
