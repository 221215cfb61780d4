/**
 * @file
 * Fleet campaign (`BENCH_fleet.json`): seeded multi-surface sessions
 * swept over surface count x memory budget x arbiter policy through the
 * parallel experiment harness.
 *
 * Every session assembles a composed-display RenderSystem from a fixed
 * surface roster (heavy D-VSync app, light status bar, oblivious overlay, heavy
 * game) and runs it under one device-wide extra-buffer budget (§6.4)
 * with the cross-surface invariant monitor on. The sweep compares the
 * weighted arbiter against the naive equal-split baseline at every
 * (count, budget) cell.
 *
 * Acceptance bar, checked on exit:
 *  - zero invariant violations and zero failed runs across the fleet;
 *  - under the constrained budgets (0 < budget <= 32 MB) the weighted
 *    arbiter's summed drops are strictly below equal-split's — the
 *    arbiter must demonstrably buy frames with the same memory.
 *
 * Usage: fleet_campaign [--seeds=N] [--jobs=N] [--out=PATH] [--golden]
 *                       [--record=PATH]
 *   --seeds=N    seeds per (count, budget, policy) cell (default 10;
 *                the default grid is 3 counts x 4 budgets x 2 policies
 *                x 10 seeds = 240 sessions)
 *   --out=PATH   where to write the JSON record (default
 *                BENCH_fleet.json; "-" suppresses the file)
 *   --golden     deterministic single-seed replay dump for the golden
 *                check (per-session reports, no JSON, no timing)
 *   --record=PATH  record one canonical 4-surface session (full roster,
 *                weighted arbiter, 32 MB budget, seed 1) as a replayable
 *                .dvst capture at PATH, reload and replay-verify it, and
 *                exit without running the sweep
 *
 * Exits nonzero when the acceptance bar fails.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/logging.h"
#include "core/render_system.h"
#include "trace/session_recorder.h"
#include "workload/distributions.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::bench;
using namespace dvs::time_literals;

namespace {

Scenario
light_scenario(const std::string &name, Time duration)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc(name);
    sc.animate(duration, cost);
    return sc;
}

Scenario
heavy_scenario(const std::string &name, std::uint64_t seed, Time duration)
{
    // Power-law costs whose key frames overrun the 60 Hz period:
    // pre-render depth (banked idle time) absorbs them, so drops respond
    // to the arbiter's buffer grants.
    PowerLawParams p;
    p.short_mean_ms = 8.0;
    p.heavy_prob = 0.22;
    p.heavy_min_ms = 14.0;
    p.heavy_max_ms = 32.0;
    auto cost = std::make_shared<PowerLawCostModel>(p, seed);
    Scenario sc(name);
    sc.animate(duration, cost);
    return sc;
}

/**
 * The fleet roster, in launch order. Sessions with fewer surfaces take a
 * prefix, so every count includes the heavy app that profits most from
 * arbitration. Staggered durations make surfaces exit mid-session and
 * exercise online re-arbitration.
 */
std::vector<SurfaceDesc>
roster(int count, std::uint64_t seed)
{
    std::vector<SurfaceDesc> descs = {
        SurfaceDesc()
            .with_name("app")
            .with_scenario(heavy_scenario("app", seed * 1000 + 1, 900_ms))
            .with_buffer_mb(12.0)
            .with_weight(3.0),
        SurfaceDesc()
            .with_name("status_bar")
            .with_scenario(light_scenario("status_bar", 800_ms))
            .with_buffer_mb(10.0)
            .with_weight(1.0),
        SurfaceDesc()
            .with_name("overlay")
            .with_scenario(light_scenario("overlay", 600_ms))
            .with_dvsync_aware(false)
            .with_buffer_mb(8.0),
        SurfaceDesc()
            .with_name("game")
            .with_scenario(heavy_scenario("game", seed * 1000 + 4, 900_ms))
            .with_buffer_mb(12.0)
            .with_weight(4.0),
    };
    descs.resize(std::size_t(count));
    return descs;
}

struct SurfaceAgg {
    std::string name;
    std::uint64_t drops = 0;
    std::uint64_t due = 0;
    double fdps_sum = 0.0; ///< summed per-run FDPS; mean = /runs
};

struct Cell {
    int count = 0;
    double budget_mb = 0.0;
    ArbiterPolicy policy = ArbiterPolicy::kWeighted;
    int runs = 0;
    std::uint64_t violations = 0;
    std::uint64_t drops = 0;
    std::uint64_t presents = 0;
    std::uint64_t degradations = 0;
    std::uint64_t rearbitrations = 0;
    double peak_used_mb = 0.0;
    double fdps_sum = 0.0; ///< summed aggregate FDPS; mean = /runs
    int errors = 0;
    std::vector<SurfaceAgg> surfaces;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    int seeds = args.int_flag("seeds", 10);
    bool golden = args.bool_flag("golden");
    std::string out_path = args.string_flag("out", "BENCH_fleet.json");
    const int jobs = args.jobs();
    const std::string record_path = args.string_flag("record");
    args.finish();
    if (seeds < 1)
        fatal("--seeds must be >= 1");
    if (golden) {
        seeds = 1;
        out_path = "-";
    }

    if (!record_path.empty()) {
        RenderSystem sys(SystemConfig()
                             .with_seed(1)
                             .with_budget_mb(32.0)
                             .with_policy(ArbiterPolicy::kWeighted),
                         roster(4, 1));
        sys.run();
        std::string error;
        if (!SessionRecorder::capture_verified(
                sys, "fleet/4surf/32mb/weighted/seed1", record_path, &error))
            fatal("capture failed: %s", error.c_str());
        std::fprintf(stderr, "capture written to %s\n",
                     record_path.c_str());
        return 0;
    }

    const int counts[] = {2, 3, 4};
    const double budgets[] = {0.0, 16.0, 32.0, 64.0};
    const ArbiterPolicy policies[] = {ArbiterPolicy::kWeighted,
                                      ArbiterPolicy::kEqualSplit};

    // The grid, count-major: every (count, budget, policy) cell holds
    // `seeds` sessions. TaskSpecs carry the submission label, so even a
    // session that dies before labeling itself reports under its cell.
    std::vector<ExperimentRunner::TaskSpec> tasks;
    std::vector<Cell> cells;
    for (int count : counts) {
        for (double budget : budgets) {
            for (ArbiterPolicy policy : policies) {
                Cell cell;
                cell.count = count;
                cell.budget_mb = budget;
                cell.policy = policy;
                cells.push_back(cell);
                for (int s = 0; s < seeds; ++s) {
                    const std::uint64_t seed = std::uint64_t(s) + 1;
                    ExperimentRunner::TaskSpec spec;
                    spec.label = std::to_string(count) + "surf/" +
                                 std::to_string(int(budget)) + "mb/" +
                                 to_string(policy) + "/seed" +
                                 std::to_string(seed);
                    spec.run = [count, budget, policy, seed] {
                        return run_experiment(SystemConfig()
                                                  .with_seed(seed)
                                                  .with_budget_mb(budget)
                                                  .with_policy(policy),
                                              roster(count, seed));
                    };
                    tasks.push_back(std::move(spec));
                }
            }
        }
    }

    // Streaming fold into the per-cell aggregates; reports are dropped
    // on delivery.
    std::uint64_t total_violations = 0;
    int total_errors = 0;
    std::uint64_t cause_totals[kDropCauseCount] = {};
    std::uint64_t injected_drops = 0;
    std::uint64_t total_drops = 0;
    CallbackSink sink([&](std::size_t idx, RunReport &&r) {
        for (int c = 0; c < kDropCauseCount; ++c)
            cause_totals[c] += r.drop_causes[c];
        injected_drops += r.drops_injected;
        total_drops += r.drops;
        Cell &cell = cells[idx / std::size_t(seeds)];
        ++cell.runs;
        cell.violations += r.invariant_violations;
        cell.drops += r.drops;
        cell.presents += r.presents;
        cell.degradations += r.degradations;
        cell.rearbitrations += r.rearbitrations;
        cell.peak_used_mb = std::max(cell.peak_used_mb, r.budget_used_mb);
        cell.fdps_sum += r.fdps;
        if (cell.surfaces.size() < r.surfaces.size())
            cell.surfaces.resize(r.surfaces.size());
        for (std::size_t j = 0; j < r.surfaces.size(); ++j) {
            SurfaceAgg &agg = cell.surfaces[j];
            agg.name = r.surfaces[j].name;
            agg.drops += r.surfaces[j].drops;
            agg.due += r.surfaces[j].frames_due;
            agg.fdps_sum += r.surfaces[j].fdps;
        }
        if (!r.error.empty()) {
            ++cell.errors;
            ++total_errors;
            std::printf("ERROR %s: %s\n", r.label.c_str(), r.error.c_str());
        }
        if (r.invariant_violations > 0)
            std::printf("VIOLATIONS %s: %llu\n", r.label.c_str(),
                        (unsigned long long)r.invariant_violations);
        total_violations += r.invariant_violations;
        if (golden)
            std::printf("%s\n", r.debug_string().c_str());
    });

    const ExperimentRunner runner(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    runner.run_tasks_stream(tasks, sink);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::printf("fleet campaign: %d seeds x %zu counts x %zu budgets x "
                "%zu policies (%zu sessions)\n\n",
                seeds, std::size(counts), std::size(budgets),
                std::size(policies), tasks.size());
    std::printf("%5s %7s %-10s %5s %10s %7s %9s %8s %7s %6s\n", "surfs",
                "budget", "policy", "runs", "violations", "drops",
                "presents", "rearbs", "peakMB", "errs");
    for (const Cell &c : cells) {
        std::printf("%5d %7.0f %-10s %5d %10llu %7llu %9llu %8llu %7.0f "
                    "%6d\n",
                    c.count, c.budget_mb, to_string(c.policy), c.runs,
                    (unsigned long long)c.violations,
                    (unsigned long long)c.drops,
                    (unsigned long long)c.presents,
                    (unsigned long long)c.rearbitrations, c.peak_used_mb,
                    c.errors);
    }

    // The acceptance comparison: at every constrained budget, how many
    // frames does arbitration buy over equal division of the same
    // memory?
    std::uint64_t constrained_weighted = 0, constrained_equal = 0;
    std::printf("\nweighted vs equal-split (same count, budget, seeds):\n");
    for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
        const Cell &w = cells[i];
        const Cell &e = cells[i + 1];
        const bool constrained = w.budget_mb > 0.0 && w.budget_mb <= 32.0;
        if (constrained) {
            constrained_weighted += w.drops;
            constrained_equal += e.drops;
        }
        std::printf("  %d surfaces, %3.0f MB: %llu vs %llu drops%s\n",
                    w.count, w.budget_mb, (unsigned long long)w.drops,
                    (unsigned long long)e.drops,
                    constrained ? "  [constrained]" : "");
    }
    std::printf("constrained total: weighted %llu, equal-split %llu\n",
                (unsigned long long)constrained_weighted,
                (unsigned long long)constrained_equal);

    // Root-cause roll-up: every drop in the fleet must carry a cause.
    std::printf("drop causes (all sessions):");
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (cause_totals[c] > 0)
            std::printf(" %s=%llu", to_string(DropCause(c)),
                        (unsigned long long)cause_totals[c]);
    }
    std::printf(" | injected %llu of %llu drops\n",
                (unsigned long long)injected_drops,
                (unsigned long long)total_drops);

    std::printf("total: %llu violations, %d failed runs\n",
                (unsigned long long)total_violations, total_errors);
    if (!golden)
        std::printf("throughput: %zu sessions in %.2f s (%.1f/s, "
                    "jobs=%d)\n",
                    tasks.size(), wall_s, double(tasks.size()) / wall_s,
                    runner.jobs());

    if (out_path != "-") {
        bench::BenchJson record("fleet_campaign");
        record.i64("seeds", seeds);
        record.u64("sessions", tasks.size());
        record.u64("total_violations", total_violations);
        record.i64("failed_runs", total_errors);
        record.u64("constrained_drops_weighted", constrained_weighted);
        record.u64("constrained_drops_equal_split", constrained_equal);
        record.num("wall_seconds", wall_s, 3);
        record.num("throughput_sessions_per_sec",
                   double(tasks.size()) / wall_s, 1);
        record.i64("jobs", runner.jobs());
        std::string cell_json = "[\n";
        char buf[512];
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            std::snprintf(
                buf, sizeof(buf),
                "    {\"surfaces\": %d, \"budget_mb\": %.0f, "
                "\"policy\": \"%s\", \"runs\": %d, \"violations\": %llu, "
                "\"drops\": %llu, \"presents\": %llu, "
                "\"degradations\": %llu, \"rearbitrations\": %llu, "
                "\"peak_used_mb\": %.0f, \"fdps\": %.4f, \"errors\": %d, "
                "\"per_surface\": [",
                c.count, c.budget_mb, to_string(c.policy), c.runs,
                (unsigned long long)c.violations,
                (unsigned long long)c.drops, (unsigned long long)c.presents,
                (unsigned long long)c.degradations,
                (unsigned long long)c.rearbitrations, c.peak_used_mb,
                c.fdps_sum / double(c.runs), c.errors);
            cell_json += buf;
            for (std::size_t j = 0; j < c.surfaces.size(); ++j) {
                const SurfaceAgg &agg = c.surfaces[j];
                std::snprintf(buf, sizeof(buf),
                              "{\"name\": \"%s\", \"drops\": %llu, "
                              "\"due\": %llu, \"fdps\": %.4f}%s",
                              agg.name.c_str(),
                              (unsigned long long)agg.drops,
                              (unsigned long long)agg.due,
                              agg.fdps_sum / double(c.runs),
                              j + 1 < c.surfaces.size() ? ", " : "");
                cell_json += buf;
            }
            cell_json += "]}";
            cell_json += i + 1 < cells.size() ? ",\n" : "\n";
        }
        cell_json += "  ]";
        record.raw("cells", cell_json);
        record.write(out_path);
        std::printf("fleet record written to %s\n", out_path.c_str());
    }

    bool failed = total_violations > 0 || total_errors > 0;
    if (cause_totals[int(DropCause::kUnknown)] > 0) {
        std::printf("UNATTRIBUTED DROPS: %llu frames carry no cause\n",
                    (unsigned long long)
                        cause_totals[int(DropCause::kUnknown)]);
        failed = true;
    }
    if (constrained_weighted >= constrained_equal) {
        std::printf("ARBITER DID NOT BEAT EQUAL-SPLIT (constrained "
                    "budgets)\n");
        failed = true;
    }
    if (failed) {
        std::printf("FLEET CAMPAIGN FAILED\n");
        return 1;
    }
    return 0;
}
