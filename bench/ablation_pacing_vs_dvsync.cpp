/**
 * @file
 * Ablation: three architectures head-to-head — conventional VSync,
 * Swappy-style auto swap-interval pacing, and D-VSync.
 *
 * The paper's positioning (and the related-work critique of sub-60-FPS
 * pacing: "50 FPS in smartphones without G-Sync implies 10 janks on a
 * 60 Hz screen") in one table: pacing buys a steady cadence by conceding
 * refreshes; D-VSync delivers the full refresh rate with fewer drops
 * than either.
 */

#include <cstdio>

#include "bench_common.h"
#include "metrics/reporter.h"
#include "workload/distributions.h"

using namespace dvs;
using namespace dvs::bench;
using namespace dvs::time_literals;

namespace {

struct Row {
    const char *workload;
    double heavy_rate;
    double heavy_max;
    double short_mean;
};

void
run_row(const Row &row, TableReporter &table)
{
    ProfileSpec spec;
    spec.name = row.workload;
    spec.heavy_per_sec = row.heavy_rate;
    spec.heavy_min_periods = 1.2;
    spec.heavy_max_periods = row.heavy_max;
    spec.heavy_alpha = 1.5;
    spec.short_mean_periods = row.short_mean;
    auto cost = make_cost_model(spec, 60.0, 123);
    Scenario sc = make_swipe_scenario(row.workload, 20, 600_ms, cost, 0.8);

    for (RenderMode mode :
         {RenderMode::kVsync, RenderMode::kPaced, RenderMode::kDvsync}) {
        SystemConfig cfg;
        cfg.device = pixel5();
        cfg.mode = mode;
        const RunReport r = run_system(cfg, sc);
        table.add_row({row.workload, to_string(mode),
                       TableReporter::num(double(r.presents) /
                                          to_seconds(sc.active_duration()),
                                          1),
                       TableReporter::num(r.fdps),
                       std::to_string(r.stutters),
                       TableReporter::num(r.latency_mean_ms, 1)});
    }
}

} // namespace

int
main()
{
    print_section("Ablation: VSync vs swap-interval pacing vs D-VSync "
                  "(Pixel 5, 60 Hz)");

    TableReporter table({"workload", "architecture", "FPS", "FDPS",
                         "stutters", "latency ms"});
    const Row rows[] = {
        {"sporadic key frames", 3.0, 2.8, 0.45},
        {"frequent key frames", 8.0, 2.5, 0.45},
        {"sustained heavy bulk", 2.0, 2.2, 0.85},
    };
    for (const Row &row : rows)
        run_row(row, table);
    table.print();

    std::printf(
        "\nexpected shape: swap-interval pacing degrades to a lower "
        "steady rate under load\n(~30-40 FPS) whose conceded refreshes "
        "all count as janks by the industrial FDPS\nmetric — the "
        "related-work critique the paper cites; D-VSync keeps ~60 FPS "
        "with the\nfewest drops and stutters on every workload.\n");
    return 0;
}
