/**
 * @file
 * §6.6 — Case study 2: the Chromium browser compositor.
 *
 * Chromium's real-time compositor rasterizes page layers into tiles
 * asynchronously and composites them synchronously with VSync — a
 * custom-rendering app. The decoupled scheme pre-renders compositor
 * frames during the fling animations after a swipe, using the
 * decoupling-aware APIs.
 *
 * Paper: across the Sina, Weather, and AI Life pages, the average FDPS
 * during fling animations drops from 1.47 to 0.08 (-94.3%).
 */

#include <cstdio>

#include "bench_common.h"
#include "metrics/reporter.h"
#include "workload/distributions.h"

using namespace dvs;
using namespace dvs::bench;
using namespace dvs::time_literals;

namespace {

struct Page {
    const char *name;
    double tile_raster_rate; ///< heavy tile rasterizations per second
    double tile_max_periods; ///< worst rasterization burst
};

/**
 * A fling over a page: compositing frames are cheap, but scrolling into
 * unrasterized content forces synchronous tile work — the key frames.
 */
Scenario
fling_scenario(const Page &page, std::uint64_t seed)
{
    ProfileSpec spec;
    spec.name = page.name;
    spec.heavy_per_sec = page.tile_raster_rate;
    spec.heavy_min_periods = 1.1;
    spec.heavy_max_periods = page.tile_max_periods;
    spec.heavy_alpha = 1.4;
    spec.heavy_burst = 0.3;
    spec.short_mean_periods = 0.35; // compositing is cheap
    spec.ui_fraction = 0.3;         // main-thread scroll offset updates

    auto cost = make_cost_model(spec, 60.0, seed);
    // Swipes with fling animations, like the app methodology.
    return make_swipe_scenario(page.name, 30, 600_ms, cost, 0.75);
}

} // namespace

int
main()
{
    print_section("Section 6.6: Chromium compositor fling animations, "
                  "VSync vs decoupling-aware D-VSync");

    const Page pages[] = {
        {"Sina", 3.2, 3.2},
        {"Weather", 1.8, 2.6},
        {"AI Life", 2.4, 2.8},
    };

    TableReporter table(
        {"page", "VSync FDPS", "D-VSync FDPS", "reduction"});
    double sum_vs = 0, sum_dv = 0;
    for (const Page &page : pages) {
        const std::uint64_t seed = std::hash<std::string>{}(page.name);
        const Scenario sc = fling_scenario(page, seed);

        SystemConfig vs_cfg;
        vs_cfg.device = pixel5();
        vs_cfg.mode = RenderMode::kVsync;
        vs_cfg.seed = seed;
        const RunReport vs = run_system(vs_cfg, sc);

        SystemConfig dv_cfg = vs_cfg;
        dv_cfg.mode = RenderMode::kDvsync;
        dv_cfg.buffers = 5; // compositor configures its own limit
        const RunReport dv = run_system(dv_cfg, sc);

        sum_vs += vs.fdps;
        sum_dv += dv.fdps;
        table.add_row({page.name, TableReporter::num(vs.fdps),
                       TableReporter::num(dv.fdps),
                       TableReporter::num(
                           reduction_percent(vs.fdps, dv.fdps), 1) + "%"});
    }
    table.add_row({"AVERAGE", TableReporter::num(sum_vs / 3),
                   TableReporter::num(sum_dv / 3),
                   TableReporter::num(
                       reduction_percent(sum_vs, sum_dv), 1) + "%"});
    table.print();

    std::printf("\npaper:    avg FDPS 1.47 -> 0.08 (-94.3%%) during "
                "flinging animations\n");
    std::printf("measured: avg FDPS %.2f -> %.2f (-%.1f%%)\n", sum_vs / 3,
                sum_dv / 3, reduction_percent(sum_vs, sum_dv));
    return 0;
}
