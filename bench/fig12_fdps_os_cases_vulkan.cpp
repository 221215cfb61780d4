/**
 * @file
 * Figure 12: D-VSync FDPS reduction for the common OS use cases with the
 * Vulkan backend on Mate 60 Pro (120 Hz).
 *
 * Paper: the 29 cases with drops average 8.42 FDPS under VSync (4 bufs)
 * and 1.39 under D-VSync (4 bufs) — an 83.5% reduction.
 */

#include <cstdio>

#include "bench_common.h"
#include "metrics/reporter.h"
#include "workload/os_case_profiles.h"

using namespace dvs;
using namespace dvs::bench;

int
main()
{
    print_section("Figure 12: FDPS for OS use cases, Mate 60 Pro "
                  "(120 Hz, Vulkan), VSync 4 bufs vs D-VSync 4 bufs");

    const OsConfig config = OsConfig::kMate60Vk;
    const DeviceConfig device = mate60_pro(Backend::kVulkan);
    SwipeSetup setup = SwipeSetup::os_cases();
    setup.repeats = 3; // paper: averages over five runs

    TableReporter table(
        {"case", "paper", "VSync 4", "D-VSync 4", "reduction"});

    double sum_vs = 0, sum_dv = 0, sum_paper = 0;
    int n = 0;
    for (const OsCase *c : cases_with_drops(config)) {
        const ProfileSpec raw = make_os_case_spec(*c, config);
        const std::uint64_t seed = std::hash<std::string>{}(raw.name);
        const ProfileSpec spec =
            calibrate_baseline(raw, device, 4, setup, seed);
        const RunReport vs = run_profile(spec, device, RenderMode::kVsync,
                                         4, setup, seed);
        const RunReport dv = run_profile(spec, device, RenderMode::kDvsync,
                                         4, setup, seed);
        sum_paper += c->fdps_mate60_vk;
        sum_vs += vs.fdps;
        sum_dv += dv.fdps;
        ++n;
        table.add_row({c->abbrev, TableReporter::num(c->fdps_mate60_vk),
                       TableReporter::num(vs.fdps),
                       TableReporter::num(dv.fdps),
                       TableReporter::num(
                           reduction_percent(vs.fdps, dv.fdps), 1) + "%"});
    }
    table.add_row({"AVERAGE", TableReporter::num(sum_paper / n),
                   TableReporter::num(sum_vs / n),
                   TableReporter::num(sum_dv / n),
                   TableReporter::num(
                       reduction_percent(sum_vs, sum_dv), 1) + "%"});
    table.print();

    std::printf("\npaper:    avg 8.42 -> 1.39 (-83.5%%), %d cases\n", 29);
    std::printf("measured: avg %.2f -> %.2f (-%.1f%%), %d cases\n",
                sum_vs / n, sum_dv / n,
                reduction_percent(sum_vs, sum_dv), n);
    return 0;
}
