/**
 * @file
 * Figure 13: D-VSync FDPS reduction for OS use cases with the GLES
 * backend — Mate 40 Pro (90 Hz, 9 cases) and Mate 60 Pro (120 Hz, 20
 * cases).
 *
 * Paper: Mate 40 Pro 3.17 -> 0.97 (-69.4%); Mate 60 Pro 7.51 -> 2.52
 * (-66.4%).
 */

#include <cstdio>

#include "bench_common.h"
#include "metrics/reporter.h"
#include "workload/os_case_profiles.h"

using namespace dvs;
using namespace dvs::bench;

namespace {

void
run_config(OsConfig config, const DeviceConfig &device,
           double paper_avg_vs, double paper_avg_dv)
{
    std::printf("\n-- %s --\n", to_string(config));

    SwipeSetup setup = SwipeSetup::os_cases();
    setup.repeats = 3;

    TableReporter table(
        {"case", "paper", "VSync 4", "D-VSync 4", "reduction"});
    double sum_vs = 0, sum_dv = 0;
    int n = 0;
    for (const OsCase *c : cases_with_drops(config)) {
        const ProfileSpec raw = make_os_case_spec(*c, config);
        const std::uint64_t seed =
            std::hash<std::string>{}(raw.name) ^ std::uint64_t(config);
        const ProfileSpec spec =
            calibrate_baseline(raw, device, 4, setup, seed);
        const RunReport vs = run_profile(spec, device, RenderMode::kVsync,
                                         4, setup, seed);
        const RunReport dv = run_profile(spec, device, RenderMode::kDvsync,
                                         4, setup, seed);
        sum_vs += vs.fdps;
        sum_dv += dv.fdps;
        ++n;
        table.add_row({c->abbrev,
                       TableReporter::num(case_fdps(*c, config)),
                       TableReporter::num(vs.fdps),
                       TableReporter::num(dv.fdps),
                       TableReporter::num(
                           reduction_percent(vs.fdps, dv.fdps), 1) + "%"});
    }
    table.print();
    std::printf("paper:    avg %.2f -> %.2f (-%.1f%%)\n", paper_avg_vs,
                paper_avg_dv,
                reduction_percent(paper_avg_vs, paper_avg_dv));
    std::printf("measured: avg %.2f -> %.2f (-%.1f%%)\n", sum_vs / n,
                sum_dv / n, reduction_percent(sum_vs, sum_dv));
}

} // namespace

int
main()
{
    print_section("Figure 13: FDPS for OS use cases with GLES, "
                  "VSync 4 bufs vs D-VSync 4 bufs");
    run_config(OsConfig::kMate40Gles, mate40_pro(), 3.17, 0.97);
    run_config(OsConfig::kMate60Gles, mate60_pro(), 7.51, 2.52);
    return 0;
}
