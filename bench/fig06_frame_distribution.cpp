/**
 * @file
 * Figure 6: distribution of frames for the 25 apps under baseline VSync —
 * frame drops vs buffer stuffing vs direct composition.
 *
 * The paper's point: because of frequent frame drops, most frames end up
 * waiting inside the buffer queue (buffer stuffing) rather than being
 * composited directly, creating unnecessary latency.
 */

#include <cstdio>

#include "bench_common.h"
#include "metrics/reporter.h"

using namespace dvs;
using namespace dvs::bench;

int
main()
{
    print_section("Figure 6: frame distribution under VSync "
                  "(Google Pixel 5, 60 Hz, 3 buffers)");

    const DeviceConfig device = pixel5();
    SwipeSetup setup;
    setup.swipes = 48;

    TableReporter table(
        {"app", "drop %", "stuffing %", "direct %", "stuffing bar"});

    double sum_drop = 0, sum_stuffed = 0, sum_direct = 0;
    for (const ProfileSpec &raw : pixel5_app_profiles()) {
        const std::uint64_t seed = std::hash<std::string>{}(raw.name);
        const ProfileSpec app =
            calibrate_baseline(raw, device, 3, setup, seed);
        const RunReport r =
            run_profile(app, device, RenderMode::kVsync, 3, setup, seed);

        const double total =
            double(r.drops + r.stuffed + r.direct);
        const double drop_pct = 100.0 * double(r.drops) / total;
        const double stuffed_pct = 100.0 * double(r.stuffed) / total;
        const double direct_pct = 100.0 * double(r.direct) / total;
        sum_drop += drop_pct;
        sum_stuffed += stuffed_pct;
        sum_direct += direct_pct;

        table.add_row({app.name, TableReporter::num(drop_pct, 1),
                       TableReporter::num(stuffed_pct, 1),
                       TableReporter::num(direct_pct, 1),
                       ascii_bar(stuffed_pct, 100.0, 25)});
    }
    const double n = double(pixel5_app_profiles().size());
    table.add_row({"AVERAGE", TableReporter::num(sum_drop / n, 1),
                   TableReporter::num(sum_stuffed / n, 1),
                   TableReporter::num(sum_direct / n, 1), ""});
    table.print();

    std::printf("\npaper:    most frames wait inside the buffer queue "
                "(stuffing dominates direct composition)\n");
    std::printf("measured: avg %.1f%% drops, %.1f%% stuffing, %.1f%% "
                "direct composition\n",
                sum_drop / n, sum_stuffed / n, sum_direct / n);
    return 0;
}
