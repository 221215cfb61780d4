/**
 * @file
 * Figure 5: average and maximum percentage of frame drops over the total
 * display time, per evaluated configuration.
 *
 * Paper: Pixel 5 (60 Hz, GLES) avg 3.4% / max 20.8%; Mate 40 Pro (90 Hz)
 * avg 3.5%; Mate 60 Pro GLES avg 6.3% / max 27.5%; Mate 60 Pro Vulkan
 * avg 7.0%. (Averages over the populations that show drops.)
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "metrics/reporter.h"
#include "workload/os_case_profiles.h"

using namespace dvs;
using namespace dvs::bench;

namespace {

struct Summary {
    double avg_fd = 0.0;
    double max_fd = 0.0;
};

Summary
sweep(const std::vector<ProfileSpec> &specs, const DeviceConfig &device,
      const SwipeSetup &setup, const ExperimentRunner &runner)
{
    // Anchor each profile's baseline, then measure the whole population
    // as one parallel batch.
    std::vector<Experiment> points;
    for (const ProfileSpec &raw : specs) {
        const std::uint64_t seed = std::hash<std::string>{}(raw.name);
        const ProfileSpec spec = calibrate_baseline(
            raw, device, device.vsync_buffers, setup, seed);
        auto cell = profile_experiments(spec, device, RenderMode::kVsync,
                                        device.vsync_buffers, setup, seed);
        points.insert(points.end(), cell.begin(), cell.end());
    }
    GroupAverageSink groups(setup.repeats);
    runner.run_stream(points, groups);
    const std::vector<RunReport> cells = groups.take();

    Summary s;
    for (const RunReport &r : cells) {
        s.avg_fd += r.fd_percent;
        s.max_fd = std::max(s.max_fd, r.fd_percent);
    }
    if (!cells.empty())
        s.avg_fd /= double(cells.size());
    return s;
}

std::vector<ProfileSpec>
case_specs(OsConfig config)
{
    std::vector<ProfileSpec> specs;
    for (const OsCase *c : cases_with_drops(config))
        specs.push_back(make_os_case_spec(*c, config));
    return specs;
}

} // namespace

int
main(int argc, char **argv)
{
    print_section("Figure 5: average / max frame-drop percentage of "
                  "display time (baseline VSync)");

    SwipeSetup setup = SwipeSetup::os_cases();
    setup.repeats = 2;
    ArgParser args(argc, argv);
    const ExperimentRunner runner(args.jobs());
    args.finish();

    TableReporter table(
        {"configuration", "avg FD%", "max FD%", "paper avg", "paper max"});

    const Summary p5 = sweep(pixel5_app_profiles(), pixel5(), setup, runner);
    table.add_row({"Google Pixel 5 (AOSP 60Hz, GLES)",
                   TableReporter::num(p5.avg_fd, 1),
                   TableReporter::num(p5.max_fd, 1), "3.4", "20.8"});

    const Summary m40 = sweep(case_specs(OsConfig::kMate40Gles),
                              mate40_pro(), setup, runner);
    table.add_row({"Mate 40 Pro (OH 90Hz, GLES)",
                   TableReporter::num(m40.avg_fd, 1),
                   TableReporter::num(m40.max_fd, 1), "3.5", "7.8"});

    const Summary m60g = sweep(case_specs(OsConfig::kMate60Gles),
                               mate60_pro(), setup, runner);
    table.add_row({"Mate 60 Pro (OH 120Hz, GLES)",
                   TableReporter::num(m60g.avg_fd, 1),
                   TableReporter::num(m60g.max_fd, 1), "6.3", "27.5"});

    const Summary m60v = sweep(case_specs(OsConfig::kMate60Vk),
                               mate60_pro(Backend::kVulkan), setup, runner);
    table.add_row({"Mate 60 Pro (OH 120Hz, Vulkan)",
                   TableReporter::num(m60v.avg_fd, 1),
                   TableReporter::num(m60v.max_fd, 1), "7.0", "7.4"});

    table.print();
    std::printf("\n(the populations are the cases/apps with reported "
                "drops, as in the paper)\n");
    return 0;
}
