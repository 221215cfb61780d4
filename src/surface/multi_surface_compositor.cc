#include "surface/multi_surface_compositor.h"

#include <algorithm>

namespace dvs {

namespace {

/**
 * Composition cost charged to the shared GPU per refresh that latched
 * at least one layer: kBaseCost + kPerLayerCost × layers.
 */
constexpr Time kBaseCost = 200'000;     // 0.2 ms
constexpr Time kPerLayerCost = 100'000; // 0.1 ms per layer

} // namespace

MultiSurfaceCompositor::MultiSurfaceCompositor(HwVsyncGenerator &hw,
                                               ExecResource &gpu)
    : gpu_(gpu)
{
    hw.add_listener([this](const VsyncEdge &edge) { on_edge(edge); });
}

void
MultiSurfaceCompositor::observe(Panel &panel)
{
    panel.add_present_listener([this](const PresentEvent &ev) {
        if (!ev.repeat)
            ++latched_this_edge_;
    });
}

void
MultiSurfaceCompositor::on_edge(const VsyncEdge &)
{
    // Runs after every panel's latch for this edge (panels registered
    // their HW listeners first). Composition only costs GPU time when at
    // least one layer changed; a fully-static screen re-scans the old
    // composition.
    const int layers = latched_this_edge_;
    latched_this_edge_ = 0;
    if (layers == 0)
        return;
    ++compositions_;
    layers_latched_ += std::uint64_t(layers);
    peak_layers_ = std::max(peak_layers_, layers);
    const Time cost = kBaseCost + kPerLayerCost * Time(layers);
    gpu_time_ += cost;
    gpu_.run(cost, [] {});
}

} // namespace dvs
