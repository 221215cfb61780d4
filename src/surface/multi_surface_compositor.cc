#include "surface/multi_surface_compositor.h"

#include <algorithm>

#include "sim/logging.h"

namespace dvs {

MultiSurfaceCompositor::MultiSurfaceCompositor(HwVsyncGenerator &hw,
                                               ExecResource &gpu,
                                               Time base_cost,
                                               Time per_layer_cost)
    : gpu_(gpu), base_cost_(base_cost), per_layer_cost_(per_layer_cost)
{
    if (base_cost < 0 || per_layer_cost < 0)
        fatal("composition costs must be >= 0");
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
    const Time cost = base_cost_ + per_layer_cost_ * Time(layers);
    gpu_time_ += cost;
    if (cost > 0)
        gpu_.run(cost, [] {});
}

} // namespace dvs
