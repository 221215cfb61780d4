/**
 * @file
 * MultiSurfaceCompositor: the display-level composition stage of a
 * composed display.
 *
 * A real device runs D-VSync as an OS service: the foreground app, the
 * status bar, an overlay, a game each render into their own BufferQueue
 * and a display-level compositor latches at most one buffer per surface
 * per refresh, paying a per-layer composition cost on the shared GPU.
 * RenderSystem's composed-display constructor assembles that device and
 * installs this stage after every surface's panel (DESIGN.md §5d).
 */

#ifndef DVS_SURFACE_MULTI_SURFACE_COMPOSITOR_H
#define DVS_SURFACE_MULTI_SURFACE_COMPOSITOR_H

#include <cstdint>

#include "display/hw_vsync.h"
#include "display/panel.h"
#include "pipeline/exec_resource.h"

namespace dvs {

/**
 * Display-level composition stage: counts the layers latched at each
 * refresh (via the per-surface present fences) and charges the shared
 * GPU the composition cost after the latch pass of every edge.
 */
class MultiSurfaceCompositor
{
  public:
    /**
     * Registers an HW-VSync listener; construct AFTER every Panel so the
     * charge lands once all layers of the edge have latched.
     */
    MultiSurfaceCompositor(HwVsyncGenerator &hw, ExecResource &gpu,
                           Time base_cost, Time per_layer_cost);

    /** Observe @p panel as one layer of the display. */
    void observe(Panel &panel);

    /** Refreshes that latched at least one layer (composition ran). */
    std::uint64_t compositions() const { return compositions_; }

    /** Total layers latched across all refreshes. */
    std::uint64_t layers_latched() const { return layers_latched_; }

    /** Most layers latched at one refresh. */
    int peak_layers() const { return peak_layers_; }

    /** GPU time consumed by composition (nominal, pre-fault). */
    Time gpu_time() const { return gpu_time_; }

  private:
    void on_edge(const VsyncEdge &edge);

    ExecResource &gpu_;
    Time base_cost_;
    Time per_layer_cost_;
    int latched_this_edge_ = 0;
    std::uint64_t compositions_ = 0;
    std::uint64_t layers_latched_ = 0;
    int peak_layers_ = 0;
    Time gpu_time_ = 0;
};

} // namespace dvs

#endif // DVS_SURFACE_MULTI_SURFACE_COMPOSITOR_H
