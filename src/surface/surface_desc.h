/**
 * @file
 * SurfaceDesc: one producer layer of a shared display.
 *
 * The paper evaluates D-VSync as an OS service: on a real device several
 * apps — the foreground app, the status bar, an overlay, a game — render
 * concurrently into their own buffer queues and one compositor
 * (SurfaceFlinger / the OpenHarmony render service) latches one buffer
 * per surface per refresh. A SurfaceDesc declares one such producer: its
 * workload, whether it is D-VSync-aware (decoupling-aware channel, may
 * be granted extra pre-render buffers) or oblivious (conventional VSync
 * pacing), and the §6.4 memory cost of each extra buffer the
 * BufferBudgetArbiter may grant it.
 */

#ifndef DVS_SURFACE_SURFACE_DESC_H
#define DVS_SURFACE_SURFACE_DESC_H

#include <string>

#include "sim/time.h"
#include "workload/scenario.h"

namespace dvs {

/** Declaration of one surface of a multi-surface session. */
struct SurfaceDesc {
    std::string name = "surface";
    Scenario scenario;

    /**
     * D-VSync-aware surfaces run the decoupled FPE/DTV stack and compete
     * for extra pre-render buffers; oblivious surfaces pace with
     * conventional software VSync and never receive extras.
     */
    bool dvsync_aware = true;

    /**
     * Memory cost of ONE extra buffer for this surface, in MB (§6.4
     * budgets ~10-15 MB per extra buffer per surface, resolution- and
     * format-dependent).
     */
    double buffer_mb = 12.0;

    /** Cap on extra buffers this surface can use beyond its baseline. */
    int max_extra_buffers = 4;

    /**
     * Arbitration weight: the surface's demand hint (e.g. the profile's
     * baseline FDPS). The weighted arbiter grants extras by descending
     * weight per MB.
     */
    double weight = 1.0;

    /** Absolute time the surface appears and its scenario starts. */
    Time start_at = 0;

    // ----- fluent named setters ----------------------------------------

    SurfaceDesc &with_name(std::string n)
    {
        name = std::move(n);
        return *this;
    }
    SurfaceDesc &with_scenario(Scenario sc)
    {
        scenario = std::move(sc);
        return *this;
    }
    SurfaceDesc &with_dvsync_aware(bool aware)
    {
        dvsync_aware = aware;
        return *this;
    }
    SurfaceDesc &with_buffer_mb(double mb)
    {
        buffer_mb = mb;
        return *this;
    }
    SurfaceDesc &with_weight(double w)
    {
        weight = w;
        return *this;
    }
    SurfaceDesc &with_start_at(Time at)
    {
        start_at = at;
        return *this;
    }
};

} // namespace dvs

#endif // DVS_SURFACE_SURFACE_DESC_H
