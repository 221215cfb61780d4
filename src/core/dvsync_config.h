/**
 * @file
 * Configuration of the D-VSync architecture.
 */

#ifndef DVS_CORE_DVSYNC_CONFIG_H
#define DVS_CORE_DVSYNC_CONFIG_H

#include "sim/time.h"

namespace dvs {

/** Tunables of the D-VSync core modules. */
struct DvsyncConfig {
    /**
     * Pre-rendering limit: maximum frames allowed ahead of the display
     * (queued + in production). The paper's OpenHarmony deployment allows
     * at most 3 back buffers for pre-rendering (§5.1); the Fig. 11 sweep
     * maps "D-VSync N bufs" to a queue of N slots with a limit of N − 2.
     */
    int prerender_limit = 3;

    /**
     * DTV calibration interval: resample the hardware vsync into the
     * timing model every N edges ("calibrates the issued D-Timestamp
     * every few frames", §5.1). 1 = every edge.
     */
    int calibration_interval = 1;

    /** Validate and return a normalized copy. */
    DvsyncConfig normalized() const;
};

/** Derive the pre-render limit for a queue of @p buffers slots. */
int prerender_limit_for_buffers(int buffers);

} // namespace dvs

#endif // DVS_CORE_DVSYNC_CONFIG_H
