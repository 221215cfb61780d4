/**
 * @file
 * Device presets matching Table 1 of the paper.
 */

#ifndef DVS_DISPLAY_DEVICE_CONFIG_H
#define DVS_DISPLAY_DEVICE_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace dvs {

/** Graphics backend used by the render service. */
enum class Backend { kGles, kVulkan };

const char *to_string(Backend b);

/** Static description of an evaluated device (Table 1). */
struct DeviceConfig {
    std::string name;      ///< marketing name, e.g. "Mate 60 Pro"
    std::string os;        ///< "AOSP 13" or "OH 4.0"
    Backend backend = Backend::kGles;
    int width = 0;         ///< panel width in pixels
    int height = 0;        ///< panel height in pixels
    double refresh_hz = 60.0;
    int vsync_buffers = 3; ///< buffer-queue slots under baseline VSync
    /** Supported LTPO rates, descending (empty: fixed-rate panel). */
    std::vector<double> ltpo_rates;

    // ----- §6 thermal envelope ------------------------------------------
    // Sustained chassis dissipation budget and the die headroom above
    // ambient before throttling; thermal_params_for() turns these into
    // the RC plant of the closed-loop governor work.

    double thermal_budget_mw = 3000.0; ///< sustained GPU budget
    double thermal_headroom_c = 20.0;  ///< throttle point above ambient

    /** Refresh period. */
    Time period() const { return period_from_hz(refresh_hz); }

    /** Highest rate the panel can refresh at, LTPO rates included. */
    double
    max_refresh_hz() const
    {
        double hz = refresh_hz;
        for (double r : ltpo_rates)
            hz = r > hz ? r : hz;
        return hz;
    }

    /** Size of one RGBA8888 frame buffer in bytes. */
    std::int64_t buffer_bytes() const
    {
        return std::int64_t(width) * height * 4;
    }
};

/** Google Pixel 5: AOSP 13, 60 Hz, GLES, triple buffering. */
DeviceConfig pixel5();

/** Huawei Mate 40 Pro: OpenHarmony 4.0, 90 Hz, GLES, 4 buffers. */
DeviceConfig mate40_pro();

/** Huawei Mate 60 Pro: OpenHarmony 4.0, 120 Hz, GLES or Vulkan, 4 bufs. */
DeviceConfig mate60_pro(Backend backend = Backend::kGles);

/** All Table-1 presets, in paper order. */
std::vector<DeviceConfig> all_devices();

} // namespace dvs

#endif // DVS_DISPLAY_DEVICE_CONFIG_H
