#include "core/dvsync_config.h"

#include <algorithm>

#include "sim/logging.h"

namespace dvs {

DvsyncConfig
DvsyncConfig::normalized() const
{
    DvsyncConfig c = *this;
    if (c.prerender_limit < 1)
        fatal("prerender_limit must be >= 1, got %d", c.prerender_limit);
    c.calibration_interval = std::max(1, c.calibration_interval);
    return c;
}

int
prerender_limit_for_buffers(int buffers)
{
    // One slot is the front buffer and one stays free for the frame in
    // production; the rest may accumulate.
    return std::max(1, buffers - 2);
}

} // namespace dvs
