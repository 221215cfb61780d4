#include "vsyncsrc/choreographer.h"

#include "sim/logging.h"

namespace dvs {

Choreographer::Choreographer(VsyncDistributor &dist, VsyncChannel channel)
    : dist_(dist), channel_(channel)
{
}

void
Choreographer::post_frame_callback()
{
    if (!callback_)
        panic("Choreographer::post_frame_callback before set_callback");
    if (armed_)
        return; // coalesce
    armed_ = true;
    dist_.request_callback(channel_, [this](const SwVsync &sw) {
        armed_ = false;
        ++delivered_;
        callback_(sw);
    });
}

} // namespace dvs
