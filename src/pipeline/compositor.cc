#include "pipeline/compositor.h"

#include "sim/logging.h"

namespace dvs {

Compositor::Compositor(Panel &panel, Time latch_lead)
    : panel_(panel), latch_lead_(latch_lead)
{
    if (latch_lead < 0)
        fatal("latch lead must be >= 0");
    panel_.set_latch_policy(
        [this](const FrameBuffer &buf, const VsyncEdge &edge) {
            return eligible(buf, edge);
        });
}

bool
Compositor::eligible(const FrameBuffer &buf, const VsyncEdge &edge)
{
    if (forced_miss_ && forced_miss_(edge.timestamp)) {
        ++missed_;
        return false;
    }
    const bool ok = buf.queue_time() <= edge.timestamp - latch_lead_;
    if (ok)
        ++latched_;
    else
        ++missed_;
    return ok;
}

} // namespace dvs
