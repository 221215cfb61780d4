/**
 * @file
 * Compositor: the latch stage between the buffer queue and the panel.
 *
 * On OpenHarmony the hardware thread consumes the queue directly at the
 * HW-VSync edge; on Android, SurfaceFlinger latches at a VSync-sf offset,
 * so a buffer queued inside the latch window misses the upcoming refresh
 * even though it arrived "before the edge". The Compositor models this as
 * a latch deadline installed on the panel, and counts latch outcomes.
 */

#ifndef DVS_PIPELINE_COMPOSITOR_H
#define DVS_PIPELINE_COMPOSITOR_H

#include <cstdint>

#include "display/panel.h"
#include "sim/time.h"

namespace dvs {

/**
 * Latch-deadline policy plus composition statistics.
 */
class Compositor
{
  public:
    /**
     * @param panel the panel to govern
     * @param latch_lead buffers must be queued at least this long before
     *        the edge to be latched (0 = OpenHarmony-style direct path)
     */
    explicit Compositor(Panel &panel, Time latch_lead = 0);

    Time latch_lead() const { return latch_lead_; }

    /**
     * Fault-injection hook: while the hook returns true for an edge
     * timestamp, the compositor misses its latch deadline regardless of
     * when the buffer was queued (an overloaded composition thread).
     */
    using ForcedMiss = std::function<bool(Time)>;
    void set_forced_miss(ForcedMiss fn) { forced_miss_ = std::move(fn); }

    /** Buffers that arrived inside the latch window and had to wait. */
    std::uint64_t missed_deadline() const { return missed_; }

    /** Buffers latched on time. */
    std::uint64_t latched() const { return latched_; }

  private:
    bool eligible(const FrameBuffer &buf, const VsyncEdge &edge);

    Panel &panel_;
    const Time latch_lead_;
    ForcedMiss forced_miss_;
    std::uint64_t missed_ = 0;
    std::uint64_t latched_ = 0;
};

} // namespace dvs

#endif // DVS_PIPELINE_COMPOSITOR_H
