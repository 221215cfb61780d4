/**
 * @file
 * Screen panel: the buffer-queue consumer.
 *
 * On every HW-VSync edge the panel latches the oldest queued buffer from
 * the buffer queue and scans it out for one refresh period. When nothing
 * new is queued it repeats the previous frame — the raw material of a
 * frame drop (whether the repeat *is* a drop depends on whether content
 * was due, which the metrics layer decides).
 */

#ifndef DVS_DISPLAY_PANEL_H
#define DVS_DISPLAY_PANEL_H

#include <cstdint>
#include <functional>
#include <vector>

#include "buffer/buffer_queue.h"
#include "display/hw_vsync.h"

namespace dvs {

/** One refresh of the screen: either a new frame or a repeat. */
struct PresentEvent {
    Time present_time = kTimeNone; ///< the vsync edge of the scan-out
    std::uint64_t vsync_index = 0; ///< hardware edge counter
    double rate_hz = 0.0;          ///< refresh rate for this frame
    bool repeat = false;           ///< true when no new buffer was latched
    bool first = false;            ///< true before any frame was ever shown
    FrameMeta meta;                ///< metadata of the frame on screen
    Time queue_time = kTimeNone;   ///< when the latched buffer was queued
    Time dequeue_time = kTimeNone; ///< when its slot was dequeued
};

/**
 * The display panel. Consumes the buffer queue at the HW-VSync cadence and
 * publishes a PresentEvent per refresh (the "present fence").
 */
class Panel
{
  public:
    using PresentListener = std::function<void(const PresentEvent &)>;

    /**
     * Latch policy: whether the head-of-queue buffer may be latched at
     * this edge. The compositor uses it to model a SurfaceFlinger-style
     * latch deadline (a buffer queued too close to the edge misses it).
     */
    using LatchPolicy =
        std::function<bool(const FrameBuffer &, const VsyncEdge &)>;

    Panel(HwVsyncGenerator &vsync, BufferQueue &queue);

    /** Install a latch policy (default: any queued buffer is eligible). */
    void set_latch_policy(LatchPolicy p) { latch_policy_ = std::move(p); }

    /** Register a present-fence listener (DTV calibration, metrics). */
    void add_present_listener(PresentListener fn)
    {
        listeners_.push_back(std::move(fn));
    }

    /** Whether any frame has ever been displayed. */
    bool has_content() const { return has_content_; }

    /** Number of refreshes that latched a new buffer. */
    std::uint64_t presented() const { return presented_; }

    /** Number of refreshes that repeated the previous frame. */
    std::uint64_t repeats() const { return repeats_; }

    BufferQueue &queue() { return queue_; }

  private:
    void on_vsync(const VsyncEdge &edge);

    BufferQueue &queue_;
    std::vector<PresentListener> listeners_;
    LatchPolicy latch_policy_;
    FrameMeta last_meta_;
    bool has_content_ = false;
    std::uint64_t presented_ = 0;
    std::uint64_t repeats_ = 0;
};

} // namespace dvs

#endif // DVS_DISPLAY_PANEL_H
