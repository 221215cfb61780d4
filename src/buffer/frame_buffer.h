/**
 * @file
 * Frame buffer: one slot of the producer/consumer buffer queue.
 *
 * A FrameBuffer models a graphics buffer handed between the rendering
 * pipeline (producer) and the screen (consumer). It carries the metadata
 * the D-VSync architecture needs: the content timestamp the frame was
 * rendered for, the nominal timeline slot it belongs to, and the refresh
 * rate it was rendered at (for the LTPO co-design).
 */

#ifndef DVS_BUFFER_FRAME_BUFFER_H
#define DVS_BUFFER_FRAME_BUFFER_H

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace dvs {

/** Lifecycle states of a buffer slot. */
enum class BufferState {
    kFree,     ///< owned by the queue, available for dequeue
    kDequeued, ///< owned by the producer, being rendered into
    kQueued,   ///< rendered, waiting in the FIFO for the screen
    kFront,    ///< latched by the screen, currently displayed
};

/** Human-readable state name (for logs and test diagnostics). */
const char *to_string(BufferState s);

/** Metadata describing the frame content a buffer holds. */
struct FrameMeta {
    /** Monotonic id of the frame across the whole run. */
    std::uint64_t frame_id = 0;

    /** Index of the frame on the content's nominal timeline. */
    std::int64_t nominal_index = -1;

    /**
     * Timestamp the content was computed for: the triggering VSync
     * timestamp under VSync, or the DTV-predicted display timestamp
     * (D-Timestamp) under D-VSync.
     */
    Time content_timestamp = kTimeNone;

    /**
     * Nominal timeline timestamp of this frame: the display slot the
     * frame logically occupies. Latency = present − nominal (§6.3).
     */
    Time timeline_timestamp = kTimeNone;

    /** Refresh rate (Hz) the frame was rendered for (LTPO binding). */
    double render_rate_hz = 0.0;

    /** True when the frame was produced via decoupled pre-rendering. */
    bool pre_rendered = false;
};

/**
 * One buffer slot. Created and owned by a BufferQueue; the pipeline and
 * screen reference slots by pointer while holding them.
 */
class FrameBuffer
{
  public:
    FrameBuffer() = default;
    explicit FrameBuffer(int slot) : slot_(slot) {}

    int slot() const { return slot_; }
    BufferState state() const { return state_; }

    const FrameMeta &meta() const { return meta_; }
    FrameMeta &meta() { return meta_; }

    /** Time the producer dequeued the slot (kTimeNone when free). */
    Time dequeue_time() const { return dequeue_time_; }

    /** Time the rendered frame was queued (kTimeNone before queueing). */
    Time queue_time() const { return queue_time_; }

    /** Time the screen latched the buffer (kTimeNone before latch). */
    Time latch_time() const { return latch_time_; }

  private:
    friend class BufferQueue;

    int slot_ = 0;
    BufferState state_ = BufferState::kFree;
    FrameMeta meta_;
    Time dequeue_time_ = kTimeNone;
    Time queue_time_ = kTimeNone;
    Time latch_time_ = kTimeNone;
};

} // namespace dvs

#endif // DVS_BUFFER_FRAME_BUFFER_H
