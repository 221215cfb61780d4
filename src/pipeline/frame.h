/**
 * @file
 * Per-frame lifecycle record.
 *
 * The producer keeps one FrameRecord per frame it starts, tracking every
 * stage timestamp. The metrics layer and the benches read these records;
 * they are the simulation's equivalent of a Perfetto trace.
 */

#ifndef DVS_PIPELINE_FRAME_H
#define DVS_PIPELINE_FRAME_H

#include <cstdint>

#include "sim/time.h"
#include "workload/frame_cost.h"
#include "workload/scenario.h"

namespace dvs {

/** Lifecycle timestamps and identity of one produced frame. */
struct FrameRecord {
    std::uint64_t frame_id = 0;

    /** Scenario segment the frame belongs to. */
    int segment_index = -1;
    SegmentKind kind = SegmentKind::kIdle;

    /** Nominal slot within the segment's timeline (0-based). */
    std::int64_t slot = -1;

    /** Timestamp the frame's content was computed for. */
    Time content_timestamp = kTimeNone;

    /** Nominal timeline timestamp (anchor + slot * period). */
    Time timeline_timestamp = kTimeNone;

    /** True when started by the Frame Pre-Executor ahead of VSync. */
    bool pre_rendered = false;
    /** Whether content_value holds a rendered content value. */
    bool has_content_value = false;

    /**
     * Workload: the segment cost model's sample for this slot, with
     * extra_ui_time added to its ui_time.
     */
    FrameCost cost;

    /**
     * UI-stage overhead the producer added on top of the sample (the
     * D-VSync input predictor's fit), so cost.ui_time - extra_ui_time
     * recovers what the cost model returned.
     */
    Time extra_ui_time = 0;

    /** Refresh rate in force when the frame was produced (LTPO). */
    double rate_hz = 0.0;

    /**
     * Content value rendered by interactive frames (e.g. the finger-follow
     * y position or the pinch distance used). NaN for animations.
     */
    double content_value = 0.0;

    // Stage timestamps (kTimeNone until the stage happens).
    Time trigger_time = kTimeNone;  ///< pacer decision time
    Time ui_start = kTimeNone;
    Time ui_end = kTimeNone;
    Time render_ready = kTimeNone;  ///< eligible to render (post VSync-rs)
    Time buffer_stall_start = kTimeNone; ///< first failed buffer dequeue
    Time render_start = kTimeNone;
    Time render_end = kTimeNone;
    Time gpu_start = kTimeNone;     ///< kTimeNone when gpu_time == 0
    Time gpu_end = kTimeNone;
    Time queue_time = kTimeNone;    ///< buffer submitted to the FIFO
    Time present_time = kTimeNone;  ///< filled by metrics at the fence
};

// The producer appends one record per frame on the hot path, and a
// larger record measurably slows it: keep the two flags side by side in
// one padding slot.
static_assert(sizeof(FrameRecord) <= 184, "FrameRecord grew");

} // namespace dvs

#endif // DVS_PIPELINE_FRAME_H
