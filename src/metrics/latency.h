/**
 * @file
 * Rendering-latency analysis (§3.3 / §6.3, Fig. 15).
 *
 * Latency of a displayed frame is its present time minus its nominal
 * timeline timestamp. The architectural floor is kPipelineDepth refresh
 * periods (2 for the §2 pipeline); buffer stuffing adds one period and
 * drops add the hold time. The breakdown quantifies how far above the
 * floor a run sits — the quantity D-VSync eliminates.
 */

#ifndef DVS_METRICS_LATENCY_H
#define DVS_METRICS_LATENCY_H

#include "metrics/frame_stats.h"
#include "sim/time.h"

namespace dvs {

/** Summary of a run's rendering latency. */
struct LatencyBreakdown {
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double max_ms = 0.0;

    /** Mean over direct-composition frames only. */
    double direct_mean_ms = 0.0;
    /** Mean over buffer-stuffed frames only. */
    double stuffed_mean_ms = 0.0;

    /** Architectural floor: kPipelineDepth × period. */
    double floor_ms = 0.0;
    /** How many periods the mean sits above the floor. */
    double above_floor_periods = 0.0;
};

/**
 * Analyze the latency of a finished run.
 * @param period the display period of the run
 */
LatencyBreakdown analyze_latency(const FrameStats &stats, Time period);

} // namespace dvs

#endif // DVS_METRICS_LATENCY_H
