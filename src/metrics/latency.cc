#include "metrics/latency.h"

namespace dvs {

LatencyBreakdown
analyze_latency(const FrameStats &stats, Time period)
{
    LatencyBreakdown b;
    const SampleStat &lat = stats.latency();
    if (lat.count() == 0)
        return b;

    b.mean_ms = to_ms(Time(lat.mean()));
    b.p50_ms = to_ms(Time(lat.percentile(50)));
    b.p95_ms = to_ms(Time(lat.percentile(95)));
    b.max_ms = to_ms(Time(lat.max()));
    b.floor_ms = to_ms(Time(kPipelineDepth) * period);
    b.above_floor_periods =
        (b.mean_ms - b.floor_ms) / to_ms(period);

    SampleStat direct, stuffed;
    for (const ShownFrame &f : stats.shown()) {
        if (f.timeline_timestamp == kTimeNone)
            continue;
        const double lat_ns = double(f.present_time - f.timeline_timestamp);
        if (f.queue_wait > period)
            stuffed.add(lat_ns);
        else
            direct.add(lat_ns);
    }
    b.direct_mean_ms = to_ms(Time(direct.mean()));
    b.stuffed_mean_ms = to_ms(Time(stuffed.mean()));
    return b;
}

} // namespace dvs
