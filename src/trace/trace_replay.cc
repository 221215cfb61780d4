#include "trace/trace_replay.h"

#include <memory>
#include <optional>

#include "sim/logging.h"
#include "trace/dvst_io.h"

namespace dvs {

namespace {

std::shared_ptr<const TraceCostModel>
table_model(const SegmentCapture &seg)
{
    if (seg.costs.frames.empty())
        fatal("segment \"%s\" has no recorded cost table",
              seg.label.c_str());
    return std::make_shared<const TraceCostModel>(
        seg.costs, TraceIndexMode::kSegmentSlot);
}

} // namespace

Scenario
build_scenario(const ScenarioCapture &sc)
{
    Scenario out(sc.name);
    for (const SegmentCapture &seg : sc.segments) {
        switch (seg.kind) {
          case SegmentKind::kAnimation:
            out.animate(seg.duration, table_model(seg), seg.label);
            break;
          case SegmentKind::kInteraction:
            out.interact(std::make_shared<const TouchStream>(seg.touch),
                         table_model(seg), seg.label);
            break;
          case SegmentKind::kRealtime:
            out.realtime(seg.duration, table_model(seg), seg.label);
            break;
          case SegmentKind::kIdle:
            out.idle(seg.duration);
            break;
        }
    }
    return out;
}

std::vector<SurfaceDesc>
build_surfaces(const SessionCapture &cap)
{
    std::vector<SurfaceDesc> descs;
    for (const SurfaceCapture &s : cap.surfaces) {
        SurfaceDesc d;
        d.name = s.name;
        d.scenario = build_scenario(s.scenario);
        d.dvsync_aware = s.dvsync_aware;
        d.buffer_mb = s.buffer_mb;
        d.max_extra_buffers = s.max_extra_buffers;
        d.weight = s.weight;
        d.start_at = s.start_at;
        descs.push_back(std::move(d));
    }
    return descs;
}

std::uint64_t
ReplayResult::report_fnv() const
{
    return fnv1a(report.debug_string());
}

std::string
ReplayResult::verify_against(const SessionCapture &cap) const
{
    if (!cap.verbatim)
        return "capture is not verbatim (transformed or synthesized); "
               "no recorded hashes to verify against";
    if (!verbatim)
        return "replay overrode the recorded configuration; the "
               "bit-exact contract does not apply";
    if (dispatch_hash != cap.source_dispatch_hash)
        return "dispatch hash diverged: recorded " +
               std::to_string(cap.source_dispatch_hash) + ", replayed " +
               std::to_string(dispatch_hash);
    if (report_fnv() != cap.source_report_fnv)
        return "RunReport diverged: recorded fingerprint " +
               std::to_string(cap.source_report_fnv) + ", replayed " +
               std::to_string(report_fnv());
    return {};
}

ReplayResult
replay_session(const SessionCapture &cap, const ReplayOptions &opts)
{
    if (cap.surfaces.empty())
        fatal("capture holds no surface");
    const bool single = cap.kind == SessionCapture::Kind::kSingle;
    SystemConfig cfg = cap.config;
    std::vector<SurfaceDesc> descs = build_surfaces(cap);
    if (opts.mode && single) {
        cfg.mode = *opts.mode;
    } else if (opts.mode) {
        if (*opts.mode == RenderMode::kPaced)
            fatal("swap-interval pacing cannot be forced onto a "
                  "composed-display capture");
        for (SurfaceDesc &d : descs)
            d.dvsync_aware = *opts.mode == RenderMode::kDvsync;
    }
    std::optional<RenderSystem> sys;
    if (single)
        sys.emplace(cfg, std::move(descs.front().scenario));
    else
        sys.emplace(cfg, std::move(descs));

    ReplayResult result;
    result.report = sys->run();
    result.dispatch_hash = sys->sim().events().dispatch_hash();
    result.verbatim = cap.verbatim && !opts.mode;
    return result;
}

} // namespace dvs
