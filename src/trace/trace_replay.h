/**
 * @file
 * Trace replay: run a SessionCapture as a workload.
 *
 * A capture plugs back into the simulator like any scenario: the
 * recorded per-segment cost tables become TraceCostModels (kSegmentSlot
 * mode), the touch streams are reinstalled verbatim, the recorded
 * SystemConfig (fault plan included) drives the same device assembly,
 * and the run proceeds through the RenderSystem constructor of the
 * recorded device kind.
 *
 * Determinism contract (DESIGN.md §5i): replaying a verbatim capture
 * with no mode override reproduces the recorded session *bit-exactly* —
 * the event queue's FNV dispatch hash equals source_dispatch_hash and
 * the RunReport is field-by-field identical (its debug_string() hashes
 * to source_report_fnv). Overriding the pacing mode yields a
 * deterministic what-if run of the same recorded workload, not a
 * recording.
 */

#ifndef DVS_TRACE_TRACE_REPLAY_H
#define DVS_TRACE_TRACE_REPLAY_H

#include <optional>

#include "trace/session_capture.h"

namespace dvs {

/** Replay knobs. Default-constructed options replay verbatim. */
struct ReplayOptions {
    /**
     * Pacing override. Single-app: replaces config.mode. Composed
     * display: kVsync forces every surface oblivious, kDvsync forces
     * every surface aware (kPaced is single-app only and fatals on a
     * composed display). Unset replays as recorded.
     */
    std::optional<RenderMode> mode;
};

/** Outcome of one replay. */
struct ReplayResult {
    RunReport report;
    std::uint64_t dispatch_hash = 0;

    /**
     * Whether this run re-executed the capture's own configuration (no
     * mode override on a verbatim capture) and is therefore covered by
     * the bit-exact contract against the recorded hashes.
     */
    bool verbatim = false;

    /** FNV-1a fingerprint of report.debug_string(). */
    std::uint64_t report_fnv() const;

    /**
     * Check the bit-exact contract against @p cap. @return an empty
     * string on success, else a description of the divergence. Always
     * fails (with an explanation) when the run was not verbatim.
     */
    std::string verify_against(const SessionCapture &cap) const;
};

/** Rebuild a live Scenario from a recorded one. */
Scenario build_scenario(const ScenarioCapture &sc);

/** Rebuild the SurfaceDescs of a capture, one per surface. */
std::vector<SurfaceDesc> build_surfaces(const SessionCapture &cap);

/** Run @p cap under @p opts. */
ReplayResult replay_session(const SessionCapture &cap,
                            const ReplayOptions &opts = {});

} // namespace dvs

#endif // DVS_TRACE_TRACE_REPLAY_H
