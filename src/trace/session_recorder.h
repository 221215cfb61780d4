/**
 * @file
 * SessionRecorder: turn a finished run into a SessionCapture.
 *
 * The recorder hooks nothing while the run executes — it materializes
 * the capture *after* run() from state the device already keeps: the
 * effective SystemConfig, the fault plan, every surface's descriptor
 * and scenario, each producer's resolved slot counts, the event queue's
 * dispatch hash and the report's fingerprint. Post-run capture is
 * equivalent to live hooks here because the simulation is
 * deterministic; it costs the hot path nothing and cannot perturb the
 * event interleaving it is recording.
 *
 * The one derivation step is the workload: scenario segments carry live
 * FrameCostModel objects, which a file cannot hold. Because every cost
 * model is a pure function of the nominal frame index — the producer
 * queries slot + segment * kCostIndexStride — the recorder stores each
 * segment's model as a dense table over the full slot range the segment
 * can reach. Slots the run started already hold their sample in the
 * producer's FrameRecords (less FrameRecord::extra_ui_time); the
 * recorder queries the model only for the slots the run never reached.
 * Replay serves the table back through TraceCostModel in kSegmentSlot
 * mode, reproducing every query the original models would have
 * answered, bit for bit.
 */

#ifndef DVS_TRACE_SESSION_RECORDER_H
#define DVS_TRACE_SESSION_RECORDER_H

#include <string>

#include "trace/session_capture.h"

namespace dvs {

class SessionRecorder
{
  public:
    /**
     * Capture a finished run of either device kind. @pre sys.run()
     * returned. The capture is marked verbatim with the run's dispatch
     * hash and report fingerprint — replaying it unmodified must
     * reproduce both.
     */
    static SessionCapture capture(RenderSystem &sys,
                                  const std::string &label = "");

    /**
     * Capture @p sys, save the .dvst to @p path, then *prove* the file:
     * reload it and replay it verbatim, requiring the bit-exact contract
     * (dispatch hash + report fingerprint) to hold. @return false with
     * @p *error set on I/O failure or any replay divergence; on success
     * @p *out (when non-null) receives the reloaded capture. This is
     * the save path for anything that promises its captures replay —
     * the observatory's tail auto-capture pins every specimen through
     * it.
     */
    static bool capture_verified(RenderSystem &sys,
                                 const std::string &label,
                                 const std::string &path,
                                 std::string *error = nullptr,
                                 SessionCapture *out = nullptr);

    /**
     * Derive the replayable form of @p producer's scenario: dense
     * per-segment cost tables sized for @p device (covering the highest
     * rate the panel can anchor a segment at) widened to the producer's
     * observed slot counts. @pre the producer's run finished. Exposed
     * for tests; capture() calls this per surface.
     */
    static ScenarioCapture capture_scenario(const Producer &producer,
                                            const DeviceConfig &device);
};

} // namespace dvs

#endif // DVS_TRACE_SESSION_RECORDER_H
