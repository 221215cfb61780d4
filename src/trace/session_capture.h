/**
 * @file
 * SessionCapture: the persisted form of one recorded session (.dvst).
 *
 * A capture stores only what replay reads: the configuration, the fault
 * plan, and per-segment workload (dense cost tables + touch streams),
 * plus provenance. Everything the run produced — frame records, the
 * LTPO/governor/watchdog timeline, the report — replay rebuilds, and the
 * stored dispatch hash and report fingerprint verify that it did. The
 * causal inputs are minimal in the record/replay sense: because every
 * cost model in the repo is a pure function of the nominal frame index,
 * recording the table of values a segment *can* query reproduces the
 * run exactly without recording scheduler state.
 *
 * File format (.dvst), schema version 3:
 *
 *   "DVST"  u16 version  u8 kind (0 single / 1 multi)  u8 reserved(0)
 *   then sections, each:  4-byte tag | u32 payload len | payload | u32 CRC
 *
 *   META  provenance: section map, label, verbatim flag, source dispatch
 *         hash + report fingerprint, transform lineage
 *   CONF  every SystemConfig field (display.fault_surface travels in
 *         FALT) + the surface descriptors, for both device kinds
 *   FALT  fault plan windows (optional; absent = no injection)
 *   SEGS  one scenario per surface: per-segment kind/duration/label,
 *         dense cost table, touch events
 *
 * Integers are LEB128 varints (zigzag + delta where consecutive values
 * correlate), doubles are raw bit patterns, every section payload is
 * CRC-32 guarded, and loading is strict: unknown tags, duplicate or
 * missing sections, out-of-range enums, trailing bytes, or any CRC
 * mismatch fail with a clear error — never a crash, never a silent
 * misparse. DESIGN.md §5i specifies the format and the replay
 * determinism contract in full.
 */

#ifndef DVS_TRACE_SESSION_CAPTURE_H
#define DVS_TRACE_SESSION_CAPTURE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/render_system.h"
#include "input/touch_event.h"
#include "workload/scenario.h"
#include "workload/trace.h"

namespace dvs {

/** One recorded scenario segment: script + materialized workload. */
struct SegmentCapture {
    SegmentKind kind = SegmentKind::kIdle;
    Time duration = 0;
    std::string label;

    /**
     * Dense per-slot cost table (empty for idle segments): entry s is
     * the value the producer's cost query returns for slot s, so a
     * TraceCostModel in kSegmentSlot mode replays the segment's costs
     * bit-exactly. Sized past the largest slot the segment can anchor
     * to; queries beyond the end clamp to the last entry.
     */
    FrameTrace costs;

    /** Touch events of interaction segments (segment-relative times). */
    std::vector<TouchEvent> touch;
};

/** One scenario: name + ordered segments. */
struct ScenarioCapture {
    std::string name;
    std::vector<SegmentCapture> segments;
};

/** One surface of a capture. A single-app capture holds exactly one. */
struct SurfaceCapture {
    // SurfaceDesc fields (the scenario is captured separately below).
    std::string name = "surface";
    bool dvsync_aware = true;
    double buffer_mb = 12.0;
    int max_extra_buffers = 4;
    double weight = 1.0;
    Time start_at = 0;

    ScenarioCapture scenario;

    /** The descriptor fields of @p desc; scenario empty. */
    static SurfaceCapture from_desc(const SurfaceDesc &desc);
};

/**
 * A complete recorded session, loadable/savable as .dvst.
 */
struct SessionCapture {
    static constexpr std::uint16_t kSchemaVersion = 3;

    /** Device kind: the RenderSystem constructor replay must use. */
    enum class Kind : std::uint8_t { kSingle = 0, kMulti = 1 };
    Kind kind = Kind::kSingle;

    /** Free-form provenance tag (who recorded this, from what run). */
    std::string label;

    /**
     * Whether the bit-exact replay contract holds: replaying the capture
     * unmodified must reproduce source_dispatch_hash and a RunReport
     * whose debug_string() hashes to source_report_fnv. Transforms and
     * mode overrides clear it — a mutated capture is a new scenario, not
     * a recording.
     */
    bool verbatim = false;
    std::uint64_t source_dispatch_hash = 0;
    std::uint64_t source_report_fnv = 0;

    /** Applied transforms, oldest first (empty for raw recordings). */
    std::vector<std::string> lineage;

    /**
     * The recorded SystemConfig, fault plan included (shared_ptr rebuilt
     * on load via FaultPlan::from_windows).
     */
    SystemConfig config;

    /** Every surface, in device order (one for kSingle). */
    std::vector<SurfaceCapture> surfaces;

    // ----- serialization ------------------------------------------------

    /** Serialize to .dvst bytes. */
    std::string encode() const;

    /**
     * Strict decode. @return false with @p error set on any malformed
     * input, including a capture replay could not assemble; @p out is
     * untouched on failure. Never crashes.
     */
    static bool decode(const std::string &bytes, SessionCapture &out,
                       std::string &error);

    /** Write encode() to @p path. @return success. */
    bool save(const std::string &path) const;

    /**
     * Read + decode @p path. @return false with @p error set when the
     * file is unreadable or malformed.
     */
    static bool load(const std::string &path, SessionCapture &out,
                     std::string &error);
};

} // namespace dvs

#endif // DVS_TRACE_SESSION_CAPTURE_H
