#include "trace/session_capture.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "trace/dvst_io.h"

namespace dvs {

namespace {

constexpr char kMagic[4] = {'D', 'V', 'S', 'T'};

// Section tags. Any two differ in at least two bytes, so a single
// corrupted byte can never turn one valid tag into another.
constexpr char kTagMeta[4] = {'M', 'E', 'T', 'A'};
constexpr char kTagConf[4] = {'C', 'O', 'N', 'F'};
constexpr char kTagFaults[4] = {'F', 'A', 'L', 'T'};
constexpr char kTagSegments[4] = {'S', 'E', 'G', 'S'};

bool
tag_is(const char *tag, const char expect[4])
{
    return std::memcmp(tag, expect, 4) == 0;
}

// ----- bounded enum / bool reads ---------------------------------------

bool
read_bool(ByteReader &r, const char *what)
{
    const std::uint8_t v = r.u8();
    if (v > 1)
        r.fail(std::string(what) + " flag is not 0/1");
    return v == 1;
}

template <typename E>
E
read_enum(ByteReader &r, int limit, const char *what)
{
    const std::uint8_t v = r.u8();
    if (v >= limit) {
        r.fail(std::string(what) + " out of range");
        return E(0);
    }
    return E(v);
}

// ----- device / config payloads ----------------------------------------

void
encode_device(ByteWriter &w, const DeviceConfig &d)
{
    w.str(d.name);
    w.str(d.os);
    w.u8(std::uint8_t(d.backend));
    w.svarint(d.width);
    w.svarint(d.height);
    w.f64(d.refresh_hz);
    w.svarint(d.vsync_buffers);
    w.varint(d.ltpo_rates.size());
    for (double hz : d.ltpo_rates)
        w.f64(hz);
    w.f64(d.thermal_budget_mw);
    w.f64(d.thermal_headroom_c);
}

void
decode_device(ByteReader &r, DeviceConfig &d)
{
    d.name = r.str();
    d.os = r.str();
    d.backend = read_enum<Backend>(r, 2, "device backend");
    d.width = int(r.svarint());
    d.height = int(r.svarint());
    d.refresh_hz = r.f64();
    d.vsync_buffers = int(r.svarint());
    const std::uint64_t n = r.count(8);
    d.ltpo_rates.clear();
    d.ltpo_rates.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i)
        d.ltpo_rates.push_back(r.f64());
    d.thermal_budget_mw = r.f64();
    d.thermal_headroom_c = r.f64();
}

void
encode_thermal(ByteWriter &w, const ThermalSpec &t)
{
    w.u8(t.enabled ? 1 : 0);
    w.f64(t.envelope_scale);
    w.u8(t.params.has_value() ? 1 : 0);
    if (t.params) {
        const ThermalParams &p = *t.params;
        w.varint(p.levels.size());
        for (const DvfsLevel &lvl : p.levels) {
            w.f64(lvl.clock_ghz);
            w.f64(lvl.speed);
            w.f64(lvl.power_mw);
        }
        w.f64(p.ambient_c);
        w.f64(p.start_c);
        w.f64(p.throttle_c);
        w.f64(p.release_c);
        w.f64(p.resistance_c_per_w);
        w.svarint(p.tau);
        w.f64(p.coherent_scale);
    }
}

void
decode_thermal(ByteReader &r, ThermalSpec &t)
{
    t.enabled = read_bool(r, "thermal.enabled");
    t.envelope_scale = r.f64();
    if (read_bool(r, "thermal.has_params")) {
        ThermalParams p;
        const std::uint64_t n = r.count(24);
        p.levels.clear();
        p.levels.reserve(n);
        for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
            DvfsLevel lvl;
            lvl.clock_ghz = r.f64();
            lvl.speed = r.f64();
            lvl.power_mw = r.f64();
            p.levels.push_back(lvl);
        }
        p.ambient_c = r.f64();
        p.start_c = r.f64();
        p.throttle_c = r.f64();
        p.release_c = r.f64();
        p.resistance_c_per_w = r.f64();
        p.tau = r.svarint();
        p.coherent_scale = r.f64();
        t.params = p;
    } else {
        t.params.reset();
    }
}

void
encode_governor(ByteWriter &w, const GovernorConfig &g)
{
    w.u8(g.enabled ? 1 : 0);
    w.svarint(g.control_interval);
    w.f64(g.temp_demote_c);
    w.f64(g.temp_promote_c);
    w.f64(g.energy_budget_mw);
    w.svarint(g.hold_ticks);
    w.svarint(g.promote_ticks);
    w.svarint(g.backoff_cap);
    w.svarint(g.backoff_window);
}

void
decode_governor(ByteReader &r, GovernorConfig &g)
{
    g.enabled = read_bool(r, "governor.enabled");
    g.control_interval = r.svarint();
    g.temp_demote_c = r.f64();
    g.temp_promote_c = r.f64();
    g.energy_budget_mw = r.f64();
    g.hold_ticks = int(r.svarint());
    g.promote_ticks = int(r.svarint());
    g.backoff_cap = int(r.svarint());
    g.backoff_window = r.svarint();
}

void
encode_config(ByteWriter &w, const SystemConfig &c,
              const std::vector<SurfaceCapture> &surfaces)
{
    encode_device(w, c.device);
    w.u8(std::uint8_t(c.mode));
    w.svarint(c.buffers);
    w.svarint(c.prerender_limit);
    w.u64(c.seed);
    w.svarint(c.vsync_jitter);
    w.svarint(c.dtv_calibration_interval);
    w.svarint(c.latch_lead);
    w.svarint(c.vsync_app_offset);
    w.svarint(c.vsync_rs_offset);
    w.svarint(c.predictor_overhead);
    w.svarint(c.pacing.fixed_interval);
    w.svarint(c.pacing.max_interval);
    w.svarint(c.pacing.window);
    w.f64(c.pacing.raise_threshold);
    w.f64(c.pacing.lower_threshold);
    w.u8(c.monitor_invariants ? 1 : 0);
    w.u8(c.watchdog ? 1 : 0);
    w.u8(c.forensics ? 1 : 0);
    w.svarint(c.metrics_interval);
    encode_thermal(w, c.thermal);
    encode_governor(w, c.governor);
    // display.fault_surface travels with the plan, in FALT.
    w.f64(c.display.budget_mb);
    w.u8(std::uint8_t(c.display.policy));
    w.svarint(c.display.compose_base);
    w.svarint(c.display.compose_per_layer);
    w.varint(surfaces.size());
    for (const SurfaceCapture &s : surfaces) {
        w.str(s.name);
        w.u8(s.dvsync_aware ? 1 : 0);
        w.f64(s.buffer_mb);
        w.svarint(s.max_extra_buffers);
        w.f64(s.weight);
        w.svarint(s.start_at);
    }
}

void
decode_config(ByteReader &r, SystemConfig &c,
              std::vector<SurfaceCapture> &surfaces)
{
    decode_device(r, c.device);
    c.mode = read_enum<RenderMode>(r, 3, "render mode");
    c.buffers = int(r.svarint());
    c.prerender_limit = int(r.svarint());
    c.seed = r.u64();
    c.vsync_jitter = r.svarint();
    c.dtv_calibration_interval = int(r.svarint());
    c.latch_lead = r.svarint();
    c.vsync_app_offset = r.svarint();
    c.vsync_rs_offset = r.svarint();
    c.predictor_overhead = r.svarint();
    c.pacing.fixed_interval = int(r.svarint());
    c.pacing.max_interval = int(r.svarint());
    c.pacing.window = int(r.svarint());
    c.pacing.raise_threshold = r.f64();
    c.pacing.lower_threshold = r.f64();
    c.monitor_invariants = read_bool(r, "monitor_invariants");
    c.watchdog = read_bool(r, "watchdog");
    c.forensics = read_bool(r, "forensics");
    c.metrics_interval = r.svarint();
    decode_thermal(r, c.thermal);
    decode_governor(r, c.governor);
    c.display.budget_mb = r.f64();
    c.display.policy = read_enum<ArbiterPolicy>(r, 2, "arbiter policy");
    c.display.compose_base = r.svarint();
    c.display.compose_per_layer = r.svarint();
    c.faults.reset(); // FALT section reinstalls a recorded plan
    const std::uint64_t n = r.count(20);
    surfaces.clear();
    surfaces.reserve(n);
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        SurfaceCapture s;
        s.name = r.str();
        s.dvsync_aware = read_bool(r, "dvsync_aware");
        s.buffer_mb = r.f64();
        s.max_extra_buffers = int(r.svarint());
        s.weight = r.f64();
        s.start_at = r.svarint();
        surfaces.push_back(std::move(s));
    }
}

// ----- fault plan payload ----------------------------------------------

void
encode_faults(ByteWriter &w, const FaultPlan &plan, int fault_surface)
{
    w.u64(plan.seed());
    w.str(plan.mix_name());
    w.svarint(fault_surface);
    w.varint(plan.windows().size());
    Time prev_start = 0;
    for (const FaultWindow &win : plan.windows()) {
        w.u8(std::uint8_t(win.kind));
        w.svarint(win.start - prev_start); // sorted: deltas stay small
        w.svarint(win.end - win.start);
        w.f64(win.magnitude);
        prev_start = win.start;
    }
}

bool
decode_faults(ByteReader &r, std::shared_ptr<const FaultPlan> &out,
              int &fault_surface)
{
    const std::uint64_t seed = r.u64();
    const std::string mix_name = r.str();
    fault_surface = int(r.svarint());
    const std::uint64_t n = r.count(4);
    std::vector<FaultWindow> windows;
    windows.reserve(n);
    Time prev_start = 0;
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        FaultWindow win;
        win.kind = read_enum<FaultKind>(r, kFaultKindCount, "fault kind");
        win.start = prev_start + r.svarint();
        win.end = win.start + r.svarint();
        win.magnitude = r.f64();
        prev_start = win.start;
        windows.push_back(win);
    }
    if (!r.ok())
        return false;
    out = std::make_shared<const FaultPlan>(
        FaultPlan::from_windows(seed, mix_name, std::move(windows)));
    return true;
}

// ----- scenario payloads -----------------------------------------------

void
encode_scenario(ByteWriter &w, const ScenarioCapture &sc)
{
    w.str(sc.name);
    w.varint(sc.segments.size());
    for (const SegmentCapture &seg : sc.segments) {
        w.u8(std::uint8_t(seg.kind));
        w.svarint(seg.duration);
        w.str(seg.label);

        w.str(seg.costs.name);
        w.f64(seg.costs.rate_hz);
        w.varint(seg.costs.frames.size());
        FrameCost prev{};
        for (const FrameCost &fc : seg.costs.frames) {
            w.svarint(fc.ui_time - prev.ui_time);
            w.svarint(fc.render_time - prev.render_time);
            w.svarint(fc.gpu_time - prev.gpu_time);
            prev = fc;
        }

        w.varint(seg.touch.size());
        Time prev_ts = 0;
        for (const TouchEvent &ev : seg.touch) {
            w.svarint(ev.timestamp - prev_ts);
            w.u8(std::uint8_t(ev.phase));
            w.f64(ev.x);
            w.f64(ev.y);
            w.f64(ev.pinch_distance);
            prev_ts = ev.timestamp;
        }
    }
}

void
decode_scenario(ByteReader &r, ScenarioCapture &sc)
{
    sc.name = r.str();
    const std::uint64_t nseg = r.count(4);
    sc.segments.clear();
    sc.segments.reserve(nseg);
    for (std::uint64_t i = 0; i < nseg && r.ok(); ++i) {
        SegmentCapture seg;
        seg.kind = read_enum<SegmentKind>(r, 4, "segment kind");
        seg.duration = r.svarint();
        seg.label = r.str();

        seg.costs.name = r.str();
        seg.costs.rate_hz = r.f64();
        const std::uint64_t nframes = r.count(3);
        if (nframes == 0 && seg.kind != SegmentKind::kIdle)
            r.fail("a producing segment has no cost table");
        seg.costs.frames.reserve(nframes);
        FrameCost prev{};
        for (std::uint64_t k = 0; k < nframes && r.ok(); ++k) {
            FrameCost fc;
            fc.ui_time = prev.ui_time + r.svarint();
            fc.render_time = prev.render_time + r.svarint();
            fc.gpu_time = prev.gpu_time + r.svarint();
            seg.costs.frames.push_back(fc);
            prev = fc;
        }

        const std::uint64_t ntouch = r.count(26);
        if (ntouch == 0 && seg.kind == SegmentKind::kInteraction)
            r.fail("an interaction segment has no touch events");
        seg.touch.reserve(ntouch);
        Time prev_ts = 0;
        for (std::uint64_t k = 0; k < ntouch && r.ok(); ++k) {
            TouchEvent ev;
            const Time delta = r.svarint();
            if (k > 0 && delta < 0)
                r.fail("touch timestamps go backwards");
            ev.timestamp = prev_ts + delta;
            ev.phase = read_enum<TouchPhase>(r, 3, "touch phase");
            ev.x = r.f64();
            ev.y = r.f64();
            ev.pinch_distance = r.f64();
            seg.touch.push_back(ev);
            prev_ts = ev.timestamp;
        }
        sc.segments.push_back(std::move(seg));
    }
}

// ----- meta payload -----------------------------------------------------

// Bits of the META section map: which optional sections follow. A file
// truncated at a section boundary would otherwise still parse; the map
// makes whole-section loss detectable.
constexpr std::uint8_t kMapFaults = 1u << 0;

void
encode_meta(ByteWriter &w, const SessionCapture &cap,
            std::uint8_t section_map)
{
    w.u8(section_map);
    w.str(cap.label);
    w.u8(cap.verbatim ? 1 : 0);
    w.u64(cap.source_dispatch_hash);
    w.u64(cap.source_report_fnv);
    w.varint(cap.lineage.size());
    for (const std::string &s : cap.lineage)
        w.str(s);
}

void
decode_meta(ByteReader &r, SessionCapture &cap, std::uint8_t &section_map)
{
    section_map = r.u8();
    if (section_map & ~kMapFaults)
        r.fail("unknown bits in the section map");
    cap.label = r.str();
    cap.verbatim = read_bool(r, "verbatim");
    cap.source_dispatch_hash = r.u64();
    cap.source_report_fnv = r.u64();
    const std::uint64_t nlin = r.count(1);
    cap.lineage.clear();
    cap.lineage.reserve(nlin);
    for (std::uint64_t i = 0; i < nlin && r.ok(); ++i)
        cap.lineage.push_back(r.str());
}

} // namespace

SurfaceCapture
SurfaceCapture::from_desc(const SurfaceDesc &desc)
{
    SurfaceCapture s;
    s.name = desc.name;
    s.dvsync_aware = desc.dvsync_aware;
    s.buffer_mb = desc.buffer_mb;
    s.max_extra_buffers = desc.max_extra_buffers;
    s.weight = desc.weight;
    s.start_at = desc.start_at;
    return s;
}

std::string
SessionCapture::encode() const
{
    const FaultPlan *plan = config.faults.get();

    ByteWriter w;
    w.raw(kMagic, 4);
    w.u16(kSchemaVersion);
    w.u8(std::uint8_t(kind));
    w.u8(0); // reserved

    w.begin_section(kTagMeta);
    encode_meta(w, *this, plan ? kMapFaults : 0);
    w.end_section();

    w.begin_section(kTagConf);
    encode_config(w, config, surfaces);
    w.end_section();

    if (plan) {
        w.begin_section(kTagFaults);
        encode_faults(w, *plan, config.display.fault_surface);
        w.end_section();
    }

    w.begin_section(kTagSegments);
    w.varint(surfaces.size());
    for (const SurfaceCapture &s : surfaces)
        encode_scenario(w, s.scenario);
    w.end_section();

    return w.take();
}

bool
SessionCapture::decode(const std::string &bytes, SessionCapture &out,
                       std::string &error)
{
    // Decode into a scratch capture; `out` is only assigned on success.
    SessionCapture cap;

    if (bytes.size() < 8) {
        error = "not a .dvst file: shorter than the 8-byte header";
        return false;
    }
    if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
        error = "not a .dvst file: bad magic";
        return false;
    }
    const std::uint16_t version =
        std::uint16_t(std::uint8_t(bytes[4]) |
                      (std::uint16_t(std::uint8_t(bytes[5])) << 8));
    if (version != kSchemaVersion) {
        error = "unsupported .dvst schema version " +
                std::to_string(version) + " (this build reads version " +
                std::to_string(kSchemaVersion) + ")";
        return false;
    }
    const std::uint8_t kind_byte = std::uint8_t(bytes[6]);
    if (kind_byte > 1) {
        error = "bad capture kind byte " + std::to_string(kind_byte);
        return false;
    }
    cap.kind = Kind(kind_byte);
    if (std::uint8_t(bytes[7]) != 0) {
        error = "nonzero reserved header byte";
        return false;
    }

    // Sections must appear in canonical order: META, CONF, [FALT],
    // SEGS — strictness is what lets the fuzz tests promise that every
    // corrupted byte is caught.
    enum Stage { kWantMeta, kWantConf, kWantSegs, kDone };
    Stage stage = kWantMeta;
    std::shared_ptr<const FaultPlan> plan;
    int fault_surface = 0;
    bool have_faults = false;
    std::uint8_t section_map = 0;

    std::size_t pos = 8;
    while (pos < bytes.size()) {
        if (bytes.size() - pos < 12) {
            error = "truncated section header";
            return false;
        }
        const char *tag = bytes.data() + pos;
        const std::uint32_t len =
            std::uint32_t(std::uint8_t(bytes[pos + 4])) |
              (std::uint32_t(std::uint8_t(bytes[pos + 5])) << 8) |
              (std::uint32_t(std::uint8_t(bytes[pos + 6])) << 16) |
              (std::uint32_t(std::uint8_t(bytes[pos + 7])) << 24);
        if (bytes.size() - pos - 12 < len) {
            error = "section length exceeds file size";
            return false;
        }
        const char *payload = bytes.data() + pos + 8;
        const std::size_t crc_pos = pos + 8 + len;
        const std::uint32_t stored_crc =
            std::uint32_t(std::uint8_t(bytes[crc_pos])) |
            (std::uint32_t(std::uint8_t(bytes[crc_pos + 1])) << 8) |
            (std::uint32_t(std::uint8_t(bytes[crc_pos + 2])) << 16) |
            (std::uint32_t(std::uint8_t(bytes[crc_pos + 3])) << 24);
        const std::string tag_str(tag, 4);
        if (dvst_crc32(payload, len) != stored_crc) {
            error = "CRC mismatch in section " + tag_str;
            return false;
        }
        ByteReader r(std::string_view(payload, len));

        if (tag_is(tag, kTagMeta)) {
            if (stage != kWantMeta) {
                error = "META section out of order or duplicated";
                return false;
            }
            decode_meta(r, cap, section_map);
            stage = kWantConf;
        } else if (tag_is(tag, kTagConf)) {
            if (stage != kWantConf) {
                error = "CONF section out of order or duplicated";
                return false;
            }
            decode_config(r, cap.config, cap.surfaces);
            stage = kWantSegs;
        } else if (tag_is(tag, kTagFaults)) {
            if (stage != kWantSegs || have_faults) {
                error = "FALT section out of order or duplicated";
                return false;
            }
            if (!decode_faults(r, plan, fault_surface)) {
                error = "malformed FALT section: " + r.error();
                return false;
            }
            have_faults = true;
        } else if (tag_is(tag, kTagSegments)) {
            if (stage != kWantSegs) {
                error = "SEGS section out of order or duplicated";
                return false;
            }
            if (r.count(4) != cap.surfaces.size()) {
                error = "scenario count does not match the declared "
                        "surfaces";
                return false;
            }
            for (SurfaceCapture &s : cap.surfaces)
                decode_scenario(r, s.scenario);
            stage = kDone;
        } else {
            error = "unknown section tag \"" + tag_str + "\"";
            return false;
        }

        if (!r.ok()) {
            error = "malformed " + tag_str + " section: " + r.error();
            return false;
        }
        if (!r.at_end()) {
            error = "trailing bytes in section " + tag_str;
            return false;
        }
        pos = crc_pos + 4;
    }

    if (stage == kWantMeta || stage == kWantConf) {
        error = "missing required sections (META/CONF)";
        return false;
    }
    if (stage == kWantSegs) {
        error = "missing required SEGS section";
        return false;
    }
    // Cross-check the META section map: a file cut at a section boundary
    // (or one with a bolted-on optional section) is not a valid capture.
    if (have_faults != bool(section_map & kMapFaults)) {
        error = have_faults
                    ? "FALT section present but not declared in META"
                    : "FALT section declared in META but missing";
        return false;
    }

    if (have_faults) {
        if (cap.kind == Kind::kSingle && fault_surface != 0) {
            error = "single-app capture targets faults at surface " +
                    std::to_string(fault_surface);
            return false;
        }
        cap.config.faults = plan;
        cap.config.display.fault_surface = fault_surface;
    }
    // The header's kind byte lies outside every CRC; a capture replay
    // could not assemble is malformed, whichever byte made it so.
    const std::string unbuildable = RenderSystem::config_error(
        cap.config, cap.kind == Kind::kMulti, cap.surfaces.size());
    if (!unbuildable.empty()) {
        error = "capture cannot be replayed: " + unbuildable;
        return false;
    }

    out = std::move(cap);
    return true;
}

bool
SessionCapture::save(const std::string &path) const
{
    const std::string bytes = encode();
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    f.write(bytes.data(), std::streamsize(bytes.size()));
    return bool(f);
}

bool
SessionCapture::load(const std::string &path, SessionCapture &out,
                     std::string &error)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    if (!decode(buf.str(), out, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

} // namespace dvs
