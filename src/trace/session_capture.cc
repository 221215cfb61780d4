#include "trace/session_capture.h"

#include <algorithm>
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
encode_config(ByteWriter &w, const SessionCapture &cap)
{
    const SystemConfig &c = cap.config;
    w.u8(std::uint8_t(cap.kind));
    encode_device(w, c.device);
    w.u8(std::uint8_t(c.mode));
    w.svarint(c.buffers);
    w.svarint(c.prerender_limit);
    w.u64(c.seed);
    w.svarint(c.vsync_jitter);
    w.svarint(c.dtv_calibration_interval);
    w.svarint(c.latch_lead);
    w.u8(c.forensics ? 1 : 0);
    w.svarint(c.metrics_interval);
    w.u8(c.thermal.enabled ? 1 : 0);
    w.f64(c.thermal.envelope_scale);
    w.u8(c.governor ? 1 : 0);
    w.f64(c.display.budget_mb);
    w.u8(std::uint8_t(c.display.policy));
    w.varint(cap.surfaces.size());
    for (const SurfaceCapture &s : cap.surfaces) {
        w.str(s.name);
        w.u8(s.dvsync_aware ? 1 : 0);
        w.f64(s.buffer_mb);
        w.svarint(s.max_extra_buffers);
        w.f64(s.weight);
        w.svarint(s.start_at);
    }
}

void
decode_config(ByteReader &r, SessionCapture &cap)
{
    SystemConfig &c = cap.config;
    cap.kind = read_enum<SessionCapture::Kind>(r, 2, "capture kind");
    decode_device(r, c.device);
    c.mode = read_enum<RenderMode>(r, 3, "render mode");
    c.buffers = int(r.svarint());
    c.prerender_limit = int(r.svarint());
    c.seed = r.u64();
    c.vsync_jitter = r.svarint();
    c.dtv_calibration_interval = int(r.svarint());
    c.latch_lead = r.svarint();
    c.forensics = read_bool(r, "forensics");
    c.metrics_interval = r.svarint();
    c.thermal.enabled = read_bool(r, "thermal.enabled");
    c.thermal.envelope_scale = r.f64();
    c.governor = read_bool(r, "governor");
    c.display.budget_mb = r.f64();
    c.display.policy = read_enum<ArbiterPolicy>(r, 2, "arbiter policy");
    const std::uint64_t n = r.count(20);
    std::vector<SurfaceCapture> &surfaces = cap.surfaces;
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
encode_faults(ByteWriter &w, const FaultPlan &plan)
{
    w.u64(plan.seed());
    w.str(plan.mix_name());
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
decode_faults(ByteReader &r, std::shared_ptr<const FaultPlan> &out)
{
    const std::uint64_t seed = r.u64();
    const std::string mix_name = r.str();
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
    w.u16(0); // reserved

    w.begin_section(kTagMeta);
    encode_meta(w, *this, plan ? kMapFaults : 0);
    w.end_section();

    w.begin_section(kTagConf);
    encode_config(w, *this);
    w.end_section();

    if (plan) {
        w.begin_section(kTagFaults);
        encode_faults(w, *plan);
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
    if (bytes[6] != 0 || bytes[7] != 0) {
        error = "nonzero reserved header byte";
        return false;
    }

    // Sections must appear in canonical order: META, CONF, [FALT],
    // SEGS — strictness is what lets the fuzz tests promise that every
    // corrupted byte is caught.
    enum Stage { kWantMeta, kWantConf, kWantSegs, kDone };
    Stage stage = kWantMeta;
    std::shared_ptr<const FaultPlan> plan;
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
            decode_config(r, cap);
            stage = kWantSegs;
        } else if (tag_is(tag, kTagFaults)) {
            if (stage != kWantSegs || have_faults) {
                error = "FALT section out of order or duplicated";
                return false;
            }
            if (!decode_faults(r, plan)) {
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

    cap.config.faults = plan;
    // A capture replay could not assemble is malformed.
    int max_extra = 0;
    for (const SurfaceCapture &s : cap.surfaces)
        max_extra = std::max(max_extra, s.max_extra_buffers);
    const std::string unbuildable =
        RenderSystem::config_error(cap.config, cap.kind == Kind::kMulti,
                                   cap.surfaces.size(), max_extra);
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
