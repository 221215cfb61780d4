#include "core/render_system.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "metrics/stutter_model.h"
#include "sim/logging.h"

namespace dvs {

namespace {

/**
 * Queue capacity every surface starts with. 0 = architecture default:
 * the device's vsync_buffers, plus one under D-VSync (the paper's
 * default D-VSync configuration uses one extra buffer).
 */
int
base_buffers(const SystemConfig &config)
{
    if (config.buffers != 0)
        return config.buffers;
    return config.device.vsync_buffers +
           (config.mode == RenderMode::kDvsync ? 1 : 0);
}

} // namespace

const char *
to_string(RenderMode m)
{
    switch (m) {
      case RenderMode::kVsync:
        return "VSync";
      case RenderMode::kDvsync:
        return "D-VSync";
      case RenderMode::kPaced:
        return "SwapInterval";
    }
    return "?";
}

std::string
RenderSystem::config_error(const SystemConfig &c, bool composed,
                           std::size_t surfaces, int max_extra_buffers)
{
    if (composed) {
        if (surfaces == 0)
            return "a composed display needs at least one surface";
        if (c.thermal.enabled)
            return "a composed display has no thermal plant; "
                   "disable config.thermal";
        if (c.governor)
            return "a composed display has no governor; "
                   "disable config.governor";
        if (c.mode != RenderMode::kVsync)
            return "a composed display paces each surface by "
                   "SurfaceDesc::dvsync_aware; leave config.mode at VSync";
        if (c.buffers != 0)
            return "a composed display sizes its queues from the device "
                   "and the arbiter; leave config.buffers at 0";
        if (c.prerender_limit >= 0)
            return "a composed display derives each pre-render limit "
                   "from its queue; leave config.prerender_limit at -1";
    } else {
        if (surfaces != 1)
            return "a single-app device has exactly one surface";
        if (!(c.display == DisplaySpec()))
            return "config.display needs a composed display; construct "
                   "the RenderSystem from a list of surfaces";
    }
    if (c.governor && !c.thermal.enabled)
        return "the governor needs the thermal plant (its primary "
               "sensor); enable config.thermal";
    // Queues hold their buffers in place; a D-VSync queue is resized to
    // its pre-render limit + 2.
    if (base_buffers(c) + max_extra_buffers > BufferQueue::kMaxSlots ||
        c.prerender_limit + 2 > BufferQueue::kMaxSlots)
        return "a buffer queue holds at most " +
               std::to_string(BufferQueue::kMaxSlots) +
               " buffers; lower config.buffers, config.prerender_limit or "
               "SurfaceDesc::max_extra_buffers";
    return {};
}

/**
 * The single-app device's one surface, @p scenario moved in: unnamed,
 * so its tracks and forensics carry no prefix, paced by config.mode,
 * never arbitrated.
 */
std::vector<RenderSystem::Surface>
RenderSystem::single_surface(const SystemConfig &config, Scenario scenario)
{
    std::vector<Surface> out(1);
    SurfaceDesc &d = out.front().desc;
    d.name.clear();
    d.dvsync_aware = config.mode == RenderMode::kDvsync;
    d.max_extra_buffers = 0;
    d.scenario = std::move(scenario);
    return out;
}

/** One unbuilt surface per declaration, @p descs moved in. */
std::vector<RenderSystem::Surface>
RenderSystem::surfaces_of(std::vector<SurfaceDesc> descs)
{
    std::vector<Surface> out(descs.size());
    for (std::size_t i = 0; i < descs.size(); ++i)
        out[i].desc = std::move(descs[i]);
    return out;
}

RenderSystem::RenderSystem(const SystemConfig &config, Scenario scenario)
    : RenderSystem(config, single_surface(config, std::move(scenario)),
                   false)
{
}

RenderSystem::RenderSystem(const SystemConfig &config,
                           std::vector<SurfaceDesc> surfaces)
    : RenderSystem(config, surfaces_of(std::move(surfaces)), true)
{
}

RenderSystem::RenderSystem(const SystemConfig &config,
                           std::vector<Surface> surfaces, bool composed)
    : config_(config), composed_(composed), buffers_(base_buffers(config)),
      sim_(config.seed), hw_(sim_, config.device.refresh_hz),
      surfaces_(std::move(surfaces))
{
    for (const Surface &s : surfaces_)
        max_extra_ = std::max(max_extra_, s.desc.max_extra_buffers);
    const std::string error =
        config_error(config, composed, surfaces_.size(), max_extra_);
    if (!error.empty())
        fatal("%s", error.c_str());

    if (config.vsync_jitter > 0)
        hw_.set_jitter(config.vsync_jitter, &sim_.rng());

    // Registration order matters: every panel registers its HW-VSync
    // listener first, so each layer latches before the software
    // distributor, the DTVs and the display compositor see the edge.
    // Listeners capture Surface pointers; surfaces_ is sized already
    // and never grows.
    for (Surface &s : surfaces_) {
        session_end_ = std::max(session_end_,
                                s.desc.start_at +
                                    s.desc.scenario.total_duration());
        s.queue.emplace(buffers_);
        s.panel.emplace(hw_, *s.queue);
        s.latch.emplace(*s.panel, config.latch_lead);
    }
    dist_.emplace(sim_, hw_);
    // Pre-sizing the heap and slots keeps the hot loop out of the
    // allocator. A producer schedules every segment boundary of its
    // scenario when it starts; on top of those, no golden and no traces/
    // capture ever had more than 4 events live per surface (its next
    // edge, a vsync delivery, stage completions), and the metrics
    // sampler and the governor tick add one each. A fault plan's
    // scheduled windows are not counted: chaos runs may grow the queue.
    std::size_t live = 2;
    for (const Surface &s : surfaces_)
        live += s.desc.scenario.size() + 4;
    sim_.events().reserve(live);

    if (composed) {
        shared_gpu_.emplace(sim_, "device gpu");
        // A producer only pumps its own GPU backlog when its own job
        // finishes; on a shared GPU the finishing job may belong to
        // another surface, so every completion re-kicks all of them.
        shared_gpu_->add_done_listener([this] {
            for (Surface &s : surfaces_)
                s.producer->kick_gpu();
        });
        arbiter_.emplace(config.display.budget_mb, config.display.policy);
    }
    if (config.thermal.enabled) {
        plant_.emplace(thermal_params_for(config.device.thermal_budget_mw,
                                          config.device.thermal_headroom_c,
                                          config.thermal.envelope_scale));
    }

    for (std::size_t i = 0; i < surfaces_.size(); ++i)
        build_pipeline(surfaces_[i], int(i));

    if (composed) {
        compositor_.emplace(hw_, *shared_gpu_);
        for (Surface &s : surfaces_)
            compositor_->observe(*s.panel);

        display_monitor_.emplace();
        for (std::size_t i = 0; i < surfaces_.size(); ++i)
            display_monitor_->watch_latches(int(i), *surfaces_[i].panel);

        for (const Surface &s : surfaces_) {
            arbiter_->add_surface(s.desc.name, s.desc.buffer_mb,
                                  s.desc.max_extra_buffers, s.desc.weight,
                                  s.desc.dvsync_aware);
        }
        arbiter_->set_apply(
            [this](int id, int extra) { apply_extra(id, extra); });
        arbiter_->set_budget_check(
            [this](Time now, double used_mb, double budget_mb) {
                display_monitor_->on_budget(now, used_mb, budget_mb);
                AllocSample sample;
                sample.at = now;
                sample.used_mb = used_mb;
                alloc_log_.push_back(sample);
            });
    }

    if (plant_)
        attach_plant();
    if (config.faults) {
        Surface &s = surfaces_.front();
        injector_.emplace(sim_, config.faults);
        injector_->arm(hw_, *s.queue, *s.latch, *s.producer);
    }
    if (config.forensics)
        register_metrics();
    if (config.governor)
        install_governor();
}

RenderSystem::~RenderSystem() = default;

int
RenderSystem::prerender_limit_at(int capacity) const
{
    return config_.prerender_limit >= 0
               ? config_.prerender_limit
               : prerender_limit_for_buffers(capacity);
}

void
RenderSystem::build_pipeline(Surface &s, int id)
{
    s.producer.emplace(sim_, std::move(s.desc.scenario), *s.queue, *dist_);
    if (shared_gpu_)
        s.producer->use_shared_gpu(*shared_gpu_);

    if (s.desc.dvsync_aware) {
        DvsyncConfig dc;
        dc.prerender_limit = prerender_limit_at(buffers_);
        dc.calibration_interval = config_.dtv_calibration_interval;

        s.runtime.emplace(dc);
        s.dtv.emplace(sim_, hw_, *s.panel, dc);
        s.fpe.emplace(*s.dtv, *s.queue, *s.panel, *s.runtime, dc);
        s.runtime->bind(*s.producer, *s.dtv, *s.fpe, *s.queue);
        s.producer->set_pacer(&*s.fpe);
    } else if (config_.mode == RenderMode::kPaced) {
        s.swap_pacer.emplace();
        s.producer->set_pacer(&*s.swap_pacer);
    } else {
        s.vsync_pacer.emplace();
        s.producer->set_pacer(&*s.vsync_pacer);
    }

    s.stats.emplace(*s.producer, *s.panel);

    // The classifier reads the RefreshLog FrameStats appends, so it must
    // register its present listener after the stats. It schedules no
    // events and never reads the RNG — always-on is free for
    // determinism. Only surface 0, the fault target, sees the plan.
    DropClassifier::Context cc;
    cc.producer = &*s.producer;
    cc.queue = &*s.queue;
    cc.stats = &*s.stats;
    cc.runtime = ptr(s.runtime);
    cc.dtv = ptr(s.dtv);
    cc.plan = id == 0 ? config_.faults.get() : nullptr;
    cc.gpu = &s.producer->gpu();
    cc.shared_gpu = composed_;
    cc.plant = ptr(plant_);
    if (config_.governor) {
        // governor_ is constructed last; the classifier only calls the
        // closure during the run, when it exists.
        cc.governor_capped = [this] {
            return governor_ && governor_->capping();
        };
    }
    s.classifier.emplace(cc, *s.panel);

    s.monitor.emplace();
    // The FPE's limit bounds accumulated (queued) pre-rendered buffers;
    // one frame in flight when the limit was checked may land on top,
    // hence +1. The arbiter may deepen the queue up to
    // max_extra_buffers, raising the limit with it, so the bound admits
    // the deepest configuration. VSync-paced surfaces have no depth
    // bound.
    const int deepest = buffers_ + s.desc.max_extra_buffers;
    const int depth = s.fpe ? prerender_limit_at(deepest) + 1 : 0;
    s.monitor->attach(*s.producer, *s.panel, depth);
    // Chaos runs always get the safety net; fault-free runs go without,
    // keeping their exact behavior. The governor's final rung hands off
    // to the watchdog, so enabling it arms the watchdog.
    if (s.runtime && (config_.faults || config_.governor))
        s.runtime->attach_watchdog(*s.panel, &*s.monitor);
    if (s.runtime && arbiter_) {
        // Registered after the watchdog's own listener, so the
        // degradation state is already updated for this present when
        // the arbiter hears about it.
        s.panel->add_present_listener([this, id](const PresentEvent &) {
            Surface &sf = at(id);
            const bool degraded = sf.runtime->degraded();
            if (degraded != sf.degraded_seen) {
                sf.degraded_seen = degraded;
                arbiter_->on_surface_degraded(id, degraded, sim_.now());
            }
        });
    }
}

void
RenderSystem::attach_plant()
{
    ThermalPlant *plant = &*plant_;
    // Registered before the fault injector's transforms, so an injected
    // throttle multiplies the DVFS-scaled duration.
    gpu().add_cost_transform([plant](Time, Time duration) {
        return plant->scale_duration(duration);
    });
    gpu().add_usage_listener(
        [plant](Time start, Time end) { plant->on_busy(start, end); });
    // Frame-coherence factor (Anglada-style dynamic sampling): a
    // deterministic animation's follow-up frames re-render mostly
    // coherent content at a fraction of the nominal GPU cost;
    // interactions are partially coherent; real-time content is always
    // new. Depends only on the record, so it is identical at any worker
    // count.
    for (Surface &s : surfaces_) {
        s.producer->set_gpu_cost_shaper(
            [plant](const FrameRecord &rec, Time nominal) {
                const double lo = plant->params().coherent_scale;
                double scale = 1.0;
                if (rec.slot > 0) {
                    if (rec.kind == SegmentKind::kAnimation)
                        scale = lo;
                    else if (rec.kind == SegmentKind::kInteraction)
                        scale = (lo + 1.0) / 2.0;
                }
                return Time(double(nominal) * scale);
            });
    }
}

void
RenderSystem::register_metrics()
{
    MetricsRegistry &m = metrics_.emplace();
    if (composed_) {
        ExecResource *gpu = &*shared_gpu_;
        BufferBudgetArbiter *arb = &*arbiter_;
        m.register_counter("gpu.busy_ns",
                           [gpu] { return double(gpu->total_busy()); });
        m.register_gauge("arbiter.used_mb", [arb] { return arb->used_mb(); });
        m.register_counter("arbiter.rearbitrations", [arb] {
            return double(arb->rearbitrations());
        });
    }
    for (Surface &s : surfaces_) {
        // A composed display names each surface's series "<surface>.".
        const std::string p = composed_ ? s.desc.name + "." : "";
        BufferQueue *queue = &*s.queue;
        Producer *producer = &*s.producer;
        Panel *panel = &*s.panel;
        m.register_gauge(p + "queue.depth",
                         [queue] { return double(queue->queued_count()); });
        m.register_gauge(p + "queue.free",
                         [queue] { return double(queue->free_count()); });
        m.register_counter(p + "ui.busy_ns", [producer] {
            return double(producer->ui_thread().total_busy());
        });
        m.register_counter(p + "render.busy_ns", [producer] {
            return double(producer->render_thread().total_busy());
        });
        // A shared GPU is one device-level series (above); a private one
        // keeps its place among its surface's series.
        if (!composed_) {
            m.register_counter(p + "gpu.busy_ns", [producer] {
                return double(producer->gpu().total_busy());
            });
        }
        m.register_counter(p + "panel.presents",
                           [panel] { return double(panel->presented()); });
        m.register_counter(p + "panel.repeats",
                           [panel] { return double(panel->repeats()); });
        Compositor *latch = &*s.latch;
        m.register_counter(p + "compositor.latch_misses", [latch] {
            return double(latch->missed_deadline());
        });
        FrameStats *stats = &*s.stats;
        m.register_counter(p + "stats.drops",
                           [stats] { return double(stats->frame_drops()); });
        if (DvsyncRuntime *rt = ptr(s.runtime)) {
            m.register_gauge(p + "runtime.degraded",
                             [rt] { return rt->degraded() ? 1.0 : 0.0; });
        }
        if (FramePreExecutor *fpe = ptr(s.fpe)) {
            m.register_counter(p + "fpe.pre_rendered", [fpe] {
                return double(fpe->pre_rendered_frames());
            });
        }
    }
    if (ThermalPlant *plant = ptr(plant_)) {
        Simulator *sim = &sim_;
        m.register_gauge("thermal.temp_c", [plant, sim] {
            return plant->temperature_at(sim->now());
        });
        m.register_gauge("thermal.level",
                         [plant] { return double(plant->level()); });
        m.register_counter("thermal.trips", [plant] {
            return double(plant->throttle_trips());
        });
        m.register_counter("power.gpu_mj",
                           [plant] { return plant->gpu_energy_mj(); });
    }
    // Default cadence: 16 refresh periods. Dense per-period sampling is
    // available by setting metrics_interval to device.period(), but
    // idle-heavy runs would then pay for a tick per refresh — the sparse
    // default keeps the sampler within the 5% extra-event budget
    // tests/test_forensics.cpp enforces.
    const Time interval = config_.metrics_interval > 0
                              ? config_.metrics_interval
                              : config_.device.period() * 16;
    m.install(sim_, interval);
}

void
RenderSystem::install_governor()
{
    Surface &s = surfaces_.front();
    DvsyncRuntime *rt = ptr(s.runtime);
    GovernorHooks hooks;
    if (s.fpe) {
        const int nominal = s.fpe->prerender_limit();
        hooks.trim_prerender = [rt, nominal](bool on) {
            rt->set_prerender_limit(on ? 1 : nominal);
        };
    }
    if (!config_.device.ltpo_rates.empty()) {
        HwVsyncGenerator *hw = &hw_;
        const double lowest = config_.device.ltpo_rates.back();
        const double native = config_.device.refresh_hz;
        hooks.ltpo_cap = [hw, lowest, native](bool on) {
            hw->request_rate(on ? lowest : native);
        };
    }
    ThermalPlant *plant = &*plant_;
    if (plant->level_count() > 1) {
        const int floor = std::min(2, plant->level_count() - 1);
        hooks.dvfs_cap = [plant, floor](bool on) {
            plant->set_governor_floor(on ? floor : 0);
        };
    }
    if (rt) {
        hooks.handoff = [rt](Time now) {
            rt->force_degrade(now, "governor handoff");
        };
        hooks.handoff_cleared = [rt] { return !rt->degraded(); };
    }
    governor_.emplace(plant->params().throttle_c, std::move(hooks));
    sensors_.emplace(*plant, *s.stats);
    // One control decision every 4 refresh periods.
    governor_->install(sim_, *sensors_, config_.device.period() * 4);
}

void
RenderSystem::apply_extra(int id, int extra)
{
    Surface &s = at(id);
    const int capacity = buffers_ + extra;
    s.queue->set_capacity(capacity);
    // Oblivious surfaces just get a deeper FIFO (their pacing never
    // fills it); aware surfaces convert the extra slots into pre-render
    // depth. Revocation shrinks lazily as the display drains slots.
    if (s.fpe)
        s.fpe->set_prerender_limit(prerender_limit_for_buffers(capacity));
    AllocSample sample;
    sample.at = sim_.now();
    sample.surface = id;
    sample.extra = extra;
    alloc_log_.push_back(sample);
}

RunReport
RenderSystem::run()
{
    if (ran_)
        panic("RenderSystem::run called twice");
    ran_ = true;

    hw_.start();
    // Initial allocation happens before any frame renders, so surfaces
    // start with their arbitrated depth instead of growing mid-segment.
    if (arbiter_)
        arbiter_->arbitrate(0);

    for (std::size_t i = 0; i < surfaces_.size(); ++i) {
        Surface &s = surfaces_[i];
        s.producer->start(s.desc.start_at);
        if (!arbiter_)
            continue;
        // The surface leaves the arbiter's pool when its scenario ends;
        // its grant returns to the budget and the survivors re-split it.
        const Time ends =
            s.desc.start_at + s.producer->scenario().total_duration();
        const int id = int(i);
        sim_.events().schedule(
            ends, [this, id] { arbiter_->on_surface_exit(id, sim_.now()); },
            EventPriority::kDefault);
    }

    // Drain margin: enough refreshes for the pipeline and any accumulated
    // buffers to reach the panel after the last segment ends.
    const Time tail =
        Time(buffers_ + max_extra_ + 4) * config_.device.period();
    const Time horizon = session_end_ + tail;
    for (Surface &s : surfaces_)
        s.stats->reserve_for(horizon, config_.device.max_refresh_hz());
    sim_.run_until(horizon);
    hw_.stop();
    for (Surface &s : surfaces_)
        s.monitor->finalize(sim_.now());
    if (display_monitor_)
        display_monitor_->finalize(sim_.now());
    return report();
}

std::string
RenderSystem::scenario_label() const
{
    if (!composed_)
        return at(0).producer->scenario().name();
    std::string label = "multi[";
    for (std::size_t i = 0; i < surfaces_.size(); ++i) {
        if (i > 0)
            label += '+';
        label += surfaces_[i].desc.name;
    }
    return label + ']';
}

std::string
RenderSystem::mode_label() const
{
    if (composed_)
        return std::string("Multi/") + to_string(config_.display.policy);
    return to_string(config_.mode);
}

RunReport
RenderSystem::report() const
{
    if (!ran_)
        panic("RenderSystem::report before run");
    RunReport r;
    r.scenario = scenario_label();
    r.config.mode = mode_label();
    r.config.device = config_.device.name;
    r.config.refresh_hz = config_.device.refresh_hz;
    r.config.buffers = buffers_;
    r.config.seed = config_.seed;
    r.activity = activity();
    r.energy_mj = PowerModel().energy_mj(r.activity);
    if (injector_)
        r.faults_injected = injector_->injected_total();
    composed_ ? composed_report(r) : single_report(r);
    // Surface-major; within a surface, time order with the watchdog's
    // transition first on a tie.
    std::ranges::stable_sort(r.timeline, {}, [](const Transition &t) {
        return std::tie(t.surface, t.at, t.source);
    });
    return r;
}

SurfaceReport
RenderSystem::fold_surface(int id, RunReport &r) const
{
    const Surface &s = at(id);
    const FrameStats &st = *s.stats;
    SurfaceReport sr;
    sr.name = s.desc.name;
    sr.mode = s.desc.dvsync_aware ? "D-VSync" : "VSync";
    sr.buffers = s.queue->capacity();
    sr.buffer_mb = s.desc.buffer_mb;
    sr.fdps = st.fdps();
    sr.fd_percent = st.frame_drop_percent();
    sr.drops = st.frame_drops();
    sr.frames_due = st.frames_due();
    sr.presents = st.presents();
    // percentile() is NaN on an empty sample set; a surface that
    // presented no frames reports 0 latency, so reports stay comparable.
    if (st.latency().count() > 0)
        sr.latency_p95_ms = to_ms(Time(st.latency().percentile(95)));
    sr.invariant_violations = s.monitor->violations();
    sr.drop_causes = s.classifier->counts();
    sr.drops_injected = s.classifier->injected_drops();
    std::uint64_t attributed = 0;
    for (int c = 0; c < kDropCauseCount; ++c) {
        attributed += sr.drop_causes[c];
        r.drop_causes[c] += sr.drop_causes[c];
    }
    if (attributed != sr.drops)
        panic("surface %d drop attribution out of sync: %llu causes vs "
              "%llu drops", id, (unsigned long long)attributed,
              (unsigned long long)sr.drops);
    r.drops_injected += sr.drops_injected;
    r.drops += sr.drops;
    r.frames_due += sr.frames_due;
    r.presents += sr.presents;
    r.direct += st.direct_composition();
    r.stuffed += st.buffer_stuffing();
    r.stutters += count_stutters(st);
    r.deadline_misses += s.latch->missed_deadline();
    r.invariant_violations += sr.invariant_violations;
    if (s.runtime) {
        sr.degradations = s.runtime->degradations();
        sr.repromotions = s.runtime->repromotions();
        r.degradations += sr.degradations;
        r.repromotions += sr.repromotions;
        for (Transition t : s.runtime->transitions()) {
            t.surface = id;
            r.timeline.push_back(std::move(t));
        }
    }
    if (s.dtv)
        r.dtv_resyncs += s.dtv->resyncs();
    return sr;
}

void
RenderSystem::single_report(RunReport &r) const
{
    const SurfaceReport sr = fold_surface(0, r);
    const FrameStats &s = *at(0).stats;
    r.config.prerender_limit = prerender_limit();
    r.fdps = sr.fdps;
    r.fd_percent = sr.fd_percent;
    r.fps = s.fps();
    r.latency_mean_ms = to_ms(Time(s.latency().mean()));
    if (s.latency().count() > 0) {
        r.latency_p50_ms = to_ms(Time(s.latency().percentile(50)));
        r.latency_p99_ms = to_ms(Time(s.latency().percentile(99)));
    }
    r.latency_p95_ms = sr.latency_p95_ms;
    r.latency_max_ms = to_ms(Time(s.latency().max()));
    if (plant_) {
        r.thermal_on = true;
        r.peak_temp_c = plant_->peak_temp_c();
        r.final_temp_c = plant_->temperature_c();
        r.thermal_trips = plant_->throttle_trips();
        r.dvfs_level_end = plant_->level();
        r.gpu_energy_mj = plant_->gpu_energy_mj();
    }
    if (governor_) {
        r.governor_demotions = governor_->demotions();
        r.governor_promotions = governor_->promotions();
        r.governor_rung_end = governor_->rung();
        const std::vector<Transition> &gov = governor_->transitions();
        r.timeline.insert(r.timeline.end(), gov.begin(), gov.end());
    }
}

void
RenderSystem::composed_report(RunReport &r) const
{
    for (std::size_t i = 0; i < surfaces_.size(); ++i) {
        SurfaceReport sr = fold_surface(int(i), r);
        sr.extra_buffers = arbiter_->peak_extra_of(int(i));
        r.surfaces.push_back(std::move(sr));
    }
    // Display aggregates: total drops per second of session wall time
    // (per-surface FDPS stays normalized to each surface's own active
    // duration, the paper's definition).
    const double wall_s = to_seconds(session_end_);
    r.fdps = wall_s > 0 ? double(r.drops) / wall_s : 0.0;
    r.fd_percent =
        r.frames_due > 0 ? 100.0 * double(r.drops) / double(r.frames_due)
                         : 0.0;
    r.fps = wall_s > 0 ? double(r.presents) / wall_s : 0.0;
    r.invariant_violations += display_monitor_->violations();
    r.budget_mb = arbiter_->budget_mb();
    r.budget_used_mb = arbiter_->peak_used_mb();
    r.rearbitrations = arbiter_->rearbitrations();
}

RunActivity
RenderSystem::activity() const
{
    RunActivity a;
    a.wall_time = session_end_;
    for (const Surface &s : surfaces_) {
        a.pipeline_busy += s.producer->ui_thread().total_busy() +
                           s.producer->render_thread().total_busy();
        a.frames_produced += s.producer->frames_started();
        if (s.runtime) {
            a.dvsync_on = true;
            a.predicted_frames += s.runtime->ipl().predictions();
        }
    }
    if (plant_)
        a.gpu_mj = plant_->gpu_energy_mj();
    return a;
}

int
RenderSystem::prerender_limit() const
{
    const FramePreExecutor *fpe = ptr(at(0).fpe);
    return fpe ? fpe->prerender_limit() : 0;
}

void
RenderSystem::export_trace(TraceLog &log) const
{
    char name[64];
    for (const Surface &s : surfaces_) {
        const std::string prefix = composed_ ? s.desc.name + "/" : "";
        for (const FrameRecord &rec : s.producer->records()) {
            std::snprintf(name, sizeof(name), "frame %lld.%lld%s",
                          (long long)rec.segment_index,
                          (long long)rec.slot,
                          rec.pre_rendered ? " (pre)" : "");
            if (rec.ui_start != kTimeNone) {
                log.duration(prefix + "ui thread", name, rec.ui_start,
                             rec.ui_end);
            }
            if (rec.render_start != kTimeNone) {
                log.duration(prefix + "render thread", name,
                             rec.render_start, rec.render_end);
            }
            if (rec.gpu_start != kTimeNone) {
                log.duration(prefix + "gpu", name, rec.gpu_start,
                             rec.gpu_end);
            }
            if (rec.queue_time != kTimeNone &&
                rec.present_time != kTimeNone) {
                log.duration(prefix + "buffer queue", name,
                             rec.queue_time, rec.present_time);
            }
        }
        for (const RefreshLog &ref : s.stats->refreshes()) {
            if (ref.presented)
                log.instant(prefix + "display", "present", ref.time);
            else if (ref.drop)
                log.instant(prefix + "display", "FRAME DROP", ref.time);
        }

        // Queue-depth counter reconstructed from the frame records: a
        // buffer occupies the FIFO from queue_time until its latch.
        std::vector<std::pair<Time, int>> deltas;
        for (const FrameRecord &rec : s.producer->records()) {
            if (rec.queue_time == kTimeNone)
                continue;
            deltas.emplace_back(rec.queue_time, +1);
            if (rec.present_time != kTimeNone)
                deltas.emplace_back(rec.present_time, -1);
        }
        std::sort(deltas.begin(), deltas.end());
        int depth = 0;
        for (std::size_t k = 0; k < deltas.size(); ++k) {
            depth += deltas[k].second;
            if (k + 1 < deltas.size() &&
                deltas[k + 1].first == deltas[k].first)
                continue; // coalesce same-instant changes
            log.counter(prefix + "queued buffers", deltas[k].first,
                        double(depth));
        }
    }

    // Flow events link each frame's slices across its surface's tracks,
    // so one frame can be followed UI -> render -> GPU -> queue ->
    // display.
    forensics().export_flows(log);

    // Arbiter history: per-surface grants and the budget line.
    for (const AllocSample &sample : alloc_log_) {
        if (sample.surface >= 0) {
            log.counter("extra buffers " + at(sample.surface).desc.name,
                        sample.at, double(sample.extra));
        } else {
            log.counter("arbiter used MB", sample.at, sample.used_mb);
            log.counter("arbiter budget MB", sample.at,
                        arbiter_->budget_mb());
        }
    }
}

FrameForensics
RenderSystem::forensics() const
{
    if (!ran_)
        panic("RenderSystem::forensics before run");
    FrameForensics f;
    for (const Surface &s : surfaces_) {
        f.add_surface(s.desc.name, *s.producer, *s.stats, &*s.classifier);
    }
    return f;
}

bool
RenderSystem::save_forensics(const std::string &path) const
{
    return forensics().save(path, scenario_label(), mode_label(),
                            ptr(metrics_));
}

RunReport
run_experiment(const SystemConfig &config, const Scenario &scenario)
{
    RenderSystem system(config, scenario);
    return system.run();
}

RunReport
run_experiment(const SystemConfig &config, std::vector<SurfaceDesc> surfaces)
{
    RenderSystem system(config, std::move(surfaces));
    return system.run();
}

} // namespace dvs
