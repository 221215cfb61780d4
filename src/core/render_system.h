/**
 * @file
 * RenderSystem: the one assembler of every simulated device.
 *
 * One facade wires a complete simulated device — HW-VSync generator,
 * software vsync distributor, and per surface a buffer queue, panel,
 * latch compositor and producer — under either the conventional VSync
 * architecture or D-VSync (FPE + DTV + IPL + runtime), runs it, and
 * exposes the metrics. The device kind follows the constructor:
 *
 *  - RenderSystem(config, scenario) is the single-app device of the
 *    paper's evaluation: one surface with a private GPU;
 *  - RenderSystem(config, surfaces) is the composed display of an OS
 *    render service: several surfaces on one shared GPU, the display
 *    compositor, the buffer-budget arbiter and a display-level monitor
 *    (DESIGN.md §5d). A composed display of one surface still composes.
 *
 * This is the entry point for the examples, tests, and benches.
 */

#ifndef DVS_CORE_RENDER_SYSTEM_H
#define DVS_CORE_RENDER_SYSTEM_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buffer/buffer_queue.h"
#include "governor/governor.h"
#include "core/display_time_virtualizer.h"
#include "core/dvsync_config.h"
#include "core/dvsync_runtime.h"
#include "core/frame_pre_executor.h"
#include "display/device_config.h"
#include "display/hw_vsync.h"
#include "display/panel.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_monitor.h"
#include "metrics/frame_stats.h"
#include "metrics/power_model.h"
#include "metrics/run_report.h"
#include "obs/drop_classifier.h"
#include "obs/frame_forensics.h"
#include "obs/metrics_registry.h"
#include "pipeline/compositor.h"
#include "pipeline/producer.h"
#include "pipeline/swap_interval_pacer.h"
#include "sim/simulator.h"
#include "sim/tracing.h"
#include "surface/budget_arbiter.h"
#include "surface/multi_surface_compositor.h"
#include "surface/surface_desc.h"
#include "vsyncsrc/vsync_distributor.h"
#include "workload/scenario.h"

namespace dvs {

/** Rendering architecture under test. */
enum class RenderMode {
    kVsync,  ///< conventional VSync pipeline (§2)
    kDvsync, ///< decoupled rendering and displaying (§4)
    kPaced,  ///< Swappy-style auto swap-interval pacing (baseline)
};

const char *to_string(RenderMode m);

/**
 * Thermal/DVFS plant configuration. Off by default — the GPU then runs
 * at a fixed nominal clock with zero plant-accounted energy, exactly the
 * pre-plant behavior (goldens stay byte-identical).
 */
struct ThermalSpec {
    bool enabled = false;

    /**
     * Envelope scale applied to the device's §6 thermal budget; < 1
     * models a constrained chassis (thin phone, hot day) where the same
     * workload trips the throttle earlier.
     */
    double envelope_scale = 1.0;

    /** Explicit plant parameters; unset derives them from the device. */
    std::optional<ThermalParams> params;
};

/**
 * Settings only a composed display reads; the single-app device rejects
 * any non-default value.
 */
struct DisplaySpec {
    /** Extra-buffer memory budget shared by all surfaces (§6.4), MB. */
    double budget_mb = 0.0;
    ArbiterPolicy policy = ArbiterPolicy::kWeighted;

    /**
     * Display composition cost charged to the shared GPU per refresh
     * that latched at least one layer: base + per_layer × layers.
     */
    Time compose_base = 200'000;      ///< 0.2 ms
    Time compose_per_layer = 100'000; ///< 0.1 ms per latched layer

    /** Surface the fault plan targets (clamped to the surface range). */
    int fault_surface = 0;

    friend bool operator==(const DisplaySpec &,
                           const DisplaySpec &) = default;
};

/**
 * Full configuration of a simulated device. Every field applies to both
 * device kinds except where noted; the composed display rejects (with
 * ConfigError) the settings it cannot honour: thermal, governor, a
 * non-default mode, buffers or prerender_limit.
 */
struct SystemConfig {
    DeviceConfig device;          ///< Table-1 preset (default Pixel 5)
    RenderMode mode = RenderMode::kVsync;

    /**
     * Buffer-queue capacity. 0 = architecture default: the device's
     * vsync_buffers for VSync, vsync_buffers + 1 for D-VSync (the paper's
     * default D-VSync configuration uses one extra buffer).
     */
    int buffers = 0;

    /** Pre-render limit; -1 derives buffers − 2 (D-VSync only). */
    int prerender_limit = -1;

    std::uint64_t seed = 1;

    /** Gaussian HW-VSync jitter (0 = ideal panel). */
    Time vsync_jitter = 0;

    /** DTV calibration interval in edges. */
    int dtv_calibration_interval = 1;

    /** SurfaceFlinger-style latch deadline per surface (0 = direct). */
    Time latch_lead = 0;

    /** VSync-app / VSync-rs offsets from the hardware edge. */
    Time vsync_app_offset = 0;
    Time vsync_rs_offset = 0;

    /** Predictor fitting cost (decoupling-aware apps). */
    Time predictor_overhead = 151'600;

    /** Swap-interval pacing knobs (kPaced mode only). */
    SwapIntervalConfig pacing;

    /**
     * Fault-injection plan for chaos runs; null = no injection. Shared
     * so a sweep can replay one plan across many configurations. A
     * composed display injects into display.fault_surface.
     */
    std::shared_ptr<const FaultPlan> faults;

    /**
     * Run the always-on invariant monitors (passive; cheap): one per
     * surface, plus the cross-surface one of a composed display.
     */
    bool monitor_invariants = true;

    /**
     * Arm the degradation watchdog on every D-VSync runtime. Also armed
     * automatically whenever a fault plan is installed.
     */
    bool watchdog = false;

    /**
     * Enable frame forensics: a MetricsRegistry sampled every
     * metrics_interval (default: one refresh period) and the forensics
     * dump/flow exports. Off by default — the hot path then pays
     * nothing, and the event interleaving is untouched (the sampler
     * schedules simulator events).
     */
    bool forensics = false;

    /**
     * Metrics sampling cadence; 0 derives 16 refresh periods (the
     * low-overhead default — pass device.period() for dense series).
     */
    Time metrics_interval = 0;

    /**
     * Thermal/DVFS plant on the device GPU (closed-loop thermal work).
     */
    ThermalSpec thermal;

    /**
     * Closed-loop governor walking the graded degradation ladder.
     * Requires thermal.enabled (the plant is its primary sensor); arms
     * the watchdog automatically (the ladder's final rung hands off to
     * it).
     */
    GovernorConfig governor;

    /** Composed-display settings (arbiter, composition cost, faults). */
    DisplaySpec display;

    SystemConfig() : device(pixel5()) {}

    // ----- fluent named setters ----------------------------------------
    //
    // Sweep points read as one expression instead of mutate-after-copy
    // blocks:
    //
    //   SystemConfig().with_device(mate60_pro())
    //                 .with_mode(RenderMode::kDvsync)
    //                 .with_buffers(5)

    SystemConfig &with_device(const DeviceConfig &d)
    {
        device = d;
        return *this;
    }
    SystemConfig &with_mode(RenderMode m)
    {
        mode = m;
        return *this;
    }
    SystemConfig &with_buffers(int n)
    {
        buffers = n;
        return *this;
    }
    SystemConfig &with_prerender_limit(int limit)
    {
        prerender_limit = limit;
        return *this;
    }
    SystemConfig &with_seed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }
    SystemConfig &with_vsync_jitter(Time jitter)
    {
        vsync_jitter = jitter;
        return *this;
    }
    SystemConfig &with_dtv_calibration_interval(int edges)
    {
        dtv_calibration_interval = edges;
        return *this;
    }
    SystemConfig &with_latch_lead(Time lead)
    {
        latch_lead = lead;
        return *this;
    }
    SystemConfig &with_offsets(Time app, Time rs)
    {
        vsync_app_offset = app;
        vsync_rs_offset = rs;
        return *this;
    }
    SystemConfig &with_predictor_overhead(Time cost)
    {
        predictor_overhead = cost;
        return *this;
    }
    SystemConfig &with_pacing(const SwapIntervalConfig &p)
    {
        pacing = p;
        return *this;
    }
    SystemConfig &with_faults(std::shared_ptr<const FaultPlan> plan,
                              int surface = 0)
    {
        faults = std::move(plan);
        display.fault_surface = surface;
        return *this;
    }
    SystemConfig &with_monitor_invariants(bool on)
    {
        monitor_invariants = on;
        return *this;
    }
    SystemConfig &with_watchdog(bool on)
    {
        watchdog = on;
        return *this;
    }
    SystemConfig &with_forensics(bool on)
    {
        forensics = on;
        return *this;
    }
    SystemConfig &with_metrics_interval(Time interval)
    {
        metrics_interval = interval;
        return *this;
    }
    SystemConfig &with_thermal(ThermalSpec t)
    {
        thermal = std::move(t);
        return *this;
    }
    /** Enable the plant with the device envelope at @p envelope_scale. */
    SystemConfig &with_thermal_envelope(double envelope_scale)
    {
        thermal.enabled = true;
        thermal.envelope_scale = envelope_scale;
        return *this;
    }
    SystemConfig &with_governor(const GovernorConfig &g)
    {
        governor = g;
        return *this;
    }
    SystemConfig &with_budget_mb(double mb)
    {
        display.budget_mb = mb;
        return *this;
    }
    SystemConfig &with_policy(ArbiterPolicy p)
    {
        display.policy = p;
        return *this;
    }
    SystemConfig &with_compose_cost(Time base, Time per_layer)
    {
        display.compose_base = base;
        display.compose_per_layer = per_layer;
        return *this;
    }
};

/**
 * The assembled device. Construct, optionally customize (register IPL
 * predictors via runtime()), then run(). Per-surface accessors take the
 * surface index, defaulting to the single-app device's only surface.
 */
class RenderSystem
{
  public:
    /** The single-app device: one surface running @p scenario. */
    RenderSystem(const SystemConfig &config, Scenario scenario);

    /**
     * The composed display: every surface of @p surfaces on one shared
     * GPU, composed by the display compositor, with extra buffers
     * granted by the budget arbiter. Rejects (fatal) the SystemConfig
     * settings a composed display cannot honour.
     */
    RenderSystem(const SystemConfig &config,
                 std::vector<SurfaceDesc> surfaces);

    /**
     * Why @p config cannot assemble a device of the given kind with
     * @p surfaces surfaces, or "" when it can. The constructors fail
     * (fatal) with this message; the .dvst loader rejects a capture
     * with it, so a loaded capture always assembles.
     */
    static std::string config_error(const SystemConfig &config,
                                    bool composed, std::size_t surfaces);

    ~RenderSystem();

    RenderSystem(const RenderSystem &) = delete;
    RenderSystem &operator=(const RenderSystem &) = delete;

    /**
     * Run every surface's scenario to completion (plus a drain margin so
     * in-flight frames present) and return the unified result. Surfaces
     * start at SurfaceDesc::start_at and leave the arbiter's pool when
     * their scenario ends.
     */
    RunReport run();

    /**
     * The unified result of the finished run. Valid only after run();
     * components stay accessible for callers that need raw logs. A
     * composed display adds one SurfaceReport slice per surface.
     */
    RunReport report() const;

    // ----- component access -------------------------------------------

    Simulator &sim() { return sim_; }
    const SystemConfig &config() const { return config_; }

    /** Whether this is a composed display (the surfaces constructor). */
    bool composed() const { return composed_; }

    /** Number of surfaces (1 for the single-app device). */
    std::size_t size() const { return surfaces_.size(); }

    HwVsyncGenerator &hw_vsync() { return *hw_; }
    VsyncDistributor &distributor() { return *dist_; }

    /** The shared GPU of a composed display, else surface 0's own. */
    ExecResource &gpu()
    {
        return shared_gpu_ ? *shared_gpu_
                           : surfaces_.front().producer->gpu();
    }

    /**
     * Declaration of surface @p i. Its scenario has moved into the
     * producer; read producer(i).scenario().
     */
    const SurfaceDesc &desc(int i = 0) const { return at(i).desc; }
    BufferQueue &queue(int i = 0) { return *at(i).queue; }
    Panel &panel(int i = 0) { return *at(i).panel; }
    Compositor &latch(int i = 0) { return *at(i).latch; }
    Producer &producer(int i = 0) { return *at(i).producer; }
    FrameStats &stats(int i = 0) { return *at(i).stats; }

    /** D-VSync components of surface @p i; null when it paces by VSync. */
    DvsyncRuntime *runtime(int i = 0) { return at(i).runtime.get(); }
    DisplayTimeVirtualizer *dtv(int i = 0) { return at(i).dtv.get(); }
    FramePreExecutor *fpe(int i = 0) { return at(i).fpe.get(); }

    /** The swap-interval pacer; null unless mode == kPaced. */
    SwapIntervalPacer *pacer() { return at(0).swap_pacer.get(); }

    /** Per-surface invariant monitor; null when monitoring is off. */
    InvariantMonitor *monitor(int i = 0) { return at(i).monitor.get(); }
    const InvariantMonitor *monitor(int i = 0) const
    {
        return at(i).monitor.get();
    }

    /** Drop root-cause classifier of surface @p i (always on). */
    const DropClassifier &classifier(int i = 0) const
    {
        return *at(i).classifier;
    }

    /** Fault injector; null unless a plan was installed. */
    FaultInjector *fault_injector() { return injector_.get(); }

    /** Metrics registry; null unless forensics or the governor is on. */
    MetricsRegistry *metrics() { return metrics_.get(); }
    const MetricsRegistry *metrics() const { return metrics_.get(); }

    /** Thermal/DVFS plant; null unless config.thermal.enabled. */
    ThermalPlant *plant() { return plant_.get(); }
    const ThermalPlant *plant() const { return plant_.get(); }

    /** Governor; null unless config.governor.enabled. */
    Governor *governor() { return governor_.get(); }
    const Governor *governor() const { return governor_.get(); }

    /** Display compositor; null on the single-app device. */
    MultiSurfaceCompositor *compositor() { return compositor_.get(); }

    /** Buffer-budget arbiter; null on the single-app device. */
    BufferBudgetArbiter *arbiter() { return arbiter_.get(); }

    /** Cross-surface monitor; null unless composed and monitoring. */
    InvariantMonitor *display_monitor() { return display_monitor_.get(); }
    const InvariantMonitor *display_monitor() const
    {
        return display_monitor_.get();
    }

    /** Activity summary for the power model, summed over surfaces. */
    RunActivity activity() const;

    /** Queue capacity every surface starts with (before arbitration). */
    int buffers() const { return buffers_; }

    /** Effective pre-render limit of surface 0 (0 when it paces by VSync). */
    int prerender_limit() const;

    /**
     * Export the finished run as Chrome trace events — loadable in
     * chrome://tracing or the Perfetto UI: per surface the UI/render/GPU
     * stages, buffer-queue residency, presents and drops, and a
     * queued-buffers counter; on a composed display the tracks carry a
     * "<surface>/" prefix and the arbiter's allocation history follows
     * (extra buffers per surface, memory used against the budget).
     */
    void export_trace(TraceLog &log) const;

    /**
     * Build the per-frame causal chains of the finished run (span
     * records + attributed drops) of every surface; pure post-run
     * derivation.
     */
    FrameForensics forensics() const;

    /**
     * Write the forensics dump (chains, drops with causes, metric time
     * series when forensics is on) as JSON to @p path.
     */
    bool save_forensics(const std::string &path) const;

  private:
    struct Surface {
        SurfaceDesc desc;
        std::unique_ptr<BufferQueue> queue;
        std::unique_ptr<Panel> panel;
        std::unique_ptr<Compositor> latch;
        std::unique_ptr<Producer> producer;
        std::unique_ptr<FramePacer> vsync_pacer;
        std::unique_ptr<SwapIntervalPacer> swap_pacer;
        std::unique_ptr<DvsyncRuntime> runtime;
        std::unique_ptr<DisplayTimeVirtualizer> dtv;
        std::unique_ptr<FramePreExecutor> fpe;
        std::unique_ptr<FrameStats> stats;
        std::unique_ptr<DropClassifier> classifier;
        std::unique_ptr<InvariantMonitor> monitor;
        bool degraded_seen = false; ///< last watchdog state forwarded
    };

    /** One arbiter decision, kept for the trace export. */
    struct AllocSample {
        Time at = 0;
        int surface = -1; ///< -1 for budget (used_mb) samples
        int extra = 0;
        double used_mb = 0.0;
    };

    RenderSystem(const SystemConfig &config,
                 std::vector<SurfaceDesc> surfaces, bool composed);

    const Surface &at(int i) const { return surfaces_[std::size_t(i)]; }
    Surface &at(int i) { return surfaces_[std::size_t(i)]; }

    int fault_target() const;
    int prerender_limit_at(int capacity) const;
    void build_pipeline(Surface &s, int id);
    void attach_plant();
    void register_metrics();
    void install_governor();
    void apply_extra(int id, int extra);
    RunReport single_report() const;
    RunReport composed_report() const;
    std::string scenario_label() const;
    std::string mode_label() const;

    SystemConfig config_;
    bool composed_;
    int buffers_;
    Simulator sim_;
    std::unique_ptr<HwVsyncGenerator> hw_;
    std::unique_ptr<VsyncDistributor> dist_;
    std::unique_ptr<ExecResource> shared_gpu_;
    std::unique_ptr<ThermalPlant> plant_;
    std::unique_ptr<BufferBudgetArbiter> arbiter_;
    std::vector<Surface> surfaces_;
    std::unique_ptr<MultiSurfaceCompositor> compositor_;
    std::unique_ptr<InvariantMonitor> display_monitor_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<MetricsRegistry> metrics_;
    std::unique_ptr<Governor> governor_;
    std::vector<AllocSample> alloc_log_;
    Time session_end_ = 0; ///< last scenario's end time
    bool ran_ = false;
};

/**
 * One-call entry point: run @p scenario on the single-app device under
 * @p config and return the unified report.
 */
RunReport run_experiment(const SystemConfig &config,
                         const Scenario &scenario);

/**
 * One-call entry point: run @p surfaces on a composed display under
 * @p config and return the unified report.
 */
RunReport run_experiment(const SystemConfig &config,
                         std::vector<SurfaceDesc> surfaces);

} // namespace dvs

#endif // DVS_CORE_RENDER_SYSTEM_H
