/**
 * @file
 * D-VSync runtime controller and dual-channel decoupling APIs (§4.5).
 *
 * The runtime is the switchboard between the OS rendering framework and
 * the D-VSync modules:
 *
 *  - Decoupling-oblivious channel: unmodified apps get pre-rendering for
 *    framework-tagged deterministic animations automatically; the runtime
 *    decides per segment whether decoupling applies.
 *
 *  - Decoupling-aware channel: apps that bypass the OS framework (games,
 *    browsers, maps) use the exposed capabilities — (1) registering input
 *    predictors on the IPL for interactive scenarios, (2) configuring the
 *    pre-rendering limit, (3) retrieving the frame display time, and
 *    (4) switching D-VSync on/off at runtime.
 */

#ifndef DVS_CORE_DVSYNC_RUNTIME_H
#define DVS_CORE_DVSYNC_RUNTIME_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_queue.h"
#include "core/display_time_virtualizer.h"
#include "core/dvsync_config.h"
#include "core/input_prediction_layer.h"
#include "metrics/run_report.h"
#include "pipeline/producer.h"

namespace dvs {

class FramePreExecutor;
class InvariantMonitor;

/**
 * Runtime controller + public API surface of D-VSync.
 */
class DvsyncRuntime
{
  public:
    explicit DvsyncRuntime(const DvsyncConfig &config);

    /**
     * Wire the runtime to the pipeline. Installs the IPL content sampler
     * and predictor-overhead hook on the producer.
     */
    void bind(Producer &producer, DisplayTimeVirtualizer &dtv,
              FramePreExecutor &fpe, BufferQueue &queue);

    // ----- runtime switch (API capability 4) ---------------------------

    bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }

    // ----- graceful degradation (robustness) ---------------------------

    /**
     * Arm the degradation watchdog: on every present-fence event the
     * runtime checks for sustained invariant pressure (via @p monitor,
     * may be null), display stalls, and DTV desync. When a trigger fires
     * it *degrades* — switches D-VSync off so the FPE falls back to
     * conventional VSync pacing — and resyncs the DTV promise chain.
     * After 32 clean presents it *re-promotes* back to decoupled
     * operation. Call after bind(); the thresholds are fixed
     * (dvsync_runtime.cc). Off unless attached; RenderSystem attaches
     * it whenever a fault plan or the governor is present.
     */
    void attach_watchdog(Panel &panel, const InvariantMonitor *monitor);

    /**
     * Operator kill switch: degrade to the VSync fallback immediately,
     * exactly as if a watchdog trigger fired (D-VSync off, DTV promise
     * chain resynced, transition recorded). Vendors ship this to
     * force-disable a feature in the field; tests use it to pin the
     * degraded-path behavior deterministically. If the watchdog is
     * armed it re-promotes after the usual stable streak. No-op when
     * already degraded.
     */
    void force_degrade(Time now, const std::string &detail);

    /** Currently running on the VSync fallback path? */
    bool degraded() const { return degraded_; }

    /** D-VSync -> VSync fall-backs performed by the watchdog. */
    std::uint64_t degradations() const { return degradations_; }

    /** VSync -> D-VSync re-promotions performed by the watchdog. */
    std::uint64_t repromotions() const { return repromotions_; }

    /**
     * Current re-promotion backoff multiplier (1 = no backoff). Each
     * degradation within 2 s of the previous one doubles it, up to 8,
     * lengthening the stable streak the next re-promotion must earn.
     */
    int backoff_multiplier() const { return wd_backoff_mult_; }

    /** Degrades and re-promotions in time order, at most kMaxTransitions. */
    const std::vector<Transition> &transitions() const
    {
        return transitions_;
    }

    static constexpr int kMaxTransitions = 256;

    // ----- decoupling decision (oblivious channel) ----------------------

    /**
     * Whether decoupled pre-rendering applies to @p seg: deterministic
     * animations always; interactions only with a registered predictor;
     * real-time content never (§4.2).
     */
    bool can_decouple(const Segment &seg) const;

    // ----- IPL (API capability 1) ---------------------------------------

    InputPredictionLayer &ipl() { return ipl_; }
    const InputPredictionLayer &ipl() const { return ipl_; }

    /** Register a predictor for interaction segments labelled @p label. */
    void register_predictor(const std::string &label,
                            std::shared_ptr<const InputPredictor> p);

    // ----- pre-rendering limit (API capability 2) ------------------------

    /**
     * Reconfigure the pre-rendering limit; the buffer queue is resized to
     * limit + 2 slots to hold the accumulated frames.
     */
    void set_prerender_limit(int limit);
    int prerender_limit() const;

    // ----- frame display time (API capability 3) --------------------------

    /**
     * The display timestamp the next frame would receive — what a
     * custom-rendering app samples its own animations with.
     */
    Time query_display_time() const;

    const DvsyncConfig &config() const { return config_; }

  private:
    void on_watchdog_present(const PresentEvent &ev);
    void degrade(Time now, Transition::Reason reason, std::int64_t count,
                 const std::string &detail = {});
    void repromote(Time now);
    void record_transition(Time now, Transition::Reason reason,
                           std::int64_t count, const std::string &detail);

    DvsyncConfig config_;
    bool enabled_ = true;
    InputPredictionLayer ipl_;

    Producer *producer_ = nullptr;
    DisplayTimeVirtualizer *dtv_ = nullptr;
    FramePreExecutor *fpe_ = nullptr;
    BufferQueue *queue_ = nullptr;

    // ----- watchdog state ----------------------------------------------
    bool watchdog_armed_ = false;
    const InvariantMonitor *monitor_ = nullptr;
    bool degraded_ = false;
    std::uint64_t degradations_ = 0;
    std::uint64_t repromotions_ = 0;
    Time wd_last_present_ = kTimeNone;
    int desync_streak_ = 0;
    int stable_streak_ = 0;
    int wd_backoff_mult_ = 1;
    int wd_required_streak_ = 0; ///< set on each degrade()
    Time wd_last_degrade_ = kTimeNone;
    std::uint64_t streak_violation_base_ = 0;
    std::vector<Transition> transitions_;
};

} // namespace dvs

#endif // DVS_CORE_DVSYNC_RUNTIME_H
