/**
 * @file
 * Frame producer: the app UI thread + render service pipeline.
 *
 * The producer plays a Scenario: for each frame-producing segment it runs
 * the two-stage pipeline of §2 — UI logic on the UI thread, then GPU
 * rendering on the render thread — and queues the result into the buffer
 * queue the screen consumes.
 *
 * *When* each frame starts, and with what timestamps, is delegated to a
 * FramePacer: the baseline VsyncPacer paces every frame with software
 * VSync callbacks (the conventional architecture), while D-VSync's Frame
 * Pre-Executor (core/frame_pre_executor.h) starts frames ahead of the
 * display through the same interface.
 */

#ifndef DVS_PIPELINE_PRODUCER_H
#define DVS_PIPELINE_PRODUCER_H

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "buffer/buffer_queue.h"
#include "pipeline/exec_resource.h"
#include "pipeline/frame.h"
#include "sim/inline_ring.h"
#include "sim/simulator.h"
#include "vsyncsrc/choreographer.h"
#include "vsyncsrc/vsync_distributor.h"
#include "workload/scenario.h"

namespace dvs {

class Producer;

/** Context handed to the content sampler of interactive frames. */
struct SampleContext {
    const Segment *segment = nullptr;
    /** Execution time, relative to the segment start. */
    Time now_rel = 0;
    /** Content timestamp, relative to the segment start. */
    Time content_rel = 0;
};

/**
 * Decides when frames start and what timestamps they carry.
 *
 * Implementations: VsyncPacer (baseline, below) and the D-VSync
 * FramePreExecutor (core module).
 */
class FramePacer
{
  public:
    virtual ~FramePacer() = default;

    /** Bind to the producer (called by Producer::set_pacer). */
    virtual void attach(Producer &p) { producer_ = &p; }

    virtual const char *name() const = 0;

    /** A frame-producing segment became active. */
    virtual void on_segment_start(int segment_index) = 0;

    /** The UI stage of @p rec finished; decide about the next frame. */
    virtual void on_ui_complete(const FrameRecord &rec) = 0;

    /** A buffer slot returned to the free list. */
    virtual void on_slot_free() {}

    /** A rendered buffer entered the FIFO. */
    virtual void on_frame_queued(const FrameRecord &rec) { (void)rec; }

    /**
     * Whether the render stage of this frame waits for the next VSync-rs
     * edge (conventional pipeline) or chains immediately (decoupled).
     */
    virtual bool align_render(const FrameRecord &rec) const = 0;

    /**
     * Whether to start a frame on this vsync trigger. Pacers that run at
     * an integer swap interval decline intermediate edges; the producer
     * re-arms the choreographer so the pacer sees the next edge too.
     */
    virtual bool accept_vsync_trigger(const SwVsync &sw)
    {
        (void)sw;
        return true;
    }

    /**
     * Content timestamp of a frame triggered by a software vsync at
     * @p edge. The baseline renders for the edge itself; D-VSync
     * virtualizes even vsync-path frames to their display time so the
     * first frame of an animation paces uniformly with the pre-rendered
     * ones (§4.4).
     */
    virtual Time vsync_content_timestamp(Time edge) const { return edge; }

  protected:
    Producer *producer_ = nullptr;
};

/** Per-segment production bookkeeping. */
struct SegmentState {
    Time abs_start = kTimeNone;     ///< scheduled wall start
    Time abs_end = kTimeNone;       ///< scheduled wall end
    Time anchor = kTimeNone;        ///< first trigger edge (once known)
    Time period = 0;                ///< display period captured at anchor
    std::int64_t total_slots = -1;  ///< frames owed (once anchored)
    std::int64_t next_slot = 0;     ///< next slot to start (or skip)
    std::int64_t started = 0;       ///< frames actually begun
    std::int64_t produced = 0;      ///< frames queued so far
};

/**
 * Plays a scenario through the two-stage rendering pipeline.
 */
class Producer
{
  public:
    using ContentSampler = std::function<double(const SampleContext &)>;
    using QueuedListener = std::function<void(const FrameRecord &)>;

    Producer(Simulator &sim, Scenario scenario, BufferQueue &queue,
             VsyncDistributor &dist);

    /** Must be called before start(). The pacer must outlive the run. */
    void set_pacer(FramePacer *pacer);

    /** Override the interactive-frame content sampler (IPL hook). */
    void set_content_sampler(ContentSampler s) { sampler_ = std::move(s); }

    /** Extra UI-stage cost per frame (e.g. an input predictor's fit). */
    using ExtraCostFn =
        std::function<Time(const Segment &, const FrameRecord &)>;
    void set_extra_ui_cost(ExtraCostFn fn) { extra_cost_ = std::move(fn); }

    /**
     * Rate stamped on produced frames (LTPO co-design installs the
     * rendering-rate source; default: the observed display rate).
     */
    void set_rate_source(std::function<double()> fn)
    {
        rate_source_ = std::move(fn);
    }

    /** Notify @p fn whenever a frame's buffer is queued. */
    void add_queued_listener(QueuedListener fn)
    {
        queued_listeners_.push_back(std::move(fn));
    }

    /**
     * Shape a frame's GPU cost at submission (the thermal plant's
     * frame-coherence factor): receives the record and its nominal GPU
     * cost, returns the cost to submit. Runs before the GPU resource's
     * cost transforms; rec.cost stays nominal.
     */
    using GpuCostShaper =
        std::function<Time(const FrameRecord &, Time nominal)>;
    void set_gpu_cost_shaper(GpuCostShaper fn)
    {
        gpu_shaper_ = std::move(fn);
    }

    /** Schedule the scenario to play starting at absolute time @p at. */
    void start(Time at = 0);

    // ----- Pacer-facing API ------------------------------------------

    /** Request a one-shot software vsync trigger for the next frame. */
    void request_vsync_trigger();

    /**
     * Start a pre-rendered frame (D-VSync path) in the current segment.
     * @pre segment_has_more() for the current segment.
     */
    void begin_pre_rendered(Time content_timestamp);

    /**
     * Skip @p n timeline slots of the current segment: DTV's elasticity
     * to residual drops (§5.1, "skips VSync periods in such cases").
     */
    void skip_slots(int n);

    /** The scenario being played. */
    const Scenario &scenario() const { return scenario_; }

    /** Index of the segment currently driving production (-1 initially). */
    int current_segment() const { return current_segment_; }

    /** Bookkeeping of segment @p i. */
    const SegmentState &segment_state(int i) const { return states_[i]; }

    /** Whether segment @p i still owes frames beyond those started. */
    bool segment_has_more(int i) const;

    /** Frames begun but not yet queued. */
    int in_flight() const { return in_flight_; }

    /** Timeline timestamp of slot @p slot in segment @p i. */
    Time slot_timeline(int i, std::int64_t slot) const;

    // ----- Introspection ---------------------------------------------

    /** All frame records, indexed by frame id. */
    const std::vector<FrameRecord> &records() const { return records_; }

    /**
     * Frame records reserved up front: the most frames the scenario can
     * start on its display timeline (more only if the rate rises).
     */
    std::size_t records_reserved() const { return records_.capacity(); }

    /** Mutable access for the metrics layer (fills present_time). */
    FrameRecord &record(std::uint64_t frame_id)
    {
        return records_[frame_id];
    }

    ExecResource &ui_thread() { return ui_thread_; }
    const ExecResource &ui_thread() const { return ui_thread_; }
    ExecResource &render_thread() { return render_thread_; }
    const ExecResource &render_thread() const { return render_thread_; }
    ExecResource &gpu() { return *gpu_res_; }

    /**
     * Route this producer's GPU submissions to a shared device GPU
     * instead of the private one — several surfaces of one display
     * contend for the same GPU (multi-surface composition). Must be
     * called before start(); @p gpu must outlive the run.
     */
    void use_shared_gpu(ExecResource &gpu);

    /**
     * Resume GPU submissions parked behind another submitter's job on a
     * shared GPU (wired to ExecResource::add_done_listener by the
     * multi-surface system). No-op when nothing is pending or the GPU is
     * still busy.
     */
    void kick_gpu() { pump_gpu(); }

    /** Frames whose UI stage ran (for cost accounting). */
    std::uint64_t frames_started() const { return records_.size(); }

  private:
    void on_segment_event(int i);
    void handle_vsync_trigger(const SwVsync &sw);
    void begin_frame(int seg_idx, std::int64_t slot, Time content_ts,
                     Time timeline_ts, bool pre_rendered);
    const FrameCost &cost_of(int seg_idx, std::int64_t slot);
    void pump_ui();
    void on_ui_done(std::uint64_t id);
    void enqueue_render(std::uint64_t id);
    void pump_render();
    void on_render_done(std::uint64_t id, FrameBuffer *buf);
    void pump_gpu();
    void on_gpu_done(std::uint64_t id, FrameBuffer *buf);
    void finish_frame(std::uint64_t id, FrameBuffer *buf);
    void on_slot_free();
    double sample_content(const Segment &seg, const FrameRecord &rec);

    Simulator &sim_;
    Scenario scenario_;
    BufferQueue &queue_;
    VsyncDistributor &dist_;
    Choreographer choreographer_;
    ExecResource ui_thread_;
    ExecResource render_thread_;
    ExecResource gpu_;
    ExecResource *gpu_res_ = &gpu_;
    FramePacer *pacer_ = nullptr;
    ContentSampler sampler_;
    ExtraCostFn extra_cost_;
    GpuCostShaper gpu_shaper_;
    std::function<double()> rate_source_;
    std::vector<QueuedListener> queued_listeners_;

    std::vector<SegmentState> states_;
    std::vector<FrameRecord> records_;
    // Costs of up to kCostBatch consecutive slots of one segment, drawn
    // with one FrameCostModel::fill() when a frame's slot falls outside
    // them. Drawing them together, not one inside each frame's vsync
    // delivery, runs paper_fleet sessions 7-9% faster; batches of 1 or 8
    // gained nothing measurable.
    static constexpr std::int64_t kCostBatch = 32;
    std::array<FrameCost, kCostBatch> cost_batch_;
    int batch_segment_ = -1;
    std::int64_t batch_first_ = 0;
    std::int64_t batch_size_ = 0;
    // Frames waiting for the UI thread: one or two in practice, since a
    // frame begins on a vsync trigger or within the pre-render limit.
    InlineRing<std::uint64_t, 8> pending_ui_;
    // Render stages must execute in frame order even when a pre-rendered
    // frame's UI finishes while an older frame still waits for its
    // VSync-rs edge; the ring holds ready frames sorted by id, and
    // next_render_id_ gates its front.
    InlineRing<std::uint64_t, 8> pending_render_;
    std::uint64_t next_render_id_ = 0;
    // GPU work is submitted in render-completion order and executes
    // serially; entries pair the frame with its dequeued buffer, so
    // there are never more than the queue has slots.
    InlineRing<std::pair<std::uint64_t, FrameBuffer *>,
               BufferQueue::kMaxSlots>
        pending_gpu_;
    int current_segment_ = -1;
    int in_flight_ = 0;
    Time start_time_ = 0;
    bool started_ = false;
};

/**
 * The conventional VSync pacer (§2): every frame is triggered by a
 * software vsync callback, and render stages align to VSync-rs edges.
 */
class VsyncPacer : public FramePacer
{
  public:
    const char *name() const override { return "vsync"; }

    void on_segment_start(int) override;
    void on_ui_complete(const FrameRecord &rec) override;
    bool align_render(const FrameRecord &) const override { return true; }
};

} // namespace dvs

#endif // DVS_PIPELINE_PRODUCER_H
