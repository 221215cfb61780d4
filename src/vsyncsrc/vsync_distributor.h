/**
 * @file
 * Software VSync distributor.
 *
 * Receives HW-VSync edges and delivers software vsync to pipeline
 * entities inside the hardware edge — VSync-app for the UI thread,
 * VSync-rs for the render service, VSync-sf for the compositor (§2).
 * Callbacks are one-shot and must be re-requested every frame, matching
 * the Android NativeVSync / Choreographer contract.
 */

#ifndef DVS_VSYNCSRC_VSYNC_DISTRIBUTOR_H
#define DVS_VSYNCSRC_VSYNC_DISTRIBUTOR_H

#include <array>
#include <cstdint>

#include "display/hw_vsync.h"
#include "sim/inline_callback.h"
#include "sim/inline_ring.h"
#include "sim/simulator.h"
#include "vsyncsrc/vsync_model.h"

namespace dvs {

/** Software vsync channels, by pipeline stage. */
enum class VsyncChannel : int {
    kApp = 0, ///< triggers the app UI thread
    kRs = 1,  ///< triggers the render service / render thread
    kSf = 2,  ///< triggers the compositor (SurfaceFlinger)
};

inline constexpr int kNumVsyncChannels = 3;

/** A software vsync delivery. */
struct SwVsync {
    Time timestamp;      ///< the hardware edge, and when the callback ran
    std::uint64_t index; ///< hardware edge counter
    double rate_hz;      ///< panel rate at the edge
};

/**
 * Fans HW-VSync out to software channels, each delivered at the edge.
 *
 * The edge's listener snapshots each channel's batch; the generator's
 * end-of-edge hook, after every other listener, delivers the batches in
 * channel order, in place. A batch is delivered as a scheduled
 * `kVsyncDist` event at the edge's tick instead when an event that would
 * run before such an event is pending at the tick (a `kDisplay` or
 * `kSegment` event, or a batch already scheduled), and so is every later
 * batch of the edge: either way callbacks run in the same order and see
 * the same state.
 */
class VsyncDistributor
{
  public:
    /**
     * A one-shot request, stored inline in the channel's request ring.
     * 32 bytes of capture: `[this]` or `[this, id]` in the pipeline, or
     * a whole `std::function`.
     */
    using Callback = InlineFunction<void(const SwVsync &), 32>;

    VsyncDistributor(Simulator &sim, HwVsyncGenerator &hw);

    /**
     * Request a single callback at the next delivery of @p ch. Requests
     * made at the exact delivery time of an edge wait for the next edge.
     */
    void request_callback(VsyncChannel ch, Callback fn);

    /** Number of outstanding requests on a channel (for tests). */
    std::size_t pending(VsyncChannel ch) const;

    /** The distributor's model of the hardware timeline. */
    const VsyncModel &model() const { return model_; }

  private:
    void on_edge(const VsyncEdge &edge);
    void end_of_edge(const VsyncEdge &edge);
    void schedule_from(const VsyncEdge &edge, int first_ch);
    void deliver(const VsyncEdge &edge, int ch, std::size_t batch);

    Simulator &sim_;
    VsyncModel model_;
    // Per channel, every requested callback in request order. The first
    // scheduled_[ch] of them belong to batches an edge has already taken;
    // the rest wait for the next edge. One callback per surface and stage
    // at most, so a few fit inline.
    std::array<InlineRing<Callback, 4>, kNumVsyncChannels> requests_;
    std::array<std::size_t, kNumVsyncChannels> scheduled_{};
    // The batches the last notified edge took, for its end-of-edge hook.
    std::array<std::size_t, kNumVsyncChannels> edge_batch_{};
    // Batches scheduled as kVsyncDist events and not yet delivered.
    std::size_t deferred_ = 0;
};

} // namespace dvs

#endif // DVS_VSYNCSRC_VSYNC_DISTRIBUTOR_H
