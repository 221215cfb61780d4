/**
 * @file
 * Software VSync distributor.
 *
 * Receives HW-VSync edges and posts software vsync events to pipeline
 * entities at configured offsets — VSync-app for the UI thread, VSync-rs
 * for the render service, VSync-sf for the compositor (§2). Callbacks are
 * one-shot and must be re-requested every frame, matching the Android
 * NativeVSync / Choreographer contract.
 */

#ifndef DVS_VSYNCSRC_VSYNC_DISTRIBUTOR_H
#define DVS_VSYNCSRC_VSYNC_DISTRIBUTOR_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "display/hw_vsync.h"
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
    Time timestamp;      ///< the hardware edge this delivery derives from
    Time delivery_time;  ///< when the callback actually ran (edge+offset)
    std::uint64_t index; ///< hardware edge counter
    double rate_hz;      ///< panel rate at the edge
};

/**
 * Fans HW-VSync out to software channels with per-channel phase offsets.
 */
class VsyncDistributor
{
  public:
    using Callback = std::function<void(const SwVsync &)>;

    VsyncDistributor(Simulator &sim, HwVsyncGenerator &hw);

    /** Set a channel's offset from the hardware edge (>= 0). */
    void set_offset(VsyncChannel ch, Time offset);
    Time offset(VsyncChannel ch) const;

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
    void deliver(const VsyncEdge &edge, Time deliver_at,
                 std::vector<Callback> &batch);

    Simulator &sim_;
    VsyncModel model_;
    std::array<Time, kNumVsyncChannels> offsets_{};
    std::array<std::vector<Callback>, kNumVsyncChannels> pending_;
    // Delivered batches, emptied but holding their capacity: each edge
    // swaps one into pending_[ch] in place of the batch it schedules.
    std::vector<std::vector<Callback>> spare_;
};

} // namespace dvs

#endif // DVS_VSYNCSRC_VSYNC_DISTRIBUTOR_H
