/**
 * @file
 * Per-frame execution cost and the cost-model interface.
 *
 * The paper's core observation (§3.2) is that frame rendering time follows
 * a power-law distribution: ≥95% of frames are short, ≤5% are heavily
 * loaded key frames. Cost models generate per-frame (UI time, render time)
 * pairs. Costs are a deterministic function of the frame's *nominal index*
 * so the exact same series of workloads can be replayed under VSync and
 * D-VSync (the Fig. 10 comparison) even though the two architectures
 * execute different subsets of frames at different times.
 */

#ifndef DVS_WORKLOAD_FRAME_COST_H
#define DVS_WORKLOAD_FRAME_COST_H

#include <cstdint>
#include <memory>
#include <span>

#include "sim/time.h"

namespace dvs {

/**
 * Stride between the cost-index ranges of consecutive scenario segments:
 * segment i's slot s maps to cost index s + i * kCostIndexStride, so
 * repeated segments (e.g. successive swipes) sample fresh costs while the
 * mapping stays deterministic for VSync/D-VSync comparability.
 */
inline constexpr std::int64_t kCostIndexStride = 1 << 20;

/** Execution cost of one frame, split across pipeline stages. */
struct FrameCost {
    Time ui_time = 0;     ///< app UI-thread logic
    Time render_time = 0; ///< render service / render thread (CPU)
    Time gpu_time = 0;    ///< GPU execution after command submission

    Time total() const { return ui_time + render_time + gpu_time; }

    friend bool operator==(const FrameCost &, const FrameCost &) = default;
};

/**
 * Generates frame costs keyed by nominal frame index.
 *
 * Implementations must be pure functions of the slot index (for a given
 * model state): querying the same index repeatedly, in any order and any
 * number of times, returns the same cost. The trace recorder relies on
 * it — it copies the costs a run already sampled out of the frame
 * records and queries the model only for the slots the run never
 * reached, and replay must see the same table either way.
 *
 * The producer draws its costs in batches through fill(), a segment's
 * slots a few dozen at a time, not one per frame. fill() must return
 * exactly what cost_for() returns, slot by slot; an override exists
 * only to draw a batch faster.
 */
class FrameCostModel
{
  public:
    virtual ~FrameCostModel() = default;

    /** Cost of the frame occupying nominal slot @p nominal_index. */
    virtual FrameCost cost_for(std::int64_t nominal_index) const = 0;

    /**
     * Costs of the consecutive slots @p first, @p first + 1, ...: one
     * per element of @p out. The default calls cost_for() per slot.
     */
    virtual void
    fill(std::int64_t first, std::span<FrameCost> out) const
    {
        for (std::size_t k = 0; k < out.size(); ++k)
            out[k] = cost_for(first + std::int64_t(k));
    }
};

/** Every frame costs the same. Useful for tests and microbenchmarks. */
class ConstantCostModel : public FrameCostModel
{
  public:
    explicit ConstantCostModel(FrameCost cost) : cost_(cost) {}

    ConstantCostModel(Time ui_time, Time render_time)
        : cost_{ui_time, render_time}
    {}

    FrameCost cost_for(std::int64_t) const override { return cost_; }

  private:
    FrameCost cost_;
};

/**
 * Deterministic spikes: every @p spike_interval frames the cost jumps to
 * @p spike, otherwise @p base. Models periodic key frames such as a map
 * loading a new vector-tile level while zooming (§6.5).
 */
class PeriodicSpikeCostModel : public FrameCostModel
{
  public:
    PeriodicSpikeCostModel(FrameCost base, FrameCost spike,
                           std::int64_t spike_interval,
                           std::int64_t spike_phase = 0);

    FrameCost cost_for(std::int64_t nominal_index) const override;

  private:
    FrameCost base_;
    FrameCost spike_;
    std::int64_t interval_;
    std::int64_t phase_;
};

} // namespace dvs

#endif // DVS_WORKLOAD_FRAME_COST_H
