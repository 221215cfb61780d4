/**
 * @file
 * Software model of the hardware VSync timeline (DispSync-style).
 *
 * Consumers of vsync timing (the distributor, and D-VSync's Display Time
 * Virtualizer) do not read the hardware directly; they maintain a model of
 * the vsync period and phase from observed edge timestamps and predict
 * future edges from it. The model is resilient to bounded jitter and is
 * recalibrated as new samples arrive — exactly the "calibrates the issued
 * D-Timestamp every few frames with hardware VSync signals to avoid error
 * accumulation" behaviour of §5.1.
 */

#ifndef DVS_VSYNCSRC_VSYNC_MODEL_H
#define DVS_VSYNCSRC_VSYNC_MODEL_H

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace dvs {

/**
 * Estimates the vsync grid (period + phase) from observed hardware edges
 * and answers prediction queries against the estimated grid.
 */
class VsyncModel
{
  public:
    /**
     * @param nominal_period initial period estimate before any samples
     * @param window number of recent samples used for estimation
     */
    explicit VsyncModel(Time nominal_period, int window = 16);

    /**
     * Feed an observed hardware edge timestamp. When the caller samples
     * only every Nth edge (sparse calibration), @p grid_steps tells the
     * model how many periods the step spans so the per-edge delta can be
     * recovered without guessing (a 2x delta is otherwise ambiguous with
     * a rate halving).
     */
    void add_sample(Time edge, int grid_steps = 1);

    /** Current period estimate. */
    Time period() const { return period_; }

    /** Timestamp of the most recent observed edge (kTimeNone if none). */
    Time last_edge() const { return last_edge_; }

    /** Predicted first edge strictly after @p t. */
    Time predict_next(Time t) const;

    /** Predicted edge @p k grid steps after the last observed edge. */
    Time predict_after_last(int k) const;

    /**
     * Prediction error of the model against an actual edge (for tests and
     * calibration metrics): actual − predicted, given the model state
     * before @p actual was added.
     */
    Time prediction_error(Time actual) const;

    /** Reset the model to the nominal period with no samples. */
    void reset();

    /** Notify the model of a deliberate rate change (LTPO). */
    void set_nominal_period(Time period);

    std::uint64_t samples() const { return n_samples_; }

  private:
    void push_delta(Time delta);
    void clear_window();

    Time nominal_period_;
    Time period_;
    Time last_edge_ = kTimeNone;
    // The most recent per-edge deltas, oldest first, in a ring of
    // `window` entries; sum_ is their exact integer sum and mean_ the
    // integer mean, computed once per push: it is both the next edge's
    // reference and, from two deltas on, the period estimate.
    std::vector<Time> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    Time sum_ = 0;
    Time mean_ = 0; ///< sum_ / count_; valid while count_ > 0
    std::uint64_t n_samples_ = 0;
};

} // namespace dvs

#endif // DVS_VSYNCSRC_VSYNC_MODEL_H
