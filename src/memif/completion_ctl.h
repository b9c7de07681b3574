/**
 * @file
 * EWMA-driven hybrid completion controller (the adaptive replacement
 * for the paper's static poll_threshold_bytes, §5.4).
 *
 * The paper's kernel thread picks polling vs. interrupts with one fixed
 * byte threshold. That is the right call for the calibrated KeyStone II
 * numbers, but it bakes in the platform: move the bandwidths or the IRQ
 * cost and the crossover moves with them. The controller instead learns
 * the crossover online: it tracks, per log2-size bucket, an EWMA of the
 * *actual* DMA completion time and of the absolute prediction error,
 * and decides each transfer's completion mode from what it has seen —
 *
 *   - kPolled     the predicted wait is shorter than the interrupt
 *                 round-trip and the kthread has nothing else to do, so
 *                 burning the wait on the core is the cheap option;
 *   - kModerated  a backlog is building, so completions will coalesce
 *                 and one moderated IRQ retires the batch;
 *   - kInterrupt  everything else (and whenever the prediction is too
 *                 noisy to trust — polling on a bad guess pins a core).
 *
 * Cold buckets fall back to the static threshold, so behaviour before
 * the first few observations is exactly the paper's. The controller is
 * pure policy: no simulation time is charged here.
 */
#pragma once

#include <array>
#include <cstdint>

#include "sim/cost_model.h"
#include "sim/types.h"

namespace memif {

/** How a transfer's completion is observed (device-side view). */
enum class CompletionMode : std::uint8_t {
    kPolled = 0,   ///< kthread spin-polls is_complete()
    kInterrupt,    ///< one completion IRQ per transfer
    kModerated,    ///< completion IRQ joins the per-TC moderation batch
};

class CompletionController {
  public:
    /** Observations before a bucket's prediction is trusted. */
    static constexpr std::uint32_t kWarmupSamples = 3;
    /** EWMA smoothing factor: higher adapts faster, lower smooths more. */
    static constexpr double kAlpha = 0.25;

    /**
     * @param cm                the platform cost model (for the
     *                          interrupt-path cost the poll decision
     *                          competes against)
     * @param static_threshold  fallback poll threshold in bytes (the
     *                          paper's poll_threshold_bytes) used while
     *                          a bucket is cold
     */
    CompletionController(const sim::CostModel &cm,
                         std::uint64_t static_threshold);

    /**
     * Pick the completion mode for a transfer of @p bytes given
     * @p backlog requests already queued behind it. Deterministic for
     * a given observation history.
     */
    CompletionMode choose(std::uint64_t bytes, std::size_t backlog);

    /**
     * Feed back one completed transfer: @p predicted is what the engine
     * model quoted before the start, @p actual the measured start-to-
     * completion time. Callers must skip retried transfers (a retry's
     * span covers watchdog slack, not DMA service time).
     */
    void observe(std::uint64_t bytes, sim::Duration predicted,
                 sim::Duration actual);

    /** Learned duration estimate for @p bytes; 0 while the bucket is
     *  cold (fewer than kWarmupSamples observations). */
    sim::Duration predict(std::uint64_t bytes) const;

    /** @name Test / diagnostic introspection. */
    ///@{
    struct BucketView {
        std::uint32_t samples = 0;
        double ewma_ns = 0;      ///< smoothed actual completion time
        double ewma_err_ns = 0;  ///< smoothed |actual - predicted|
    };
    BucketView bucket(std::uint64_t bytes) const;

    struct DecisionCounts {
        std::uint64_t polled = 0;
        std::uint64_t interrupt = 0;
        std::uint64_t moderated = 0;
        std::uint64_t cold_fallbacks = 0;  ///< static-threshold decisions
    };
    const DecisionCounts &decisions() const { return decisions_; }
    ///@}

  private:
    struct Bucket {
        std::uint32_t samples = 0;
        double ewma_ns = 0;
        double ewma_err_ns = 0;
    };

    static constexpr std::size_t kBuckets = 28;  ///< log2 sizes 0..27+

    static std::size_t bucket_index(std::uint64_t bytes);

    const sim::CostModel &cm_;
    std::uint64_t static_threshold_;
    /** Cost of the interrupt completion path the poll decision competes
     *  against (IRQ entry + kthread wakeup), in ns. */
    double irq_path_ns_;
    std::array<Bucket, kBuckets> buckets_{};
    DecisionCounts decisions_;
};

}  // namespace memif
