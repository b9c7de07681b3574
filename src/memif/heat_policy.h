/**
 * @file
 * Heat accounting and placement policies for memif-managed mode.
 *
 * The scan kthread folds one sample per page bucket per epoch (from
 * the young/dirty bits it test-and-rearms); the migration daemon asks
 * for a verdict per bucket. Everything here is pure arithmetic over
 * those samples — no simulator, device or clock dependencies — so the
 * decay math and hysteresis bands are unit-testable in isolation.
 *
 * Two policies ship behind MemifConfig::heat.policy:
 *
 *  - kAging: LRU-ish aging vector per bucket. Each epoch shifts the
 *    vector right and ORs the new sample into the MSB, so recency
 *    dominates and one idle epoch halves a bucket's score. Promote at
 *    or above aging_promote_threshold, demote strictly below
 *    kAgingDemoteThreshold; the gap between the two thresholds is the
 *    hysteresis band.
 *
 *  - kEwma: decayed access-rate estimate. rate' = alpha * sample +
 *    (1 - alpha) * rate with sample = accessed fraction of the
 *    bucket's sampled pages. A bucket turns hot when the rate crosses
 *    kEwmaHotEnter from below and turns cold only when it falls to
 *    kEwmaColdExit — the band between the two absorbs oscillating
 *    patterns (no ping-pong on a 50% duty cycle).
 */
#pragma once

#include <cstdint>
#include <vector>

namespace memif::core {

/** Placement policy selector (MemifConfig::heat.policy sub-lever). */
enum class MigratePolicy : std::uint8_t {
    kAging = 0,  ///< aging bit-vector, recency-weighted
    kEwma = 1,   ///< decayed frequency estimate with hysteresis bands
};

/** The settable heat-policy parameters (MemifConfig::heat). */
struct HeatConfig {
    MigratePolicy policy = MigratePolicy::kAging;
    /** kAging: promote when the aging vector reaches this value. */
    std::uint8_t aging_promote_threshold = 0x60;
};

/** Pages aggregated into one heat bucket (the migration unit). */
inline constexpr std::uint32_t kBucketPages = 8;
/** kAging: demote when the aging vector falls strictly below (idle
 *  for four epochs). */
inline constexpr std::uint8_t kAgingDemoteThreshold = 0x10;
/** kEwma: decay factor applied to the new sample. */
inline constexpr double kEwmaAlpha = 0.4;
/** kEwma: rate at or above which a bucket enters the hot set. */
inline constexpr double kEwmaHotEnter = 0.6;
/** kEwma: rate at or below which a bucket leaves the hot set. */
inline constexpr double kEwmaColdExit = 0.2;
/** Hot-state flips closer than this many epochs count as ping-pong. */
inline constexpr std::uint32_t kPingPongWindow = 4;
// Third band (tiered_memory): the cold set, placed on the far tier.
// Its hysteresis is independent of the hot band's — a bucket is cold
// only while far below the warm floor, so the warm middle band
// (neither hot nor cold) rests on DDR.
/** kAging: enter the cold set at or below this aging value. */
inline constexpr std::uint8_t kAgingColdEnter = 0x02;
/** kAging: leave the cold set at or above this aging value. */
inline constexpr std::uint8_t kAgingColdExit = 0x08;
/** kEwma: rate at or below which a bucket enters the cold set. */
inline constexpr double kEwmaFarEnter = 0.05;
/** kEwma: rate at or above which a bucket leaves the cold set. */
inline constexpr double kEwmaFarExit = 0.12;

/** Which tier a bucket currently lives on. */
enum class HeatTier : std::uint8_t { kFast = 0, kSlow = 1, kFar = 2 };

/** Placement verdict: hot buckets belong on the fast tier, warm
 *  buckets stop at DDR, cold buckets sink to the far tier (or rest on
 *  DDR with the warm ones when there is none). */
enum class TierVerdict : std::uint8_t { kStay = 0, kToFast, kToSlow, kToFar };

/** Per-bucket decayed heat state. */
struct HeatBucket {
    std::uint8_t age = 0;          ///< kAging recency vector (MSB newest)
    double rate = 0.0;             ///< kEwma access-rate estimate
    bool hot = false;              ///< hysteresis state (classification)
    /** Third-band hysteresis state. Maintained by every fold() but only
     *  consulted by classify() when there is a far tier. Mutually
     *  exclusive with hot. */
    bool cold = false;
    /** Starts saturated so the first flip (initial classification)
     *  never counts as a ping-pong. */
    std::uint32_t epochs_since_flip = ~0u;
    std::uint64_t accessed_epochs = 0;  ///< epochs with any access seen
    std::uint64_t written_epochs = 0;   ///< epochs with any dirty page
};

/**
 * Heat state for one managed region: a HeatBucket per kBucketPages
 * run of pages, plus the fold/classify machinery shared by both
 * policies.
 */
class RegionHeat {
  public:
    RegionHeat(const HeatConfig &config, std::uint64_t num_pages);

    std::uint64_t num_buckets() const { return buckets_.size(); }
    std::uint64_t bucket_of(std::uint64_t page_idx) const
    {
        return page_idx / kBucketPages;
    }
    /** First page index of @p bucket. */
    std::uint64_t first_page(std::uint64_t bucket) const
    {
        return bucket * kBucketPages;
    }
    /** Number of pages in @p bucket (the last one may be short). */
    std::uint32_t pages_in(std::uint64_t bucket) const;

    /**
     * Fold one epoch's sample for @p bucket: of @p sampled examined
     * pages, @p accessed had their young bit cleared and @p written
     * were dirty. Call exactly once per bucket per epoch — the decay
     * step is applied here, so unsampled epochs must still fold zeros.
     */
    void fold(std::uint64_t bucket, std::uint32_t accessed,
              std::uint32_t written, std::uint32_t sampled);

    /**
     * The policy's desired move for @p bucket given the tier it lives
     * on now. Pure read of the hysteresis state updated by fold(): hot
     * buckets head for the fast tier, cold buckets for the far tier
     * when @p far_tier says there is one, and the rest rests on DDR.
     */
    TierVerdict classify(std::uint64_t bucket, HeatTier resident,
                         bool far_tier) const;

    const HeatBucket &bucket(std::uint64_t i) const { return buckets_[i]; }

    /**
     * Forget a cold bucket's stale sub-threshold heat on wake from
     * dormancy. The sleep gap is unobserved, so heat frozen at entry
     * must not combine with fresh post-wake touches — a rotation that
     * happens to coincide with successive probe epochs would otherwise
     * accumulate across sleeps and cross the promote threshold. Hot
     * buckets keep their state: their dormancy already required a
     * fully-touched bucket, and active folds demote them promptly if
     * the access pattern died while they slept.
     */
    void reset_cold(std::uint64_t bucket)
    {
        HeatBucket &b = buckets_[bucket];
        if (!b.hot) {
            b.age = 0;
            b.rate = 0.0;
        }
    }

    /** Hot-state flips inside kPingPongWindow epochs (stability metric). */
    std::uint64_t ping_pongs() const { return ping_pongs_; }

  private:
    HeatConfig config_;
    std::uint64_t num_pages_ = 0;
    std::vector<HeatBucket> buckets_;
    std::uint64_t ping_pongs_ = 0;
};

}  // namespace memif::core
