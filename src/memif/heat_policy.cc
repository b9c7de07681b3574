#include "memif/heat_policy.h"

namespace memif::core {

RegionHeat::RegionHeat(const HeatConfig &config, std::uint64_t num_pages)
    : config_(config), num_pages_(num_pages)
{
    buckets_.resize((num_pages + kBucketPages - 1) / kBucketPages);
}

std::uint32_t
RegionHeat::pages_in(std::uint64_t bucket) const
{
    const std::uint64_t first = first_page(bucket);
    const std::uint64_t left = num_pages_ - first;
    return left < kBucketPages ? static_cast<std::uint32_t>(left)
                               : kBucketPages;
}

void
RegionHeat::fold(std::uint64_t bucket, std::uint32_t accessed,
                 std::uint32_t written, std::uint32_t sampled)
{
    HeatBucket &b = buckets_[bucket];
    const bool any = sampled > 0 && accessed > 0;
    const double fraction =
        sampled > 0 ? static_cast<double>(accessed) / sampled : 0.0;

    b.age = static_cast<std::uint8_t>((b.age >> 1) | (any ? 0x80 : 0));
    b.rate = kEwmaAlpha * fraction + (1.0 - kEwmaAlpha) * b.rate;
    if (any) ++b.accessed_epochs;
    if (sampled > 0 && written > 0) ++b.written_epochs;

    bool hot = b.hot;
    if (config_.policy == MigratePolicy::kAging) {
        if (b.age >= config_.aging_promote_threshold)
            hot = true;
        else if (b.age < kAgingDemoteThreshold)
            hot = false;
        // In between: keep the previous classification (hysteresis).
    } else {
        if (b.rate >= kEwmaHotEnter)
            hot = true;
        else if (b.rate <= kEwmaColdExit)
            hot = false;
    }
    if (hot != b.hot) {
        if (b.epochs_since_flip < kPingPongWindow) ++ping_pongs_;
        b.hot = hot;
        b.epochs_since_flip = 0;
    } else if (b.epochs_since_flip < ~0u) {
        ++b.epochs_since_flip;
    }

    // Third band (only a far-tier classify() reads it): independent
    // hysteresis at the bottom of the scale. A hot bucket is never
    // cold, whatever the thresholds say — the bands must not overlap.
    bool cold = b.cold;
    if (config_.policy == MigratePolicy::kAging) {
        if (b.age <= kAgingColdEnter)
            cold = true;
        else if (b.age >= kAgingColdExit)
            cold = false;
    } else {
        if (b.rate <= kEwmaFarEnter)
            cold = true;
        else if (b.rate >= kEwmaFarExit)
            cold = false;
    }
    b.cold = cold && !b.hot;
}

TierVerdict
RegionHeat::classify(std::uint64_t bucket, HeatTier resident,
                     bool far_tier) const
{
    const HeatBucket &b = buckets_[bucket];
    if (b.hot)
        return resident == HeatTier::kFast ? TierVerdict::kStay
                                           : TierVerdict::kToFast;
    if (b.cold && far_tier)
        return resident == HeatTier::kFar ? TierVerdict::kStay
                                          : TierVerdict::kToFar;
    return resident == HeatTier::kSlow ? TierVerdict::kStay
                                       : TierVerdict::kToSlow;
}

}  // namespace memif::core
