#include "memif/completion_ctl.h"

#include <cmath>

namespace memif {

CompletionController::CompletionController(const sim::CostModel &cm,
                                           std::uint64_t static_threshold)
    : cm_(cm),
      static_threshold_(static_threshold),
      irq_path_ns_(static_cast<double>(cm.irq_overhead + cm.kthread_wakeup))
{
}

std::size_t
CompletionController::bucket_index(std::uint64_t bytes)
{
    std::size_t idx = 0;
    while (bytes > 1 && idx + 1 < kBuckets) {
        bytes >>= 1;
        ++idx;
    }
    return idx;
}

CompletionMode
CompletionController::choose(std::uint64_t bytes, std::size_t backlog)
{
    const Bucket &b = buckets_[bucket_index(bytes)];
    if (b.samples < kWarmupSamples) {
        // Cold start: exactly the paper's static rule, so the first few
        // transfers of any size behave identically to the fixed config.
        ++decisions_.cold_fallbacks;
        if (bytes < static_threshold_ && backlog == 0) {
            ++decisions_.polled;
            return CompletionMode::kPolled;
        }
        if (backlog >= 2) {
            ++decisions_.moderated;
            return CompletionMode::kModerated;
        }
        ++decisions_.interrupt;
        return CompletionMode::kInterrupt;
    }

    // A backlog means the kthread has other requests to dispatch while
    // this one flies — spin-polling would stall them, and completions
    // will bunch up anyway, which is what moderation amortizes.
    if (backlog >= 2) {
        ++decisions_.moderated;
        return CompletionMode::kModerated;
    }

    // Poll only when the *pessimistic* predicted wait (EWMA plus one
    // smoothed error margin) still beats the interrupt round-trip; a
    // noisy bucket therefore degrades safely to interrupts.
    if (backlog == 0 && b.ewma_ns + b.ewma_err_ns < irq_path_ns_) {
        ++decisions_.polled;
        return CompletionMode::kPolled;
    }
    ++decisions_.interrupt;
    return CompletionMode::kInterrupt;
}

void
CompletionController::observe(std::uint64_t bytes, sim::Duration predicted,
                              sim::Duration actual)
{
    Bucket &b = buckets_[bucket_index(bytes)];
    const double actual_ns = static_cast<double>(actual);
    const double err_ns =
        std::abs(actual_ns - static_cast<double>(predicted));
    if (b.samples == 0) {
        b.ewma_ns = actual_ns;
        b.ewma_err_ns = err_ns;
    } else {
        b.ewma_ns = kAlpha * actual_ns + (1.0 - kAlpha) * b.ewma_ns;
        b.ewma_err_ns = kAlpha * err_ns + (1.0 - kAlpha) * b.ewma_err_ns;
    }
    ++b.samples;
}

sim::Duration
CompletionController::predict(std::uint64_t bytes) const
{
    const Bucket &b = buckets_[bucket_index(bytes)];
    if (b.samples < kWarmupSamples) return 0;
    return static_cast<sim::Duration>(b.ewma_ns);
}

CompletionController::BucketView
CompletionController::bucket(std::uint64_t bytes) const
{
    const Bucket &b = buckets_[bucket_index(bytes)];
    return BucketView{b.samples, b.ewma_ns, b.ewma_err_ns};
}

}  // namespace memif
