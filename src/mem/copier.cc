#include "mem/copier.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace memif::mem {

namespace {

/** How long an idle helper keeps polling for the next span before it
 *  parks. Waking a parked thread costs more than copying a chunk, so a
 *  helper stays hot across the gaps between a run's large copies. */
constexpr std::chrono::microseconds kHelperSpin{200};
/** Spin iterations between yields, for helpers and for the caller. */
constexpr unsigned kSpinsPerYield = 64;

inline void
cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

bool
overlapping(const std::byte *a, const std::byte *b, std::size_t n)
{
    const auto x = reinterpret_cast<std::uintptr_t>(a);
    const auto y = reinterpret_cast<std::uintptr_t>(b);
    return x < y + n && y < x + n;
}

/** One split span. It lives on the caller's stack, and helpers reach
 *  it only while the pool publishes it. */
struct CopyJob {
    std::byte *dst;
    const std::byte *src;
    std::size_t n;
    std::size_t chunks;
    unsigned max_helpers;
    /** Helpers that joined (under the pool mutex, while published). */
    unsigned joined = 0;
    /** Next unclaimed chunk. */
    std::atomic<std::size_t> next{0};
    /** Helpers that left; a helper's release here is its last touch. */
    std::atomic<unsigned> left{0};

    /** Copy chunks until none is left to claim. */
    void
    run()
    {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= chunks) return;
            const std::size_t off = i * kCopyChunk;
            std::memcpy(dst + off, src + off, std::min(kCopyChunk, n - off));
        }
    }
};

/**
 * The process-wide helper pool. One span at a time: a caller that finds
 * it busy copies serially instead of queueing. Helpers only ever touch
 * a published CopyJob's bytes and counters.
 */
class CopyPool {
  public:
    CopyPool() = default;
    CopyPool(const CopyPool &) = delete;
    CopyPool &operator=(const CopyPool &) = delete;

    /** Stop and join the helpers (at process exit; no caller is left). */
    ~CopyPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
            epoch_.fetch_add(1, std::memory_order_relaxed);
        }
        cv_.notify_all();
        for (std::thread &t : threads_) t.join();
    }

    /** Copy @p job with the caller and up to job.max_helpers helpers;
     *  false (nothing copied) when another caller holds the pool. */
    bool
    run(CopyJob &job)
    {
        if (busy_.exchange(true, std::memory_order_acquire)) return false;
        bool wake = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            try {
                while (threads_.size() < job.max_helpers)
                    threads_.emplace_back(
                        &CopyPool::helper_main, this,
                        epoch_.load(std::memory_order_relaxed));
            } catch (const std::system_error &) {
                // No thread to spare: copy with the helpers there are.
            }
            started_.store(static_cast<unsigned>(threads_.size()),
                           std::memory_order_relaxed);
            job_ = &job;
            epoch_.fetch_add(1, std::memory_order_relaxed);
            wake = parked_ > 0;
        }
        jobs_.fetch_add(1, std::memory_order_relaxed);
        if (wake) cv_.notify_all();
        job.run();
        // Unpublish: no helper joins after this, so `joined` is final.
        unsigned joined = 0;
        {
            std::lock_guard<std::mutex> lk(mu_);
            job_ = nullptr;
            joined = job.joined;
        }
        // Wait for each joined helper's last chunk without parking.
        for (unsigned spins = 1;
             job.left.load(std::memory_order_acquire) != joined; ++spins) {
            cpu_relax();
            if (spins % kSpinsPerYield == 0) std::this_thread::yield();
        }
        busy_.store(false, std::memory_order_release);
        return true;
    }

    unsigned
    started() const
    {
        return started_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    jobs() const
    {
        return jobs_.load(std::memory_order_relaxed);
    }

  private:
    void
    helper_main(std::uint64_t seen)
    {
        for (;;) {
            await_publish(seen);
            CopyJob *job = nullptr;
            {
                // Join only while the span is published.
                std::lock_guard<std::mutex> lk(mu_);
                if (stop_) return;
                seen = epoch_.load(std::memory_order_relaxed);
                job = job_;
                if (job == nullptr || job->joined >= job->max_helpers)
                    continue;
                ++job->joined;
            }
            job->run();
            job->left.fetch_add(1, std::memory_order_release);
        }
    }

    /** Return once the epoch has moved past @p seen (a span was
     *  published, or the pool is stopping): poll for kHelperSpin, then
     *  park on the condvar. */
    void
    await_publish(std::uint64_t seen)
    {
        const auto until = std::chrono::steady_clock::now() + kHelperSpin;
        for (unsigned spins = 1;; ++spins) {
            if (epoch_.load(std::memory_order_relaxed) != seen) return;
            cpu_relax();
            if (spins % kSpinsPerYield != 0) continue;
            if (std::chrono::steady_clock::now() >= until) break;
            std::this_thread::yield();
        }
        std::unique_lock<std::mutex> lk(mu_);
        ++parked_;
        cv_.wait(lk, [&] {
            return epoch_.load(std::memory_order_relaxed) != seen;
        });
        --parked_;
    }

    std::mutex mu_;
    std::condition_variable cv_;
    /** The published span, or nullptr; guarded by mu_. */
    CopyJob *job_ = nullptr;
    /** Helpers asleep on cv_; guarded by mu_. */
    unsigned parked_ = 0;
    /** Set (with an epoch bump) when the pool is destroyed; guarded by
     *  mu_. */
    bool stop_ = false;
    /** Bumped (under mu_) at every publish; helpers poll it. */
    std::atomic<std::uint64_t> epoch_{0};
    /** Held by the one caller whose span is being copied. */
    std::atomic<bool> busy_{false};
    std::atomic<unsigned> started_{0};
    std::atomic<std::uint64_t> jobs_{0};
    /** Guarded by mu_; declared last, after everything helpers use. */
    std::vector<std::thread> threads_;
};

/** Built at its first use and destroyed at process exit, after every
 *  caller is gone. */
CopyPool &
pool()
{
    static CopyPool p;
    return p;
}

/** Helpers copy_bytes() enlists on this host: min(cores, kCopyCoreCap)
 *  - 2, and none on a host of two cores or fewer. */
unsigned
default_copy_helpers()
{
    static const unsigned helpers = [] {
        const unsigned cores =
            std::min(std::max(std::thread::hardware_concurrency(), 1u),
                     kCopyCoreCap);
        return cores > 2 ? cores - 2 : 0;
    }();
    return helpers;
}

}  // namespace

void
copy_bytes(std::byte *dst, const std::byte *src, std::size_t n,
           unsigned helpers)
{
    if (n == 0) return;
    if (overlapping(dst, src, n)) {
        std::memmove(dst, src, n);
        return;
    }
    if (n >= kParallelCopyMin && helpers > 0) {
        CopyJob job{dst, src, n, (n + kCopyChunk - 1) / kCopyChunk, helpers};
        if (pool().run(job)) return;
    }
    std::memcpy(dst, src, n);
}

void
copy_bytes(std::byte *dst, const std::byte *src, std::size_t n)
{
    copy_bytes(dst, src, n, default_copy_helpers());
}

unsigned
copy_helpers_started()
{
    return pool().started();
}

std::uint64_t
parallel_copies()
{
    return pool().jobs();
}

}  // namespace memif::mem
