#include "mem/copier.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <system_error>
#include <memory>
#include <thread>
#include <vector>

namespace memif::mem {

namespace {

/** How long an idle helper (or lane thread) keeps polling for the next
 *  span before it parks. Waking a parked thread costs more than copying
 *  a chunk, so a helper stays hot across the gaps between a run's large
 *  copies. */
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
            start_locked(job.max_helpers);
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

    /** Start helpers until @p n run (fewer when the host has no thread
     *  to spare). */
    void
    start(unsigned n)
    {
        std::lock_guard<std::mutex> lk(mu_);
        start_locked(n);
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
    /** start() with mu_ held. */
    void
    start_locked(unsigned n)
    {
        try {
            while (threads_.size() < n)
                threads_.emplace_back(&CopyPool::helper_main, this,
                                      epoch_.load(std::memory_order_relaxed));
        } catch (const std::system_error &) {
            // No thread to spare: copy with the helpers there are.
        }
        started_.store(static_cast<unsigned>(threads_.size()),
                       std::memory_order_relaxed);
    }

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

/**
 * One simulation thread's copy lane: a bounded FIFO of spans that one
 * lane thread lands through copy_bytes(). Only the owning thread posts
 * and waits. Whoever holds the drain token (the lane thread, or an
 * owner waiting on a parked lane) copies spans strictly in post order,
 * so the bytes land as a serial copy would leave them.
 */
class CopyLane {
  public:
    /** Start the lane thread, parked until the first waking post (with
     *  no thread to spare, waiters land every span themselves). The copy
     *  pool's helpers start here, on the owner, so the lane thread never
     *  allocates and the host gives it no heap arena of its own. */
    CopyLane()
    {
        pool().start(default_copy_helpers());
        try {
            thread_ = std::thread(&CopyLane::lane_main, this);
            lanes_started_.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::system_error &) {
        }
    }
    CopyLane(const CopyLane &) = delete;
    CopyLane &operator=(const CopyLane &) = delete;

    /** Land what is queued, then stop and join the lane thread. */
    ~CopyLane()
    {
        wait_all();
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable()) thread_.join();
    }

    /** True when every posted span has landed. */
    bool
    idle() const
    {
        return done_.load(std::memory_order_acquire) ==
               posted_.load(std::memory_order_acquire);
    }

    /** Queue a span behind every earlier one (owner only). */
    void
    post(std::byte *dst, const std::byte *src, std::size_t n, bool wake)
    {
        const std::uint64_t p = posted_.load(std::memory_order_relaxed);
        if (p - done_.load(std::memory_order_acquire) >= kLaneDepth)
            wait_until(p - kLaneDepth + 1);
        slots_[p % kLaneDepth] = Span{dst, src, n};
        posted_.store(p + 1, std::memory_order_release);
        posts_.fetch_add(1, std::memory_order_relaxed);
        if (!wake) return;
        bool parked = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            wake_ = true;
            parked = parked_;
        }
        if (parked) cv_.notify_one();
    }

    /** Return once every posted span has landed (owner only). */
    void wait_all() { wait_until(posted_.load(std::memory_order_relaxed)); }

    /** Return once the first @p target posted spans have landed (owner
     *  only). Spins while the lane thread copies; takes the drain token
     *  and copies itself whenever no one holds it. */
    void
    wait_until(std::uint64_t target)
    {
        for (unsigned spins = 1;
             done_.load(std::memory_order_acquire) < target; ++spins) {
            if (take_token()) {
                const std::uint64_t copied = drain(target);
                release_token();
                by_waiters_.fetch_add(copied, std::memory_order_relaxed);
                continue;
            }
            cpu_relax();
            if (spins % kSpinsPerYield == 0) std::this_thread::yield();
        }
    }

    static unsigned
    lanes_started()
    {
        return lanes_started_.load(std::memory_order_relaxed);
    }

    static std::uint64_t
    posts()
    {
        return posts_.load(std::memory_order_relaxed);
    }

    static std::uint64_t
    by_waiters()
    {
        return by_waiters_.load(std::memory_order_relaxed);
    }

  private:
    struct Span {
        std::byte *dst = nullptr;
        const std::byte *src = nullptr;
        std::size_t n = 0;
    };

    bool
    take_token()
    {
        return !draining_.load(std::memory_order_relaxed) &&
               !draining_.exchange(true, std::memory_order_acquire);
    }

    void release_token() { draining_.store(false, std::memory_order_release); }

    /** Land posted spans in order up to @p target (token held); returns
     *  how many this call landed. */
    std::uint64_t
    drain(std::uint64_t target)
    {
        const std::uint64_t from = done_.load(std::memory_order_relaxed);
        for (std::uint64_t d = from; d < target; ++d) {
            const Span s = slots_[d % kLaneDepth];
            copy_bytes(s.dst, s.src, s.n);
            done_.store(d + 1, std::memory_order_release);
        }
        return target > from ? target - from : 0;
    }

    void
    lane_main()
    {
        for (;;) {
            {
                // Park until a post wakes the lane (or the owner leaves).
                std::unique_lock<std::mutex> lk(mu_);
                parked_ = true;
                cv_.wait(lk, [&] { return wake_ || stop_; });
                parked_ = false;
                if (stop_) return;
                wake_ = false;
            }
            do {
                while (!idle()) {
                    if (take_token()) {
                        drain(posted_.load(std::memory_order_acquire));
                        release_token();
                    } else {
                        cpu_relax();
                    }
                }
            } while (await_post());
        }
    }

    /** Poll for the next post for kHelperSpin; false when none came. */
    bool
    await_post() const
    {
        const auto until = std::chrono::steady_clock::now() + kHelperSpin;
        for (unsigned spins = 1;; ++spins) {
            if (!idle()) return true;
            cpu_relax();
            if (spins % kSpinsPerYield != 0) continue;
            if (std::chrono::steady_clock::now() >= until) return false;
            std::this_thread::yield();
        }
    }

    /** Ring of queued spans; slot i % kLaneDepth holds post i from its
     *  post until done_ passes i. */
    std::array<Span, kLaneDepth> slots_{};
    /** Spans posted (written by the owner only). */
    std::atomic<std::uint64_t> posted_{0};
    /** Spans landed (written by the drain-token holder only). */
    std::atomic<std::uint64_t> done_{0};
    /** The drain token: its holder is the one thread copying spans. */
    std::atomic<bool> draining_{false};
    std::mutex mu_;
    std::condition_variable cv_;
    /** The lane thread is asleep on cv_; guarded by mu_. */
    bool parked_ = false;
    /** A post since the lane thread last woke; guarded by mu_. */
    bool wake_ = false;
    /** The owner is leaving; guarded by mu_. */
    bool stop_ = false;
    /** Declared last, after everything the lane thread uses. */
    std::thread thread_;

    static inline std::atomic<unsigned> lanes_started_{0};
    static inline std::atomic<std::uint64_t> posts_{0};
    static inline std::atomic<std::uint64_t> by_waiters_{0};
};

/** This thread's lane, or nullptr before its first large post. A plain
 *  pointer, so the check every byte access makes is one TLS load. */
thread_local CopyLane *t_lane = nullptr;

/** Owns this thread's lane; at thread exit it lands what is queued and
 *  joins the lane thread. */
struct LaneOwner {
    std::unique_ptr<CopyLane> lane;

    LaneOwner() = default;
    LaneOwner(const LaneOwner &) = delete;
    LaneOwner &operator=(const LaneOwner &) = delete;
    ~LaneOwner()
    {
        lane.reset();
        t_lane = nullptr;
    }
};

CopyLane &
this_lane()
{
    if (t_lane == nullptr) {
        thread_local LaneOwner owner;
        owner.lane = std::make_unique<CopyLane>();
        t_lane = owner.lane.get();
    }
    return *t_lane;
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

void
post_copy(std::byte *dst, const std::byte *src, std::size_t n, bool wake)
{
    if (n == 0) return;
    CopyLane *lane = t_lane;
    if (n < kParallelCopyMin && (lane == nullptr || lane->idle())) {
        copy_bytes(dst, src, n);
        return;
    }
    this_lane().post(dst, src, n, wake);
}

void
post_copy(std::byte *dst, const std::byte *src, std::size_t n)
{
    post_copy(dst, src, n, true);
}

void
wait_copies()
{
    CopyLane *lane = t_lane;
    if (lane != nullptr && !lane->idle()) lane->wait_all();
}

unsigned
copy_lanes_started()
{
    return CopyLane::lanes_started();
}

std::uint64_t
lane_posts()
{
    return CopyLane::posts();
}

std::uint64_t
lane_copies_by_waiters()
{
    return CopyLane::by_waiters();
}

}  // namespace memif::mem
