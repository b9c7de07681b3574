#include "mem/copier.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace memif::mem {

namespace {

/** How long an idle copier keeps polling for the next chunk before it
 *  parks. Waking a parked thread costs more than copying a chunk, so a
 *  copier stays hot across the gaps between a run's large copies. */
constexpr std::chrono::microseconds kIdleSpin{200};
/** Spin iterations between yields, for copiers and for waiters. */
constexpr unsigned kSpinsPerYield = 64;
/** A claim word holds the head span's sequence number above its next
 *  unclaimed chunk, which gets the low kChunkBits (spans up to 1 TB). */
constexpr unsigned kChunkBits = 24;
constexpr std::uint64_t kChunkMask = (std::uint64_t{1} << kChunkBits) - 1;
/** The copier id a waiting owner takes chunks under. */
constexpr unsigned kOwner = std::numeric_limits<unsigned>::max();

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

std::atomic<std::uint64_t> g_posts{0};
std::atomic<std::uint64_t> g_by_waiters{0};

/**
 * One simulation thread's FIFO of posted spans, a ring of kLaneDepth
 * slots. Only the owner posts and waits. Anyone may copy a chunk of the
 * head span: a CAS on claim_ from (head, i) to (head, i + 1) claims
 * chunk i, and whoever lands the head's last chunk opens the next span,
 * so spans land strictly in post order. A Fifo is never freed while
 * copiers run: a thread that exits hands it back for the next thread.
 */
class Fifo {
  public:
    /** The next Fifo on the copiers' list; set before it is listed. */
    Fifo *next = nullptr;
    /** A thread owns this Fifo. */
    std::atomic<bool> owned{true};

    /** True when every posted span has landed (owner only). */
    bool
    idle() const
    {
        return done_.load(std::memory_order_acquire) ==
               posted_.load(std::memory_order_relaxed);
    }

    /** Queue a span behind every earlier one (owner only). */
    void
    post(std::byte *dst, const std::byte *src, std::size_t n)
    {
        const std::uint64_t p = posted_.load(std::memory_order_relaxed);
        if (p - done_.load(std::memory_order_acquire) >= kLaneDepth)
            wait_until(p - kLaneDepth + 1);
        Slot &s = slots_[p % kLaneDepth];
        s.dst = dst;
        s.src = src;
        s.n = n;
        // An overlapping span is one chunk: only a whole memmove moves
        // it right.
        s.chunks.store(overlapping(dst, src, n)
                           ? 1
                           : (n + kCopyChunk - 1) / kCopyChunk,
                       std::memory_order_relaxed);
        posted_.store(p + 1, std::memory_order_release);
    }

    /** Return once every posted span has landed (owner only). */
    void wait_all() { wait_until(posted_.load(std::memory_order_relaxed)); }

    /** Return once the first @p target posted spans have landed (owner
     *  only), copying chunks of the head span meanwhile. */
    void
    wait_until(std::uint64_t target)
    {
        for (unsigned spins = 1;
             done_.load(std::memory_order_acquire) < target; ++spins) {
            if (take_chunk(kOwner)) continue;
            cpu_relax();
            if (spins % kSpinsPerYield == 0) std::this_thread::yield();
        }
    }

    /** Let copiers below @p n serve this FIFO (owner only, before its
     *  posts: a copier reads it after it sees a post). */
    void
    set_limit(unsigned n)
    {
        limit_.store(n, std::memory_order_relaxed);
    }

    /**
     * Claim and land one chunk of the head span as @p copier (kOwner for
     * the owner, which no limit stops); false when no chunk is free.
     */
    bool
    take_chunk(unsigned copier)
    {
        std::uint64_t c = claim_.load(std::memory_order_acquire);
        const std::uint64_t head = c >> kChunkBits;
        if (head >= posted_.load(std::memory_order_acquire)) return false;
        if (copier != kOwner &&
            copier >= limit_.load(std::memory_order_relaxed))
            return false;
        // The slot may already hold a later span when the head has moved
        // on since claim_ was read; then the CAS below fails.
        Slot &s = slots_[head % kLaneDepth];
        const std::uint64_t i = c & kChunkMask;
        const std::uint64_t chunks = s.chunks.load(std::memory_order_acquire);
        if (i >= chunks ||
            !claim_.compare_exchange_strong(c, c + 1,
                                            std::memory_order_acq_rel))
            return false;
        // Chunk i is ours, and the span stays in its slot until it lands.
        const std::size_t off = i * kCopyChunk;
        std::memmove(s.dst + off, s.src + off,
                     i + 1 == chunks ? s.n - off : kCopyChunk);
        if (landed_.fetch_add(1, std::memory_order_acq_rel) + 1 < chunks)
            return true;
        // The head's last chunk: every other chunk has landed (acquired
        // above), so open the next span, then free this slot. The next
        // span may land before the count below: an add, not a store,
        // keeps done_ from moving back.
        landed_.store(0, std::memory_order_relaxed);
        claim_.store((head + 1) << kChunkBits, std::memory_order_release);
        done_.fetch_add(1, std::memory_order_release);
        if (copier == kOwner)
            g_by_waiters.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

  private:
    struct Slot {
        std::byte *dst = nullptr;
        const std::byte *src = nullptr;
        std::size_t n = 0;
        /** Read before a chunk is claimed, so atomic. */
        std::atomic<std::uint64_t> chunks{0};
    };

    /** Slot p % kLaneDepth holds post p from its post until done_
     *  passes p. */
    std::array<Slot, kLaneDepth> slots_{};
    /** Spans posted (written by the owner only). */
    alignas(64) std::atomic<std::uint64_t> posted_{0};
    /** Spans landed (each counted by whoever lands its last chunk). */
    alignas(64) std::atomic<std::uint64_t> done_{0};
    /** The head span (= done_ once it has opened) and its next chunk. */
    alignas(64) std::atomic<std::uint64_t> claim_{0};
    /** Chunks of the head span landed so far. */
    std::atomic<std::uint64_t> landed_{0};
    /** Copiers with a lower id may serve this FIFO. */
    std::atomic<unsigned> limit_{std::numeric_limits<unsigned>::max()};
};

/**
 * The process-wide copier threads and the list of every Fifo they
 * serve. Built at its first use and destroyed at process exit, after
 * every simulation thread is gone.
 */
class Copiers {
  public:
    Copiers() = default;
    Copiers(const Copiers &) = delete;
    Copiers &operator=(const Copiers &) = delete;

    ~Copiers()
    {
        stop_.store(true, std::memory_order_relaxed);
        wake();
        for (std::thread &t : threads_) t.join();
        for (Fifo *f = fifos_.load(std::memory_order_acquire); f != nullptr;)
            delete std::exchange(f, f->next);
    }

    /** A Fifo for the calling thread: one an exited thread handed back,
     *  or a new one put on the list. */
    Fifo *
    claim_fifo()
    {
        for (Fifo *f = fifos_.load(std::memory_order_acquire); f != nullptr;
             f = f->next) {
            bool owned = false;
            if (f->owned.compare_exchange_strong(owned, true,
                                                 std::memory_order_acquire)) {
                f->set_limit(std::numeric_limits<unsigned>::max());
                return f;
            }
        }
        Fifo *f = new Fifo;
        f->next = fifos_.load(std::memory_order_relaxed);
        while (!fifos_.compare_exchange_weak(f->next, f,
                                             std::memory_order_release)) {
        }
        return f;
    }

    /** Start the copier threads, once per process (on the posting
     *  thread, so no copier ever allocates). */
    void
    start()
    {
        if (running_.load(std::memory_order_acquire)) return;
        std::lock_guard<std::mutex> lk(mu_);
        if (running_.load(std::memory_order_relaxed)) return;
        const unsigned cores = std::min(
            std::max(std::thread::hardware_concurrency(), 1u), kCopyCoreCap);
        try {
            while (threads_.size() + 1 < cores)
                threads_.emplace_back(&Copiers::copier_main, this,
                                      static_cast<unsigned>(threads_.size()));
        } catch (const std::system_error &) {
            // No thread to spare: waiters land what is left.
        }
        started_.store(static_cast<unsigned>(threads_.size()),
                       std::memory_order_relaxed);
        running_.store(true, std::memory_order_release);
    }

    /** Tell parked copiers there is new work (after every post). */
    void
    wake()
    {
        epoch_.fetch_add(1);
        if (parked_.load() == 0) return;
        // A copier between its last check and its wait holds mu_.
        { std::lock_guard<std::mutex> lk(mu_); }
        cv_.notify_all();
    }

    unsigned
    started() const
    {
        return started_.load(std::memory_order_relaxed);
    }

  private:
    /** Land chunks from every FIFO; after kIdleSpin with none, park
     *  until the next post. */
    void
    copier_main(unsigned id)
    {
        for (;;) {
            // Read before the scans below, so a post after any of them
            // keeps park() from sleeping.
            const std::uint64_t seen = epoch_.load();
            const auto until = std::chrono::steady_clock::now() + kIdleSpin;
            for (unsigned spins = 1; !serve(id); ++spins) {
                if (stop_.load(std::memory_order_relaxed)) return;
                cpu_relax();
                if (spins % kSpinsPerYield != 0) continue;
                if (std::chrono::steady_clock::now() >= until) {
                    park(seen);
                    break;
                }
                std::this_thread::yield();
            }
        }
    }

    /** Land one chunk from the first FIFO that has one free. */
    bool
    serve(unsigned id)
    {
        for (Fifo *f = fifos_.load(std::memory_order_acquire); f != nullptr;
             f = f->next)
            if (f->take_chunk(id)) return true;
        return false;
    }

    /** Sleep until the epoch moves past @p seen. With wake(), a
     *  seq_cst pair: either the poster sees parked_ or this sees the new
     *  epoch. */
    void
    park(std::uint64_t seen)
    {
        std::unique_lock<std::mutex> lk(mu_);
        parked_.fetch_add(1);
        cv_.wait(lk, [&] { return epoch_.load() != seen; });
        parked_.fetch_sub(1);
    }

    /** Every Fifo ever made, newest first; entries are never unlinked. */
    std::atomic<Fifo *> fifos_{nullptr};
    std::mutex mu_;
    std::condition_variable cv_;
    /** Bumped at every post and at exit. */
    std::atomic<std::uint64_t> epoch_{0};
    /** Copiers inside park(). */
    std::atomic<unsigned> parked_{0};
    std::atomic<bool> stop_{false};
    std::atomic<bool> running_{false};
    std::atomic<unsigned> started_{0};
    /** Guarded by mu_; declared last, after everything copiers use. */
    std::vector<std::thread> threads_;
};

Copiers &
copiers()
{
    static Copiers c;
    return c;
}

/** This thread's FIFO, or nullptr before it first needs one. A plain
 *  pointer, so the check every byte access makes is one TLS load. */
thread_local Fifo *t_fifo = nullptr;

/** At thread exit, lands what this thread has queued and hands its
 *  FIFO back. */
struct FifoOwner {
    FifoOwner() = default;
    FifoOwner(const FifoOwner &) = delete;
    FifoOwner &operator=(const FifoOwner &) = delete;
    ~FifoOwner()
    {
        t_fifo->wait_all();
        t_fifo->owned.store(false, std::memory_order_release);
        t_fifo = nullptr;
    }
};

Fifo &
this_fifo()
{
    if (t_fifo == nullptr) {
        t_fifo = copiers().claim_fifo();
        thread_local FifoOwner owner;
    }
    return *t_fifo;
}

}  // namespace

void
post_copy(std::byte *dst, const std::byte *src, std::size_t n)
{
    if (n == 0) return;
    if (n < kParallelCopyMin && (t_fifo == nullptr || t_fifo->idle())) {
        std::memmove(dst, src, n);
        return;
    }
    Copiers &c = copiers();
    if (n >= kParallelCopyMin) c.start();
    this_fifo().post(dst, src, n);
    g_posts.fetch_add(1, std::memory_order_relaxed);
    c.wake();
}

void
wait_copies()
{
    Fifo *f = t_fifo;
    if (f != nullptr && !f->idle()) f->wait_all();
}

void
copy_bytes(std::byte *dst, const std::byte *src, std::size_t n)
{
    post_copy(dst, src, n);
    wait_copies();
}

void
set_copier_limit(unsigned n)
{
    this_fifo().set_limit(n);
}

unsigned
copiers_started()
{
    return copiers().started();
}

std::uint64_t
copies_posted()
{
    return g_posts.load(std::memory_order_relaxed);
}

std::uint64_t
copies_landed_by_waiters()
{
    return g_by_waiters.load(std::memory_order_relaxed);
}

}  // namespace memif::mem
