/**
 * @file
 * CPU-time accounting for the simulated machine.
 *
 * Every modelled CPU cost is charged to a (context, cost-center) pair:
 * the context says *where* the cycles burn (user code, syscall path,
 * interrupt handler, kernel thread) and the cost center says *what for*
 * (the operations of Table 1 in the paper: Prep, Remap, DMA config, byte
 * copy, Release, Notify, plus interface costs). Figure 6's time breakdown
 * and CPU-usage lines are produced directly from these counters.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/event_queue.h"
#include "sim/task.h"
#include "sim/types.h"

namespace memif::sim {

/** Which execution context burns the cycles. */
enum class ExecContext : std::uint8_t {
    kUser = 0,     ///< application code (incl. the memif user library)
    kSyscall,      ///< kernel code running in the caller's process context
    kIrq,          ///< interrupt handler
    kKthread,      ///< kernel worker thread
    kCount,
};

/** What the cycles are spent on; mirrors Table 1 of the paper. */
enum class Op : std::uint8_t {
    kPrep = 0,     ///< op 1: page lookup / request validation
    kRemap,        ///< op 2: page allocation + PTE replace + TLB flush
    kDmaConfig,    ///< op 3: scatter-gather assembly + descriptor writes
    kCopy,         ///< CPU byte copy (baseline only; DMA time is not CPU)
    kRelease,      ///< op 4: PTE finalize + old-page free (+ TLB flush)
    kNotify,       ///< op 5: completion delivery
    kSyscall,      ///< user/kernel crossing cost
    kQueue,        ///< lock-free queue manipulation
    kSched,        ///< kthread wakeup / context switching
    kOther,        ///< anything else
    kCount,
};

/** Human-readable name for a context. */
std::string_view to_string(ExecContext c);

/** Human-readable name for a cost center. */
std::string_view to_string(Op op);

/**
 * Accumulated CPU time split by context and by cost center.
 *
 * Copyable: snapshot before/after an experiment and subtract to get the
 * cost of exactly that experiment.
 */
struct CpuAccounting {
    std::array<Duration, static_cast<std::size_t>(ExecContext::kCount)>
        by_context{};
    std::array<Duration, static_cast<std::size_t>(Op::kCount)> by_op{};
    Duration total = 0;

    void
    charge(ExecContext ctx, Op op, Duration d)
    {
        by_context[static_cast<std::size_t>(ctx)] += d;
        by_op[static_cast<std::size_t>(op)] += d;
        total += d;
    }

    Duration
    context(ExecContext ctx) const
    {
        return by_context[static_cast<std::size_t>(ctx)];
    }

    Duration op(Op o) const { return by_op[static_cast<std::size_t>(o)]; }

    /** Element-wise difference (this - earlier snapshot). */
    CpuAccounting since(const CpuAccounting &earlier) const;
};

/**
 * The simulated CPU complex: an event queue plus accounting.
 *
 * busy() both advances virtual time and charges the duration as CPU-busy;
 * charge() accounts time that was already spanned by some other await
 * (e.g. CPU polling while a DMA completes).
 *
 * By default the contexts advance independently (the accounting view of
 * Figure 6, where interrupt work overlaps kernel-thread work on the
 * four A15 cores). With @ref set_single_driver_core the kernel-side
 * contexts (syscall, interrupt, kernel thread) instead contend for ONE
 * core timeline: a busy() that finds the driver core occupied queues
 * behind the earlier work, exactly as a completion interrupt preempts
 * the kernel thread on the core it is pinned to. That is the regime in
 * which per-request completion overhead sits on the critical path — the
 * small-request streams interrupt moderation is built for.
 */
class Cpu {
  public:
    explicit Cpu(EventQueue &eq, unsigned num_cores = 4)
        : eq_(eq), num_cores_(num_cores)
    {
    }
    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    EventQueue &event_queue() { return eq_; }
    unsigned num_cores() const { return num_cores_; }

    /** Serialize kernel-context busy time on one driver core (off by
     *  default so every paper-reproduction figure keeps its shape). */
    void set_single_driver_core(bool on) { single_driver_core_ = on; }
    bool single_driver_core() const { return single_driver_core_; }

    /** Awaitable: spend @p d of CPU time in @p ctx doing @p op. */
    Delay
    busy(ExecContext ctx, Op op, Duration d)
    {
        acct_.charge(ctx, op, d);
        if (single_driver_core_ && ctx != ExecContext::kUser) {
            // Queue behind whatever the driver core is already running;
            // the awaited delay covers queueing + service.
            const SimTime now = eq_.now();
            const SimTime start =
                driver_busy_until_ > now ? driver_busy_until_ : now;
            driver_busy_until_ = start + d;
            return Delay{eq_, driver_busy_until_ - now};
        }
        return Delay{eq_, d};
    }

    /** Account CPU time without suspending (time already elapsed). */
    void
    charge(ExecContext ctx, Op op, Duration d)
    {
        acct_.charge(ctx, op, d);
        if (single_driver_core_ && ctx != ExecContext::kUser) {
            // The work happened now; later busy() calls queue behind it.
            const SimTime now = eq_.now();
            const SimTime start =
                driver_busy_until_ > now ? driver_busy_until_ : now;
            driver_busy_until_ = start + d;
        }
    }

    const CpuAccounting &accounting() const { return acct_; }
    CpuAccounting snapshot() const { return acct_; }

  private:
    EventQueue &eq_;
    unsigned num_cores_;
    bool single_driver_core_ = false;
    SimTime driver_busy_until_ = 0;
    CpuAccounting acct_;
};

}  // namespace memif::sim
