/**
 * @file
 * The memif kernel driver (paper §3, §5): one MemifDevice per opened
 * instance, owned by one process.
 *
 * The driver serves mov_reqs through three execution paths (§5.4,
 * Fig. 5):
 *
 *  - *Syscall path*: ioctl(MOV_ONE) runs in the caller's context,
 *    performs Prep/Remap/DMA-config for ONE queued request and returns
 *    to userspace the moment the transfer starts.
 *  - *Interrupt path*: the DMA completion interrupt performs Release and
 *    Notify immediately (possible only because race *detection* frees
 *    Release from sleepable locks, §5.2) and wakes the kernel thread.
 *  - *Kernel-thread path*: the worker drains the submission and staging
 *    queues without any userspace involvement. For small requests
 *    (< poll_threshold_bytes, 512 KB in the paper) it disables the DMA
 *    interrupt and sleeps until the predicted completion, then performs
 *    Release/Notify itself; large requests stay interrupt-driven. When
 *    everything is drained it colors the staging queue blue and sleeps.
 *
 * Race handling is configurable (§5.2):
 *  - kDetect ("proceed and fail", the default): Remap installs the
 *    semi-final PTE (young set); Release clears young with a CAS; a
 *    failed CAS reports the race to the application (the simulation's
 *    analogue of the SIGSEGV).
 *  - kRecover ("proceed and recover"): a custom fault handler catches
 *    the racing access, rolls the whole migration back (old PTEs
 *    restored, DMA dropped), and delivers an "aborted" notification.
 *  - kPrevent: the Linux-style migration PTE; accessors block, Release
 *    must run in the kernel thread (never in the interrupt handler).
 *
 * DMA error recovery: every started transfer — an interrupt-driven
 * flight, a polled flight, or one hop of a chained move — is owned by
 * one supervisor coroutine from its start until it settles. The
 * supervisor parks until exactly one waker settles it: the completion
 * interrupt, the deadline (predicted duration × watchdog_margin +
 * slack), a drain or reap pass, or (polled) its own tick sleep. Only a
 * parked supervisor can be settled, and the settler owns the transfer
 * from that synchronous point on. A TC bus error or a timeout first
 * retries the transfer (up to dma_max_retries, exponential backoff),
 * then degrades to a CPU byte-copy of the scatter-gather list, and —
 * only if the fallback is disabled — rolls a migration back to its old
 * frames (extending the §5.2 abort machinery) and fails the request
 * with kDmaError/kTimeout. Error completions move no bytes, so
 * destinations are all-or-nothing.
 */
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dma/driver.h"
#include "memif/completion_ctl.h"
#include "memif/heat_policy.h"
#include "memif/mov_req.h"
#include "memif/move_plan.h"
#include "memif/shared_region.h"
#include "memif/xlate_cache.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/recycle_pool.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "vm/vma.h"

namespace memif::core {

/** Injection site: new-frame allocation during migration remap fails
 *  as if the destination node were exhausted (see sim/fault.h). */
inline constexpr std::string_view kFaultAllocFail = "memif.alloc_fail";

/** Injection site: an SVA-routed descriptor's consumption-time page
 *  walk faults (IOMMU walk error), terminating the chain mid-stream
 *  and feeding the recovery ladder with kXlateFault. */
inline constexpr std::string_view kFaultSvaWalk = "memif.sva_walk";

/** Race-handling policy (§5.2). */
enum class RacePolicy : std::uint8_t {
    kDetect = 0,  ///< proceed and fail (memif default)
    kRecover,     ///< proceed and recover (abort + rollback)
    kPrevent,     ///< Linux-style migration PTE (ablation baseline)
};

/** Per-instance configuration; defaults reproduce the paper's memif. */
struct MemifConfig {
    std::uint32_t capacity = SharedRegion::kDefaultCapacity;
    /** §5.1 gang page lookup (off = per-page walks, Table 1 baseline). */
    bool gang_lookup = true;
    /** §5.2 race handling. */
    RacePolicy race_policy = RacePolicy::kDetect;
    /** §5.4: below this size the kernel thread polls instead of taking
     *  the completion interrupt. */
    std::uint64_t poll_threshold_bytes = 512 * 1024;
    /**
     * Migrate file-backed (page-cache) pages. Off by default — the
     * paper's prototype "can only move anonymous pages" (§6.7) and
     * reports kFileBacked; on, the driver relocates the page-cache
     * frame along with every mapping (implemented future work).
     */
    bool allow_file_backed = false;
    /**
     * @name DMA error recovery.
     * The watchdog deadline is the transfer's remaining predicted time
     * × margin, plus a fixed slack absorbing interrupt latency. On a
     * TC error or expiry the driver retries with exponential backoff
     * (retry n sleeps kDmaRetryBackoff << (n-1)), then falls back to a
     * CPU byte-copy; with the fallback disabled the request fails
     * instead (migrations roll back to their old frames).
     */
    ///@{
    double watchdog_margin = 4.0;
    sim::Duration watchdog_slack = sim::microseconds(20);
    std::uint32_t dma_max_retries = 3;
    bool cpu_copy_fallback = true;
    ///@}
    /**
     * @name Throughput-pipeline levers (off by default so the paper-
     * reproduction figures keep their exact shapes; pipelined() turns
     * all three on for the "memif-pipelined" bench series).
     */
    ///@{
    /** Merge physically contiguous old->new runs into one variable-
     *  size SG entry each (the buddy allocator routinely returns
     *  adjacent frames), cutting PaRAM descriptor writes. */
    bool sg_coalescing = false;
    /** Load-balance chains across the engine's six transfer
     *  controllers and keep every transfer interrupt-driven, so the
     *  kernel thread Prep/Remap/configures request N+1 while N is
     *  still copying. */
    bool multi_tc_dispatch = false;
    /** Accumulate Remap's PTE updates and issue one ranged TLB flush
     *  per (address space, vma) per request instead of a broadcast
     *  per page. */
    bool batched_tlb_shootdown = false;
    ///@}

    /**
     * @name Completion-batching lever (off by default so the paper-
     * reproduction figures keep their exact shapes; moderated() turns
     * it on atop pipelined() for the "memif-moderated" series).
     * Switches on three mechanisms that only ever run together:
     *  - IRQ moderation: completion IRQs wait in the engine's per-TC
     *    batch; one coalesced IRQ retires up to dma_moderation_batch
     *    chains (or whatever finished within dma_moderation_holdoff).
     *  - Completion drain: the first handler of a coalesced IRQ retires
     *    every completed sibling in one pass — one IRQ entry, one
     *    kthread wakeup, one shared ranged shootdown under kPrevent —
     *    and the awake kernel thread masks the IRQ and reaps instead.
     *  - EWMA hybrid polling: CompletionController replaces the static
     *    poll_threshold_bytes rule, learning per-size completion times
     *    to pick polled / interrupt / moderated-interrupt per transfer.
     */
    ///@{
    bool irq_moderation = false;
    ///@}

    /**
     * @name Submission-path levers (off by default so the paper-
     * reproduction figures keep their exact shapes; scaled() turns
     * them on atop moderated() for the "memif-scaled" series).
     */
    ///@{
    /** The driver's two caches: the gang translation cache ((vma,
     *  range) -> walk results, invalidated through the AddressSpace
     *  hook, so repeated moves over hot regions skip the radix walk)
     *  and bulk frame allocation (per-(node, order) free-frame
     *  magazines, a Linux pcp-list analogue, refilled by one
     *  Buddy::allocate_bulk call; freed frames return in batch). */
    bool driver_caches = false;
    /** Per-CPU submission rings: one red-blue deposit ring per
     *  simulated CPU (KernelConfig::num_cores), so concurrent clients
     *  never contend on submit. */
    bool percpu_rings = false;
    ///@}

    /**
     * @name Multi-tenant service layer (this PR; off by default —
     * single-tenant behaviour is byte-identical with the lever off;
     * tenanted() turns it on atop scaled() for the preset matrix).
     */
    ///@{
    /** Serve several address spaces (ASIDs) through one instance:
     *  per-tenant admission quotas, weighted round-robin dispatch, and
     *  bounded per-tenant queues with load shedding under pressure. */
    bool multi_tenant = false;
    /** Per-tenant cap on requests between admission and the terminal
     *  notification; 0 = unlimited. Exceeding it rejects the submit
     *  with kNoSpace and a retry-after hint. */
    std::uint32_t tenant_inflight_quota = 32;
    /** Per-tenant cap on transient 4 KB frames held by in-flight
     *  migrations (the doubled-frame window); 0 = unlimited. */
    std::uint64_t tenant_frame_quota = 4096;
    /** Bound on a tenant's dispatched-but-unserved queue, scaled by its
     *  weight; excess is shed with kNoSpace. 0 = unbounded. */
    std::uint32_t tenant_queue_depth = 64;
    ///@}

    /**
     * @name MMU-aware DMA levers (this PR; off by default so every
     * earlier series keeps its exact shape; mmu_aware() turns them on
     * atop tenanted() for the "memif-mmu-aware" series).
     */
    ///@{
    /** Translation prefetch ahead of TC consumption: walk only the
     *  first kPrefetchWindow descriptors synchronously at chain prep,
     *  then issue asynchronous translation-prefetch walks (EventQueue
     *  events at page-walk cost) that run ahead of the consumption
     *  stream, so walks overlap in-flight DMA instead of serialising
     *  before submit. The TC-side consumer stalls (counted) only when
     *  it outruns the prefetcher. Effective on SVA-routed streams
     *  (sva_dma), where translation actually happens at consumption. */
    bool xlate_prefetch_ahead = false;
    /** SVA-routed DMA (IOMMU-SVA framing): replication streams drop
     *  the pre-pinned physical SG contract — the engine resolves each
     *  descriptor through the per-tenant XlateCache / page walk at
     *  consumption time. Walk miss = engine stall + demand walk;
     *  invalidation mid-flight = re-walk; a descriptor whose pages
     *  went away faults the chain (kXlateFault) into the recovery
     *  ladder. Never stale bytes: the gate always resolves from the
     *  live page tables — cache state only decides the stall charged. */
    bool sva_dma = false;
    ///@}

    /**
     * @name Managed-mode levers (this PR; off by default so every
     * earlier series keeps its exact shape; managed() turns
     * auto_migrate on atop mmu_aware() for the "memif-managed"
     * series). With auto_migrate on, a periodic scan kthread samples
     * access heat from the young/dirty bits of regions registered via
     * manage_region(), and a migration daemon kthread turns policy
     * verdicts into device-originated movs (hot buckets to the fast
     * node, cold buckets back to the slow one). Sampling and migration
     * both happen off the fault path; a failed daemon mov is dropped
     * (cooldown), never retried synchronously.
     */
    ///@{
    /** Master switch for the scan + daemon kthreads. */
    bool auto_migrate = false;
    /** Placement policy (aging vs. EWMA), bucket size and the kAging
     *  promote threshold; the other bands are heat_policy.h's
     *  constants. */
    HeatConfig heat{};
    /** Scan epoch: the interval between heat-sampling passes. */
    sim::Duration heat_scan_interval = sim::microseconds(500);
    /** Per-bucket adaptive dormancy (DAMON-style): after this many
     *  consecutive epochs in which a bucket's observation matched its
     *  settled classification (hot and fully touched, or cold and
     *  untouched) the scanner stops sampling it. Its pages stay
     *  unarmed, so the app pays no access-flag traps and the scan pays
     *  no walk for it; one probe epoch re-arms, the next re-evaluates,
     *  and a matching probe doubles the sleep. 0 disables settling. */
    std::uint32_t heat_settle_epochs = 4;
    /** Longest sleep (in scan epochs) a settled bucket may take; also
     *  bounds how stale a settled verdict can get. */
    std::uint32_t heat_dormant_cap = 16;
    /** Per-epoch cap on daemon-migrated pages (promotions+demotions). */
    std::uint32_t migrate_pages_per_epoch = 64;
    /** Scanner parks after this many consecutive epochs with no
     *  accessed page and no daemon work (woken by device activity). */
    std::uint32_t scan_idle_park_epochs = 2;
    ///@}

    /**
     * @name Tiered-memory levers (this PR; off by default — the device
     * then never looks at the far node and every earlier series keeps
     * its exact shape; tiered() turns them on atop managed() for the
     * "memif-tiered" series). With tiered_memory on (and a far node
     * built, KernelConfig::far_bytes), a migration whose endpoints are
     * the non-adjacent SRAM/far pair is *chained*: staged through DDR
     * in bounded batches, each hop its own DMA chain with its own
     * retry / CPU-fallback ladder, behind blocking migration PTEs.
     * pipelined_eviction lets a bounded window of batches run
     * concurrently with their hops out of order across TCs (batch
     * k+1's DDR→far hop overlaps batch k's SRAM→DDR hop); off, the
     * chain runs store-and-forward, one stage at a time. The batch
     * size, the window and the staging-pool cap are tiered.cc's
     * constants; the daemon's three-way hot/warm/cold verdict uses
     * heat_policy.h's cold band.
     */
    ///@{
    bool tiered_memory = false;
    bool pipelined_eviction = false;
    ///@}

    /**
     * @name Strided-DMA lever (this PR; off by default — requests with
     * strided geometry are then rejected at validation and every
     * earlier series keeps its exact shape; strided() turns it on atop
     * tiered() for the "memif-strided" series). With strided_dma on,
     * a replication may carry 2D geometry (rows × row_bytes with
     * independent src/dst pitches, or a gather list of per-row source
     * addresses): the driver emits EDMA3 A/B-count descriptors for
     * pitch-uniform page-interior runs, splits rows at page boundaries
     * on either side, and routes the result through the same SG /
     * SVA-gate / recovery machinery as flat moves (the CPU fallback
     * copies row-by-row, so layouts survive degradation intact).
     */
    ///@{
    bool strided_dma = false;
    ///@}

    /** All three pipeline levers on (the "memif-pipelined" series). */
    static MemifConfig
    pipelined()
    {
        MemifConfig c;
        c.sg_coalescing = true;
        c.multi_tc_dispatch = true;
        c.batched_tlb_shootdown = true;
        return c;
    }

    /** pipelined() plus the completion-batching lever (the
     *  "memif-moderated" series). */
    static MemifConfig
    moderated()
    {
        MemifConfig c = pipelined();
        c.irq_moderation = true;
        return c;
    }

    /** moderated() plus the submission-path levers (the "memif-scaled"
     *  series). */
    static MemifConfig
    scaled()
    {
        MemifConfig c = moderated();
        c.driver_caches = true;
        c.percpu_rings = true;
        return c;
    }

    /** scaled() plus the multi-tenant service layer (the
     *  "memif-tenanted" series). */
    static MemifConfig
    tenanted()
    {
        MemifConfig c = scaled();
        c.multi_tenant = true;
        return c;
    }

    /** tenanted() plus the MMU-aware DMA levers (the "memif-mmu-aware"
     *  series). */
    static MemifConfig
    mmu_aware()
    {
        MemifConfig c = tenanted();
        c.sva_dma = true;
        c.xlate_prefetch_ahead = true;
        return c;
    }

    /** mmu_aware() plus managed mode (the "memif-managed" series). */
    static MemifConfig
    managed()
    {
        MemifConfig c = mmu_aware();
        c.auto_migrate = true;
        return c;
    }

    /** managed() plus the third tier and pipelined multi-hop eviction
     *  (the "memif-tiered" series). Inert unless the kernel was built
     *  with KernelConfig::far_bytes != 0. */
    static MemifConfig
    tiered()
    {
        MemifConfig c = managed();
        c.tiered_memory = true;
        c.pipelined_eviction = true;
        return c;
    }

    /** tiered() plus layout-flexible strided/gather descriptors (the
     *  "memif-strided" series). */
    static MemifConfig
    strided()
    {
        MemifConfig c = tiered();
        c.strided_dma = true;
        return c;
    }

    /** Abort (MEMIF_ASSERT, naming the rule) on a lever that acts only
     *  through another lever that is off: xlate_prefetch_ahead needs
     *  sva_dma, pipelined_eviction needs tiered_memory. The
     *  MemifDevice constructor calls it. */
    void validate() const;
};

/** Per-tenant accounting (multi_tenant lever; all zero otherwise). */
struct TenantStats {
    std::uint32_t weight = 1;
    std::uint64_t admitted = 0;       ///< requests past admission
    std::uint64_t completed = 0;      ///< terminal notifications
    std::uint64_t rejected = 0;       ///< admission rejections (kNoSpace)
    std::uint64_t shed = 0;           ///< dropped at dispatch (queue bound)
    std::uint64_t bytes_moved = 0;
    std::uint64_t pages_moved = 0;
    /** Starvation tripwire: worst submit-to-service wait observed. */
    sim::Duration max_slot_wait = 0;
    /** Requests currently charged against the in-flight quota. */
    std::uint32_t outstanding = 0;
    /** Transient 4 KB frames currently charged against the quota. */
    std::uint64_t frames_charged = 0;
};

/**
 * The driver's event counters, each declared once as X(name, doc): the
 * DeviceStats fields expand from this list and MemifDevice::print_stats
 * prints it, so a new counter is one line here. Every counter is a
 * std::uint64_t, bumped by a plain `++stats_.name`. Something outside
 * src/memif (a bench, test, example or src/check) must read each one;
 * scripts/check_config_knobs.py fails CI on a counter nothing reads.
 */
#define MEMIF_DEVICE_COUNTERS(X)                                              \
    X(requests_completed, "terminal notifications, done or failed")           \
    X(replications, "replications served to the DMA")                         \
    X(migrations, "migrations whose Remap went in")                           \
    X(pages_moved, "pages released by a finished move")                       \
    X(bytes_moved, "payload bytes released by a finished move")               \
    X(validation_failures, "requests failed by validation")                   \
    X(races_detected, "pages a CPU access touched mid-copy")                  \
    X(migrations_aborted, "migrations rolled back by a racing access")        \
    X(kick_ioctls, "MOV_ONE kick syscalls")                                   \
    X(irq_completions, "requests retired from a completion IRQ")              \
    X(polled_completions, "requests retired by a polling kthread")            \
    X(kthread_wakeups, "notifies sent to the kernel thread")                  \
    X(wakeups_from_sleep, "... that found it asleep")                         \
    X(notifies_while_running, "... that found it already draining")           \
    X(completion_drains, "drain passes that retired more than 1 request")     \
    X(drained_requests, "requests retired in another's drain pass")           \
    X(moderated_dispatches, "transfers started with a moderated IRQ")         \
    X(reaped_completions, "moderated completions reaped before the IRQ")      \
    X(dma_errors, "TC-error completions seen")                                \
    X(dma_retries, "transfers restarted")                                     \
    X(fallback_copies, "moves degraded to a CPU byte copy")                   \
    X(watchdog_timeouts, "stuck or lost-IRQ detections")                      \
    X(rollbacks, "unrecoverable-failure rollbacks")                           \
    X(sg_entries_emitted, "SG entries sent to the DMA")                       \
    X(descriptor_writes_saved, "writes saved by run coalescing")              \
    X(ranged_tlb_flushes, "batched-shootdown flushes")                        \
    /* ----- Submission path (gang xlate cache, magazine, rings) */           \
    X(xlate_hits, "pages translated from the cache")                          \
    X(xlate_misses, "pages that paid the radix walk")                         \
    X(xlate_invalidations, "cache entries dropped by the hook")               \
    X(xlate_gang_prefetched, "neighbours walked on a cache miss")             \
    X(bulk_allocs, "magazine refills (bulk calls)")                           \
    X(magazine_pops, "frames handed out of a magazine")                       \
    X(magazine_spills, "frees past capacity, to the buddy")                   \
    X(shared_submit_retries, "shared-queue submit CAS retries")               \
    /* ----- Multi-tenant service layer */                                    \
    X(admission_rejections, "submits refused outright")                       \
    X(quota_hits_inflight, "... at the request quota")                        \
    X(quota_hits_frames, "... at the frame quota")                            \
    X(shed_requests, "dropped at the queue-depth bound")                      \
    X(wrr_dispatches, "requests picked by the WRR")                           \
    /* ----- MMU-aware DMA (ahead-of-stream prefetch, SVA routing) */         \
    X(stream_prefetch_issued, "descriptors a prefetch covered")               \
    X(stream_prefetch_hits, "... ready and live at the gate")                 \
    X(stream_prefetch_late, "... still walking: the TC stalled")              \
    X(stream_prefetch_wasted, "... invalidated or dropped")                   \
    X(prefetch_fills_dropped, "fills lost to an invalidation")                \
    X(consumer_stall_time, "TC stall behind late prefetches, ns")             \
    X(sva_resolved, "SVA descriptors resolved at consumption")                \
    X(sva_demand_walks, "... that paid a demand walk")                        \
    X(sva_retranslated, "... rewritten: the frame moved since Prep")          \
    X(sva_faults, "consumption-time walk faults")                             \
    /* ----- Managed mode (heat scan, migration daemon) */                    \
    X(heat_scans, "scan epochs executed")                                     \
    X(heat_pages_sampled, "PTEs the scanner examined")                        \
    X(heat_pages_accessed, "... found touched (young clear)")                 \
    X(heat_pages_written, "... found dirty")                                  \
    X(heat_pages_skipped, "... skipped: an in-flight request held them")      \
    X(promotions_issued, "daemon movs toward fast memory")                    \
    X(promotions_completed, "... done")                                       \
    X(demotions_issued, "daemon movs toward slow memory")                     \
    X(demotions_completed, "... done")                                        \
    X(daemon_movs_dropped, "failed daemon movs (bucket cools down)")          \
    X(daemon_budget_exhausted, "issue passes cut by the page budget")         \
    /* ----- Tiered memory (third tier, chained multi-hop eviction) */        \
    X(chained_migrations, "movs staged through DDR")                          \
    X(chain_batches, "bounded batches executed")                              \
    X(hop_stages_issued, "per-hop DMA stages started")                        \
    X(hop_stages_completed, "... finished")                                   \
    X(hop_retries, "hop attempts past the first")                             \
    X(hop_fallback_copies, "hops degraded to a CPU copy")                     \
    X(hop_overlap_events, "hops started while another ran")                   \
    X(chain_rollbacks, "chains failed, remap undone")                         \
    X(staging_frames_hwm, "staging-pool high-water mark")                     \
    X(staging_pool_waits, "batches that waited for frames")                   \
    /* ----- Strided DMA (2D descriptors, gather) */                          \
    X(strided_requests, "strided movs served")                                \
    X(gather_requests, "... whose source was a gather")                       \
    X(strided_rows_moved, "rows delivered")                                   \
    X(strided_row_splits, "rows split at a page boundary")                    \
    X(strided_descriptors, "SG entries carrying 2D geometry")

/** Driver event counters. */
struct DeviceStats {
#define MEMIF_DECLARE_COUNTER(name, doc) std::uint64_t name = 0;
    MEMIF_DEVICE_COUNTERS(MEMIF_DECLARE_COUNTER)
#undef MEMIF_DECLARE_COUNTER
    /** Transfers triggered per transfer controller. */
    std::array<std::uint64_t, dma::Edma3Engine::kNumTcs> tc_dispatches{};
    /** Requests deposited per submission ring. */
    std::array<std::uint64_t, kMaxSubmitRings> ring_submits{};
};

class MemifDevice {
  public:
    /**
     * Create (open) a memif instance for @p proc. The shared region is
     * allocated and conceptually mapped into the process.
     */
    MemifDevice(os::Kernel &kernel, os::Process &proc,
                MemifConfig config = {});
    ~MemifDevice();
    MemifDevice(const MemifDevice &) = delete;
    MemifDevice &operator=(const MemifDevice &) = delete;

    os::Kernel &kernel() { return kernel_; }
    os::Process &owner() { return *tenants_.front().proc; }
    SharedRegion &region() { return region_; }
    const MemifConfig &config() const { return config_; }
    const DeviceStats &stats() const { return stats_; }

    /**
     * @name Tenancy (multi_tenant lever).
     * The owning process is tenant 0, registered implicitly with or
     * without the lever; with the lever on, every
     * further address space joins through register_tenant(). A
     * MemifUser bound to the returned ASID then submits against that
     * tenant's page tables, quotas, and WRR weight.
     */
    ///@{
    /** Register @p proc as a tenant at WRR @p weight (0 counts as 1).
     *  Returns the new ASID. */
    std::uint32_t register_tenant(os::Process &proc,
                                  std::uint32_t weight = 0);
    /** Retune one tenant's WRR weight (takes effect on the next pick). */
    void set_tenant_weight(std::uint32_t asid, std::uint32_t weight);
    /** Registered tenants, the owner included (1 with the lever off). */
    std::uint32_t num_tenants() const
    {
        return static_cast<std::uint32_t>(tenants_.size());
    }
    const TenantStats &tenant_stats(std::uint32_t asid) const;
    /**
     * Starvation tripwire: max/min completed bytes across tenants that
     * were admitted at least once. 1.0 is perfect fairness; a starved
     * tenant (admitted but zero bytes moved) yields +infinity. Fewer
     * than two participating tenants report 1.0.
     */
    double fairness_ratio() const;
    ///@}

    /**
     * Admission control (multi_tenant): charge @p idx against its
     * tenant's quotas. On rejection the request is completed
     * immediately as kFailed/kNoSpace with a retry-after hint and
     * false is returned — the caller must not deposit it. Always
     * admits with the lever off.
     */
    bool admit_request(std::uint32_t idx);

    /** Print `name value` to @p out for every nonzero counter, in
     *  MEMIF_DEVICE_COUNTERS order, then every nonzero entry of the
     *  two arrays, then fairness_ratio() and the per-tenant table once
     *  some tenant has been admitted or refused. */
    void print_stats(std::FILE *out) const;
    /** A weak handle on request @p idx's in-flight record, expired when
     *  it has none (test/diag introspection: a retired record must stay
     *  dead after the pool hands its storage to a new request). */
    std::weak_ptr<const void> flight_handle(std::uint32_t idx) const;

    /**
     * The MOV_ONE ioctl (§4.2): dequeue one request from the submission
     * queue and run the driver for it, returning as the DMA starts.
     * Runs in the calling process's context.
     */
    sim::Task ioctl_mov_one();

    /** Signalled whenever a completion notification is posted; backs
     *  the device file's poll() support. */
    sim::SimEvent &completion_event() { return completion_event_; }

    /** True when no request is anywhere between submit and notify. */
    bool idle() const;

    /**
     * Debug quiesce check: verifies every driver invariant that must
     * hold once the instance has gone idle —
     *
     *  - the flight table is empty and no deferred release is pending;
     *  - the staging, submission, and per-CPU ring queues are drained;
     *  - no request slot is stuck in kSubmitted / kInFlight;
     *  - every DMA descriptor lease has been returned to the chain
     *    cache (no leaked PaRAM entries), and every engine transfer
     *    record released;
     *  - every frame parked in a bulk-alloc magazine is a real,
     *    allocated, unmapped frame and no magazine exceeds its cap;
     *  - every surviving gang-translation-cache entry still matches
     *    the live page tables (eager invalidation did its job).
     *
     * @param why when non-null, receives a human-readable description
     *        of every violated invariant.
     * @return true when fully quiesced. Call it from test teardown and
     *         from the differential runner after each workload.
     */
    bool check_quiesced(std::string *why = nullptr) const;

    /** Total 4 KB frames currently parked in bulk-alloc magazines.
     *  Parked frames stay "allocated" in PhysicalMemory terms, so the
     *  frame-accounting invariant at quiesce is
     *  outstanding_pages == baseline + magazine_pages(). */
    std::uint64_t magazine_pages() const;

    /**
     * @name Managed mode (auto_migrate lever).
     * Registering a region hands its placement to the device: the scan
     * kthread samples its young/dirty bits every heat_scan_interval and
     * the migration daemon moves hot buckets to the fast node and cold
     * ones back. The region (its Vma) must stay mapped until
     * unmanage_region() or device teardown, whichever comes first.
     */
    ///@{
    /**
     * Manage the region whose Vma starts at @p base in @p asid's
     * address space (ASID 0 = the owner; others via register_tenant).
     * No-op without auto_migrate. Returns false when the address does
     * not resolve to a Vma (or the lever is off).
     */
    bool manage_region(vm::VAddr base, std::uint32_t asid = 0);
    /** Stop managing the region at @p base (in-flight daemon movs for
     *  it finish and are then discarded). */
    void unmanage_region(vm::VAddr base, std::uint32_t asid = 0);
    std::size_t managed_region_count() const { return managed_.size(); }
    /** Hot-state flips within the ping-pong window, summed over all
     *  managed regions (placement-stability tripwire). */
    std::uint64_t heat_ping_pongs() const;
    ///@}

  private:
    friend class MemifUser;

    /** One PTE mapping a migrating page (shared pages have several). */
    struct Mapping {
        vm::AddressSpace *as = nullptr;
        vm::Vma *vma = nullptr;
        std::uint64_t page_idx = 0;
        std::uint64_t old_pte = 0;  ///< packed pre-move PTE
    };

    /** A page-cache reference to a migrating page (file-backed). */
    struct CacheRef {
        vm::FileBacking *backing = nullptr;
        std::uint64_t file_page = 0;
    };

    /** What settled a parked supervisor. */
    enum class Wake : std::uint8_t {
        kNone = 0,
        kIrq,       ///< the transfer's completion (or error) interrupt
        kDeadline,  ///< its supervision deadline expired
        kPoll,      ///< polled: the worker's own tick sleep ended
        kClaimed,   ///< a drain or reap pass retired it
        kAborted,   ///< young-fault rollback (kRecover)
    };

    /** One started transfer under supervision: a flight's own
     *  (InFlight::xfer) or one chain hop's. */
    struct Transfer {
        /** The attempt's engine transfer until release_transfer(). */
        dma::TransferId tid = dma::kInvalidTransfer;
        /** The released attempt had finished rather than hung. */
        bool finished = false;
        std::uint32_t attempts = 0;   ///< starts so far (1 = first)
        sim::SimTime start_at = 0;    ///< trigger time of the attempt
        sim::Duration predicted = 0;  ///< engine quote for the attempt
        sim::EventQueue::EventId deadline = sim::EventQueue::kInvalidEvent;
        /** The supervisor while it is parked, null while it runs. Only
         *  a parked supervisor can be settled; settle() clears this. */
        std::coroutine_handle<> parked;
        Wake wake = Wake::kNone;  ///< who settled it last
    };

    /** Per-page state of one request being served. */
    struct InFlight {
        std::uint32_t req_idx = 0;
        MovOp op = MovOp::kReplicate;
        vm::Vma *vma = nullptr;          ///< source region's vma
        /** The validated request's page runs and payload; nothing
         *  after Prep re-derives them from the request slot. */
        MovePlan plan;
        unsigned order = 0;  ///< of the source pages (and the new frames)
        std::vector<mem::Pfn> old_pfns;  ///< migration: replaced frames
        std::vector<mem::Pfn> new_pfns;  ///< migration: new frames
        /** Migration: every mapping of every page, via the rmap
         *  chains, grouped by page (see page_mappings()). */
        std::vector<Mapping> mappings;
        /** Page i's mappings are mappings[mapping_begin[i],
         *  mapping_begin[i + 1]); plan.src.pages + 1 entries once captured,
         *  with empty runs for pages a kBusy reject left uncaptured. */
        std::vector<std::uint32_t> mapping_begin;
        /** Migration: page-cache reference per page (backing == nullptr
         *  for anonymous pages). */
        std::vector<CacheRef> cache_refs;
        /** The flight's transfer (never started on a chain master). */
        Transfer xfer;
        bool aborted = false;            ///< recover-mode rollback done
        /** Scatter-gather list, kept for retries and the CPU fallback. */
        std::vector<dma::SgEntry> sg;
        bool moderated = false;          ///< IRQ held in the TC batch
        /** Tenant the request (and its frame charge) belongs to. */
        std::uint32_t asid = 0;
        /** Daemon-originated (managed mode): frame charges go to the
         *  daemon's service class, not the target tenant's quota. */
        bool daemon = false;
        /** Chained multi-hop migration (tiered_memory): the copy is
         *  staged through the middle tier by run_chain instead of one
         *  DMA. The master's own xfer is never started, so no drain or
         *  reap pass ever claims it; each hop stage runs the same
         *  supervisor over a Transfer of its own. */
        bool chained = false;
        /** Chain failure latch: set by the first batch whose hop
         *  ladder ran dry; sibling batches then stop starting hops. */
        bool chain_failed = false;
        /** Transient 4 KB frames charged to the tenant's quota; zeroed
         *  when the charge is returned (release or rollback). */
        std::uint64_t frames_charged = 0;
        /** Replication destination region (SVA gate re-resolution). */
        vm::Vma *dst_vma = nullptr;
        /** SVA-routed stream: one entry per descriptor in fl->sg.
         *  Empty = pre-pinned transfer (no gate installed). */
        std::vector<XlateSlot> slots;
        /** Next prefetch batch to issue (stream prefetcher cursor). */
        std::uint64_t next_prefetch_batch = 0;
        /** Outstanding prefetch-fill events (cancelled at retire). */
        std::vector<sim::EventQueue::EventId> prefetch_events;
        /** Pending-prefetch tokens registered with the xlate cache
         *  (drained at retire so no pending entry outlives the move). */
        std::vector<std::uint64_t> prefetch_tokens;

        /** Prep: the source PTEs a gang-cache hit returned. */
        std::vector<vm::Pte> cached_src;

        /** Every mapping of page @p i; the caller's own comes first. */
        std::span<const Mapping>
        page_mappings(std::uint32_t i) const
        {
            return std::span<const Mapping>(mappings).subspan(
                mapping_begin[i], mapping_begin[i + 1] - mapping_begin[i]);
        }

        /** Back to a default-constructed record, keeping the vectors'
         *  capacity (flight_pool_ parks retired records). */
        void
        recycle()
        {
            InFlight fresh;
            const auto keep = [](auto &from, auto &to) {
                to = std::move(from);
                to.clear();
            };
            keep(old_pfns, fresh.old_pfns);
            keep(new_pfns, fresh.new_pfns);
            keep(mappings, fresh.mappings);
            keep(mapping_begin, fresh.mapping_begin);
            keep(cache_refs, fresh.cache_refs);
            keep(sg, fresh.sg);
            keep(slots, fresh.slots);
            keep(prefetch_events, fresh.prefetch_events);
            keep(prefetch_tokens, fresh.prefetch_tokens);
            keep(cached_src, fresh.cached_src);
            *this = std::move(fresh);
        }
    };
    using InFlightPtr = std::shared_ptr<InFlight>;

    /** Whether @p fl migrates behind blocking migration PTEs (Linux
     *  style) rather than the §5.2 semi-final protocol. True under the
     *  kPrevent race policy — and for every daemon flight regardless
     *  of policy: the semi-final PTE exposes the not-yet-copied new
     *  frame to readers and silently loses raced writes, which is the
     *  submitting app's accepted contract for its own movs but can
     *  never be imposed on an app by the transparent migration daemon.
     *  A daemon mov may delay an access; it must never corrupt one —
     *  and for every chained flight: mid-chain the data lives in
     *  staging frames no PTE ever points at, so the semi-final
     *  protocol has no frame to expose. Chained moves always block
     *  accessors until the last hop lands. */
    bool flight_prevents(const InFlight &fl) const
    {
        return fl.daemon || fl.chained ||
               config_.race_policy == RacePolicy::kPrevent;
    }

    /** One (address space, vma) span of PTEs dirtied since the last
     *  TLB flush; the batched-shootdown accumulator (PR 2's Remap
     *  version, now also shared across requests by the drain paths). */
    struct FlushSpan {
        vm::AddressSpace *as = nullptr;
        vm::Vma *vma = nullptr;
        std::uint64_t lo = 0, hi = 0;  ///< page-index range
    };
    using FlushPlan = std::vector<FlushSpan>;
    /** Widen (or open) @p plan's span for (@p as, @p vma) to cover
     *  @p page_idx. */
    static void accumulate_flush(FlushPlan &plan, vm::AddressSpace *as,
                                 vm::Vma *vma, std::uint64_t page_idx);
    /** Extend the span of @p plan that ends just below @p page_idx of
     *  @p vma, or open one: every span stays an exact page run. */
    static void accumulate_run(FlushPlan &plan, vm::AddressSpace *as,
                               vm::Vma *vma, std::uint64_t page_idx);
    /** Issue one ranged invalidation per span; adds the flush time to
     *  @p cost and bumps the ranged-flush counter. */
    void issue_flush_plan(const FlushPlan &plan, sim::Duration &cost);

    /** Ops 1-3 for one request; on success the transfer is running
     *  and @p out receives its supervisor — an interrupt-driven one for
     *  the caller to spawn(), a polled one (!irq_mode) for the kernel
     *  thread to co_await. @p out stays empty when no transfer started
     *  (a rejection, or a chained move whose master runs on its own).
     *  @p moderated asks for a moderated completion IRQ (irq_mode
     *  under irq_moderation only). Every early rejection leaves through
     *  one exit here. */
    sim::Task serve_request(std::uint32_t idx, ReqSnapshot snap,
                            sim::ExecContext ctx, bool irq_mode,
                            sim::Task *out, bool moderated = false);
    /** Why execute_ops stopped early, and what the flight holds that
     *  serve_request's reject exit must hand back. */
    struct Reject {
        MovError error = MovError::kNone;
        InFlightPtr fl;  ///< null when rejected before the flight exists
        sim::Duration remap_cost = 0;  ///< kNoMemory: allocation time
    };
    /** The executor behind serve_request: Prep, Remap, lowering, DMA
     *  config and trigger. Sets @p rj on an early rejection. */
    sim::Task execute_ops(std::uint32_t idx, const ReqSnapshot &snap,
                          sim::ExecContext ctx, bool irq_mode,
                          sim::Task *out, bool moderated, Reject *rj);
    /** Ops 4-5. With @p shared_plan, a kPrevent migration's release
     *  accumulates its TLB work there instead of flushing per page —
     *  the caller issues one ranged shootdown for the whole batch. */
    sim::Task do_release(InFlightPtr fl, sim::ExecContext ctx,
                         FlushPlan *shared_plan = nullptr);
    /** Feed a finished first-attempt transfer to the EWMA controller. */
    void observe_completion(const InFlightPtr &fl);
    /** The worker (§5.4 kernel-thread path). */
    sim::Task kthread_loop();
    void wake_kthread();

    /** Validation of one request's snapshot (§4.2 safety). */
    MovError validate(const ReqSnapshot &s, vm::Vma **src_vma,
                      vm::Vma **dst_vma) const;
    /** Validation of a strided/gather request (rows != 0). */
    MovError validate_strided(const ReqSnapshot &s, vm::Vma **src_vma,
                              vm::Vma **dst_vma) const;

    /** Post a completion notification (op 5). */
    void notify(std::uint32_t idx, MovStatus status, MovError error);

    /** Recover-mode fault hook: true if the access hit an in-flight
     *  migration that was rolled back. */
    bool handle_young_fault(vm::Vma &vma, std::uint64_t page_idx);
    /** Roll back an in-flight migration (recover policy). */
    void abort_migration(const InFlightPtr &fl);

    // ----- Transfer supervision and DMA error recovery ----------------
    /** Everything that differs between the supervisor's three users:
     *  interrupt-driven flights, polled flights and chain hops. */
    struct Supervision {
        Transfer *x = nullptr;  ///< &fl->xfer, or the hop's own
        /** What the transfer copies: fl->sg, or the hop's list. */
        const std::vector<dma::SgEntry> *sg = nullptr;
        /** Abort latch: fl->aborted (young-fault rollback) or
         *  fl->chain_failed (a sibling batch's ladder ran dry). */
        const bool *latch = nullptr;
        /** Where IRQ entries and the ladder run: kIrq for interrupt-
         *  driven flights, kKthread for polled flights and hops. */
        sim::ExecContext ctx = sim::ExecContext::kIrq;
        bool polled = false;     ///< woken by the worker's tick sleep
        bool *landed = nullptr;  ///< hops: set once the bytes are in
    };
    /**
     * The one supervisor of a started transfer. Starts @p first (the
     * chain the caller programmed; null = reserve and program s.sg
     * here), parks until exactly one waker settles it, classifies the
     * outcome, then retires a clean completion or runs the one ladder:
     * retry with backoff, then CPU replay, then fail. @p first is
     * consumed before the first suspension.
     */
    sim::Task supervise(InFlightPtr fl, Supervision s,
                        dma::DmaDriver::Prepared *first);
    /** Deadline = now + remaining quote × watchdog_margin + slack. */
    void arm_deadline(Transfer &x);
    /** Resume @p x's parked supervisor inline, settled by @p w (a
     *  supervisor that is not parked cannot be settled). */
    void settle(Transfer &x, Wake w);
    /** Take @p x from its waker's hands before any suspension:
     *  disarm its deadline and classify it — kNone, kDmaError or
     *  kXlateFault for a finished transfer, which it releases
     *  (@p held reports a delivery moderation still held), or kTimeout
     *  for a hung chain, which the caller must release_transfer(). */
    MovError claim_transfer(Transfer &x, bool *held = nullptr);
    /** Cancel @p x's transfer unless it finished, then unregister and
     *  release it (lease and engine record). @return whether
     *  moderation still held its delivery, now dropped. */
    bool release_transfer(Transfer &x);
    /** Take and settle every parked supervisor whose transfer completed
     *  cleanly (only moderated ones with @p moderated_only), appending
     *  its flight to @p batch: the drain and reap passes' one scan. */
    void claim_completed(std::vector<InFlightPtr> &batch,
                         bool moderated_only);
    /** Retire @p first from interrupt context under one IRQ entry and
     *  one kthread wakeup — with @p sweep (an interrupt under the
     *  completion drain), together with every sibling claim_completed()
     *  finds. */
    sim::Task retire_irq(InFlightPtr first, bool sweep);
    /** Release @p batch from the kernel thread under one shared ranged
     *  shootdown; @p reaped completions are traced and sampled first. */
    sim::Task release_batch(std::vector<InFlightPtr> batch, bool reaped);
    /** An empty batch vector, with the capacity of a returned one. */
    std::vector<InFlightPtr> take_batch();
    /** Return @p batch's storage (its flights dropped) for reuse. */
    void give_batch(std::vector<InFlightPtr> batch);
    /** CPU replay of @p sg, row geometry preserved (the degraded floor
     *  of the ladder); charged to @p ctx. */
    sim::Task fallback_copy(InFlightPtr fl,
                            const std::vector<dma::SgEntry> *sg,
                            sim::ExecContext ctx);
    /** No recovery left: roll back (migrations) and fail the request. */
    void fail_unrecoverable(const InFlightPtr &fl, sim::ExecContext ctx,
                            MovError reason);
    /** Restore old PTEs and free new frames (shared by abort_migration
     *  and fail_unrecoverable). */
    void rollback_remap(const InFlightPtr &fl, sim::ExecContext ctx);
    /** Keep @p t (if any) on the device; finished tasks are dropped
     *  lazily. Teardown destroys every suspended supervisor and chain
     *  frame, so nothing the device spawned can resume into it. */
    void spawn(sim::Task t);

    // ----- Tiered memory (chained multi-hop eviction) -----------------
    /** Shared state of one chain: the batch-join counter the master
     *  blocks on, plus the wait queue batches signal through. */
    struct ChainState {
        explicit ChainState(sim::EventQueue &eq) : join(eq) {}
        sim::WaitQueue join;
        std::uint32_t batches_left = 0;
    };
    using ChainStatePtr = std::shared_ptr<ChainState>;
    /** The chain master (spawned where single-hop moves start their
     *  supervisor): splits @p fl into bounded batches, runs them pipelined
     *  (or store-and-forward), then releases the migration — or rolls
     *  the whole remap back if any batch ran its ladder dry. */
    sim::Task run_chain(InFlightPtr fl, mem::NodeId mid);
    /** One batch: staging acquire → hop 1 (old→staging) → hop 2
     *  (staging→new) → staging release, each hop under its own
     *  supervisor; decrements cs->batches_left and notifies the master
     *  when done. */
    sim::Task run_chain_batch(InFlightPtr fl, ChainStatePtr cs,
                              mem::NodeId mid, std::uint32_t first,
                              std::uint32_t count);
    /** Lease @p pages' worth of staging frames (order-@p order blocks)
     *  on @p mid from the bounded pool, waiting for peers when the
     *  pool is saturated. False = the middle node itself is exhausted
     *  (the batch then degrades to one direct end-to-end hop). */
    sim::Task staging_acquire(mem::NodeId mid, unsigned order,
                              std::uint32_t pages,
                              std::vector<mem::Pfn> *out, bool *ok);
    /** Return @p frames to the buddy and the pool; wakes waiters. */
    void staging_release(std::vector<mem::Pfn> &frames, unsigned order);

    // ----- Submission-path acceleration -------------------------------
    /** Re-record a released migration's final translations so the next
     *  move over the region hits the cache (write-through: the driver's
     *  own remap shootdown invalidated the entry mid-request). */
    void xlate_writethrough(const InFlightPtr &fl, sim::ExecContext ctx);
    /**
     * Hand out @p n 2^order frames on @p node from the magazine,
     * refilling it with one allocate_bulk call when short. Adds the
     * modeled time to @p cost. All-or-nothing: false = node exhausted
     * (popped frames are returned to the magazine, @p out untouched).
     */
    bool magazine_alloc(mem::NodeId node, unsigned order, std::uint32_t n,
                        std::vector<mem::Pfn> &out, sim::Duration &cost);
    /** Park a freed frame in its magazine (list-op cost) or spill it to
     *  the buddy (page_free cost) when the magazine is full. */
    void magazine_free(mem::Pfn head, unsigned order, sim::Duration &cost);
    /** Return every parked frame to the buddy (teardown). */
    void drain_magazines();
    /** Free one block on the lever-appropriate path. */
    void free_frames(mem::Pfn head, unsigned order, sim::Duration &cost);
    /** Register (marking its request kInFlight) / retire an in-flight
     *  record. */
    void add_in_flight(const InFlightPtr &fl);
    void remove_in_flight(const InFlightPtr &fl);

    // ----- MMU-aware DMA (stream prefetch / SVA routing) --------------
    /** Resolve the span [@p va, @p va + @p bytes) of @p vma through the
     *  live PTEs. False when any page is absent / mid-migration or the
     *  resolved frames are not physically contiguous; otherwise @p out
     *  receives the physical byte address of @p va. */
    static bool resolve_span(const vm::Vma *vma, vm::VAddr va,
                             std::uint64_t bytes, std::uint64_t *out);
    /** Issue the asynchronous translation-prefetch walk for batch
     *  @p batch of @p fl's stream (kPrefetchWindow descriptors): marks
     *  the slots' ready_at, registers pending-prefetch tokens, and
     *  schedules the fill at walker (not CPU) cost. */
    void issue_stream_prefetch(const InFlightPtr &fl, std::uint64_t batch);
    /** The engine's per-descriptor translation gate (sva_dma): always
     *  re-resolves @p d from the live page tables; prefetch / cache
     *  state only decides the stall charged. Keeps the prefetcher
     *  running ahead of the consumption stream. */
    dma::XlateVerdict sva_gate_check(const InFlightPtr &fl,
                                     std::uint32_t idx,
                                     dma::TransferDescriptor &d);
    /** Re-resolve @p fl->sg from the live page tables (retry-ladder
     *  restart and CPU fallback of an SVA-routed stream re-validate
     *  every prefetched translation before touching bytes). */
    void revalidate_stream(const InFlightPtr &fl);
    /** Page runs under stream slots [lo, hi) of an SVA-routed flight,
     *  and the gang walk (one descent per run) that covers them. */
    struct SlotPages {
        std::uint64_t s0 = 0, sn = 0;  ///< source: first page, count
        std::uint64_t d0 = 0, dn = 0;  ///< destination: first page, count
        sim::Duration walk = 0;
    };
    SlotPages slot_pages(const InFlight &fl, std::uint64_t lo,
                         std::uint64_t hi) const;
    /** Cancel outstanding prefetch-fill events (retire / teardown). */
    void cancel_stream_prefetch(const InFlightPtr &fl);

    // ----- Multi-tenant service layer ---------------------------------
    /** One registered address space: its quotas, WRR state, and (when
     *  driver_caches is on) a private gang translation cache, so the
     *  PR 4 sharding extends per ASID instead of adding locks. */
    struct Tenant {
        os::Process *proc = nullptr;
        /** Per-ASID translation cache (driver_caches lever; null when
         *  off). */
        std::unique_ptr<XlateCache> xcache;
        /** Dispatched-but-unserved request indices (WRR input). */
        std::vector<std::uint32_t> pending;
        /** Smooth-WRR running credit. */
        std::int64_t wrr_credit = 0;
        TenantStats stats;
    };
    /** Append @p proc to the registry at WRR @p weight (0 counts as 1)
     *  and install its hooks and translation cache. Returns its ASID. */
    std::uint32_t add_tenant(os::Process &proc, std::uint32_t weight);
    /** Tenant record for @p asid, or null (unknown ASID). */
    Tenant *tenant_for(std::uint32_t asid);
    const Tenant *tenant_for(std::uint32_t asid) const;
    /** The address space of tenant @p asid (the owner's when the ASID
     *  is unknown — validation then rejects cleanly). */
    vm::AddressSpace &request_as(std::uint32_t asid) const;
    /** Per-ASID gang translation cache (null when the lever is off). */
    XlateCache *xlate_for(std::uint32_t asid);
    /** Drop (vma, range) from every tenant's cache (rmap chains may
     *  cross address spaces). */
    void invalidate_xlate(const vm::Vma *vma, std::uint64_t first,
                          std::uint64_t n);
    /** Charge / return a migration's transient frames against its
     *  tenant's quota (idempotent via fl->frames_charged). */
    void charge_frames(const InFlightPtr &fl);
    void uncharge_frames(const InFlightPtr &fl);
    /** Route every deposited index into its tenant's pending queue,
     *  shedding past the weight-scaled depth bound. */
    void route_to_pending(bool take_staging);
    /** Smooth weighted round-robin over the non-empty pending queues;
     *  false when all are empty. Records the slot-wait tripwire. */
    bool wrr_pick(std::uint32_t *out);
    /** Dequeue the next index to serve on either execution path:
     *  single-tenant order with the lever off, route + WRR with it on
     *  (false while the tenant dispatch window is full). */
    bool next_request(std::uint32_t *out, bool take_staging);
    /** The one read of request @p idx's parameters, taken right where
     *  either serve path dequeues it (no suspension lies between the
     *  dequeue and Prep): a daemon mov's own snapshot, or the slot's
     *  parameters with the admitted ASID. */
    ReqSnapshot snapshot(std::uint32_t idx) const;
    /** Pop the next deposited index: submission queue, then (with
     *  @p take_staging) the staging queue, then the per-CPU rings. */
    bool dequeue_deposit(std::uint32_t *out, bool take_staging);
    /** Complete @p idx as kFailed/kNoSpace with a retry-after hint;
     *  @p permanent zeroes the hint, meaning the request can never be
     *  admitted under this tenant's quota and must not be retried. */
    void reject_no_space(std::uint32_t idx, Tenant &t,
                         bool permanent = false);
    /** Contention model for the single shared deposit queue: a second
     *  CPU depositing within queue_contention_window of another pays a
     *  CAS retry. Per-CPU rings never call this. */
    sim::Duration shared_submit_penalty(std::uint32_t cpu);

    // ----- Managed mode (heat scan + migration daemon) ----------------
    /** One region whose placement the device manages. */
    struct ManagedRegion {
        std::uint32_t asid = 0;
        vm::AddressSpace *as = nullptr;
        vm::Vma *vma = nullptr;
        RegionHeat heat;
        /** Bucket has a daemon mov in flight (no re-issue until done). */
        std::vector<bool> busy;
        /** Epochs left before a failed bucket may be retried. */
        std::vector<std::uint32_t> cooldown;
        /** Settled-classification streak (resets on any mismatch). */
        std::vector<std::uint32_t> streak;
        /** Dormancy countdown: while > 0 the bucket is not sampled. */
        std::vector<std::uint32_t> dormant;
        /** Last granted sleep length (doubles on matching probes). */
        std::vector<std::uint32_t> next_dorm;
        /** The epoch after a sleep only re-arms; its readings are
         *  artifacts of our own disarming, not app accesses. */
        std::vector<bool> probing;
        ManagedRegion(const HeatConfig &hc, std::uint32_t asid_,
                      vm::AddressSpace *as_, vm::Vma *vma_)
            : asid(asid_), as(as_), vma(vma_),
              heat(hc, vma_->num_pages()),
              busy(heat.num_buckets(), false),
              cooldown(heat.num_buckets(), 0),
              streak(heat.num_buckets(), 0),
              dormant(heat.num_buckets(), 0),
              next_dorm(heat.num_buckets(), 0),
              probing(heat.num_buckets(), false)
        {
        }
    };
    /** One outstanding daemon mov (keyed by request-slot index). */
    struct DaemonMov {
        vm::Vma *vma = nullptr;      ///< identifies the region (stable)
        std::uint64_t bucket = 0;
        bool promote = false;
        /** The mov itself: the daemon writes no parameter into the
         *  slot, so nothing a previous user left there can leak in. */
        ReqSnapshot snap;
    };
    /** The periodic heat-sampling kthread (parks when idle). */
    sim::Task scan_loop();
    /** One synchronous sampling pass over every managed region; returns
     *  the modeled CPU cost and reports activity/work via the outs. */
    sim::Duration scan_epoch(bool *any_accessed, bool *has_work,
                             bool *still_hot);
    /** The migration daemon kthread: turns verdicts into movs. */
    sim::Task daemon_loop();
    /** One issue pass (demotions first, then promotions), bounded by
     *  the epoch budget and the engine-backlog backoff. */
    void daemon_issue_pass();
    /** Build + deposit one daemon mov for @p bucket of @p mr, bound
     *  for @p dst (fast/slow in two-tier mode; any node when tiered). */
    bool daemon_submit_bucket(ManagedRegion &mr, std::uint64_t bucket,
                              bool promote, mem::NodeId dst);
    /** Terminal handling of a daemon mov (diverted from notify()):
     *  recycle the slot, clear the bucket, count, wake the daemon. */
    void daemon_request_done(std::uint32_t idx, MovStatus status,
                             MovError error);
    /** Wake the scanner if it parked (device-activity signal). */
    void wake_scanner();
    /** Which in-flight requests page_run_in_flight() counts: all (the
     *  scanner samples under none), the daemon's (the app-side Prep
     *  gate) or migrations (a replication's source check). */
    enum class Movers : std::uint8_t { kAll, kDaemon, kMigration };
    /** True when @p run of @p vma overlaps the source or destination
     *  run of an in-flight request that @p movers counts. */
    bool page_run_in_flight(const vm::Vma *vma, PageRun run,
                            Movers movers = Movers::kAll);
    /** Which tier bucket @p b of @p mr currently lives on, judged by
     *  its first page: the daemon moves whole buckets, so a bucket's
     *  pages straddle nodes only mid-migration (which the scanner
     *  skips anyway). kFar only when daemon_tiered(). */
    HeatTier bucket_tier(const ManagedRegion &mr,
                         std::uint64_t bucket) const;
    /** True when the daemon places across three tiers (tiered_memory
     *  on AND the kernel actually built a far node). */
    bool daemon_tiered() const;

    os::Kernel &kernel_;
    MemifConfig config_;
    /** Transfer controller this instance submits on. */
    unsigned tc_;
    SharedRegion region_;
    /** Per request slot: the tenant whose in-flight quota slot the
     *  request holds, from admission to its terminal notify — and so
     *  the ASID routing and Prep resolve the request in. Kept out of
     *  the application-writable MovReq, so no scribble can forge or
     *  redirect an admission. */
    std::vector<std::optional<std::uint32_t>> quota_holder_;
    CompletionController completion_ctl_;
    sim::SimEvent completion_event_;
    sim::WaitQueue kthread_wq_;
    bool kthread_sleeping_ = false;
    /** The kernel thread holds a moderation mask while awake (NAPI). */
    bool kthread_masked_ = false;
    sim::Task kthread_task_;
    /** Retired flights, parked with their vectors' capacity. */
    sim::RecyclePool<InFlight> flight_pool_;
    std::vector<InFlightPtr> in_flight_;
    /** Every transfer started and not yet released (flights' and
     *  hops'); teardown cancels them so no engine callback or deadline
     *  outlives the device. */
    std::vector<Transfer *> transfers_;
    /** kPrevent: releases deferred from the interrupt handler. */
    std::vector<InFlightPtr> pending_release_;
    /** Storage of finished completion batches (take_batch()). */
    std::vector<std::vector<InFlightPtr>> batch_pool_;
    /** Scratch span list of Remap's shootdown and Release's xlate
     *  invalidation; each fills and drains it in one synchronous
     *  stretch. */
    FlushPlan flush_scratch_;
    /** Tenant registry (index == ASID). Entry 0 is the owning process,
     *  with or without the multi_tenant lever; only the lever adds
     *  more. */
    std::vector<Tenant> tenants_;
    /** Per-(node, order) free-frame magazines (driver_caches lever). */
    std::map<std::pair<mem::NodeId, unsigned>, std::vector<mem::Pfn>>
        magazines_;
    /** Round-robin cursor over the submission rings. */
    std::uint32_t ring_rr_ = 0;
    /** Shared-queue contention window state. */
    sim::SimTime last_shared_submit_ = 0;
    std::uint32_t last_shared_cpu_ = 0;
    bool have_shared_submit_ = false;
    bool stopping_ = false;
    // ----- Managed-mode state (auto_migrate only) ---------------------
    std::vector<std::unique_ptr<ManagedRegion>> managed_;
    sim::WaitQueue scan_wq_;
    sim::WaitQueue daemon_wq_;
    bool scan_parked_ = false;
    bool daemon_parked_ = false;
    std::uint32_t scan_quiet_epochs_ = 0;
    /** Pages the daemon may still move this epoch (scanner refills). */
    std::uint32_t daemon_budget_ = 0;
    /** Daemon movs between submission and terminal handling, by
     *  request-slot index: the driver-side mark of a daemon request
     *  (notify diverts exactly these slots to the daemon). */
    std::map<std::uint32_t, DaemonMov> daemon_movs_;
    /** The daemon's dedicated service class: NOT in tenants_ (its index
     *  is no ASID); WRR and frame accounting special-case it. */
    Tenant daemon_tenant_;
    sim::Task scan_task_;
    sim::Task daemon_task_;
    // ----- Tiered-memory state (tiered_memory only) -------------------
    /** Staging frames (4 KB) currently leased from the middle-tier
     *  pool; must be zero at quiesce. */
    std::uint64_t staging_frames_out_ = 0;
    /** Batches waiting for the staging pool to drain. */
    sim::WaitQueue staging_wq_;
    /** Hop stages currently in flight (the overlap census). */
    std::uint32_t active_hop_stages_ = 0;
    /** Interrupt-driven supervisors and chain masters (see spawn()).
     *  Owned by the device, not kernel_.spawn: teardown destroys every
     *  suspended frame — batch and hop frames with their master. */
    std::vector<sim::Task> tasks_;
    DeviceStats stats_;
};

}  // namespace memif::core
