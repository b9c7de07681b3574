#include "memif/device.h"

#include <algorithm>
#include <coroutine>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "sim/cost_model.h"
#include "sim/log.h"
#include "vm/addr_space.h"
#include "vm/pte.h"
#include "vm/walk_cost.h"

namespace memif::core {

using sim::ExecContext;
using sim::Op;
using sim::TracePoint;

namespace {

/** Retry n of a failed transfer first sleeps kDmaRetryBackoff << (n-1). */
constexpr sim::Duration kDmaRetryBackoff = sim::microseconds(5);
/** Gang translation cache capacity, in (vma, range) entries. */
constexpr std::size_t kXlateCacheEntries = 64;
/** On a cache miss, walk (and cache) this many pages beyond the
 *  requested run: the gang-prefetch of the next translations. */
constexpr std::uint64_t kXlateGangPrefetch = 8;
/** Frames parked per magazine before frees spill to the buddy. */
constexpr std::size_t kMagazineCapacity = 128;
/** Blocks fetched per magazine refill (floor; a gang needing more gets
 *  exactly what it needs). */
constexpr std::uint32_t kMagazineRefill = 32;
/** Stream prefetch (xlate_prefetch_ahead): descriptors walked
 *  synchronously at Prep, and the batch of each asynchronous walk. */
constexpr std::uint32_t kPrefetchWindow = 8;
/** Cap on requests dispatched to the engines at once under
 *  multi_tenant; further backlog waits in the per-tenant pending
 *  lists, where the WRR can still re-rank it. A bit above the
 *  engine's TC count keeps the hardware fed without flooding the
 *  FIFO TC queues, whose bandwidth sharing ignores tenant weights. */
constexpr std::size_t kDispatchWindow = dma::Edma3Engine::kNumTcs + 2;

}  // namespace

void
MemifConfig::validate() const
{
    MEMIF_ASSERT(!xlate_prefetch_ahead || sva_dma,
                 "MemifConfig: xlate_prefetch_ahead requires sva_dma");
    MEMIF_ASSERT(!pipelined_eviction || tiered_memory,
                 "MemifConfig: pipelined_eviction requires tiered_memory");
}

MemifDevice::MemifDevice(os::Kernel &kernel, os::Process &proc,
                         MemifConfig config)
    : kernel_(kernel),
      config_(config),
      tc_(kernel.assign_transfer_controller()),
      // One ring per simulated CPU; the region caps the count.
      region_(config.capacity,
              config.percpu_rings ? kernel.cpu().num_cores() : 0),
      quota_holder_(region_.capacity()),
      completion_ctl_(kernel.costs(), config.poll_threshold_bytes),
      completion_event_(kernel.eq()),
      kthread_wq_(kernel.eq()),
      scan_wq_(kernel.eq()),
      daemon_wq_(kernel.eq()),
      staging_wq_(kernel.eq())
{
    config_.validate();
    // The owning process is tenant 0, with or without the lever.
    add_tenant(proc, 1);
    kthread_task_ = kthread_loop();
    if (config_.auto_migrate) {
        scan_task_ = scan_loop();
        daemon_task_ = daemon_loop();
    }
}

MemifDevice::~MemifDevice()
{
    stopping_ = true;
    // Cancel every transfer still under supervision: the engine
    // outlives us, and its completion callbacks — like the deadline
    // events — capture this device and the supervisor's record. The
    // supervisor frames themselves go with tasks_.
    while (!transfers_.empty()) {
        Transfer &x = *transfers_.back();
        if (claim_transfer(x) == MovError::kTimeout) release_transfer(x);
    }
    // Prefetch-fill events capture this device; drop them too.
    for (const InFlightPtr &fl : in_flight_)
        if (!fl->prefetch_events.empty() || !fl->prefetch_tokens.empty())
            cancel_stream_prefetch(fl);
    // Tenant address spaces outlive the device (the kernel owns the
    // processes); unhook them so no dangling callback survives.
    for (Tenant &t : tenants_) {
        if (config_.race_policy == RacePolicy::kRecover ||
            config_.auto_migrate)
            t.proc->as().set_young_fault_hook(nullptr);
        if (t.xcache) t.proc->as().set_xlate_invalidate_hook(nullptr);
    }
    drain_magazines();
    // The kernel thread may be destroyed mid-suspension while holding
    // its moderation mask; rebalance so the engine (which the kernel
    // owns and which outlives us) is not left masked. Every held
    // delivery was discarded above, so the unmask flushes nothing.
    if (kthread_masked_) {
        kernel_.dma().unmask_moderation();
        kthread_masked_ = false;
    }
}

bool
MemifDevice::idle() const
{
    auto &region = const_cast<SharedRegion &>(region_);
    for (std::uint32_t r = 0; r < region.num_rings(); ++r)
        if (!region.ring_queue(r).empty()) return false;
    for (const Tenant &t : tenants_)
        if (!t.pending.empty()) return false;
    if (!daemon_tenant_.pending.empty()) return false;
    return in_flight_.empty() && pending_release_.empty() &&
           region.staging_queue().empty() &&
           region.submission_queue().empty();
}

bool
MemifDevice::check_quiesced(std::string *why) const
{
    bool ok = true;
    auto fail = [&](const std::string &msg) {
        ok = false;
        if (!why) return;
        if (!why->empty()) *why += "; ";
        *why += msg;
    };

    if (!in_flight_.empty())
        fail("flight table holds " + std::to_string(in_flight_.size()) +
             " record(s)");
    if (!pending_release_.empty())
        fail("pending-release list holds " +
             std::to_string(pending_release_.size()) + " record(s)");
    if (!transfers_.empty())
        fail(std::to_string(transfers_.size()) +
             " transfer(s) still under supervision");

    auto &region = const_cast<SharedRegion &>(region_);
    if (!region.staging_queue().empty()) fail("staging queue not drained");
    if (!region.submission_queue().empty())
        fail("submission queue not drained");
    for (std::uint32_t r = 0; r < region.num_rings(); ++r)
        if (!region.ring_queue(r).empty())
            fail("submission ring " + std::to_string(r) + " not drained");

    for (std::uint32_t i = 0; i < region_.capacity(); ++i) {
        const MovStatus st = region_.request(i).load_status();
        if (st == MovStatus::kSubmitted || st == MovStatus::kInFlight)
            fail("request " + std::to_string(i) +
                 " stuck in non-terminal status " +
                 std::to_string(static_cast<int>(st)));
    }

    // Descriptor leases and engine records: at quiesce every chain has
    // been returned, so the cache sees its full PaRAM capacity, and
    // every transfer released. (With several instances on one kernel
    // this only holds once ALL of them are idle, which is the state
    // test teardown checks.)
    const dma::ChainCache &cache = kernel_.dma().cache();
    if (cache.available() != cache.capacity())
        fail(std::to_string(cache.capacity() - cache.available()) +
             " DMA descriptor(s) still leased");
    if (const std::size_t live = kernel_.dma_engine().live_transfers())
        fail(std::to_string(live) + " DMA transfer record(s) not released");

    mem::PhysicalMemory &pm = kernel_.phys();
    for (const auto &[key, mag] : magazines_) {
        if (mag.size() > kMagazineCapacity)
            fail("magazine (" + std::to_string(key.first) + ", order " +
                 std::to_string(key.second) + ") over capacity");
        for (const mem::Pfn head : mag) {
            const mem::PageFrame &frame = pm.frame(head);
            if (!frame.allocated) {
                fail("magazine parks unallocated frame " +
                     std::to_string(head));
                continue;
            }
            if (frame.mapcount() != 0)
                fail("magazine parks still-mapped frame " +
                     std::to_string(head));
        }
    }

    auto check_cache = [&](const XlateCache &cache) {
        for (const XlateCache::Entry &e : cache.entries()) {
            if (e.generation > cache.generation()) {
                fail("xlate entry from the future (generation " +
                     std::to_string(e.generation) + " > " +
                     std::to_string(cache.generation()) + ")");
                continue;
            }
            for (std::uint64_t i = 0; i < e.num_pages(); ++i) {
                if (e.ptes[i].pack() ==
                    e.vma->pte(e.first_page + i).pack())
                    continue;
                fail("stale xlate entry: vma page " +
                     std::to_string(e.first_page + i) +
                     " diverged from the live PTE");
                break;
            }
        }
    };

    // Per-ASID quiesce: every tenant has returned its quota charges and
    // drained its pending queue, and its private cache is consistent.
    for (std::size_t a = 0; a < tenants_.size(); ++a) {
        const Tenant &t = tenants_[a];
        if (t.stats.outstanding != 0)
            fail("tenant " + std::to_string(a) + " still holds " +
                 std::to_string(t.stats.outstanding) +
                 " in-flight quota slot(s)");
        if (t.stats.frames_charged != 0)
            fail("tenant " + std::to_string(a) + " still charged " +
                 std::to_string(t.stats.frames_charged) +
                 " transient frame(s)");
        if (!t.pending.empty())
            fail("tenant " + std::to_string(a) + " pending queue holds " +
                 std::to_string(t.pending.size()) + " request(s)");
        if (t.xcache) check_cache(*t.xcache);
    }

    // Managed mode: the daemon has no mov between submission and its
    // terminal handling, its frame charges are returned, and no bucket
    // is marked busy with nothing in flight for it.
    if (!daemon_movs_.empty())
        fail("daemon still has " + std::to_string(daemon_movs_.size()) +
             " mov(s) outstanding");
    if (daemon_tenant_.stats.frames_charged != 0)
        fail("daemon still charged " +
             std::to_string(daemon_tenant_.stats.frames_charged) +
             " transient frame(s)");
    if (!daemon_tenant_.pending.empty())
        fail("daemon pending queue holds " +
             std::to_string(daemon_tenant_.pending.size()) + " request(s)");
    for (const auto &mr : managed_)
        for (std::uint64_t b = 0; b < mr->heat.num_buckets(); ++b)
            if (mr->busy[b])
                fail("managed bucket " + std::to_string(b) +
                     " marked busy with no daemon mov in flight");

    // Tiered memory: every chained batch returned its staging frames
    // (a leaked lease would also show up as a frame-count mismatch,
    // but this names the culprit).
    if (staging_frames_out_ != 0)
        fail("staging pool still holds " +
             std::to_string(staging_frames_out_) + " frame(s)");
    return ok;
}

std::uint64_t
MemifDevice::magazine_pages() const
{
    std::uint64_t pages = 0;
    for (const auto &[key, mag] : magazines_)
        pages += mag.size() * (std::uint64_t{1} << key.second);
    return pages;
}

// --------------------------------------------------------------------
// Multi-tenant service layer: registry, admission control, weighted
// round-robin dispatch, load shedding (multi_tenant lever).
// --------------------------------------------------------------------

MemifDevice::Tenant *
MemifDevice::tenant_for(std::uint32_t asid)
{
    if (asid >= tenants_.size()) return nullptr;
    return &tenants_[asid];
}

const MemifDevice::Tenant *
MemifDevice::tenant_for(std::uint32_t asid) const
{
    if (asid >= tenants_.size()) return nullptr;
    return &tenants_[asid];
}

vm::AddressSpace &
MemifDevice::request_as(std::uint32_t asid) const
{
    const Tenant *t = tenant_for(asid);
    return (t ? *t : tenants_.front()).proc->as();
}

XlateCache *
MemifDevice::xlate_for(std::uint32_t asid)
{
    Tenant *t = tenant_for(asid);
    return t ? t->xcache.get() : nullptr;
}

void
MemifDevice::invalidate_xlate(const vm::Vma *vma, std::uint64_t first,
                              std::uint64_t n)
{
    for (Tenant &t : tenants_)
        if (t.xcache)
            stats_.xlate_invalidations +=
                t.xcache->invalidate(vma, first, n);
}

std::uint32_t
MemifDevice::register_tenant(os::Process &proc, std::uint32_t weight)
{
    MEMIF_ASSERT(config_.multi_tenant,
                 "register_tenant requires the multi_tenant lever");
    return add_tenant(proc, weight);
}

std::uint32_t
MemifDevice::add_tenant(os::Process &proc, std::uint32_t weight)
{
    const auto asid = static_cast<std::uint32_t>(tenants_.size());
    Tenant t;
    t.proc = &proc;
    t.stats.weight = std::max<std::uint32_t>(weight, 1);
    // The young-fault hook serves two masters: kRecover's rollback
    // machinery, and (managed mode) the scanner's activity signal — a
    // trap on a scanner-armed page means the working set moved, so a
    // parked scanner must wake. handle_young_fault routes both.
    if (config_.race_policy == RacePolicy::kRecover ||
        config_.auto_migrate) {
        proc.as().set_young_fault_hook(
            [this](vm::Vma &vma, std::uint64_t idx) {
                return handle_young_fault(vma, idx);
            });
    }
    if (config_.driver_caches) {
        t.xcache = std::make_unique<XlateCache>(kXlateCacheEntries);
        XlateCache *cache = t.xcache.get();
        proc.as().set_xlate_invalidate_hook(
            [this, cache](const vm::Vma *vma, std::uint64_t first,
                          std::uint64_t n) {
                stats_.xlate_invalidations +=
                    cache->invalidate(vma, first, n);
            });
    }
    tenants_.push_back(std::move(t));
    return asid;
}

void
MemifDevice::set_tenant_weight(std::uint32_t asid, std::uint32_t weight)
{
    Tenant *t = tenant_for(asid);
    MEMIF_ASSERT(t != nullptr, "set_tenant_weight: unknown ASID");
    t->stats.weight = std::max<std::uint32_t>(weight, 1);
}

const TenantStats &
MemifDevice::tenant_stats(std::uint32_t asid) const
{
    const Tenant *t = tenant_for(asid);
    MEMIF_ASSERT(t != nullptr, "tenant_stats: unknown ASID");
    return t->stats;
}

double
MemifDevice::fairness_ratio() const
{
    std::uint64_t lo = 0, hi = 0;
    bool have = false;
    for (const Tenant &t : tenants_) {
        if (t.stats.admitted == 0) continue;
        if (!have) {
            lo = hi = t.stats.bytes_moved;
            have = true;
            continue;
        }
        lo = std::min(lo, t.stats.bytes_moved);
        hi = std::max(hi, t.stats.bytes_moved);
    }
    if (!have || hi == 0 || lo == hi) return 1.0;
    if (lo == 0) return std::numeric_limits<double>::infinity();
    return static_cast<double>(hi) / static_cast<double>(lo);
}

void
MemifDevice::print_stats(std::FILE *out) const
{
    std::fprintf(out, "memif device stats\n");
    // A lever that is off leaves its counters at zero: only the
    // nonzero ones print, in the list's order.
    auto counter = [out](const char *name, std::uint64_t value) {
        if (value != 0)
            std::fprintf(out, "  %-24s %12llu\n", name,
                         static_cast<unsigned long long>(value));
    };
#define MEMIF_PRINT_COUNTER(name, doc) counter(#name, stats_.name);
    MEMIF_DEVICE_COUNTERS(MEMIF_PRINT_COUNTER)
#undef MEMIF_PRINT_COUNTER
    auto array = [&counter](const char *name, const auto &values) {
        char label[32];
        for (std::size_t i = 0; i < values.size(); ++i) {
            std::snprintf(label, sizeof(label), "%s[%zu]", name, i);
            counter(label, values[i]);
        }
    };
    array("tc_dispatches", stats_.tc_dispatches);
    array("ring_submits", stats_.ring_submits);

    const bool tenanted =
        std::any_of(tenants_.begin(), tenants_.end(), [](const Tenant &t) {
            return t.stats.admitted != 0 || t.stats.rejected != 0;
        });
    if (!tenanted) return;
    std::fprintf(out, "  %-24s %12.3f\n", "fairness_ratio",
                 fairness_ratio());
    std::fprintf(out,
                 "  asid  weight   admitted  completed   rejected"
                 "       shed  bytes_moved  max_wait_us\n");
    for (std::size_t a = 0; a < tenants_.size(); ++a) {
        const TenantStats &t = tenants_[a].stats;
        std::fprintf(out,
                     "  %4zu  %6u %10llu %10llu %10llu %10llu %12llu "
                     "%12.1f\n",
                     a, t.weight,
                     static_cast<unsigned long long>(t.admitted),
                     static_cast<unsigned long long>(t.completed),
                     static_cast<unsigned long long>(t.rejected),
                     static_cast<unsigned long long>(t.shed),
                     static_cast<unsigned long long>(t.bytes_moved),
                     static_cast<double>(t.max_slot_wait) / 1000.0);
    }
}

void
MemifDevice::charge_frames(const InFlightPtr &fl)
{
    if (!config_.multi_tenant || fl->frames_charged != 0) return;
    // Daemon movs charge the daemon's own service class, never the
    // tenant whose pages move — managed placement must not eat into an
    // app's frame quota.
    Tenant *t = fl->daemon ? &daemon_tenant_ : tenant_for(fl->asid);
    if (!t) return;
    fl->frames_charged = fl->plan.src.pages << fl->order;
    t->stats.frames_charged += fl->frames_charged;
}

void
MemifDevice::uncharge_frames(const InFlightPtr &fl)
{
    if (fl->frames_charged == 0) return;
    if (Tenant *t = fl->daemon ? &daemon_tenant_ : tenant_for(fl->asid)) {
        MEMIF_ASSERT(t->stats.frames_charged >= fl->frames_charged,
                     "tenant frame charge underflow");
        t->stats.frames_charged -= fl->frames_charged;
    }
    fl->frames_charged = 0;
}

void
MemifDevice::reject_no_space(std::uint32_t idx, Tenant &t, bool permanent)
{
    MovReq &req = region_.request(idx);
    // Back-off hint: roughly one service interval per request already
    // ahead of this tenant (a heuristic, monotone in the backlog). A
    // zero hint means the rejection is permanent — the request can
    // never fit this tenant's quota, so retrying is pointless.
    const std::uint64_t backlog =
        std::uint64_t{t.stats.outstanding} + t.pending.size();
    req.retry_after_us =
        permanent ? 0
                  : static_cast<std::uint32_t>(std::min<std::uint64_t>(
                        20 * (backlog + 1), 10000));
    ++t.stats.rejected;
    notify(idx, MovStatus::kFailed, MovError::kNoSpace);
}

bool
MemifDevice::admit_request(std::uint32_t idx)
{
    if (!config_.multi_tenant) return true;
    const MovReq &req = region_.request(idx);
    const std::uint32_t asid = req.asid;
    Tenant *t = tenant_for(asid);
    if (!t) {
        // Unknown ASID: not a quota matter — a malformed request.
        notify(idx, MovStatus::kFailed, MovError::kBadRequest);
        return false;
    }
    if (config_.tenant_inflight_quota != 0 &&
        t->stats.outstanding >= config_.tenant_inflight_quota) {
        ++stats_.admission_rejections;
        ++stats_.quota_hits_inflight;
        reject_no_space(idx, *t);
        return false;
    }
    if (config_.tenant_frame_quota != 0 && req.op == MovOp::kMigrate) {
        // Estimate the transient doubled-frame window against the
        // quota. An unmapped src_base is admitted — validation fails
        // it with the precise error.
        if (const vm::Vma *vma = t->proc->as().find_vma(req.src_base)) {
            const std::uint64_t est =
                std::uint64_t{req.num_pages}
                << vm::page_order(vma->page_size());
            if (t->stats.frames_charged + est >
                config_.tenant_frame_quota) {
                ++stats_.admission_rejections;
                ++stats_.quota_hits_frames;
                // An estimate that exceeds the whole quota can never
                // fit no matter how far the tenant drains: reject it
                // permanently (hint 0) so callers don't retry forever.
                reject_no_space(idx, *t,
                                est > config_.tenant_frame_quota);
                return false;
            }
        }
    }
    // The quota slot is recorded driver-side, with the tenant it was
    // charged to: notify returns it there whatever the slot says later.
    quota_holder_[idx] = asid;
    ++t->stats.outstanding;
    ++t->stats.admitted;
    return true;
}

void
MemifDevice::route_to_pending(bool take_staging)
{
    const sim::CostModel &cm = kernel_.costs();
    auto route = [&](std::uint32_t idx) {
        if (!region_.valid_index(idx)) {
            MEMIF_WARN("memif: dropping corrupt request index %u", idx);
            return;
        }
        if (daemon_movs_.contains(idx)) {
            // Daemon movs have their own service class and are already
            // bounded by the backlog limit and the epoch budget — the
            // shedding bound below is for unthrottled app tenants.
            daemon_tenant_.pending.push_back(idx);
            return;
        }
        // The tenant admission charged, never the slot's asid field: a
        // slot rewritten after admission cannot move into another
        // tenant's queue (or page tables). A request deposited without
        // admission has no tenant at all.
        const std::optional<std::uint32_t> asid = quota_holder_[idx];
        if (!asid) {
            notify(idx, MovStatus::kFailed, MovError::kBadRequest);
            return;
        }
        Tenant *t = &tenants_[*asid];
        // Graceful degradation: a tenant whose unserved queue outgrows
        // its weight-scaled bound is shed instead of letting it stall
        // everyone behind a fault storm or frame exhaustion.
        const std::uint64_t bound =
            std::uint64_t{config_.tenant_queue_depth} * t->stats.weight;
        if (config_.tenant_queue_depth != 0 && t->pending.size() >= bound) {
            ++stats_.shed_requests;
            ++t->stats.shed;
            reject_no_space(idx, *t);
            return;
        }
        t->pending.push_back(idx);
    };
    std::uint32_t idx = 0;
    while (dequeue_deposit(&idx, take_staging)) {
        kernel_.cpu().charge(sim::ExecContext::kKthread, Op::kQueue,
                             cm.queue_op);
        route(idx);
    }
}

bool
MemifDevice::wrr_pick(std::uint32_t *out)
{
    // Smooth weighted round-robin: every active tenant earns its
    // weight, the richest serves, then pays the active-weight total.
    // Under continuous backlog this interleaves tenants in exact
    // weight proportion (descriptor slots and TC bandwidth follow).
    std::int64_t active_weight = 0;
    Tenant *best = nullptr;
    auto offer = [&](Tenant &t) {
        if (t.pending.empty()) return;
        active_weight += t.stats.weight;
        t.wrr_credit += t.stats.weight;
        if (!best || t.wrr_credit > best->wrr_credit) best = &t;
    };
    for (Tenant &t : tenants_) offer(t);
    // The migration daemon competes like any tenant, at its configured
    // weight — background placement never preempts app traffic, it is
    // interleaved with it.
    offer(daemon_tenant_);
    if (!best) return false;
    best->wrr_credit -= active_weight;
    *out = best->pending.front();
    best->pending.erase(best->pending.begin());
    ++stats_.wrr_dispatches;
    // Starvation tripwire: worst wait from submit to service start.
    const MovReq &req = region_.request(*out);
    const sim::SimTime now = kernel_.eq().now();
    if (now >= req.submit_time) {
        const sim::Duration wait = now - req.submit_time;
        if (wait > best->stats.max_slot_wait)
            best->stats.max_slot_wait = wait;
    }
    return true;
}

bool
MemifDevice::next_request(std::uint32_t *out, bool take_staging)
{
    if (config_.multi_tenant) {
        // The engine backlog is bounded: the WRR can only arbitrate
        // work still in the pending lists, so overload must queue
        // there, not in the FIFO TC queues. Both paths honour the
        // window (a kicking tenant could otherwise push past the WRR's
        // standing queue); the request stays deposited and completion
        // interrupts wake the worker as slots free up.
        if (in_flight_.size() >= kDispatchWindow) return false;
        route_to_pending(take_staging);
        return wrr_pick(out);
    }
    return dequeue_deposit(out, take_staging);
}

ReqSnapshot
MemifDevice::snapshot(std::uint32_t idx) const
{
    if (const auto it = daemon_movs_.find(idx); it != daemon_movs_.end())
        return it->second.snap;
    ReqSnapshot s = ReqSnapshot::of(region_.request(idx));
    // Routing turned away every unadmitted request under multi_tenant;
    // with the lever off nothing is admitted, so every request resolves
    // in the owner's tables (ASID 0) whatever the slot's asid says.
    s.asid = quota_holder_[idx].value_or(0);
    return s;
}

bool
MemifDevice::dequeue_deposit(std::uint32_t *out, bool take_staging)
{
    lockfree::DequeueResult d = region_.submission_queue().dequeue();
    if (!d.ok && take_staging) d = region_.staging_queue().dequeue();
    if (!d.ok && region_.num_rings() > 0) {
        // Per-CPU rings: round-robin scan so no submitting CPU can
        // starve the others.
        const std::uint32_t nr = region_.num_rings();
        for (std::uint32_t i = 0; i < nr && !d.ok; ++i) {
            const std::uint32_t r = (ring_rr_ + i) % nr;
            d = region_.ring_queue(r).dequeue();
            if (d.ok) ring_rr_ = (r + 1) % nr;
        }
    }
    if (!d.ok) return false;
    *out = d.value;
    return true;
}

// --------------------------------------------------------------------
// Validation (§4.2 safety: the driver trusts nothing in the region, so
// it validates the one snapshot Prep takes of the request).
// --------------------------------------------------------------------

MovError
MemifDevice::validate(const ReqSnapshot &s, vm::Vma **src_vma,
                      vm::Vma **dst_vma) const
{
    *src_vma = nullptr;
    *dst_vma = nullptr;
    // Strided geometry rides in dedicated fields, so the branch comes
    // before the flat num_pages checks (a strided request leaves
    // num_pages zero on purpose).
    if (s.rows != 0) return validate_strided(s, src_vma, dst_vma);
    if (s.num_pages == 0 ||
        s.num_pages > dma::DescriptorRam::kEntries)
        return MovError::kBadRequest;

    vm::AddressSpace &as = request_as(s.asid);
    vm::Vma *src = as.find_vma(s.src_base);
    if (!src) return MovError::kBadAddress;
    const std::uint64_t pb = vm::page_bytes(src->page_size());
    const std::uint64_t bytes = s.num_pages * pb;
    if (s.src_base % pb != 0 || s.src_base + bytes > src->end())
        return MovError::kBadAddress;
    *src_vma = src;

    if (s.op == MovOp::kMigrate) {
        if (s.dst_node >= kernel_.phys().node_count())
            return MovError::kBadNode;
        if (src->is_file_backed() && !config_.allow_file_backed)
            return MovError::kFileBacked;  // the prototype's §6.7 limit
        return MovError::kNone;
    }

    // Replication: the destination must be mapped — at any granularity;
    // a 64 KB source may replicate into a 4 KB destination region and
    // vice versa — and must not overlap the source. Chunks are emitted
    // at the finer of the two granularities, so their count (not the
    // source page count) is what the PaRAM bounds.
    vm::Vma *dst = as.find_vma(s.dst_base);
    if (!dst) return MovError::kBadAddress;
    const std::uint64_t align =
        std::min(pb, vm::page_bytes(dst->page_size()));
    if (s.dst_base % align != 0) return MovError::kBadAddress;
    if (bytes / align > dma::DescriptorRam::kEntries)
        return MovError::kBadRequest;
    if (s.dst_base + bytes > dst->end()) return MovError::kBadAddress;
    if (s.src_base < s.dst_base + bytes &&
        s.dst_base < s.src_base + bytes)
        return MovError::kBadRequest;
    *dst_vma = dst;
    return MovError::kNone;
}

MovError
MemifDevice::validate_strided(const ReqSnapshot &s, vm::Vma **src_vma,
                              vm::Vma **dst_vma) const
{
    if (!config_.strided_dma) return MovError::kBadRequest;
    // Strided moves are replication-shaped: migrations relocate whole
    // pages, for which 2D geometry is meaningless.
    if (s.op != MovOp::kReplicate) return MovError::kBadRequest;
    if (s.num_pages != 0) return MovError::kBadRequest;
    if (s.row_bytes == 0 || s.row_bytes > 0xFFFF)
        return MovError::kBadRequest;
    if (s.rows > dma::DescriptorRam::kEntries)
        return MovError::kBadRequest;
    // Pitches are bounded by the descriptor's signed 32-bit BIDX;
    // together with the rows bound this also makes every extent
    // computation below overflow-free (rows * pitch < 2^40).
    if (s.src_pitch > 0x7FFFFFFF || s.dst_pitch > 0x7FFFFFFF)
        return MovError::kBadRequest;
    if (s.dst_pitch < s.row_bytes) return MovError::kBadRequest;
    const bool gather = s.gather_list != 0;
    if (!gather && s.src_pitch < s.row_bytes)
        return MovError::kBadRequest;
    // A misaligned list would make its u64 reads straddle frames.
    if (gather && s.gather_list % 8 != 0) return MovError::kBadRequest;

    vm::AddressSpace &as = request_as(s.asid);
    vm::Vma *src = as.find_vma(s.src_base);
    if (!src) return MovError::kBadAddress;
    const std::uint64_t src_extent =
        gather ? 0
               : (std::uint64_t{s.rows} - 1) * s.src_pitch +
                     s.row_bytes;
    if (gather) {
        // The row-address list itself must be mapped; the per-row
        // addresses it holds are read (and bounds-checked against the
        // source vma) at serve time.
        vm::Vma *lv = as.find_vma(s.gather_list);
        if (!lv ||
            s.gather_list + std::uint64_t{s.rows} * 8 > lv->end())
            return MovError::kBadAddress;
    } else if (s.src_base + src_extent > src->end()) {
        return MovError::kBadAddress;
    }
    *src_vma = src;

    vm::Vma *dst = as.find_vma(s.dst_base);
    if (!dst) return MovError::kBadAddress;
    const std::uint64_t dst_extent =
        (std::uint64_t{s.rows} - 1) * s.dst_pitch + s.row_bytes;
    if (s.dst_base + dst_extent > dst->end())
        return MovError::kBadAddress;
    // Envelope overlap check (non-gather): pitched reads from inside
    // the write window would see half-written rows.
    if (!gather && s.src_base < s.dst_base + dst_extent &&
        s.dst_base < s.src_base + src_extent)
        return MovError::kBadRequest;
    *dst_vma = dst;
    return MovError::kNone;
}

// --------------------------------------------------------------------
// Notification (op 5).
// --------------------------------------------------------------------

void
MemifDevice::notify(std::uint32_t idx, MovStatus status, MovError error)
{
    MovReq &req = region_.request(idx);
    req.error = error;
    req.complete_time = kernel_.eq().now();
    req.store_status(status);
    if (daemon_movs_.contains(idx)) {
        // Daemon movs never surface on the application's completion
        // queues and hold no tenant quota slot: the daemon recycles
        // the request slot itself and absorbs the outcome (a failed
        // promotion is dropped into a cooldown, not retried here).
        daemon_request_done(idx, status, error);
        return;
    }
    wake_scanner();
    // Return the tenant's in-flight quota slot exactly once per
    // admitted request (rejections never held one), to the tenant
    // admission charged.
    if (const auto holder = std::exchange(quota_holder_[idx], std::nullopt)) {
        TenantStats &ts = tenants_[*holder].stats;
        MEMIF_ASSERT(ts.outstanding > 0, "tenant in-flight quota underflow");
        --ts.outstanding;
        ++ts.completed;
    }
    if (status == MovStatus::kDone)
        region_.completion_ok_queue().enqueue(idx);
    else
        region_.completion_err_queue().enqueue(idx);
    ++stats_.requests_completed;
    completion_event_.set();
}

// --------------------------------------------------------------------
// Batched TLB shootdown plumbing (PR 2's span accumulator, shared).
// --------------------------------------------------------------------

void
MemifDevice::accumulate_flush(FlushPlan &plan, vm::AddressSpace *as,
                              vm::Vma *vma, std::uint64_t page_idx)
{
    for (FlushSpan &s : plan) {
        if (s.as == as && s.vma == vma) {
            s.lo = std::min(s.lo, page_idx);
            s.hi = std::max(s.hi, page_idx);
            return;
        }
    }
    plan.push_back(FlushSpan{as, vma, page_idx, page_idx});
}

void
MemifDevice::accumulate_run(FlushPlan &plan, vm::AddressSpace *as,
                            vm::Vma *vma, std::uint64_t page_idx)
{
    for (FlushSpan &s : plan) {
        if (s.vma == vma && s.hi + 1 == page_idx) {
            s.hi = page_idx;
            return;
        }
    }
    plan.push_back(FlushSpan{as, vma, page_idx, page_idx});
}

void
MemifDevice::issue_flush_plan(const FlushPlan &plan, sim::Duration &cost)
{
    const sim::CostModel &cm = kernel_.costs();
    for (const FlushSpan &s : plan) {
        const std::uint64_t span_pages = s.hi - s.lo + 1;
        s.as->flush_tlb_range(*s.vma, s.lo, span_pages);
        cost += cm.tlb_flush_range_time(span_pages);
        ++stats_.ranged_tlb_flushes;
    }
}

// --------------------------------------------------------------------
// Submission-path acceleration: gang translation cache, per-node frame
// magazines, per-CPU submission rings (all lever-gated, default off).
// --------------------------------------------------------------------

void
MemifDevice::xlate_writethrough(const InFlightPtr &fl, ExecContext ctx)
{
    // The driver's own remap shootdown invalidated the region's entry
    // while the request was in flight; with the final PTEs now live
    // (and, under kDetect, never flushed again), re-record them so the
    // next move over the region starts from a hit.
    XlateCache *const xcache = xlate_for(fl->asid);
    if (!xcache) return;
    xcache->record(fl->vma, fl->plan.src.first, fl->plan.src.pages);
    kernel_.cpu().charge(ctx, Op::kRelease, kernel_.costs().xlate_probe);
}

bool
MemifDevice::magazine_alloc(mem::NodeId node, unsigned order,
                            std::uint32_t n, std::vector<mem::Pfn> &out,
                            sim::Duration &cost)
{
    const sim::CostModel &cm = kernel_.costs();
    std::vector<mem::Pfn> &mag = magazines_[{node, order}];
    std::uint32_t got = 0;
    while (got < n) {
        if (!mag.empty()) {
            out.push_back(mag.back());
            mag.pop_back();
            cost += cm.magazine_op;
            ++stats_.magazine_pops;
            ++got;
            continue;
        }
        // Refill: one bulk buddy call for at least the refill floor,
        // falling back to the exact remainder under memory pressure.
        const std::uint32_t need = n - got;
        std::uint32_t want = std::max(need, kMagazineRefill);
        std::vector<mem::Pfn> bulk;
        const bool fault = kernel_.faults().should_fire(kFaultAllocFail);
        if (fault || !kernel_.phys().allocate_bulk(node, order, want, bulk)) {
            if (fault || want == need ||
                !kernel_.phys().allocate_bulk(node, order, need, bulk)) {
                // Exhausted: a failed bulk call still entered the
                // allocator once; undo the pops so the caller sees
                // all-or-nothing.
                cost += cm.bulk_alloc_base;
                while (got > 0) {
                    mag.push_back(out.back());
                    out.pop_back();
                    cost += cm.magazine_op;
                    --got;
                }
                return false;
            }
            want = need;
        }
        cost += cm.bulk_alloc_time(order, want);
        ++stats_.bulk_allocs;
        mag.insert(mag.end(), bulk.begin(), bulk.end());
    }
    return true;
}

void
MemifDevice::magazine_free(mem::Pfn head, unsigned order,
                           sim::Duration &cost)
{
    const sim::CostModel &cm = kernel_.costs();
    std::vector<mem::Pfn> &mag = magazines_[{kernel_.phys().node_of(head),
                                             order}];
    if (mag.size() < kMagazineCapacity) {
        MEMIF_ASSERT(kernel_.phys().frame(head).mapcount() == 0,
                     "parking a still-mapped frame");
        mag.push_back(head);
        cost += cm.magazine_op;
        return;
    }
    kernel_.phys().free(head, order);
    cost += cm.page_free;
    ++stats_.magazine_spills;
}

void
MemifDevice::free_frames(mem::Pfn head, unsigned order, sim::Duration &cost)
{
    if (config_.driver_caches) {
        magazine_free(head, order, cost);
        return;
    }
    kernel_.phys().free(head, order);
    cost += kernel_.costs().page_free;
}

void
MemifDevice::drain_magazines()
{
    for (auto &[key, mag] : magazines_) {
        for (const mem::Pfn head : mag)
            kernel_.phys().free(head, key.second);
        mag.clear();
    }
}

std::weak_ptr<const void>
MemifDevice::flight_handle(std::uint32_t idx) const
{
    for (const InFlightPtr &fl : in_flight_)
        if (fl->req_idx == idx) return fl;
    return {};
}

void
MemifDevice::add_in_flight(const InFlightPtr &fl)
{
    region_.request(fl->req_idx).store_status(MovStatus::kInFlight);
    in_flight_.push_back(fl);
}

void
MemifDevice::remove_in_flight(const InFlightPtr &fl)
{
    std::erase(in_flight_, fl);
    // An SVA stream may retire with prefetch walks still in flight
    // (gate fault, rollback); drop them and their pending tokens.
    if (!fl->prefetch_events.empty() || !fl->prefetch_tokens.empty())
        cancel_stream_prefetch(fl);
}

sim::Duration
MemifDevice::shared_submit_penalty(std::uint32_t cpu)
{
    const sim::CostModel &cm = kernel_.costs();
    const sim::SimTime now = kernel_.eq().now();
    sim::Duration penalty = 0;
    if (have_shared_submit_ && last_shared_cpu_ != cpu &&
        now - last_shared_submit_ <= cm.queue_contention_window) {
        penalty = cm.queue_contention_retry;
        ++stats_.shared_submit_retries;
    }
    have_shared_submit_ = true;
    last_shared_submit_ = now;
    last_shared_cpu_ = cpu;
    return penalty;
}

// --------------------------------------------------------------------
// MMU-aware DMA: ahead-of-stream translation prefetch + SVA routing.
// --------------------------------------------------------------------

bool
MemifDevice::resolve_span(const vm::Vma *vma, vm::VAddr va,
                          std::uint64_t bytes, std::uint64_t *out)
{
    const std::uint64_t pb = vm::page_bytes(vma->page_size());
    std::uint64_t idx = vma->page_index(va);
    const std::uint64_t off = va - vma->page_vaddr(idx);
    vm::Pte pte = vma->pte(idx);
    if (!pte.present || pte.migration) return false;
    const std::uint64_t base = (pte.pfn << mem::kPageShift) + off;
    std::uint64_t covered = pb - off;
    std::uint64_t expect = (pte.pfn << mem::kPageShift) + pb;
    while (covered < bytes) {
        ++idx;
        if (idx >= vma->num_pages()) return false;
        pte = vma->pte(idx);
        if (!pte.present || pte.migration) return false;
        // A remap broke the physical contiguity the descriptor needs;
        // the gate reports a walk fault rather than split the chain.
        if ((pte.pfn << mem::kPageShift) != expect) return false;
        covered += pb;
        expect += pb;
    }
    *out = base;
    return true;
}

MemifDevice::SlotPages
MemifDevice::slot_pages(const InFlight &fl, std::uint64_t lo,
                        std::uint64_t hi) const
{
    const XlateSlot &head = fl.slots[lo];
    const XlateSlot &tail = fl.slots[hi - 1];
    SlotPages sp;
    sp.s0 = fl.vma->page_index(head.src_va);
    sp.sn = fl.vma->page_index(tail.src_va + tail.bytes - 1) - sp.s0 + 1;
    sp.d0 = fl.dst_vma->page_index(head.dst_va);
    sp.dn = fl.dst_vma->page_index(tail.dst_va + tail.bytes - 1) - sp.d0 + 1;
    // One full descent then adjacent steps per run: the gang-walk shape.
    const sim::CostModel &cm = kernel_.costs();
    sp.walk = 2 * cm.page_walk_full +
              (sp.sn - 1 + sp.dn - 1) * cm.page_walk_adjacent;
    return sp;
}

void
MemifDevice::issue_stream_prefetch(const InFlightPtr &fl,
                                   std::uint64_t batch)
{
    const std::uint64_t lo = batch * kPrefetchWindow;
    if (lo >= fl->slots.size()) return;
    const std::uint64_t hi =
        std::min<std::uint64_t>(lo + kPrefetchWindow, fl->slots.size());
    const SlotPages sp = slot_pages(*fl, lo, hi);
    // The asynchronous walker, elapsed as walker time on the event
    // queue — no CPU is charged, which is the whole point: the walk
    // overlaps in-flight DMA instead of serialising in prep.
    const sim::SimTime ready = kernel_.eq().now() + sp.walk;
    for (std::uint64_t i = lo; i < hi; ++i) {
        fl->slots[i].ready_at = ready;
        fl->slots[i].prefetched = true;
    }
    stats_.stream_prefetch_issued += hi - lo;

    XlateCache *const cache = xlate_for(fl->asid);
    std::uint64_t stok = 0, dtok = 0;
    if (cache) {
        // Pending entries: an invalidation landing before the fill
        // kills the token and the stale walk result is dropped.
        stok = cache->begin_prefetch(fl->vma, sp.s0, sp.sn);
        dtok = cache->begin_prefetch(fl->dst_vma, sp.d0, sp.dn);
        fl->prefetch_tokens.push_back(stok);
        fl->prefetch_tokens.push_back(dtok);
    }
    std::weak_ptr<InFlight> weak = fl;
    const sim::EventQueue::EventId ev = kernel_.eq().schedule_at(
        ready, [this, weak, stok, dtok] {
            InFlightPtr alive = weak.lock();
            if (!alive || stopping_) return;
            XlateCache *const xc = xlate_for(alive->asid);
            if (!xc) return;
            // Fill from the PTEs live *now*: the walk result delivered
            // is whatever the tables say at completion time, and the
            // generation check drops it if an invalidation raced ahead.
            for (const std::uint64_t tok : {stok, dtok})
                if (!xc->fill_prefetch(tok)) ++stats_.prefetch_fills_dropped;
        });
    fl->prefetch_events.push_back(ev);
}

void
MemifDevice::cancel_stream_prefetch(const InFlightPtr &fl)
{
    for (const sim::EventQueue::EventId ev : fl->prefetch_events)
        kernel_.eq().cancel(ev);
    fl->prefetch_events.clear();
    // Drain any still-pending tokens so no pending-prefetch entry
    // outlives the move (a fill that already ran erased its own).
    if (XlateCache *cache = xlate_for(fl->asid))
        for (const std::uint64_t tok : fl->prefetch_tokens)
            cache->cancel_prefetch(tok);
    fl->prefetch_tokens.clear();
}

dma::XlateVerdict
MemifDevice::sva_gate_check(const InFlightPtr &fl, std::uint32_t idx,
                            dma::TransferDescriptor &d)
{
    dma::XlateVerdict v;
    if (fl->aborted || stopping_ || idx >= fl->slots.size()) return v;
    const sim::CostModel &cm = kernel_.costs();
    const sim::SimTime now = kernel_.eq().now();
    XlateSlot &slot = fl->slots[idx];

    // Keep the prefetcher running ahead of the consumption stream:
    // entering a new window triggers the walk two windows out, so the
    // walker (~page_walk_adjacent per page) stays ahead of the copy
    // stream (~dma_stream_time per page) after the first window.
    if (config_.xlate_prefetch_ahead && idx % kPrefetchWindow == 0) {
        const std::uint64_t target = idx / kPrefetchWindow + 2;
        while (fl->next_prefetch_batch <= target &&
               fl->next_prefetch_batch * kPrefetchWindow <
                   fl->slots.size()) {
            issue_stream_prefetch(fl, fl->next_prefetch_batch);
            ++fl->next_prefetch_batch;
        }
    }

    // Injected IOMMU walk fault: the chain terminates mid-stream and
    // the recovery ladder sees kXlateFault.
    if (kernel_.faults().should_fire(kFaultSvaWalk)) {
        ++stats_.sva_faults;
        v.fault = true;
        return v;
    }

    // ALWAYS resolve from the live page tables — the prefetch / cache
    // state below only decides the stall charged, never the bytes.
    std::uint64_t src = 0, dst = 0;
    if (!resolve_span(fl->vma, slot.src_va, slot.bytes, &src) ||
        !resolve_span(fl->dst_vma, slot.dst_va, slot.bytes, &dst)) {
        ++stats_.sva_faults;
        v.fault = true;
        return v;
    }
    ++stats_.sva_resolved;
    if (src != d.src || dst != d.dst) {
        // The translation moved since the descriptor was programmed;
        // rewrite the engine's working copy from the live tables.
        ++stats_.sva_retranslated;
        dma::TransferDescriptor nd =
            dma::TransferDescriptor::contiguous(src, dst, slot.bytes);
        nd.opt = d.opt;
        nd.link = d.link;
        d = nd;
    }

    // Stall accounting: is the translation already in the cache?
    XlateCache *const cache = xlate_for(fl->asid);
    const SlotPages sp = slot_pages(*fl, idx, idx + 1);
    const bool covered = cache && cache->lookup(fl->vma, sp.s0, sp.sn) &&
                         cache->lookup(fl->dst_vma, sp.d0, sp.dn);

    if (slot.prefetched) {
        if (now < slot.ready_at) {
            // Consumer outran the prefetcher: the TC stalls until the
            // covering walk lands (and then proceeds off its result).
            v.stall = slot.ready_at - now;
            ++stats_.stream_prefetch_late;
            stats_.consumer_stall_time += v.stall;
        } else if (covered) {
            // Prefetched translation ready and live: the walk fully
            // overlapped earlier streaming — zero consumption stall.
            ++stats_.stream_prefetch_hits;
        } else {
            // Prefetched but unusable (invalidated after the fill, or
            // the fill was dropped): demand re-walk in the stream.
            ++stats_.stream_prefetch_wasted;
            ++stats_.sva_demand_walks;
            v.stall = sp.walk;
            if (cache) {
                cache->record(fl->vma, sp.s0, sp.sn);
                cache->record(fl->dst_vma, sp.d0, sp.dn);
            }
        }
    } else if (covered) {
        // Pure SVA routing: every descriptor pays the IOTLB lookup
        // inline with the stream (prefetched entries are pushed, so
        // they skip even this).
        v.stall = cm.xlate_probe;
    } else {
        ++stats_.sva_demand_walks;
        v.stall = sp.walk;
        if (cache) {
            cache->record(fl->vma, sp.s0, sp.sn);
            cache->record(fl->dst_vma, sp.d0, sp.dn);
        }
    }
    return v;
}

void
MemifDevice::revalidate_stream(const InFlightPtr &fl)
{
    // A retried chain (or the CPU fallback) must not trust prefetched
    // translations from before the failure: re-resolve every entry
    // from the live page tables. Entries that no longer resolve keep
    // their programmed addresses — the gate (or the next failure)
    // handles them; only reachable through injection or a real unmap.
    MEMIF_ASSERT(fl->slots.size() == fl->sg.size(),
                 "stream slots out of sync with the SG list");
    for (std::size_t i = 0; i < fl->slots.size(); ++i) {
        const XlateSlot &slot = fl->slots[i];
        std::uint64_t src = 0, dst = 0;
        if (!resolve_span(fl->vma, slot.src_va, slot.bytes, &src) ||
            !resolve_span(fl->dst_vma, slot.dst_va, slot.bytes, &dst))
            continue;
        if (src != fl->sg[i].src_addr || dst != fl->sg[i].dst_addr) {
            ++stats_.sva_retranslated;
            fl->sg[i].src_addr = src;
            fl->sg[i].dst_addr = dst;
        }
    }
}

// --------------------------------------------------------------------
// Ops 1-3: Prep, Remap, DMA config + trigger.
// --------------------------------------------------------------------

sim::Task
MemifDevice::serve_request(std::uint32_t idx, ReqSnapshot snap,
                           ExecContext ctx, bool irq_mode, sim::Task *out,
                           bool moderated)
{
    // Awaiting the executor adds no event (a Task join is a symmetric
    // transfer), so the exit below runs in the same synchronous stretch
    // as the rejection that sent the request here.
    Reject rj;
    co_await execute_ops(idx, snap, ctx, irq_mode, out, moderated, &rj);
    if (rj.error == MovError::kNone) co_return;
    // The one reject exit. A flight rejected during Remap hands back
    // what it holds: its frame charge and any new frames (uncharged
    // frees: the reject comes before the Remap charge).
    if (rj.fl) {
        uncharge_frames(rj.fl);
        sim::Duration scratch = 0;
        for (const mem::Pfn pfn : rj.fl->new_pfns)
            free_frames(pfn, rj.fl->order, scratch);
    }
    if (rj.error == MovError::kNoMemory)
        co_await kernel_.cpu().busy(ctx, Op::kRemap, rj.remap_cost);
    co_await kernel_.cpu().busy(ctx, Op::kNotify, kernel_.costs().queue_op);
    notify(idx, MovStatus::kFailed, rj.error);
}

sim::Task
MemifDevice::execute_ops(std::uint32_t idx, const ReqSnapshot &snap,
                         ExecContext ctx, bool irq_mode, sim::Task *out,
                         bool moderated, Reject *rj)
{
    const sim::CostModel &cm = kernel_.costs();
    sim::Cpu &cpu = kernel_.cpu();
    mem::PhysicalMemory &pm = kernel_.phys();
    sim::Tracer &tr = kernel_.tracer();
    // §4.2: the driver trusts nothing in the region, so it read the
    // request exactly once, at dequeue. Validation, the plan and every
    // step past a suspension point work on that copy: rewriting the
    // slot mid-serve changes nothing the driver does.
    vm::AddressSpace &req_as = request_as(snap.asid);
    tr.record(kernel_.eq().now(), TracePoint::kServeBegin, ctx, idx);

    // ---- 1. Prep: validate + locate every physical page -------------
    co_await cpu.busy(ctx, Op::kPrep,
                      cm.request_validate + cm.request_admin);
    vm::Vma *src_vma = nullptr;
    vm::Vma *dst_vma = nullptr;
    rj->error = validate(snap, &src_vma, &dst_vma);
    if (rj->error != MovError::kNone) {
        ++stats_.validation_failures;
        co_return;
    }

    InFlightPtr fl = flight_pool_.make();
    rj->fl = fl;
    fl->req_idx = idx;
    fl->op = snap.op;
    fl->asid = snap.asid;
    fl->daemon = daemon_movs_.contains(idx);
    // Whose flights a managed-mode overlap check bounces this one for.
    const Movers rivals = fl->daemon ? Movers::kAll : Movers::kDaemon;
    fl->vma = src_vma;
    fl->plan = plan_move(snap, *src_vma, dst_vma);
    fl->order = vm::page_order(src_vma->page_size());
    const bool strided = snap.rows != 0;
    const bool gather = strided && snap.gather_list != 0;

    if (config_.auto_migrate) {
        // Managed mode adds device-originated movs that the app cannot
        // see coming (and vice versa). Whichever of the two reaches
        // Prep second fails fast with kBusy: the daemon absorbs it
        // (cooldown), the app retries like any transient rejection.
        if (page_run_in_flight(src_vma, fl->plan.src, rivals) ||
            (dst_vma && page_run_in_flight(dst_vma, fl->plan.dst, rivals))) {
            rj->error = MovError::kBusy;
            co_return;
        }
    }

    // Page lookup: gang (§5.1) walks the real radix table, descending
    // once and stepping horizontally through adjacent PTEs; the
    // baseline pays a full root-to-leaf descent per page. The
    // destination walk of a replication uses the *destination* VMA's
    // geometry: its page size may differ from the source's, so the
    // same byte range spans a different number of its pages.
    const std::pair<const vm::Vma *, PageRun> lookups[2] = {
        {src_vma, fl->plan.src}, {dst_vma, fl->plan.dst}};
    sim::Duration lookup_cost = 0;
    vm::PageTable &table = req_as.page_table();
    XlateCache *const xcache = xlate_for(snap.asid);
    // Source translations snapshotted from a gang-cache hit (into
    // fl->cached_src); validated against the cache generation after the
    // Prep charge below (any invalidation in between falls back to live
    // PTE reads).
    std::vector<vm::Pte> &cached_src = fl->cached_src;
    std::uint64_t cached_src_gen = 0;
    // SVA-routed streams defer translation to consumption time (the
    // engine's per-descriptor gate): prep pays only the submission-side
    // probe, so large-SG walks no longer serialise before submit.
    // Gather stays pre-pinned: its rows carry no forward-marching
    // virtual span for the gate to re-resolve (a row may precede
    // src_base entirely), so it takes the classic translated path.
    const bool sva_stream =
        config_.sva_dma && snap.op == MovOp::kReplicate && !gather;
    for (unsigned r = 0; r < (dst_vma ? 2u : 1u); ++r) {
        const auto &[vma, run] = lookups[r];
        if (sva_stream) {
            lookup_cost += cm.xlate_probe;
            continue;
        }
        std::uint64_t walk_pages = run.pages;
        if (xcache) {
            // One hashed probe against the per-VMA generation, hit or
            // miss (the cache's only cost on the submission path).
            lookup_cost += cm.xlate_probe;
            const XlateCache::Entry *e =
                xcache->lookup(vma, run.first, run.pages);
            if (e) {
                stats_.xlate_hits += run.pages;
                if (r == 0) {
                    const std::uint64_t off = run.first - e->first_page;
                    cached_src.assign(
                        e->ptes.begin() + static_cast<std::ptrdiff_t>(off),
                        e->ptes.begin() +
                            static_cast<std::ptrdiff_t>(off + run.pages));
                    cached_src_gen = xcache->generation();
                }
                continue;  // walk skipped entirely (§5.1 eliminated)
            }
            stats_.xlate_misses += run.pages;
            // Miss: gang-prefetch the next translations while the walk
            // is down here anyway (clamped to the Vma).
            const std::uint64_t room = vma->num_pages() - run.first;
            walk_pages = std::min<std::uint64_t>(
                run.pages + kXlateGangPrefetch, room);
            stats_.xlate_gang_prefetched += walk_pages - run.pages;
        }
        const vm::WalkCost wc =
            config_.gang_lookup
                ? table.gang_lookup(vma->page_vaddr(run.first), walk_pages,
                                    vma->page_size()).cost
                : vm::PageTable::per_page_cost(walk_pages);
        lookup_cost += wc.full_descents * cm.page_walk_full +
                       wc.adjacent_steps * cm.page_walk_adjacent;
        if (xcache) xcache->record(vma, run.first, walk_pages);
    }
    co_await cpu.busy(ctx, Op::kPrep, lookup_cost);
    tr.record(kernel_.eq().now(), TracePoint::kPrepDone, ctx, idx);

    const bool use_cached_src =
        !cached_src.empty() && xcache &&
        xcache->generation() == cached_src_gen;
    fl->old_pfns.reserve(snap.num_pages);
    for (std::uint32_t i = 0; i < snap.num_pages; ++i) {
        const vm::Pte pte = use_cached_src
                                ? cached_src[i]
                                : src_vma->pte(fl->plan.src.first + i);
        if (!pte.present || pte.migration) {
            // Under race *prevention* an in-flight page is marked by
            // the migration bit while the PTE still names the old
            // frame; overlapping the move would double-manage it.
            rj->error =
                pte.present ? MovError::kBusy : MovError::kBadAddress;
            co_return;
        }
        fl->old_pfns.push_back(pte.pfn);
    }

    // Tiered memory: a migration whose endpoints are non-adjacent tiers
    // (SRAM ↔ far; the SLIT distances encode adjacency) is *chained*
    // through the middle tier. Decided before Remap because chained
    // flights install blocking migration PTEs (flight_prevents) rather
    // than semi-final ones.
    const mem::NodeId chain_mid =
        config_.tiered_memory && kernel_.has_far_node() &&
                snap.op == MovOp::kMigrate
            ? chain_route(pm, fl->old_pfns, snap.dst_node)
            : mem::kInvalidNode;
    fl->chained = chain_mid != mem::kInvalidNode;

    std::vector<dma::SgEntry> sg;
    if (snap.op == MovOp::kMigrate) {
        // ---- 2. Remap (migration only) -------------------------------
        sim::Duration remap_cost = 0;
        fl->new_pfns.reserve(snap.num_pages);
        bool exhausted = false;
        if (config_.driver_caches) {
            // One magazine pass for the whole gang: pops at list-op
            // cost, one allocate_bulk call per refill. All-or-nothing,
            // so the exhausted path has nothing to undo.
            exhausted = !magazine_alloc(snap.dst_node, fl->order,
                                        snap.num_pages, fl->new_pfns,
                                        remap_cost);
        } else {
            for (std::uint32_t i = 0; i < snap.num_pages; ++i) {
                remap_cost += cm.page_alloc_time(fl->order);
                const mem::Pfn new_pfn =
                    kernel_.faults().should_fire(kFaultAllocFail)
                        ? mem::kInvalidPfn
                        : pm.allocate(snap.dst_node, fl->order);
                if (new_pfn == mem::kInvalidPfn) {
                    exhausted = true;
                    break;
                }
                fl->new_pfns.push_back(new_pfn);
            }
        }
        if (exhausted) {
            rj->error = MovError::kNoMemory;
            rj->remap_cost = remap_cost;
            co_return;
        }
        // The doubled-frame window opens here: both the old and the new
        // copy exist until Release (or a rollback) frees one of them.
        // Charge it to the tenant's frame quota for the duration.
        charge_frames(fl);
        // Collect every mapping of every page from the reverse-map
        // chains (shared anonymous pages have several, §6.7) — the
        // caller's own mapping is forced to the front.
        fl->mappings.reserve(snap.num_pages);
        fl->mapping_begin.reserve(snap.num_pages + 1);
        fl->mapping_begin.push_back(0);
        fl->cache_refs.resize(snap.num_pages);
        bool busy = false;
        for (std::uint32_t i = 0; i < snap.num_pages && !busy; ++i) {
            const std::span<const mem::RmapEntry> rmaps =
                pm.rmaps(fl->old_pfns[i]);
            if (rmaps.empty()) {
                // The PTE points at a frame with no reverse mapping yet:
                // the page is mid-flight in another move. A protected
                // service rejects this cleanly (§4.2) — the application
                // overlapped moves on the same region.
                busy = true;
                break;
            }
            const auto page_begin =
                static_cast<std::ptrdiff_t>(fl->mappings.size());
            for (const mem::RmapEntry &re : rmaps) {
                if (re.kind == mem::RmapKind::kPageCache) {
                    fl->cache_refs[i] = CacheRef{
                        static_cast<vm::FileBacking *>(re.owner),
                        re.vaddr};
                    continue;
                }
                auto *as = static_cast<vm::AddressSpace *>(re.owner);
                // The request's own mapping lies in src_vma; only other
                // mappers need a lookup.
                vm::Vma *mvma = as == &req_as && src_vma->contains(re.vaddr)
                                    ? src_vma
                                    : as->find_vma(re.vaddr);
                MEMIF_ASSERT(mvma != nullptr, "stale rmap entry");
                Mapping m;
                m.as = as;
                m.vma = mvma;
                m.page_idx = mvma->page_index(re.vaddr);
                m.old_pte = mvma->pte(m.page_idx).pack();
                if (as == &req_as && mvma == src_vma)
                    fl->mappings.insert(fl->mappings.begin() + page_begin, m);
                else
                    fl->mappings.push_back(m);
            }
            fl->mapping_begin.push_back(
                static_cast<std::uint32_t>(fl->mappings.size()));
            if (rmaps.size() > 1)
                remap_cost += cm.rmap_per_page * (rmaps.size() - 1);
        }
        // A kBusy exit leaves the remaining pages uncaptured: give them
        // empty runs so page_mappings() stays valid for every page.
        fl->mapping_begin.resize(
            snap.num_pages + 1,
            static_cast<std::uint32_t>(fl->mappings.size()));
        // The admission-gate collision check ran before Prep — several
        // suspension points ago. A racing mov (say a replication whose
        // destination overlaps this source run) may have registered
        // since without leaving any PTE mark for the capture loop to
        // see. Re-check the flight table here, in the same synchronous
        // stretch as the PTE stores and the registration below, so the
        // verdict cannot go stale before this flight becomes visible.
        if (!busy && config_.auto_migrate)
            busy = page_run_in_flight(src_vma, fl->plan.src, rivals);
        if (busy) {
            rj->error = MovError::kBusy;
            co_return;
        }
        // Batched shootdown: instead of broadcasting one invalidation
        // per PTE, remember the dirtied span per (address space, vma)
        // and issue a single ranged flush for each after all stores.
        // No access can interleave — the whole loop runs without a
        // suspension point and its time is charged afterwards, exactly
        // as the per-page variant's.
        FlushPlan &flush_spans = flush_scratch_;
        flush_spans.clear();
        for (std::uint32_t i = 0; i < snap.num_pages; ++i) {
            for (const Mapping &m : fl->page_mappings(i)) {
                const vm::Pte old_pte = vm::Pte::unpack(m.old_pte);
                vm::Pte next = old_pte;
                if (flight_prevents(*fl)) {
                    // Linux-style: block accessors on the old mapping.
                    next.migration = true;
                } else {
                    // Semi-final PTE: points at the new page, young set
                    // so any CPU access is trapped (§5.2 Fig. 4b).
                    next.pfn = fl->new_pfns[i];
                    next.young = true;
                }
                m.vma->pte_slot(m.page_idx)
                    .store(next.pack(), std::memory_order_release);
                if (config_.batched_tlb_shootdown) {
                    remap_cost += cm.pte_update;
                    accumulate_flush(flush_spans, m.as, m.vma, m.page_idx);
                } else {
                    m.as->flush_tlb_page(*m.vma, m.page_idx);
                    remap_cost += cm.pte_update + cm.tlb_flush_page;
                }
            }
        }
        issue_flush_plan(flush_spans, remap_cost);
        // The semi-final/migration PTEs are live the moment the store
        // loop above ran — register the request in the same synchronous
        // stretch, before the Remap time is even charged. Were the
        // registration deferred past the charge (a suspension point), a
        // concurrent serve could pass its own collision re-check while
        // this flight is live but still invisible to the table.
        ++stats_.migrations;
        add_in_flight(fl);
        co_await cpu.busy(ctx, Op::kRemap, remap_cost);
        tr.record(kernel_.eq().now(), TracePoint::kRemapDone, ctx, idx);
    } else {
        // ---- 2'. Replication: the row walk -------------------------
        // Both regions are already mapped; no VM management and no
        // race concern (§3). A flat replication is the one-row walk over
        // the frames the capture loop above checked (its segments come
        // out at the finer of the two page sizes, as validate aligned
        // dst_base to it). Strided rows resolve their translations in
        // the walk, which re-merges whole pitch-aligned rows into true
        // 2D (A/B-count) descriptors; SVA streams skip the merge, as the
        // consumption-time gate needs the 1:1 slot <-> entry map.
        std::vector<vm::VAddr> row_srcs;
        if (strided) {
            ++stats_.strided_requests;
            if (gather) ++stats_.gather_requests;
            stats_.strided_rows_moved += snap.rows;
        }
        if (gather) {
            // The per-row source addresses live in user memory;
            // validate pinned the list's span, each address is bounds-
            // checked against the source vma before the list read is
            // charged.
            row_srcs.reserve(snap.rows);
            for (std::uint32_t r = 0; r < snap.rows; ++r) {
                const std::byte *p =
                    req_as.translate(snap.gather_list + std::uint64_t{r} * 8);
                vm::VAddr row = 0;
                if (p) std::memcpy(&row, p, sizeof(row));
                if (!p || !row_in_vma(*src_vma, row, snap.row_bytes)) {
                    rj->error = MovError::kBadAddress;
                    co_return;
                }
                row_srcs.push_back(row);
            }
            // One list-sized read charged as prep work.
            co_await cpu.busy(ctx, Op::kPrep,
                              (std::uint64_t{snap.rows} * 8 / 64 + 1) *
                                  cm.queue_op);
        }
        // A migration in flight over the source has already pointed
        // its semi-final PTEs at frames its copy has not filled: bounce
        // rather than copy them. Checked after the last suspension, so
        // the verdict holds until this flight registers below.
        // (Replications may share source pages with each other.)
        if (page_run_in_flight(src_vma, fl->plan.src, Movers::kMigration)) {
            rj->error = MovError::kBusy;
            co_return;
        }
        // (A strided request captured no flat frames: num_pages is 0.)
        Lowering low = lower_rows(RowWalk{
            .src_vma = src_vma,
            .dst_vma = dst_vma,
            .src_base = snap.src_base,
            .dst_base = snap.dst_base,
            .rows = strided ? snap.rows : 1u,
            .row_bytes = strided ? snap.row_bytes : fl->plan.payload_bytes,
            .src_pitch = strided ? snap.src_pitch : 0,
            .dst_pitch = strided ? snap.dst_pitch : 0,
            .row_srcs = row_srcs,
            .src_frames = fl->old_pfns,
            .fold_2d = !sva_stream && !gather,
            .sva_slots = sva_stream && strided});
        if (strided) {
            stats_.strided_row_splits += low.row_splits;
            stats_.strided_descriptors += low.descriptors_2d;
        }
        if (low.error != MovError::kNone) {
            rj->error = low.error;
            co_return;
        }
        sg = std::move(low.sg);
        fl->slots = std::move(low.slots);
        fl->dst_vma = dst_vma;
        ++stats_.replications;
        add_in_flight(fl);
    }

    if (fl->chained) {
        // Chained multi-hop move: the migration PTEs are live and the
        // record registered; hand the copy to the chain master instead
        // of one end-to-end DMA. The master's own xfer is never
        // started, so no drain or reap pass claims it — each hop stage
        // runs its own supervisor over its own page-pair lowering. The
        // caller's @p out stays empty: there is no single transfer for
        // the kernel thread to poll on.
        ++stats_.chained_migrations;
        spawn(run_chain(fl, chain_mid));
        tr.record(kernel_.eq().now(), TracePoint::kDmaStart, ctx, idx);
        co_return;
    }

    // ---- 3. DMA config + trigger -------------------------------------
    // Contiguous-run coalescing: the buddy allocator routinely hands
    // back adjacent frames, so physically contiguous old->new runs
    // collapse into one variable-size descriptor each. The list is
    // coalesced once, here — retries and the CPU fallback then replay
    // the coalesced SG verbatim. (A strided SVA stream keeps its list
    // verbatim: slots were built 1:1 with the per-segment entries
    // above, and the gate depends on that alignment.)
    const bool coalesce = config_.sg_coalescing && !(strided && sva_stream);
    // The SG list is kept on the in-flight record: retries and the CPU
    // fallback replay it after a transfer failure. A migration lowers
    // straight into it, merging as it goes.
    std::size_t raw_entries = sg.size();
    if (snap.op == MovOp::kMigrate) {
        raw_entries = fl->old_pfns.size();
        lower_page_pairs(fl->old_pfns, fl->new_pfns, fl->order, coalesce,
                         fl->sg);
    } else {
        fl->sg = coalesce ? coalesce_sg(sg) : std::move(sg);
    }
    if (coalesce)
        stats_.descriptor_writes_saved += raw_entries - fl->sg.size();
    stats_.sg_entries_emitted += fl->sg.size();
    if (sva_stream && !strided) {
        // SVA routing: one virtual span per descriptor; the engine's
        // gate re-resolves each through the live page tables at
        // consumption time. Chunks were emitted at increasing region
        // offsets and coalescing preserves that order, so the spans
        // fall out of the cumulative byte offsets. (Strided streams
        // built their slots in the segment walk above — pitched spans
        // do not fall out of cumulative offsets.)
        fl->slots.reserve(fl->sg.size());
        std::uint64_t off = 0;
        for (const dma::SgEntry &e : fl->sg) {
            fl->slots.push_back({.src_va = snap.src_base + off,
                                 .dst_va = snap.dst_base + off,
                                 .bytes = e.bytes});
            off += e.bytes;
        }
    }
    if (sva_stream && config_.xlate_prefetch_ahead && !fl->slots.empty()) {
        // Walk only the first window synchronously; everything beyond
        // it is walked by asynchronous prefetch events that run ahead
        // of the consumption stream (two windows of lead, sustained by
        // the gate as the stream advances).
        const std::uint64_t hi =
            std::min<std::uint64_t>(kPrefetchWindow, fl->slots.size());
        const SlotPages sp = slot_pages(*fl, 0, hi);
        if (XlateCache *cache = xlate_for(snap.asid)) {
            cache->record(src_vma, sp.s0, sp.sn);
            cache->record(dst_vma, sp.d0, sp.dn);
        }
        co_await cpu.busy(ctx, Op::kPrep, sp.walk);
        const sim::SimTime ready = kernel_.eq().now();
        for (std::uint64_t i = 0; i < hi; ++i) {
            fl->slots[i].ready_at = ready;
            fl->slots[i].prefetched = true;
        }
        stats_.stream_prefetch_issued += hi;
        issue_stream_prefetch(fl, 1);
        issue_stream_prefetch(fl, 2);
        fl->next_prefetch_batch = 3;
    }
    fl->moderated = moderated;
    // The PaRAM has 512 entries (Table 2); with several instances (or a
    // deep pipeline) in flight, wait until enough descriptors retire.
    // The gate is FIFO-fair: a PaRAM-sized request cannot starve behind
    // a stream of small ones slipping in front of it.
    co_await kernel_.dma().reserve_descriptors(
        static_cast<std::uint32_t>(fl->sg.size()), &fl->aborted,
        &stopping_);
    if (fl->aborted || stopping_) co_return;  // rolled back while waiting
    dma::DmaDriver::Prepared prepared = kernel_.dma().prepare(fl->sg);
    co_await cpu.busy(ctx, Op::kDmaConfig, prepared.cpu_time);
    tr.record(kernel_.eq().now(), TracePoint::kDmaConfigDone, ctx, idx);

    if (fl->aborted) {
        // A racing access rolled the migration back while we were
        // programming descriptors; nothing to trigger.
        kernel_.dma().abandon(std::move(prepared));
        co_return;
    }
    // The supervisor starts the chain before its first suspension, so
    // this record marks the trigger's instant.
    tr.record(kernel_.eq().now(), TracePoint::kDmaStart, ctx, idx);
    *out = supervise(fl,
                     Supervision{.x = &fl->xfer,
                                 .sg = &fl->sg,
                                 .latch = &fl->aborted,
                                 .ctx = irq_mode ? ExecContext::kIrq : ctx,
                                 .polled = !irq_mode},
                     &prepared);
}

// --------------------------------------------------------------------
// Transfer supervision + DMA error recovery.
// --------------------------------------------------------------------

namespace {

/** Parks a supervisor on its transfer until settle() resumes it; yields
 *  the waker. */
template <class Transfer>
struct Park {
    Transfer &x;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept { x.parked = h; }
    auto await_resume() const noexcept { return x.wake; }
};

}  // namespace

void
MemifDevice::spawn(sim::Task t)
{
    sim::reap_finished(tasks_);
    if (t.done())
        t.rethrow_if_failed();
    else if (!t.empty())
        tasks_.push_back(std::move(t));
}

sim::Task
MemifDevice::supervise(InFlightPtr fl, Supervision s,
                       dma::DmaDriver::Prepared *first)
{
    const sim::CostModel &cm = kernel_.costs();
    dma::DmaDriver &drv = kernel_.dma();
    sim::EventQueue &eq = kernel_.eq();
    Transfer &x = *s.x;
    // A hop belongs to no request of its own (the stage ledger follows
    // the chain master's).
    const std::uint32_t req =
        fl->chained ? sim::TraceRecord::kNoTraceReq : fl->req_idx;
    const auto trace = [&](TracePoint p) {
        kernel_.tracer().record(eq.now(), p, s.ctx, req);
    };
    // A recovery episode in interrupt context ends by waking the worker:
    // at the restarted attempt's start, or at exit.
    bool irq_episode = false;
    for (;;) {
        // ---- Start an attempt. The caller programmed the first chain
        // of a flight; retries and every hop attempt program it here.
        dma::DmaDriver::Prepared p;
        if (first) {
            p = std::move(*std::exchange(first, nullptr));
        } else {
            co_await drv.reserve_descriptors(
                static_cast<std::uint32_t>(s.sg->size()), s.latch,
                &stopping_);
            if (*s.latch || stopping_) break;
            // A retried SVA stream re-validates every prefetched
            // translation: the world may have moved while it was down.
            if (!fl->slots.empty()) revalidate_stream(fl);
            p = drv.prepare(*s.sg);
            co_await kernel_.cpu().busy(s.ctx, Op::kDmaConfig, p.cpu_time);
            if (*s.latch || stopping_) {
                drv.abandon(std::move(p));
                break;
            }
        }
        ++x.attempts;
        x.start_at = eq.now();
        // The TC scheduler: with multi-TC dispatch the chain goes to the
        // controller that frees up first, so independent in-flight
        // chains run in parallel instead of serialising behind this
        // instance's assigned TC.
        const unsigned tc = config_.multi_tc_dispatch ? drv.pick_tc() : tc_;
        ++stats_.tc_dispatches[tc];
        if (fl->chained) {
            ++stats_.hop_stages_issued;
            if (++active_hop_stages_ > 1) ++stats_.hop_overlap_events;
        }
        // SVA-routed stream: install the per-descriptor translation
        // gate. The engine then consumes the chain one entry at a time,
        // asking the gate before each copy; the weak capture keeps a
        // retired record from being revived by a late engine step. (A
        // hop has no slots: chained moves are migrations.)
        dma::XlateGate gate;
        if (!fl->slots.empty()) {
            std::weak_ptr<InFlight> weak = fl;
            gate = [this, weak](dma::TransferId, std::uint32_t idx,
                                dma::TransferDescriptor &d) {
                InFlightPtr alive = weak.lock();
                if (!alive) return dma::XlateVerdict{};
                return sva_gate_check(alive, idx, d);
            };
        }
        // Retries bypass moderation: once the recovery ladder is
        // involved, detection latency matters more than IRQ rate.
        const bool moderated = fl->moderated && x.attempts == 1;
        if (moderated) ++stats_.moderated_dispatches;
        dma::CompletionFn on_complete;
        if (!s.polled)
            on_complete = [this, px = &x](dma::TransferId) {
                settle(*px, Wake::kIrq);
            };
        x.tid = drv.start(std::move(p), /*irq_mode=*/!s.polled,
                          std::move(on_complete), tc, moderated,
                          std::move(gate));
        x.predicted = drv.completion_time(x.tid) - x.start_at;
        transfers_.push_back(&x);
        if (!s.polled) arm_deadline(x);
        if (x.attempts > 1) trace(TracePoint::kDmaStart);
        if (std::exchange(irq_episode, false)) wake_kthread();

        // ---- Wait until exactly one waker settles it.
        if (s.polled) trace(TracePoint::kPolledWait);
        Wake w = Wake::kNone;
        for (;;) {
            if (s.polled) {
                // §5.4: interrupt off, sleep until the predicted
                // completion — in whole scheduler ticks, the worker
                // cannot wake at an arbitrary instant (an overdue
                // quote just yields).
                const sim::SimTime done = drv.completion_time(x.tid);
                const sim::Duration left =
                    done > eq.now() ? done - eq.now() : 0;
                const sim::Duration tick = cm.kthread_poll_interval;
                co_await sim::Delay{eq, (left + tick - 1) / tick * tick};
                w = Wake::kPoll;
            } else {
                w = co_await Park<Transfer>{x};
            }
            if (w == Wake::kClaimed) co_return;  // its settler retires it
            if (*s.latch || stopping_ || w == Wake::kIrq) break;
            // Gate stalls (SVA demand walks, late prefetches) push a
            // gated stream's completion past the quote its wait was
            // armed from: it is progressing, not stuck, so follow the
            // new quote. Other transfers never move their completion
            // time, and a hung one never advances it past its quote.
            if (fl->slots.empty() || drv.is_complete(x.tid) ||
                drv.completion_time(x.tid) <= eq.now())
                break;
            if (!s.polled) arm_deadline(x);
        }
        bool held = false;
        const MovError o = claim_transfer(x, &held);
        if (fl->chained) --active_hop_stages_;
        if (*s.latch || stopping_) {
            if (o == MovError::kTimeout) release_transfer(x);
            break;
        }
        // A timeout is a hung chain, or a completion whose interrupt was
        // lost — not one merely held by moderation.
        if (o == MovError::kTimeout || (w == Wake::kDeadline && !held))
            ++stats_.watchdog_timeouts;
        if (o == MovError::kTimeout || w == Wake::kDeadline)
            trace(TracePoint::kWatchdogFire);
        if (o == MovError::kNone) {
            trace(TracePoint::kDmaComplete);
        } else if (o != MovError::kTimeout) {
            ++stats_.dma_errors;
            trace(TracePoint::kDmaError);
        }

        // ---- A clean flight completion retires here.
        if (o == MovError::kNone && !fl->chained) {
            if (s.polled) {
                ++stats_.polled_completions;
                observe_completion(fl);
                co_await do_release(fl, s.ctx);
            } else {
                // Only an interrupt sweeps siblings; a deadline that
                // found its transfer complete pays the one IRQ entry
                // for it alone.
                co_await retire_irq(
                    fl, w == Wake::kIrq && config_.irq_moderation);
            }
            co_return;
        }
        // The wake's one IRQ entry (a clean flight's is retire_irq's); a
        // hung chain is cancelled once it is paid.
        if (!s.polled) {
            co_await kernel_.cpu().busy(s.ctx, Op::kSched, cm.irq_overhead);
            irq_episode = s.ctx == ExecContext::kIrq;
        }
        if (o == MovError::kTimeout) release_transfer(x);
        if (o == MovError::kNone) {  // a hop landed
            ++stats_.hop_stages_completed;
            *s.landed = true;
            co_return;
        }
        if (*s.latch || stopping_) break;

        // ---- The ladder: retry with backoff, then CPU replay, then
        // fail. Only the failed transfer is redone — a chain's earlier
        // hops are already safe in staging/new frames.
        if (x.attempts <= config_.dma_max_retries) {
            ++stats_.dma_retries;
            if (fl->chained) ++stats_.hop_retries;
            trace(TracePoint::kDmaRetry);
            co_await sim::Delay{
                eq, kDmaRetryBackoff << (x.attempts - 1)};
            if (*s.latch || stopping_) break;
            continue;
        }
        if (config_.cpu_copy_fallback) {
            ++stats_.fallback_copies;
            trace(TracePoint::kFallbackCopy);
            co_await fallback_copy(fl, s.sg, s.ctx);
            if (fl->chained) {
                ++stats_.hop_fallback_copies;
                ++stats_.hop_stages_completed;
                *s.landed = true;
            } else if (flight_prevents(*fl) && fl->op == MovOp::kMigrate &&
                       s.ctx == ExecContext::kIrq) {
                // Release needs sleepable locks under race prevention.
                pending_release_.push_back(fl);
                wake_kthread();
            } else {
                co_await do_release(fl, s.ctx);
            }
        } else if (!fl->chained) {
            // A dry hop fails its chain instead: the batch latches it
            // and the master rolls the whole remap back.
            fail_unrecoverable(fl, s.ctx, o);
        }
        break;
    }
    if (irq_episode) wake_kthread();
}

void
MemifDevice::arm_deadline(Transfer &x)
{
    const sim::SimTime now = kernel_.eq().now();
    const sim::SimTime done = kernel_.dma().completion_time(x.tid);
    const sim::Duration remaining = done > now ? done - now : 0;
    const auto padded = static_cast<sim::Duration>(
        static_cast<double>(remaining) * config_.watchdog_margin);
    // Every other waker cancels the event when it takes the transfer —
    // a cancelled event neither executes nor advances virtual time, so
    // supervision is free on the fault-less path — and teardown
    // cancels what is left, so the capture cannot outlive @p x.
    x.deadline = kernel_.eq().schedule_at(
        now + padded + config_.watchdog_slack, [this, px = &x] {
            px->deadline = sim::EventQueue::kInvalidEvent;
            settle(*px, Wake::kDeadline);
        });
}

void
MemifDevice::settle(Transfer &x, Wake w)
{
    if (!x.parked) return;
    x.wake = w;
    // Resume inline, at the waker's own event position: a wake adds no
    // event. @p x may be gone once the supervisor suspends again.
    std::exchange(x.parked, {}).resume();
}

MovError
MemifDevice::claim_transfer(Transfer &x, bool *held)
{
    dma::DmaDriver &drv = kernel_.dma();
    if (x.deadline != sim::EventQueue::kInvalidEvent) {
        kernel_.eq().cancel(x.deadline);
        x.deadline = sim::EventQueue::kInvalidEvent;
    }
    using dma::TransferStatus;
    const TransferStatus st = drv.status(x.tid);
    if (st == TransferStatus::kInFlight || st == TransferStatus::kCancelled)
        return MovError::kTimeout;  // hung
    const bool was_held = release_transfer(x);
    if (held) *held = was_held;
    return st == TransferStatus::kOk      ? MovError::kNone
           : st == TransferStatus::kError ? MovError::kDmaError
                                          : MovError::kXlateFault;
}

bool
MemifDevice::release_transfer(Transfer &x)
{
    dma::DmaDriver &drv = kernel_.dma();
    // A hung chain is cancelled; a finished one's delivery, if
    // moderation still holds it, is dropped so it cannot dispatch.
    x.finished = drv.is_complete(x.tid);
    const bool held = x.finished && drv.discard_moderated(x.tid);
    if (!x.finished) drv.cancel(x.tid);
    std::erase(transfers_, &x);
    drv.reclaim(std::exchange(x.tid, dma::kInvalidTransfer));
    return held;
}

void
MemifDevice::claim_completed(std::vector<InFlightPtr> &batch,
                             bool moderated_only)
{
    const dma::DmaDriver &drv = kernel_.dma();
    for (const InFlightPtr &fl : in_flight_) {
        Transfer &x = fl->xfer;
        if (!x.parked || (moderated_only && !fl->moderated)) continue;
        // Errors take their own path: the supervisor's error interrupt.
        if (drv.status(x.tid) != dma::TransferStatus::kOk) continue;
        claim_transfer(x);
        settle(x, Wake::kClaimed);
        batch.push_back(fl);
    }
}

void
MemifDevice::observe_completion(const InFlightPtr &fl)
{
    // Only clean first attempts teach the controller: a retry's span
    // covers backoff and watchdog slack, not DMA service time.
    if (!config_.irq_moderation || fl->xfer.attempts != 1) return;
    completion_ctl_.observe(fl->plan.payload_bytes, fl->xfer.predicted,
                            kernel_.eq().now() - fl->xfer.start_at);
}

sim::Task
MemifDevice::retire_irq(InFlightPtr first, bool sweep)
{
    const sim::CostModel &cm = kernel_.costs();
    sim::Cpu &cpu = kernel_.cpu();
    std::vector<InFlightPtr> batch = take_batch();
    batch.push_back(first);
    // The sweep runs before the first suspension, so when a coalesced
    // IRQ fans out into several callbacks, the first takes every
    // completed sibling while it is still parked.
    if (sweep) claim_completed(batch, /*moderated_only=*/false);
    stats_.irq_completions += batch.size();
    if (batch.size() > 1) {
        ++stats_.completion_drains;
        stats_.drained_requests += batch.size() - 1;
    }
    kernel_.tracer().record(kernel_.eq().now(), TracePoint::kIrqEnter,
                            ExecContext::kIrq, first->req_idx);
    // One IRQ entry for the whole batch — that is the drain's point.
    co_await cpu.busy(ExecContext::kIrq, Op::kSched, cm.irq_overhead);
    for (const InFlightPtr &fl : batch) {
        observe_completion(fl);
        if (flight_prevents(*fl) && fl->op == MovOp::kMigrate) {
            // Release needs sleepable locks under race prevention —
            // forbidden here. The kernel thread drains these in one
            // pass with a shared ranged shootdown.
            pending_release_.push_back(fl);
        } else {
            co_await do_release(fl, ExecContext::kIrq);
        }
    }
    // ... and one wakeup charge.
    cpu.charge(ExecContext::kIrq, Op::kSched, cm.kthread_wakeup);
    wake_kthread();
    give_batch(std::move(batch));
}

std::vector<MemifDevice::InFlightPtr>
MemifDevice::take_batch()
{
    if (batch_pool_.empty()) return {};
    std::vector<InFlightPtr> batch = std::move(batch_pool_.back());
    batch_pool_.pop_back();
    return batch;
}

void
MemifDevice::give_batch(std::vector<InFlightPtr> batch)
{
    batch.clear();
    batch_pool_.push_back(std::move(batch));
}

sim::Task
MemifDevice::release_batch(std::vector<InFlightPtr> batch, bool reaped)
{
    if (batch.size() > 1) {
        ++stats_.completion_drains;
        stats_.drained_requests += batch.size() - 1;
    }
    FlushPlan plan;
    for (const InFlightPtr &fl : batch) {
        if (reaped) {
            kernel_.tracer().record(kernel_.eq().now(),
                                    TracePoint::kDmaComplete,
                                    ExecContext::kKthread, fl->req_idx);
            observe_completion(fl);
        }
        co_await do_release(fl, ExecContext::kKthread, &plan);
    }
    if (!plan.empty()) {
        sim::Duration flush_cost = 0;
        issue_flush_plan(plan, flush_cost);
        co_await kernel_.cpu().busy(ExecContext::kKthread, Op::kRelease,
                                    flush_cost);
    }
    // The shared shootdown invalidated the batch's cache entries;
    // re-record them now that the flushes are issued.
    if (config_.batched_tlb_shootdown) {
        for (const InFlightPtr &fl : batch)
            if (flight_prevents(*fl) && fl->op == MovOp::kMigrate &&
                !fl->aborted)
                xlate_writethrough(fl, ExecContext::kKthread);
    }
    give_batch(std::move(batch));
}

sim::Task
MemifDevice::fallback_copy(InFlightPtr fl,
                           const std::vector<dma::SgEntry> *sg,
                           ExecContext ctx)
{
    mem::PhysicalMemory &pm = kernel_.phys();
    // The CPU replays the scatter-gather list byte-for-byte; correct
    // but slow — this is the graceful-degradation floor. An SVA
    // stream's list may hold translations from before the failure;
    // re-resolve it so the copy lands where the live tables point.
    if (!fl->slots.empty()) revalidate_stream(fl);
    const auto span_at = [&pm](std::uint64_t pa, std::uint64_t bytes) {
        const std::uint64_t off = pa & (mem::kPageSize - 1);
        return pm.span(pa >> mem::kPageShift, off + bytes) + off;
    };
    std::uint64_t bytes = 0;
    for (const dma::SgEntry &e : *sg) {
        bytes += e.total_bytes();
        if (!e.strided() && e.src_addr % mem::kPageSize == 0 &&
            e.dst_addr % mem::kPageSize == 0) {
            pm.copy(e.dst_addr >> mem::kPageShift,
                    e.src_addr >> mem::kPageShift, e.bytes);
            continue;
        }
        // Layout-preserving replay of a 2D (or sub-page) entry: the
        // CPU walks the exact row geometry the descriptor encodes, so
        // the fallback lands rows where the engine would have.
        for (std::uint32_t k = 0; k < e.rows; ++k)
            std::memcpy(span_at(e.dst_addr + k * e.dst_pitch, e.bytes),
                        span_at(e.src_addr + k * e.src_pitch, e.bytes),
                        e.bytes);
    }
    co_await kernel_.cpu().busy(ctx, Op::kCopy,
                                kernel_.costs().cpu_copy_time(bytes));
}

void
MemifDevice::fail_unrecoverable(const InFlightPtr &fl, ExecContext ctx,
                                MovError reason)
{
    if (fl->op == MovOp::kMigrate) {
        // Put the region back exactly as it was: old PTEs restored, new
        // frames freed. Error completions never touched the new frames,
        // so the old copy is still authoritative.
        rollback_remap(fl, ctx);
        ++stats_.rollbacks;
    }
    fl->aborted = true;
    kernel_.tracer().record(kernel_.eq().now(), TracePoint::kDmaFailed,
                            ctx, fl->req_idx);
    notify(fl->req_idx, MovStatus::kFailed, reason);
    remove_in_flight(fl);
}

void
MemifDevice::rollback_remap(const InFlightPtr &fl, ExecContext ctx)
{
    const sim::CostModel &cm = kernel_.costs();
    sim::Duration cost = 0;
    for (std::uint32_t i = 0; i < fl->plan.src.pages; ++i) {
        for (const Mapping &m : fl->page_mappings(i)) {
            m.vma->pte_slot(m.page_idx)
                .store(m.old_pte, std::memory_order_release);
            m.as->flush_tlb_page(*m.vma, m.page_idx);
            cost += cm.pte_update + cm.tlb_flush_page;
        }
        // Batch-return the never-used new frames (magazine when the
        // bulk-alloc lever is on, buddy otherwise).
        free_frames(fl->new_pfns[i], fl->order, cost);
    }
    // The rolled-back migration returns its transient frame charge.
    uncharge_frames(fl);
    kernel_.cpu().charge(ctx, Op::kRelease, cost);
    // Under race prevention (or a daemon flight) accessors may be
    // blocked on the migration PTEs we just replaced; let them
    // re-check.
    if (flight_prevents(*fl))
        kernel_.migration_waitq().notify_all();
}

// --------------------------------------------------------------------
// Ops 4-5: Release + Notify.
// --------------------------------------------------------------------

sim::Task
MemifDevice::do_release(InFlightPtr fl, ExecContext ctx,
                        FlushPlan *shared_plan)
{
    const sim::CostModel &cm = kernel_.costs();
    sim::Cpu &cpu = kernel_.cpu();
    mem::PhysicalMemory &pm = kernel_.phys();
    bool raced = false;
    if (fl->op == MovOp::kMigrate) {
        sim::Duration release_cost = 0;
        // Semi-final pages whose cached translations must go, as exact
        // runs: one invalidation per run after the loop.
        FlushPlan &stale = flush_scratch_;
        stale.clear();
        for (std::uint32_t i = 0; i < fl->plan.src.pages; ++i) {
            bool page_raced = false;
            for (const Mapping &m : fl->page_mappings(i)) {
                vm::PteSlot &slot = m.vma->pte_slot(m.page_idx);
                if (flight_prevents(*fl)) {
                    // Swap the migration PTE for the final one;
                    // accessors blocked on it can proceed afterwards.
                    vm::Pte final_pte = vm::Pte::unpack(m.old_pte);
                    final_pte.pfn = fl->new_pfns[i];
                    final_pte.migration = false;
                    slot.store(final_pte.pack(),
                               std::memory_order_release);
                    if (shared_plan && config_.batched_tlb_shootdown) {
                        // Completion drain: the caller issues one
                        // ranged shootdown covering the whole batch of
                        // released requests.
                        accumulate_flush(*shared_plan, m.as, m.vma,
                                         m.page_idx);
                        release_cost += cm.pte_update;
                    } else {
                        m.as->flush_tlb_page(*m.vma, m.page_idx);
                        release_cost += cm.pte_update + cm.tlb_flush_page;
                    }
                } else {
                    // Proceed-and-fail: one CAS clears young; failure
                    // means some access beat us to the semi-final PTE
                    // (§5.2). No TLB flush is needed — the semi-final
                    // entry never entered the TLB.
                    vm::Pte semi = vm::Pte::unpack(m.old_pte);
                    semi.pfn = fl->new_pfns[i];
                    semi.young = true;
                    vm::Pte final_pte = semi;
                    final_pte.young = false;
                    std::uint64_t expected = semi.pack();
                    const bool ok = slot.compare_exchange_strong(
                        expected, final_pte.pack(),
                        std::memory_order_acq_rel);
                    release_cost += cm.pte_cas;
                    if (!ok) {
                        const vm::Pte seen = vm::Pte::unpack(expected);
                        const bool benign =
                            config_.race_policy == RacePolicy::kRecover &&
                            seen.present &&
                            seen.pfn == fl->new_pfns[i] && !seen.young;
                        // In recover mode an access *after* the copy
                        // landed is harmless: the new page was already
                        // authoritative.
                        if (!benign) page_raced = true;
                    }
                    // The CAS rewrites a live PTE with no TLB flush, so
                    // no invalidate hook fires — but a concurrent gang
                    // walk may have cached the semi-final translation
                    // (prefetch reaches into neighbouring requests'
                    // pages). Drop any such entry (below, per run); the
                    // write-through re-records the final one for our
                    // own range.
                    accumulate_run(stale, m.as, m.vma, m.page_idx);
                }
                // The new frame inherits this reverse mapping.
                pm.add_rmap(fl->new_pfns[i], m.as,
                            m.vma->page_vaddr(m.page_idx));
                pm.remove_rmap(fl->old_pfns[i], m.as,
                               m.vma->page_vaddr(m.page_idx));
            }
            if (page_raced) {
                raced = true;
                ++stats_.races_detected;
            }
            // File-backed pages: the page cache follows the frame.
            if (fl->cache_refs[i].backing) {
                const CacheRef &cr = fl->cache_refs[i];
                cr.backing->relocate(cr.file_page, fl->new_pfns[i]);
                pm.add_rmap(fl->new_pfns[i], cr.backing, cr.file_page,
                            mem::RmapKind::kPageCache);
                pm.remove_rmap(fl->old_pfns[i], cr.backing, cr.file_page,
                               mem::RmapKind::kPageCache);
            }
            // Old page (now unmapped everywhere) back to the buddy —
            // or parked in its magazine under the bulk-alloc lever.
            free_frames(fl->old_pfns[i], fl->order, release_cost);
        }
        // Nothing above reads the caches, so dropping the entries here,
        // before the charge below suspends, is the per-page drop batched.
        for (const FlushSpan &run : stale)
            invalidate_xlate(run.vma, run.lo, run.hi - run.lo + 1);
        // The doubled-frame window closed with the old frames freed.
        uncharge_frames(fl);
        co_await cpu.busy(ctx, Op::kRelease, release_cost);
        if (flight_prevents(*fl))
            kernel_.migration_waitq().notify_all();
        if (raced)
            kernel_.tracer().record(kernel_.eq().now(),
                                    TracePoint::kRaceDetected, ctx,
                                    fl->req_idx);
        // Write-through: re-record the final translations (skipped when
        // raced, or when a shared flush plan will invalidate them again
        // after this return — those callers re-record themselves).
        const bool flush_deferred = shared_plan != nullptr &&
                                    config_.batched_tlb_shootdown &&
                                    flight_prevents(*fl);
        if (!raced && !flush_deferred) xlate_writethrough(fl, ctx);
    }
    kernel_.tracer().record(kernel_.eq().now(), TracePoint::kReleaseDone,
                            ctx, fl->req_idx);

    // ---- 5. Notify ----------------------------------------------------
    co_await cpu.busy(ctx, Op::kNotify, cm.queue_op);
    kernel_.tracer().record(kernel_.eq().now(), TracePoint::kNotifyDone,
                            ctx, fl->req_idx);
    stats_.pages_moved += fl->plan.src.pages;
    stats_.bytes_moved += fl->plan.payload_bytes;
    if (config_.multi_tenant && !raced) {
        if (Tenant *t = tenant_for(fl->asid)) {
            t->stats.pages_moved += fl->plan.src.pages;
            t->stats.bytes_moved += fl->plan.payload_bytes;
        }
    }
    if (raced)
        notify(fl->req_idx, MovStatus::kRaceDetected, MovError::kRace);
    else
        notify(fl->req_idx, MovStatus::kDone, MovError::kNone);

    remove_in_flight(fl);
}

// --------------------------------------------------------------------
// Kernel-thread path (§5.4).
// --------------------------------------------------------------------

void
MemifDevice::wake_kthread()
{
    // Count every notify. The old code only counted notifies that found
    // the thread asleep, silently dropping notify-while-draining from
    // the wakeup totals the benches report.
    ++stats_.kthread_wakeups;
    if (kthread_sleeping_)
        ++stats_.wakeups_from_sleep;
    else
        ++stats_.notifies_while_running;
    kthread_wq_.notify_one();
}

sim::Task
MemifDevice::kthread_loop()
{
    os::Kernel &k = kernel_;
    const sim::CostModel &cm = k.costs();
    sim::Cpu &cpu = k.cpu();
    // With reaping active the thread masks the moderated completion
    // IRQ for as long as it is awake (NAPI): held completions are
    // reaped at the top of the loop, and the coalesced IRQ is only
    // paid as a wakeup backstop when a completion lands while the
    // thread sleeps.
    const bool reaping = config_.irq_moderation;
    if (reaping) {
        k.dma().mask_moderation();
        kthread_masked_ = true;
    }

    for (;;) {
        if (stopping_) {
            if (kthread_masked_) {
                k.dma().unmask_moderation();
                kthread_masked_ = false;
            }
            co_return;
        }

        // Moderated completions whose held IRQ has not fired yet are
        // reaped while the worker is running anyway.
        if (reaping && !in_flight_.empty()) {
            std::vector<InFlightPtr> reaped = take_batch();
            claim_completed(reaped, /*moderated_only=*/true);
            // One flight-table peek per pass, however much it nets.
            cpu.charge(ExecContext::kKthread, Op::kQueue, cm.queue_op);
            if (reaped.empty()) {
                give_batch(std::move(reaped));
            } else {
                stats_.reaped_completions += reaped.size();
                co_await release_batch(std::move(reaped), /*reaped=*/true);
            }
        }

        // Releases the interrupt handler deferred (kPrevent only).
        if (!pending_release_.empty()) {
            if (config_.irq_moderation) {
                // Drain every deferred release in one pass, sharing a
                // single batched ranged shootdown across requests.
                co_await release_batch(
                    std::exchange(pending_release_, take_batch()),
                    /*reaped=*/false);
                continue;
            }
            InFlightPtr fl = pending_release_.front();
            pending_release_.erase(pending_release_.begin());
            co_await do_release(fl, ExecContext::kKthread);
            continue;
        }

        // Serve the oldest queued request: submission first, then any
        // requests still parked in staging (the queue is red, so the
        // kernel owns them). Under multi_tenant the deposited order is
        // re-ranked by the weighted round-robin instead.
        std::uint32_t next = 0;
        const bool got = next_request(&next, /*take_staging=*/true);
        cpu.charge(ExecContext::kKthread, Op::kQueue, cm.queue_op);

        if (got) {
            if (!region_.valid_index(next)) {
                MEMIF_WARN("memif: dropping corrupt request index %u",
                           next);
                continue;
            }
            const ReqSnapshot snap = snapshot(next);
            // The byte estimate counts num_pages only, so a strided
            // request (num_pages 0) estimates 0 bytes and takes the
            // interrupt or moderated path, never the polled one.
            const vm::Vma *vma =
                request_as(snap.asid).find_vma(snap.src_base);
            const std::uint64_t bytes =
                vma ? snap.num_pages * vm::page_bytes(vma->page_size()) : 0;
            // Completion-mode decision. The static rule is the paper's:
            // poll below the threshold — and never under multi-TC
            // dispatch, where parking the worker on THIS transfer would
            // stall the pipeline that wants to configure request N+1
            // while N is still copying. The adaptive controller
            // replaces the static rule when enabled, using the backlog
            // (queued + in-flight requests) as the coalescing signal;
            // it only ever polls with an empty backlog, so the
            // pipeline-stall concern cannot arise.
            CompletionMode mode;
            if (config_.irq_moderation && bytes > 0) {
                std::size_t backlog =
                    in_flight_.size() +
                    region_.submission_queue().size_unsafe() +
                    region_.staging_queue().size_unsafe();
                for (std::uint32_t r = 0; r < region_.num_rings(); ++r)
                    backlog += region_.ring_queue(r).size_unsafe();
                mode = completion_ctl_.choose(bytes, backlog);
            } else {
                const bool below =
                    !config_.multi_tc_dispatch && bytes > 0 &&
                    bytes < config_.poll_threshold_bytes;
                mode = below ? CompletionMode::kPolled
                       : config_.irq_moderation
                           ? CompletionMode::kModerated
                           : CompletionMode::kInterrupt;
            }
            const bool polled = mode == CompletionMode::kPolled;
            sim::Task supervisor;
            co_await serve_request(next, snap, ExecContext::kKthread,
                                   /*irq_mode=*/!polled, &supervisor,
                                   mode == CompletionMode::kModerated);
            // §5.4: a small request's supervisor is this thread — it
            // sleeps for the predicted completion and performs
            // Release/Notify itself — while a large one's runs on
            // interrupts and this thread moves on.
            if (polled && !supervisor.empty())
                co_await supervisor;
            else
                spawn(std::move(supervisor));
            continue;
        }

        // Both queues drained. Moderated transfers still copying will
        // complete without a (prompt) interrupt; instead of parking and
        // paying the backstop IRQ + wakeup, nap until the earliest
        // predicted completion and reap it at the top of the loop.
        if (reaping) {
            sim::SimTime earliest = 0;
            bool have = false;
            for (const InFlightPtr &fl : in_flight_) {
                if (!fl->moderated || !fl->xfer.parked) continue;
                const sim::SimTime done =
                    k.dma().completion_time(fl->xfer.tid);
                if (done > k.eq().now() && (!have || done < earliest)) {
                    earliest = done;
                    have = true;
                }
            }
            if (have) {
                // Whole scheduler ticks, as in the polled path: the
                // worker cannot wake at an arbitrary instant. A stuck
                // transfer is not napped on forever — once its
                // predicted completion is in the past the loop falls
                // through to a real sleep and the watchdog takes over.
                const sim::Duration tick = cm.kthread_poll_interval;
                const sim::Duration wait =
                    (earliest - k.eq().now() + tick - 1) / tick * tick;
                co_await sim::Delay{k.eq(), wait};
                continue;
            }
        }

        // Both queues drained. If nothing is in flight either, hand
        // flush responsibility back to the application (color -> blue)
        // and sleep; otherwise sleep until an interrupt wakes us.
        if (in_flight_.empty() && pending_release_.empty()) {
            const int old = region_.staging_queue().set_color(
                lockfree::Color::kBlue);
            cpu.charge(ExecContext::kKthread, Op::kQueue, cm.queue_op);
            if (old == lockfree::kColorBusy) continue;  // raced: retry
            // Hand per-ring flush responsibility back too. A busy
            // result means a depositor slipped a request in — rescan.
            bool ring_raced = false;
            for (std::uint32_t r = 0; r < region_.num_rings(); ++r) {
                const int ro = region_.ring_queue(r).set_color(
                    lockfree::Color::kBlue);
                cpu.charge(ExecContext::kKthread, Op::kQueue, cm.queue_op);
                if (ro == lockfree::kColorBusy) ring_raced = true;
            }
            if (ring_raced) continue;
        }
        k.tracer().record(k.eq().now(), TracePoint::kKthreadSleep,
                          ExecContext::kKthread);
        // Re-enable the moderated IRQ across the sleep — it is the
        // wakeup mechanism while nobody is reaping.
        if (kthread_masked_) {
            k.dma().unmask_moderation();
            kthread_masked_ = false;
        }
        kthread_sleeping_ = true;
        co_await kthread_wq_.wait();
        kthread_sleeping_ = false;
        if (reaping) {
            k.dma().mask_moderation();
            kthread_masked_ = true;
        }
        co_await cpu.busy(ExecContext::kKthread, Op::kSched,
                          cm.kthread_wakeup);
        k.tracer().record(k.eq().now(), TracePoint::kKthreadWake,
                          ExecContext::kKthread);
    }
}

// --------------------------------------------------------------------
// Syscall path: ioctl(MOV_ONE) (§4.2, §5.4).
// --------------------------------------------------------------------

sim::Task
MemifDevice::ioctl_mov_one()
{
    ++stats_.kick_ioctls;
    co_await kernel_.syscall_crossing();
    kernel_.tracer().record(kernel_.eq().now(), TracePoint::kKickIoctl,
                            ExecContext::kSyscall);
    std::uint32_t next = 0;
    const bool got = next_request(&next, /*take_staging=*/false);
    kernel_.cpu().charge(ExecContext::kSyscall, Op::kQueue,
                         kernel_.costs().queue_op);
    if (!got) {
        // Nothing queued (the kernel thread may have raced us to it),
        // or the dispatch window is full; make sure the worker is
        // running and return.
        wake_kthread();
        co_return;
    }
    if (!region_.valid_index(next)) {
        MEMIF_WARN("memif: dropping corrupt request index %u", next);
        co_return;
    }
    // Serve exactly one request in the caller's context, interrupt-
    // driven, and return as soon as the DMA is started.
    sim::Task supervisor;
    co_await serve_request(next, snapshot(next), ExecContext::kSyscall,
                           /*irq_mode=*/true, &supervisor,
                           /*moderated=*/config_.irq_moderation);
    // If no transfer started (validation/resource failure), there is no
    // completion interrupt coming: hand the rest to the worker now.
    if (supervisor.empty()) wake_kthread();
    spawn(std::move(supervisor));
}

// --------------------------------------------------------------------
// Proceed-and-recover (§5.2 alternative).
// --------------------------------------------------------------------

bool
MemifDevice::handle_young_fault(vm::Vma &vma, std::uint64_t page_idx)
{
    // Managed mode: a trap on a scanner-armed page is the activity
    // signal a parked scanner waits for. Never resolve anything here —
    // sampling stays off the fault path; the default young-clear CAS
    // in touch() proceeds as if the hook were absent.
    wake_scanner();
    if (config_.race_policy != RacePolicy::kRecover) return false;
    for (const InFlightPtr &fl : in_flight_) {
        if (fl->op != MovOp::kMigrate || fl->aborted) continue;
        // Blocking-PTE flights (daemon movs) have no semi-final entry
        // a young fault could race; accessors wait instead.
        if (flight_prevents(*fl)) continue;
        bool hit = false;
        for (const Mapping &m : fl->mappings) {
            if (m.vma == &vma && m.page_idx == page_idx) {
                hit = true;
                break;
            }
        }
        if (!hit) continue;
        // Data already landed (a released attempt kept whether it had
        // finished): the default path is safe.
        const Transfer &x = fl->xfer;
        if (x.tid != dma::kInvalidTransfer ? kernel_.dma().is_complete(x.tid)
                                           : x.finished)
            return false;
        abort_migration(fl);
        return true;
    }
    return false;
}

void
MemifDevice::abort_migration(const InFlightPtr &fl)
{
    // Cancel the outstanding DMA (if one is started and not yet
    // released: its supervisor releases it), restore every old mapping,
    // release the new pages, and notify the application of the abort.
    // Runs synchronously in the faulting thread's context.
    if (fl->xfer.tid != dma::kInvalidTransfer)
        kernel_.dma().cancel(fl->xfer.tid);
    rollback_remap(fl, ExecContext::kSyscall);
    fl->aborted = true;
    ++stats_.migrations_aborted;
    kernel_.tracer().record(kernel_.eq().now(), TracePoint::kAborted,
                            ExecContext::kSyscall, fl->req_idx);
    notify(fl->req_idx, MovStatus::kAborted, MovError::kAborted);
    // A parked supervisor learns of the rollback now and takes its
    // cancelled transfer back; a running one at its next latch check.
    settle(fl->xfer, Wake::kAborted);
    remove_in_flight(fl);
}

}  // namespace memif::core
