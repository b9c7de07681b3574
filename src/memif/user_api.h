/**
 * @file
 * The memif user library (paper §4.1, Fig. 2): thin wrappers around the
 * shared lock-free queues plus the one non-trivial piece, the
 * SubmitRequest() red-blue flush protocol (§4.4).
 *
 * Everything here runs in application context. Calls never block:
 * AllocRequest/RetrieveCompleted return "nothing available" rather than
 * waiting, SubmitRequest returns as soon as the request is visible to
 * the kernel (issuing at most one kick ioctl per idle period), and
 * poll() is the explicit way to sleep for notifications.
 *
 * Typical use (mirrors the paper's Figure 2):
 *
 *     MemifUser mif(device);                       // MemifOpen
 *     std::uint32_t r = mif.alloc_request();       // AllocRequest
 *     MovReq &req = mif.request(r);
 *     req.op = MovOp::kMigrate; req.src_base = ...;
 *     co_await mif.submit(r);                      // SubmitRequest
 *     ... compute ...
 *     std::uint32_t done = mif.retrieve_completed();
 *     if (done == kNoRequest) co_await mif.poll(); // sleep for events
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lockfree/link.h"
#include "memif/device.h"
#include "memif/mov_req.h"
#include "sim/task.h"

namespace memif::core {

/** Returned when no request / completion is available. */
inline constexpr std::uint32_t kNoRequest = lockfree::kNil;

/** Library-side counters. */
struct UserStats {
    std::uint64_t submits = 0;
    std::uint64_t kicks = 0;         ///< ioctls actually issued
    std::uint64_t completions = 0;
    std::uint64_t polls = 0;
    std::uint64_t batch_submits = 0; ///< submit_many() calls
    std::uint64_t rejected = 0;      ///< submits refused at admission
};

/**
 * One application's handle on a memif instance ("MemifOpen").
 *
 * Multiple MemifUser objects (one per application thread) may wrap the
 * same device; the shared queues make that safe by construction (§3).
 */
class MemifUser {
  public:
    /**
     * @param cpu_id simulated CPU this handle submits from. With
     *        per-CPU rings enabled it selects the submission ring (and
     *        the device's flight-table shard); with the classic shared
     *        path it feeds the contention model.
     * @param asid tenant this handle submits as (multi_tenant lever;
     *        obtain via MemifDevice::register_tenant). 0 — the
     *        default — is the device's owning process.
     */
    explicit MemifUser(MemifDevice &device, std::uint32_t cpu_id = 0,
                       std::uint32_t asid = 0)
        : dev_(device), region_(device.region()), cpu_id_(cpu_id),
          asid_(asid)
    {
    }

    MemifDevice &device() { return dev_; }
    std::uint32_t cpu_id() const { return cpu_id_; }
    std::uint32_t asid() const { return asid_; }

    /**
     * AllocRequest(): take a blank mov_req off the free list.
     * @return its index, or kNoRequest when the instance is at capacity.
     */
    std::uint32_t alloc_request();

    /** Access a request slot by index. */
    MovReq &request(std::uint32_t idx) { return region_.request(idx); }

    /** FreeRequest(): return a consumed request to the free list. */
    void free_request(std::uint32_t idx);

    /**
     * SubmitRequest(): make the request visible to the kernel. The
     * caller is oblivious to whether a syscall happens; the library
     * decides via the staging queue's color (§4.4).
     *
     * @param kicked (optional) set to whether this call issued the ioctl
     */
    sim::Task submit(std::uint32_t idx, bool *kicked = nullptr);

    /**
     * Batch SubmitRequest(): deposit @p idxs in the staging queue in
     * order, then run the §4.4 flush protocol at most ONCE for the
     * whole batch — one syscall crossing and one kernel-thread wakeup
     * amortized over N requests, instead of up to one kick each.
     * Equivalent to N submit() calls for every observable outcome; only
     * the interface cost differs.
     */
    sim::Task submit_many(const std::vector<std::uint32_t> &idxs,
                          bool *kicked = nullptr);

    /**
     * RetrieveCompleted(): non-blocking; one completed request's index
     * or kNoRequest. Successful completions are drained before failed
     * ones; inspect MovReq::load_status()/error to distinguish.
     */
    std::uint32_t retrieve_completed();

    /**
     * poll(): sleep until at least one completion notification is
     * pending (the device file's poll() support, §4.1).
     */
    sim::Task poll();

    const UserStats &stats() const { return stats_; }

  private:
    /** Charge one user-side lock-free queue operation. */
    void charge_queue_op();

    /**
     * The one deposit path behind submit() and submit_many(): admit
     * and deposit @p idxs in order into this handle's ring (or the
     * shared staging queue), then run the §4.4 flush-and-kick at most
     * once for the whole call.
     */
    sim::Task deposit(std::span<const std::uint32_t> idxs, bool *kicked);

    /** Ring this handle deposits into (rings enabled only). */
    std::uint32_t my_ring() const { return cpu_id_ % region_.num_rings(); }

    MemifDevice &dev_;
    SharedRegion &region_;
    std::uint32_t cpu_id_ = 0;
    std::uint32_t asid_ = 0;
    UserStats stats_;
};

}  // namespace memif::core
