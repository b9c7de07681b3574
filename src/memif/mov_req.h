/**
 * @file
 * The move request (paper Fig. 3b): the hardware-independent
 * description of one replication or migration of a virtual memory
 * region, allocated from and living inside the shared region.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "sim/types.h"

namespace memif::core {

/** The two move semantics of §3. */
enum class MovOp : std::uint32_t {
    /** memcpy() semantics between two mapped regions. */
    kReplicate = 0,
    /** Replace backing pages with pages on the destination node. */
    kMigrate = 1,
};

/** Lifecycle / completion status of a request. */
enum class MovStatus : std::uint32_t {
    kFree = 0,       ///< in the free queue
    kOwned,          ///< allocated by the application, being filled in
    kSubmitted,      ///< in staging/submission
    kInFlight,       ///< DMA running
    kDone,           ///< completed successfully
    kRaceDetected,   ///< §5.2 proceed-and-fail: CPU touched a page mid-move
    kAborted,        ///< §5.2 proceed-and-recover: migration rolled back
    kFailed,         ///< validation or resource failure (see error)
};

/** Error codes reported through MovReq::error. */
enum class MovError : std::uint32_t {
    kNone = 0,
    kBadAddress,     ///< region not mapped / not page aligned
    kBadNode,        ///< unknown destination node
    kNoMemory,       ///< destination node exhausted
    kBadRequest,     ///< malformed fields
    kRace,           ///< race detected during migration
    kAborted,        ///< migration aborted by the recovery handler
    kBusy,           ///< page already part of an in-flight move
    kFileBacked,     ///< file-backed pages (rejected unless enabled, §6.7)
    kDmaError,       ///< unrecoverable DMA failure (retries exhausted)
    kTimeout,        ///< watchdog expired: transfer stuck or irq lost
    kNoSpace,        ///< admission control: tenant quota exhausted
    kXlateFault,     ///< SVA-routed DMA: walk fault at consumption time
};

/**
 * One move request. Lives in the shared region; referenced everywhere
 * by its index. The application populates the parameter fields after
 * AllocRequest() and must not touch them again until the completion
 * notification returns the request (paper §4.1). The driver does not
 * rely on that: it copies the parameters once, where it dequeues the
 * request (ReqSnapshot), and never reads them again, so a later rewrite
 * changes nothing. What the driver keeps about a request — its
 * admission and admitted ASID, its daemon origin and the daemon's own
 * parameters — lives driver-side, where no scribble can forge it.
 */
struct MovReq {
    std::atomic<std::uint32_t> status{
        static_cast<std::uint32_t>(MovStatus::kFree)};
    MovOp op = MovOp::kReplicate;

    /** Source region base virtual address (page aligned). */
    std::uint64_t src_base = 0;
    /** Replication only: destination region base (page aligned). */
    std::uint64_t dst_base = 0;
    /** Migration only: destination memory node. */
    std::uint32_t dst_node = 0;
    /** Region length in pages of the containing Vma's granularity.
     *  Strided requests (rows != 0) leave this zero: their extent is
     *  described by the geometry fields below instead. */
    std::uint32_t num_pages = 0;

    /**
     * @name 2D / strided geometry (strided_dma lever).
     * rows != 0 marks the request as strided: it replicates `rows`
     * rows of `row_bytes` each, the source rows `src_pitch` bytes
     * apart and the destination rows `dst_pitch` bytes apart
     * (EDMA3 A/B-count framing; pitch == row_bytes degenerates to a
     * flat copy). Strided requests are kReplicate-only. When
     * gather_list is non-zero the source side is a gather instead:
     * gather_list is the virtual address (in the request's address
     * space) of a u64 array of `rows` per-row source addresses, and
     * src_base/src_pitch only name the vma the rows must lie in.
     */
    ///@{
    std::uint32_t rows = 0;
    std::uint32_t row_bytes = 0;
    std::uint64_t src_pitch = 0;
    std::uint64_t dst_pitch = 0;
    std::uint64_t gather_list = 0;
    ///@}

    /** Failure detail when status is an error status. */
    MovError error = MovError::kNone;
    /** Opaque application cookie, returned untouched. */
    std::uint64_t user_tag = 0;
    /** Simulated CPU the request was deposited from (per-CPU rings:
     *  selects the ring). */
    std::uint32_t submit_cpu = 0;

    /** Tenant address-space id; 0 is the device owner. Stamped by the
     *  submitting MemifUser and read once, at admission; ignored unless
     *  multi_tenant is on. */
    std::uint32_t asid = 0;
    /** Set on admission rejection (error == kNoSpace): a hint, in
     *  virtual microseconds, for how long the caller should back off
     *  before retrying. Scales with the tenant's backlog. Zero means
     *  the rejection is permanent — the request's frame estimate alone
     *  exceeds the tenant's whole quota — and retrying is pointless. */
    std::uint32_t retry_after_us = 0;

    /** Diagnostics (virtual time): set by the library/driver. */
    std::uint64_t submit_time = 0;
    std::uint64_t complete_time = 0;

    /** Blank every parameter field (and the cookie and the retry
     *  hint): what a recycled slot's last user left there must not
     *  leak into the next request allocated on it. */
    void
    clear_params()
    {
        op = MovOp::kReplicate;
        src_base = dst_base = 0;
        dst_node = num_pages = 0;
        rows = row_bytes = 0;
        src_pitch = dst_pitch = gather_list = 0;
        user_tag = 0;
        retry_after_us = 0;
    }

    MovStatus
    load_status() const
    {
        return static_cast<MovStatus>(
            status.load(std::memory_order_acquire));
    }

    void
    store_status(MovStatus s)
    {
        status.store(static_cast<std::uint32_t>(s),
                     std::memory_order_release);
    }

    /** True for the statuses a completed request can carry. */
    bool
    succeeded() const
    {
        return load_status() == MovStatus::kDone;
    }
};

}  // namespace memif::core
