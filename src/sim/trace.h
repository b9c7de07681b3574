/**
 * @file
 * Lightweight event tracing for driver-execution timelines.
 *
 * When enabled, subsystems append (time, point, context, request)
 * records; the paper's Figure 5 — one example execution of the memif
 * driver across the syscall, interrupt and kernel-thread paths — is
 * rendered straight from this stream (see examples/driver_timeline).
 */
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/cpu.h"
#include "sim/types.h"

namespace memif::sim {

/** Instrumented moments in the move-request lifecycle. */
enum class TracePoint : std::uint8_t {
    kSubmit = 0,     ///< application enqueued the request
    kKickIoctl,      ///< MOV_ONE syscall entered the kernel
    kServeBegin,     ///< driver starts ops 1-3 for a request
    kPrepDone,       ///< op 1 finished
    kRemapDone,      ///< op 2 finished
    kDmaConfigDone,  ///< op 3 (descriptor programming) finished
    kDmaStart,       ///< transfer triggered
    kDmaComplete,    ///< engine finished moving the bytes
    kIrqEnter,       ///< completion interrupt handler entered
    kReleaseDone,    ///< op 4 finished
    kNotifyDone,     ///< op 5: completion visible to the application
    kKthreadWake,    ///< worker woken
    kKthreadSleep,   ///< worker going idle (staging recolored blue)
    kPolledWait,     ///< worker sleeping for a predicted completion
    kAborted,        ///< recover-policy rollback
    kRaceDetected,   ///< detect-policy CAS failure
    kDmaError,       ///< transfer completed with a TC error
    kWatchdogFire,   ///< watchdog deadline passed without completion irq
    kDmaRetry,       ///< transfer restarted after backoff
    kFallbackCopy,   ///< degraded to the CPU byte-copy path
    kDmaFailed,      ///< unrecoverable DMA failure (rolled back)
};

/** Human-readable name of a trace point. */
std::string_view to_string(TracePoint p);

/** One trace record. */
struct TraceRecord {
    SimTime time = 0;
    TracePoint point = TracePoint::kSubmit;
    ExecContext ctx = ExecContext::kUser;
    /** Request index, or kNoTraceReq for request-less events. */
    std::uint32_t req = kNoTraceReq;

    static constexpr std::uint32_t kNoTraceReq = ~std::uint32_t{0};
};

/** An append-only trace buffer; disabled (and free) by default. */
class Tracer {
  public:
    bool enabled() const { return enabled_; }
    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }

    void
    record(SimTime time, TracePoint point, ExecContext ctx,
           std::uint32_t req = TraceRecord::kNoTraceReq)
    {
        if (!enabled_) return;
        records_.push_back(TraceRecord{time, point, ctx, req});
    }

    const std::vector<TraceRecord> &records() const { return records_; }
    void clear() { records_.clear(); }

  private:
    bool enabled_ = false;
    std::vector<TraceRecord> records_;
};

}  // namespace memif::sim
