#include "sim/trace.h"

namespace memif::sim {

std::string_view
to_string(TracePoint p)
{
    switch (p) {
      case TracePoint::kSubmit: return "submit";
      case TracePoint::kKickIoctl: return "ioctl(MOV_ONE)";
      case TracePoint::kServeBegin: return "serve-begin";
      case TracePoint::kPrepDone: return "1:prep";
      case TracePoint::kRemapDone: return "2:remap";
      case TracePoint::kDmaConfigDone: return "3:dma-cfg";
      case TracePoint::kDmaStart: return "dma-start";
      case TracePoint::kDmaComplete: return "dma-complete";
      case TracePoint::kIrqEnter: return "irq-enter";
      case TracePoint::kReleaseDone: return "4:release";
      case TracePoint::kNotifyDone: return "5:notify";
      case TracePoint::kKthreadWake: return "kthread-wake";
      case TracePoint::kKthreadSleep: return "kthread-sleep";
      case TracePoint::kPolledWait: return "polled-wait";
      case TracePoint::kAborted: return "aborted";
      case TracePoint::kRaceDetected: return "race-detected";
      case TracePoint::kDmaError: return "dma-error";
      case TracePoint::kWatchdogFire: return "watchdog-fire";
      case TracePoint::kDmaRetry: return "dma-retry";
      case TracePoint::kFallbackCopy: return "fallback-copy";
      case TracePoint::kDmaFailed: return "dma-failed";
      default: return "?";
    }
}

}  // namespace memif::sim
