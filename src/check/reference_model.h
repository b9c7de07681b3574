/**
 * @file
 * The reference model: a tiny sequential interpreter that applies a
 * workload's requests to plain byte arrays — no queues, no DMA, no
 * coroutines — and predicts (a) the final user-visible bytes of every
 * region and (b) the set of acceptable outcomes for each request.
 *
 * Why a *set* of outcomes: the four differential presets schedule the
 * same workload differently, so whether a racing CPU touch lands
 * before, during, or after a migration's copy window is genuinely
 * schedule-dependent. The model cannot (and should not) predict the
 * winner; instead it derives, from the workload structure alone, which
 * terminal statuses a correct driver may report:
 *
 *   migration   kDone always; kRaceDetected only under kDetect AND a
 *               same-phase touch overlaps its pages; kAborted only
 *               under kRecover ditto; kFailed(kNoMemory) always (node
 *               exhaustion / injected alloc fail); kFailed(kDmaError |
 *               kTimeout) only when faults are armed and the CPU-copy
 *               fallback is off.
 *   replication kDone always; kFailed(kDmaError | kTimeout) under the
 *               same fault condition. Never raced, never aborted.
 *   chained     a tiered preset routes SRAM↔far migrations through a
 *   migration   multi-hop chain (staged in DDR), but the terminal set
 *               is the plain migration set above: per-hop retries and
 *               the CPU-copy fallback absorb hop faults exactly like
 *               the single-hop ladder, an unrecoverable mid-chain hop
 *               rolls every page back (kFailed/kDmaError — covered by
 *               the fault clause), staging-pool pressure degrades to a
 *               direct hop rather than failing, and chained flights
 *               always block racing touches (never kRaceDetected /
 *               kAborted, which the set merely permits). Memory stays
 *               fully predicted: mid-chain bytes live in staging
 *               frames no PTE exposes.
 *   malformed   exactly kFailed(expected validation error).
 *   any         kFailed(kNoSpace) under multi_tenant presets only:
 *               admission backpressure strikes at submit, before
 *               validation (the runner retries instead of recording).
 *   valid       kFailed(kBusy) under auto_migrate presets only: the
 *               request collided with a device-originated daemon mov
 *               (the runner retries instead of recording).
 *
 * Memory, by contrast, IS fully predicted: migrations and touches are
 * content-inert under every policy and every outcome (raced, aborted,
 * rolled-back and successful migrations all preserve bytes), so only
 * replications change memory — and the workload generator gives
 * concurrent requests disjoint pages, making the bytes independent of
 * completion order. commit() applies a replication's copy iff the
 * driver reported kDone; after the run the regions must match the
 * model byte-for-byte.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "check/workload.h"
#include "memif/device.h"
#include "memif/mov_req.h"

namespace memif::check {

/** The initial fill byte for offset @p i of a region with pattern
 *  seed @p pattern. Must match the differential runner's fill. */
inline std::uint8_t
pat_byte(std::uint8_t pattern, std::uint64_t i)
{
    return static_cast<std::uint8_t>(pattern + i * 13);
}

/** Fill @p out with pat_byte(@p pattern, i) for every offset i. The
 *  pattern repeats every 256 bytes, so one period is built and copied
 *  (the runner's fill and the model's, byte for byte the same). */
void fill_pattern(std::uint8_t pattern, std::span<std::uint8_t> out);

/** Run-wide facts the allowed-outcome computation depends on. */
struct OutcomeContext {
    core::RacePolicy policy = core::RacePolicy::kDetect;
    /** Whether DMA/alloc fault injection is armed for the run. */
    bool faults_armed = false;
    /** MemifConfig::cpu_copy_fallback (on: DMA faults are absorbed). */
    bool cpu_copy_fallback = true;
    /** MemifConfig::multi_tenant: admission control may reject any
     *  request — malformed ones included, rejection precedes
     *  validation — with kFailed/kNoSpace. The differential runner
     *  treats a rejection with a positive retry_after_us as
     *  backpressure, not a terminal outcome: it waits out the hint and
     *  resubmits, so transient kNoSpace never reaches the exactly-once
     *  ledger and final memory stays preset-independent. A zero hint
     *  (frame estimate alone exceeds the quota) IS terminal — a failed
     *  request moves no memory, so the digests still converge. */
    bool multi_tenant = false;
    /** MemifConfig::auto_migrate: the heat scanner and migration
     *  daemon are live, so any valid request may collide with a
     *  device-originated daemon mov and fail fast with
     *  kFailed/kBusy. The runner treats that as transient (the
     *  daemon mov completes in bounded virtual time) and resubmits,
     *  but a terminal kBusy is admissible: the bounced request moved
     *  no memory, and the daemon's own migration is content-inert. */
    bool auto_migrate = false;
};

/** One flattened request. Its index in submission order is the
 *  request's user_tag in the differential runner. */
struct MovRecord {
    MovSpec spec;
    /** Index of the WorkloadOp that submits it. */
    std::size_t op_index = 0;
    /** Barrier-delimited phase the request runs in. */
    std::uint32_t phase = 0;
    /** Validation error a malformed request must report. */
    core::MovError expect_error = core::MovError::kNone;
    /** Migration only: a same-phase touch overlaps its pages, so
     *  race-policy outcomes are possible. */
    bool may_race = false;
};

class ReferenceModel {
  public:
    explicit ReferenceModel(const Workload &w);

    std::size_t num_movs() const { return movs_.size(); }
    const MovRecord &mov(std::size_t id) const { return movs_[id]; }

    /**
     * Is (@p st, @p err) an acceptable terminal outcome for request
     * @p id under @p ctx? On rejection, appends a human-readable
     * reason to @p why (if non-null).
     */
    bool outcome_allowed(std::size_t id, core::MovStatus st,
                         core::MovError err, const OutcomeContext &ctx,
                         std::string *why) const;

    /**
     * Apply request @p id's memory effect given the driver's reported
     * terminal status: a kDone replication copies bytes, everything
     * else is a no-op. Call once per retrieved completion.
     */
    void commit(std::size_t id, core::MovStatus st);

    /** Expected bytes of @p region right now. */
    const std::vector<std::uint8_t> &
    memory(std::uint32_t region) const
    {
        return mem_[region];
    }

  private:
    const Workload &w_;
    std::vector<MovRecord> movs_;
    std::vector<std::vector<std::uint8_t>> mem_;
};

/** Printable name of a MovStatus / MovError (diagnostics). */
const char *status_name(core::MovStatus st);
const char *error_name(core::MovError err);

}  // namespace memif::check
