/**
 * @file
 * The differential runner: replay one workload through a real memif
 * instance — under any config preset and any schedule seed — and check
 * every observable against the reference model:
 *
 *  - each completion's (status, error) is in the model's allowed set;
 *  - each request completes exactly once (no lost / duplicate
 *    completions);
 *  - user-visible memory is byte-identical to the model at every
 *    barrier and at the end;
 *  - the driver quiesces clean: MemifDevice::check_quiesced() passes
 *    (empty flight table, drained queues, no leaked descriptors,
 *    consistent xlate-cache entries) and physical-frame accounting
 *    returns to baseline plus the frames parked in magazines.
 *
 * A run is identified by the pair (workload seed, schedule seed); with
 * the same pair, the run — and any failure — replays bit-identically.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/reference_model.h"
#include "check/workload.h"
#include "memif/device.h"

namespace memif::check {

/** One named lever configuration the differential suite covers. Every
 *  new config lever must appear in (at least) one preset here — see
 *  CONTRIBUTING.md. */
struct Preset {
    const char *name;
    core::MemifConfig config;
};

/** The eight standard presets: levers-off, pipelined, moderated,
 *  scaled, tenanted, mmu_aware, managed, tiered (each a superset of
 *  the previous one's levers). */
const std::vector<Preset> &presets();

struct RunOptions {
    core::MemifConfig config{};
    /** Same-timestamp tie-break seed; 0 = deterministic FIFO order. */
    std::uint64_t schedule_seed = 0;
    /** Arm probabilistic DMA/alloc fault injection (seeded from the
     *  workload and schedule seeds; replays identically). */
    bool arm_faults = false;
    /**
     * Self-test hook: make the nth DMA chain fail (dma.tc_error)
     * WITHOUT declaring faults to the model — a deliberate,
     * deterministic divergence. Pair with cpu_copy_fallback = false
     * AND dma_max_retries = 0 so the single armed occurrence reaches a
     * terminal status instead of being absorbed by the retry ladder;
     * the run must then fail, which is what the minimizer tests
     * shrink. 0 = off.
     */
    std::uint64_t inject_undeclared_fault_nth = 0;
};

struct RunResult {
    bool ok = true;
    /** First divergence, with enough context to act on. */
    std::string failure;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    /** Admission-control bounces (kNoSpace) the runner retried;
     *  multi_tenant presets only. */
    std::uint64_t rejected = 0;
    /** Virtual end time of the run. */
    std::uint64_t end_time = 0;
    /** digest_bytes() over final region bytes only: must be identical
     *  across presets and schedules for the same workload. */
    std::uint64_t mem_digest = 0;
    /** digest_bytes() over bytes + per-request outcomes + end time
     *  (each folded as one 64-bit word): must be
     *  identical across replays of the same (workload, schedule,
     *  preset) triple. */
    std::uint64_t full_digest = 0;
    core::DeviceStats stats{};
};

/** The digests' starting value (the FNV-1a 64-bit offset basis). */
inline constexpr std::uint64_t kDigestSeed = 1469598103934665603ull;

/**
 * Fold @p n bytes into digest @p h: FNV-1a over 64-bit host-order
 * words, then one step per byte of the tail. Each step is a bijection
 * of the state, so changing any single byte changes the result.
 */
std::uint64_t digest_bytes(std::uint64_t h, const void *data, std::size_t n);

/** Replay @p w through a fresh simulated machine under @p opt. */
RunResult run_workload(const Workload &w, const RunOptions &opt);

/** "(workload_seed=S, schedule_seed=T)" — the replay coordinates every
 *  failure message leads with. */
std::string seed_pair(const Workload &w, const RunOptions &opt);

}  // namespace memif::check
