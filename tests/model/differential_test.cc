/**
 * @file
 * The differential suite proper: seeded random workloads replayed
 * through all nine presets (levers-off, pipelined, moderated, scaled,
 * tenanted, mmu_aware, managed, tiered, strided) must match the
 * reference model
 * byte-for-byte and leave the driver fully quiesced — under FIFO
 * scheduling, fuzzed schedules, injected faults, invalidation storms
 * racing TLB shootdowns against in-flight translation prefetches, and
 * heat churn driving the managed preset's migration daemon underneath
 * the workload's own requests.
 *
 * Seed count scales with the MEMIF_CHECK_SEEDS environment variable
 * (default kDefaultSeeds; CI quick mode runs 1024, nightly can run
 * more).
 * Every failure message leads with the (workload_seed, schedule_seed)
 * pair that reproduces it; the minimizer shrinks the op list for the
 * pair before the test reports it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "check/differential.h"
#include "check/minimize.h"
#include "check/reference_model.h"
#include "check/workload.h"

namespace memif::check {
namespace {

/** Seeds per sweep when MEMIF_CHECK_SEEDS is unset: the largest power
 *  of two that keeps the tier-1 suite within its wall-time budget. */
constexpr std::uint64_t kDefaultSeeds = 512;

std::uint64_t
seeds_from_env()
{
    const char *env = std::getenv("MEMIF_CHECK_SEEDS");
    if (!env) return kDefaultSeeds;
    const long long v = std::atoll(env);
    return v > 0 ? static_cast<std::uint64_t>(v) : kDefaultSeeds;
}

/** On failure: shrink the workload and report the repro coordinates. */
std::string
diagnose(const Workload &w, const RunOptions &opt)
{
    const MinimizeOutcome m = minimize_workload(w, opt, 120);
    return "reproduce with " + seed_pair(w, opt) + "\n  failure: " +
           m.failure + "\n  minimized " +
           std::to_string(m.original_ops) + " -> " +
           std::to_string(m.minimized_ops) + " ops in " +
           std::to_string(m.runs) + " runs";
}

TEST(Differential, MemDigestChangesWithAnySingleByte)
{
    // mem_digest folds final memory eight bytes per step plus a byte
    // tail; flipping any one byte of a region must change it.
    for (const std::size_t bytes : {1, 7, 8, 9, 4096, 4101}) {
        std::vector<std::uint8_t> region(bytes);
        fill_pattern(37, region);
        const std::uint64_t base =
            digest_bytes(kDigestSeed, region.data(), region.size());
        for (std::size_t i = 0; i < bytes; ++i) {
            for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
                region[i] ^= flip;
                ASSERT_NE(digest_bytes(kDigestSeed, region.data(),
                                       region.size()),
                          base)
                    << bytes << "-byte region, byte " << i << " ^ "
                    << int{flip};
                region[i] ^= flip;
            }
        }
        // The word loads do not depend on the buffer's alignment.
        std::vector<std::uint8_t> shifted(bytes + 1);
        std::copy(region.begin(), region.end(), shifted.begin() + 1);
        EXPECT_EQ(digest_bytes(kDigestSeed, shifted.data() + 1, bytes), base);
    }
}

/** Seeds 1 to fuzzed_seeds() replay every preset under FIFO and two
 *  fuzzed schedules (FuzzedSchedulesMatchTheModel); the seeds above it
 *  replay every preset under FIFO only (AllPresetsMatchTheModel). Each
 *  (workload, preset, schedule) triple is replayed once. */
std::uint64_t
fuzzed_seeds()
{
    return seeds_from_env() / 2 + 1;
}

TEST(Differential, AllPresetsMatchTheModel)
{
    const std::uint64_t nseeds = seeds_from_env();
    for (std::uint64_t seed = fuzzed_seeds() + 1; seed <= nseeds; ++seed) {
        const Workload w = generate_workload(seed);
        std::uint64_t mem_digest = 0;
        const char *digest_from = nullptr;
        for (const Preset &p : presets()) {
            RunOptions opt;
            opt.config = p.config;
            const RunResult r = run_workload(w, opt);
            ASSERT_TRUE(r.ok)
                << "preset " << p.name << ": " << r.failure << "\n"
                << diagnose(w, opt);
            // Byte-identical across presets: migrations preserve
            // content and replication effects are order-independent,
            // so lever choice must never show up in memory.
            if (!digest_from) {
                mem_digest = r.mem_digest;
                digest_from = p.name;
            } else {
                ASSERT_EQ(r.mem_digest, mem_digest)
                    << "seed " << seed << ": preset " << p.name
                    << " memory diverges from preset " << digest_from;
            }
        }
    }
}

TEST(Differential, FuzzedSchedulesMatchTheModel)
{
    const std::uint64_t nseeds = fuzzed_seeds();
    for (std::uint64_t seed = 1; seed <= nseeds; ++seed) {
        const Workload w = generate_workload(seed);
        // The first preset's FIFO digest: every preset's FIFO run must
        // match it, as in AllPresetsMatchTheModel.
        std::uint64_t preset_digest = 0;
        const char *digest_from = nullptr;
        for (const Preset &p : presets()) {
            std::uint64_t fifo_digest = 0;
            for (std::uint64_t sched : {0ull, 11ull, 97ull}) {
                RunOptions opt;
                opt.config = p.config;
                opt.schedule_seed = sched;
                const RunResult r = run_workload(w, opt);
                ASSERT_TRUE(r.ok)
                    << "preset " << p.name << ": " << r.failure << "\n"
                    << diagnose(w, opt);
                if (sched == 0)
                    fifo_digest = r.mem_digest;
                else
                    ASSERT_EQ(r.mem_digest, fifo_digest)
                        << seed_pair(w, opt) << " preset " << p.name
                        << ": fuzzed schedule changed final memory";
            }
            if (!digest_from) {
                preset_digest = fifo_digest;
                digest_from = p.name;
            } else {
                ASSERT_EQ(fifo_digest, preset_digest)
                    << "seed " << seed << ": preset " << p.name
                    << " memory diverges from preset " << digest_from;
            }
        }
    }
}

TEST(Differential, FaultedRunsMatchTheModel)
{
    const std::uint64_t nseeds = seeds_from_env() / 2 + 1;
    for (std::uint64_t seed = 1; seed <= nseeds; ++seed) {
        const Workload w = generate_workload(seed);
        for (const Preset &p : presets()) {
            RunOptions opt;
            opt.config = p.config;
            opt.arm_faults = true;
            opt.schedule_seed = seed * 3 + 1;
            const RunResult r = run_workload(w, opt);
            ASSERT_TRUE(r.ok)
                << "preset " << p.name << " (faults armed): "
                << r.failure << "\n"
                << diagnose(w, opt);
        }
    }
}

TEST(Differential, ReplayIsBitIdentical)
{
    const Workload w = generate_workload(12345);
    for (const Preset &p : presets()) {
        RunOptions opt;
        opt.config = p.config;
        opt.schedule_seed = 777;
        opt.arm_faults = true;
        const RunResult a = run_workload(w, opt);
        const RunResult b = run_workload(w, opt);
        EXPECT_EQ(a.ok, b.ok) << p.name;
        EXPECT_EQ(a.full_digest, b.full_digest)
            << "preset " << p.name
            << ": same (workload, schedule, preset) triple produced "
               "different runs";
        EXPECT_EQ(a.end_time, b.end_time) << p.name;
    }
}

// The checker must be able to see its own injected bug: an undeclared
// deterministic DMA fault makes the driver report kDmaError while the
// model expects success -> the run fails and the minimizer shrinks the
// repro to a handful of ops that still replay from the same seed pair.
TEST(Differential, MinimizerShrinksAnInjectedDivergence)
{
    const Workload w = generate_workload(4242);
    RunOptions opt;
    opt.config.cpu_copy_fallback = false;  // let the fault surface
    opt.config.dma_max_retries = 0;        // ... on the first attempt
    opt.inject_undeclared_fault_nth = 1;

    const RunResult r = run_workload(w, opt);
    ASSERT_FALSE(r.ok) << "injected fault was not caught";
    EXPECT_NE(r.failure.find("workload_seed=4242"), std::string::npos)
        << "failure must print the repro seed pair: " << r.failure;

    const MinimizeOutcome m = minimize_workload(w, opt, 200);
    EXPECT_FALSE(m.failure.empty());
    EXPECT_LT(m.minimized_ops, m.original_ops);
    // The first DMA chain always carries the fault, so one valid mov
    // plus the mandatory trailing barrier must survive minimization.
    EXPECT_LE(m.minimized_ops, 4u);
    // The minimized workload still reproduces, deterministically.
    const RunResult again = run_workload(m.workload, opt);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.failure, m.failure);
}

// Preset-coverage tripwire (see CONTRIBUTING.md "Adding a config
// lever"): a behaviour lever the differential suite never turns on is
// a lever the model checker never exercises. The size check fires when
// MemifConfig grows a field; fix it by wiring the new lever into a
// preset (src/check/differential.cc) and updating both expectations.
TEST(Differential, EveryConfigLeverAppearsInAPreset)
{
    EXPECT_EQ(sizeof(core::MemifConfig), 112u)
        << "MemifConfig changed shape: add the new lever to a preset "
           "in src/check/differential.cc, then update this size";

    const core::MemifConfig &top = presets().back().config;
    EXPECT_STREQ(presets().back().name, "strided");
    // Default-on levers are exercised by every preset...
    EXPECT_TRUE(top.gang_lookup);
    EXPECT_TRUE(top.cpu_copy_fallback);
    // ...and every default-off behaviour lever must be on by the top
    // of the preset ladder.
    EXPECT_TRUE(top.sg_coalescing);
    EXPECT_TRUE(top.multi_tc_dispatch);
    EXPECT_TRUE(top.batched_tlb_shootdown);
    EXPECT_TRUE(top.irq_moderation);
    EXPECT_TRUE(top.driver_caches);
    EXPECT_TRUE(top.percpu_rings);
    EXPECT_TRUE(top.multi_tenant);
    EXPECT_TRUE(top.xlate_prefetch_ahead);
    EXPECT_TRUE(top.sva_dma);
    EXPECT_TRUE(top.auto_migrate);
    EXPECT_TRUE(top.tiered_memory);
    EXPECT_TRUE(top.pipelined_eviction);
    EXPECT_TRUE(top.strided_dma);
    // Scanner dormancy is default-on whenever the daemon runs, so the
    // managed preset exercises the settle/probe/wake machinery too.
    EXPECT_GT(top.heat_settle_epochs, 0u);
    EXPECT_GT(top.heat_dormant_cap, 0u);
}

// Invalidation storm: every mov is chased by same-instant touches on
// its own pages, so young/dirty PTE CASes fire the xlate-invalidate
// hook while translations are in flight — pending prefetches are
// killed between issue and fill, filled entries between fill and
// consumption. The SVA gate must re-walk (never serve stale bytes)
// and the generation check must drop the dead fills; final memory
// stays byte-identical across every preset.
TEST(Differential, InvalidationStormsMatchTheModel)
{
    const std::uint64_t nseeds = seeds_from_env() / 2 + 1;
    for (std::uint64_t seed = 1; seed <= nseeds; ++seed) {
        const Workload w =
            generate_workload(seed, /*invalidation_storm=*/true);
        std::uint64_t mem_digest = 0;
        const char *digest_from = nullptr;
        for (const Preset &p : presets()) {
            RunOptions opt;
            opt.config = p.config;
            opt.schedule_seed = seed * 7 + 3;
            const RunResult r = run_workload(w, opt);
            ASSERT_TRUE(r.ok)
                << "preset " << p.name << " (storm): " << r.failure
                << "\n"
                << diagnose(w, opt);
            if (!digest_from) {
                mem_digest = r.mem_digest;
                digest_from = p.name;
            } else {
                ASSERT_EQ(r.mem_digest, mem_digest)
                    << "storm seed " << seed << ": preset " << p.name
                    << " memory diverges from preset " << digest_from;
            }
        }
    }
}

// Strided workloads: 2D replications with randomized pitch/rows
// geometries (plus strided malformations) mixed into the usual op
// stream. Only the strided preset runs them — with the strided_dma
// lever off a valid strided request fails validation, which the model
// would mispredict — across FIFO and fuzzed schedules; the final
// bytes must match the model's naive per-row oracle exactly, and
// across the seed set the device must actually have taken the 2D
// descriptor path.
TEST(Differential, StridedWorkloadsMatchTheModel)
{
    const Preset &p = presets().back();
    ASSERT_STREQ(p.name, "strided");
    const std::uint64_t nseeds = seeds_from_env();
    std::uint64_t strided_requests = 0, strided_descriptors = 0;
    std::uint64_t row_splits = 0;
    for (std::uint64_t seed = 1; seed <= nseeds; ++seed) {
        const Workload w =
            generate_workload(seed, /*invalidation_storm=*/false,
                              /*heat_churn=*/false, /*strided=*/true);
        // Leg 1: the full preset (SVA on — strided requests ride the
        // translation stream as 1:1 flat slots, so rows never merge).
        // Leg 2: the same config minus sva_dma, where whole rows merge
        // into genuine 2D descriptors — both must match the oracle.
        core::MemifConfig nosva = p.config;
        nosva.sva_dma = false;
        nosva.xlate_prefetch_ahead = false;
        for (const core::MemifConfig &cfg : {p.config, nosva}) {
            for (std::uint64_t sched : {0ull, 29ull}) {
                RunOptions opt;
                opt.config = cfg;
                opt.schedule_seed = sched;
                const RunResult r = run_workload(w, opt);
                ASSERT_TRUE(r.ok)
                    << "preset " << p.name << " (strided, sva_dma="
                    << cfg.sva_dma << "): " << r.failure << "\n"
                    << diagnose(w, opt);
                strided_requests += r.stats.strided_requests;
                strided_descriptors += r.stats.strided_descriptors;
                row_splits += r.stats.strided_row_splits;
            }
        }
    }
    EXPECT_GT(strided_requests, 0u)
        << "strided workloads never produced a strided request";
    EXPECT_GT(strided_descriptors, 0u)
        << "no request ever merged rows into a 2D descriptor";
    EXPECT_GT(row_splits, 0u)
        << "no row ever straddled a page boundary (geometry too tame)";
}

// Strided + injected faults: mid-transfer TC errors, lost IRQs and
// stuck chains must retry (replaying the same pitched list) and, once
// retries exhaust, fall back to the layout-preserving CPU copy — the
// model's bytes must still match exactly (no torn rows, no missing
// pitch gaps).
TEST(Differential, StridedFaultedRunsMatchTheModel)
{
    const Preset &p = presets().back();
    ASSERT_STREQ(p.name, "strided");
    const std::uint64_t nseeds = seeds_from_env() / 2 + 1;
    for (std::uint64_t seed = 1; seed <= nseeds; ++seed) {
        const Workload w =
            generate_workload(seed, /*invalidation_storm=*/false,
                              /*heat_churn=*/false, /*strided=*/true);
        RunOptions opt;
        opt.config = p.config;
        opt.arm_faults = true;
        opt.schedule_seed = seed * 5 + 2;
        const RunResult r = run_workload(w, opt);
        ASSERT_TRUE(r.ok)
            << "preset " << p.name << " (strided, faults armed): "
            << r.failure << "\n"
            << diagnose(w, opt);
    }
}

// Heat churn: a per-seed hot window is hammered with touches all run
// long, so the managed preset's scanner sees stable heat and its
// migration daemon issues device-originated movs underneath the
// workload's own requests. Migration is placement, not mutation:
// final memory must stay byte-identical to every other preset, the
// daemon must be fully quiesced at the end (run_workload's invariant
// sweep), and across the seed set it must have actually moved pages.
TEST(Differential, HeatChurnDrivesTheManagedDaemon)
{
    const std::uint64_t nseeds = seeds_from_env() / 2 + 1;
    std::uint64_t daemon_movs = 0, heat_scans = 0;
    for (std::uint64_t seed = 1; seed <= nseeds; ++seed) {
        const Workload w = generate_workload(
            seed, /*invalidation_storm=*/false, /*heat_churn=*/true);
        std::uint64_t mem_digest = 0;
        const char *digest_from = nullptr;
        for (const Preset &p : presets()) {
            RunOptions opt;
            opt.config = p.config;
            opt.schedule_seed = seed * 13 + 5;
            const RunResult r = run_workload(w, opt);
            ASSERT_TRUE(r.ok)
                << "preset " << p.name << " (heat churn): " << r.failure
                << "\n"
                << diagnose(w, opt);
            if (!digest_from) {
                mem_digest = r.mem_digest;
                digest_from = p.name;
            } else {
                ASSERT_EQ(r.mem_digest, mem_digest)
                    << "churn seed " << seed << ": preset " << p.name
                    << " memory diverges from preset " << digest_from;
            }
            if (opt.config.auto_migrate) {
                heat_scans += r.stats.heat_scans;
                daemon_movs += r.stats.promotions_issued +
                               r.stats.demotions_issued;
            } else {
                EXPECT_EQ(r.stats.heat_scans, 0u)
                    << "preset " << p.name
                    << " ran the heat scanner with auto_migrate off";
            }
        }
    }
    EXPECT_GT(heat_scans, 0u)
        << "managed preset never ran a heat-scan epoch";
    EXPECT_GT(daemon_movs, 0u)
        << "managed preset's daemon never issued a migration";
}

}  // namespace
}  // namespace memif::check
