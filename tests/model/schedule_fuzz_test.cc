/**
 * @file
 * The schedule fuzzer: seeded tie-break randomization of same-timestamp
 * event dispatch in sim::EventQueue.
 *
 * Three layers of coverage:
 *  - the EventQueue contract itself (FIFO by default, seeded
 *    permutations deterministic, cross-timestamp order untouchable);
 *  - a deliberately buggy decide-then-suspend completion protocol that
 *    is invisible under FIFO dispatch but caught by the fuzzer, with a
 *    deterministic repro from the printed seed — the canonical
 *    interleaving-bug shape (PR 2's watchdog-vs-reap race);
 *  - driver-level fuzzing: racing young-bit CAS touches against a
 *    migration served from a warm scaled() xlate cache, under both
 *    kDetect and kPrevent, with pinned regression seed pairs.
 */
#include <gtest/gtest.h>

#include <vector>

#include "check/differential.h"
#include "check/workload.h"
#include "sim/event_queue.h"

namespace memif::check {
namespace {

using core::MemifConfig;
using core::MovOp;
using core::RacePolicy;

std::vector<int>
dispatch_order(std::uint64_t fuzz_seed, int n)
{
    sim::EventQueue eq;
    if (fuzz_seed != 0) eq.set_tie_break_seed(fuzz_seed);
    std::vector<int> order;
    for (int i = 0; i < n; ++i)
        eq.schedule_at(100, [&order, i] { order.push_back(i); });
    eq.run();
    return order;
}

TEST(ScheduleFuzzer, DefaultDispatchIsFifo)
{
    const std::vector<int> order = dispatch_order(0, 8);
    for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ScheduleFuzzer, SeededOrdersAreDeterministic)
{
    for (std::uint64_t seed : {1ull, 2ull, 99ull})
        EXPECT_EQ(dispatch_order(seed, 8), dispatch_order(seed, 8));
}

TEST(ScheduleFuzzer, SomeSeedPermutesSameTimestampEvents)
{
    const std::vector<int> fifo = dispatch_order(0, 8);
    bool permuted = false;
    for (std::uint64_t seed = 1; seed <= 16 && !permuted; ++seed)
        permuted = dispatch_order(seed, 8) != fifo;
    EXPECT_TRUE(permuted)
        << "16 seeds never changed an 8-event tie-break order";
}

TEST(ScheduleFuzzer, NeverReordersAcrossTimestamps)
{
    sim::EventQueue eq;
    eq.set_tie_break_seed(77);
    std::vector<int> order;
    for (int i = 4; i >= 0; --i)
        eq.schedule_at(10 * (i + 1), [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

TEST(ScheduleFuzzer, CancelWorksUnderFuzzing)
{
    sim::EventQueue eq;
    eq.set_tie_break_seed(5);
    int ran = 0;
    eq.schedule_at(50, [&] { ++ran; });
    const auto victim = eq.schedule_at(50, [&] { ran += 100; });
    eq.schedule_at(50, [&] { ++ran; });
    EXPECT_TRUE(eq.cancel(victim));
    eq.run();
    EXPECT_EQ(ran, 2);
}

TEST(ScheduleFuzzer, ClearTieBreakRestoresFifo)
{
    sim::EventQueue eq;
    eq.set_tie_break_seed(3);
    EXPECT_TRUE(eq.tie_break_fuzzed());
    eq.clear_tie_break();
    EXPECT_FALSE(eq.tie_break_fuzzed());
    std::vector<int> order;
    for (int i = 0; i < 6; ++i)
        eq.schedule_at(1, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
}

// ---------------------------------------------------------------------
// The injected ordering bug. A completion event and a watchdog fire at
// the same virtual instant. The correct protocol claims the resolution
// synchronously before suspending; the buggy one decides, suspends (an
// event at the same timestamp), and acts on the stale decision. Under
// FIFO dispatch the completion always runs first and the bug never
// fires; the fuzzer finds the interleaving, and the failing seed
// replays the violation deterministically.
// ---------------------------------------------------------------------

struct ProtocolResult {
    int completions = 0;
    int timeouts = 0;

    bool violated() const { return completions + timeouts != 1; }
};

ProtocolResult
run_protocol(std::uint64_t fuzz_seed, bool buggy)
{
    sim::EventQueue eq;
    if (fuzz_seed != 0) eq.set_tie_break_seed(fuzz_seed);
    ProtocolResult r;
    bool resolved = false;
    // The completion interrupt.
    eq.schedule_at(100, [&] {
        if (resolved) return;
        resolved = true;
        ++r.completions;
    });
    // The watchdog, racing it at the same instant.
    eq.schedule_at(100, [&, buggy] {
        if (resolved) return;
        if (buggy) {
            // BUG: suspension point between the check and the claim.
            eq.schedule_at(100, [&] {
                resolved = true;
                ++r.timeouts;
            });
        } else {
            resolved = true;  // claim before suspending
            eq.schedule_at(100, [&] { ++r.timeouts; });
        }
    });
    eq.run();
    return r;
}

TEST(ScheduleFuzzer, BuggyProtocolSurvivesFifo)
{
    const ProtocolResult r = run_protocol(0, /*buggy=*/true);
    EXPECT_FALSE(r.violated())
        << "FIFO dispatch was supposed to mask this bug";
    EXPECT_EQ(r.completions, 1);
}

TEST(ScheduleFuzzer, FuzzerCatchesTheBuggyProtocolDeterministically)
{
    // Sweep seeds until the double-resolution shows up.
    std::uint64_t failing_seed = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        if (run_protocol(seed, /*buggy=*/true).violated()) {
            failing_seed = seed;
            break;
        }
    }
    ASSERT_NE(failing_seed, 0u)
        << "64 fuzzed schedules never exposed the decide-then-suspend "
           "bug";
    // The printed seed IS the repro: the violation replays exactly.
    for (int replay = 0; replay < 3; ++replay) {
        const ProtocolResult r = run_protocol(failing_seed, true);
        EXPECT_TRUE(r.violated()) << "schedule_seed=" << failing_seed
                                  << " stopped reproducing";
        EXPECT_EQ(r.completions + r.timeouts, 2);
    }
}

TEST(ScheduleFuzzer, CorrectProtocolSurvivesEverySchedule)
{
    for (std::uint64_t seed = 0; seed <= 64; ++seed) {
        const ProtocolResult r = run_protocol(seed, /*buggy=*/false);
        EXPECT_FALSE(r.violated()) << "schedule_seed=" << seed;
    }
}

// ---------------------------------------------------------------------
// Driver-level fuzzing: young-bit CAS races against a migration whose
// translations came from a warm xlate cache (the scaled() preset's
// submission fast path), under both race policies.
// ---------------------------------------------------------------------

Workload
young_cas_race_workload()
{
    Workload w;
    w.seed = 806;  // label only; the workload is handcrafted
    w.regions = {RegionSpec{16, vm::PageSize::k4K, 42}};

    // Phase 1: migrate pages [0, 8) to the fast node. Completion
    // write-through records the final translations in the xlate cache.
    WorkloadOp warm;
    warm.kind = OpKind::kMov;
    warm.movs = {
        MovSpec{MovOp::kMigrate, 0, 0, 8, 0, 0, true, false,
                Malform::kNone}};
    w.ops.push_back(warm);
    w.ops.push_back(WorkloadOp{});  // barrier

    // Phase 2: migrate the same range back — served from the cache —
    // while CPU touches hammer the young bits of the moving pages.
    WorkloadOp hit;
    hit.kind = OpKind::kMov;
    hit.movs = {
        MovSpec{MovOp::kMigrate, 0, 0, 8, 0, 0, false, false,
                Malform::kNone}};
    w.ops.push_back(hit);
    std::uint32_t delay_us = 10;
    for (std::uint32_t page : {1u, 3u, 5u, 7u}) {
        WorkloadOp t;
        t.kind = OpKind::kTouch;
        t.touch = TouchSpec{0, page, true};
        t.cpu = page % kWorkloadCpus;
        // Staggered past the submission fast path: the prep must read
        // the cache first (otherwise the touches would invalidate the
        // entry before it is ever hit), and the touches then land while
        // the migration is in flight — racing the release-side CAS.
        t.delay_us = delay_us;
        delay_us += 2;
        w.ops.push_back(t);
    }
    w.ops.push_back(WorkloadOp{});  // barrier
    return w;
}

TEST(ScheduleFuzzer, YoungBitCasRaceOnXlateHitStaysConsistent)
{
    const Workload w = young_cas_race_workload();
    // Pinned regression seeds: 0 is FIFO; the rest were chosen to vary
    // the touch-vs-release interleaving and are replayed verbatim on
    // every run of this test.
    const std::uint64_t pinned[] = {0, 13, 29, 57, 101, 806};
    for (const RacePolicy policy :
         {RacePolicy::kDetect, RacePolicy::kPrevent, RacePolicy::kRecover}) {
        for (const std::uint64_t sched : pinned) {
            RunOptions opt;
            opt.config = MemifConfig::scaled();
            opt.config.race_policy = policy;
            opt.schedule_seed = sched;
            const RunResult r = run_workload(w, opt);
            ASSERT_TRUE(r.ok)
                << "policy " << static_cast<int>(policy) << " "
                << seed_pair(w, opt) << ": " << r.failure;
            // The second migration's prep must actually have hit the
            // cache — otherwise this test is not exercising the path
            // it pins down.
            EXPECT_GT(r.stats.xlate_hits, 0u)
                << "policy " << static_cast<int>(policy) << " "
                << seed_pair(w, opt);
        }
    }
}

TEST(ScheduleFuzzer, YoungBitCasRaceReplaysBitIdentically)
{
    const Workload w = young_cas_race_workload();
    RunOptions opt;
    opt.config = MemifConfig::scaled();
    opt.schedule_seed = 57;
    const RunResult a = run_workload(w, opt);
    const RunResult b = run_workload(w, opt);
    EXPECT_EQ(a.full_digest, b.full_digest);
    EXPECT_EQ(a.end_time, b.end_time);
}

// Pinned (workload_seed, schedule_seed) pairs over generated workloads
// under the full-lever preset: regression anchors for interleavings
// the fuzzer has already explored.
TEST(ScheduleFuzzer, PinnedSeedPairRegressions)
{
    const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
        {7, 13}, {101, 997}, {2026, 806}, {4242, 1}, {31337, 65537},
    };
    for (const auto &[wseed, sseed] : pinned) {
        const Workload w = generate_workload(wseed);
        RunOptions opt;
        opt.config = MemifConfig::scaled();
        opt.schedule_seed = sseed;
        const RunResult r = run_workload(w, opt);
        EXPECT_TRUE(r.ok) << seed_pair(w, opt) << ": " << r.failure;
    }
}

}  // namespace
}  // namespace memif::check
