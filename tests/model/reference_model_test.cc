/**
 * @file
 * The model checker's own foundations: workload generation must be
 * deterministic and structurally sound (that is what makes the
 * differential oracle valid), and the reference model must interpret
 * workloads the way the docs claim.
 */
#include <gtest/gtest.h>

#include <vector>

#include "check/reference_model.h"
#include "check/workload.h"

namespace memif::check {
namespace {

using core::MovError;
using core::MovOp;
using core::MovStatus;
using core::RacePolicy;

TEST(ReferenceModel, FillPatternIsPatByteAtEveryOffset)
{
    // The fill copies one 256-byte period; every byte must still be
    // pat_byte, so no digest moves.
    for (const std::uint8_t pattern : {0, 1, 13, 200, 255}) {
        for (const std::size_t bytes : {0, 1, 255, 256, 257, 4096, 5000}) {
            std::vector<std::uint8_t> buf(bytes, 0xAA);
            fill_pattern(pattern, buf);
            for (std::size_t i = 0; i < bytes; ++i)
                ASSERT_EQ(buf[i], pat_byte(pattern, i))
                    << "pattern " << int{pattern} << " offset " << i;
        }
    }
}

TEST(WorkloadGenerator, IsDeterministic)
{
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 0xDEADBEEFull}) {
        const Workload a = generate_workload(seed);
        const Workload b = generate_workload(seed);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_FALSE(a.ops.empty());
    }
}

TEST(WorkloadGenerator, DifferentSeedsDiffer)
{
    EXPECT_NE(generate_workload(1), generate_workload(2));
}

TEST(WorkloadGenerator, EndsQuiesced)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        const Workload w = generate_workload(seed);
        ASSERT_FALSE(w.ops.empty());
        EXPECT_EQ(w.ops.back().kind, OpKind::kBarrier) << "seed " << seed;
    }
}

// The disjointness invariant the whole differential scheme rests on:
// between barriers, no two valid requests may share a page.
TEST(WorkloadGenerator, ConcurrentRequestsHaveDisjointPages)
{
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        const Workload w = generate_workload(seed);
        std::vector<std::vector<bool>> used;
        for (const RegionSpec &r : w.regions)
            used.emplace_back(r.pages, false);
        auto take = [&](std::uint32_t region, std::uint64_t first,
                        std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                ASSERT_LT(first + i, used[region].size())
                    << "seed " << seed << ": page out of range";
                EXPECT_FALSE(used[region][first + i])
                    << "seed " << seed << ": page " << first + i
                    << " of region " << region
                    << " used twice in one phase";
                used[region][first + i] = true;
            }
        };
        for (const WorkloadOp &op : w.ops) {
            if (op.kind == OpKind::kBarrier) {
                for (auto &u : used)
                    std::fill(u.begin(), u.end(), false);
                continue;
            }
            for (const MovSpec &m : op.movs) {
                if (m.malform != Malform::kNone) continue;
                take(m.src_region, m.src_page, m.num_pages);
                if (m.op == MovOp::kReplicate) {
                    const std::uint64_t bytes =
                        m.num_pages *
                        vm::page_bytes(w.regions[m.src_region].psize);
                    const std::uint64_t dst_pb =
                        vm::page_bytes(w.regions[m.dst_region].psize);
                    take(m.dst_region, m.dst_page,
                         (bytes + dst_pb - 1) / dst_pb);
                }
            }
        }
    }
}

Workload
tiny_workload()
{
    Workload w;
    w.seed = 99;
    w.regions = {RegionSpec{8, vm::PageSize::k4K, 10},
                 RegionSpec{8, vm::PageSize::k4K, 200}};
    WorkloadOp rep;
    rep.kind = OpKind::kMov;
    rep.movs = {MovSpec{MovOp::kReplicate, 0, 2, 3, 1, 1, false, false,
                        Malform::kNone}};
    WorkloadOp mig;
    mig.kind = OpKind::kMov;
    mig.movs = {
        MovSpec{MovOp::kMigrate, 0, 6, 2, 0, 0, true, false,
                Malform::kNone}};
    WorkloadOp touch;
    touch.kind = OpKind::kTouch;
    touch.touch = TouchSpec{0, 7, true};
    w.ops = {rep, mig, touch, WorkloadOp{}};
    return w;
}

TEST(ReferenceModel, AppliesCommittedReplications)
{
    const Workload w = tiny_workload();
    ReferenceModel model(w);
    ASSERT_EQ(model.num_movs(), 2u);

    const std::uint64_t pb = vm::page_bytes(vm::PageSize::k4K);
    // Before commit: the destination region holds its own pattern.
    EXPECT_EQ(model.memory(1)[1 * pb], pat_byte(200, 1 * pb));
    model.commit(0, MovStatus::kDone);
    // After: bytes of region 0 pages [2,5) landed at region 1 page 1.
    for (std::uint64_t i = 0; i < 3 * pb; ++i)
        ASSERT_EQ(model.memory(1)[1 * pb + i], pat_byte(10, 2 * pb + i))
            << "offset " << i;
    // Region 0 (the source) is untouched.
    for (std::uint64_t i = 0; i < model.memory(0).size(); ++i)
        ASSERT_EQ(model.memory(0)[i], pat_byte(10, i));
}

TEST(ReferenceModel, FailedReplicationLeavesMemoryAlone)
{
    const Workload w = tiny_workload();
    ReferenceModel model(w);
    model.commit(0, MovStatus::kFailed);
    for (std::uint64_t i = 0; i < model.memory(1).size(); ++i)
        ASSERT_EQ(model.memory(1)[i], pat_byte(200, i));
}

TEST(ReferenceModel, MigrationsNeverChangeMemory)
{
    const Workload w = tiny_workload();
    ReferenceModel model(w);
    model.commit(1, MovStatus::kDone);
    for (std::uint64_t i = 0; i < model.memory(0).size(); ++i)
        ASSERT_EQ(model.memory(0)[i], pat_byte(10, i));
}

TEST(ReferenceModel, OutcomeSetsFollowPolicyAndRaces)
{
    const Workload w = tiny_workload();
    ReferenceModel model(w);
    // Mov 1 is the migration; the touch (region 0 page 7) overlaps its
    // pages [6, 8) in the same phase -> may_race.
    EXPECT_TRUE(model.mov(1).may_race);
    EXPECT_FALSE(model.mov(0).may_race);

    OutcomeContext detect{RacePolicy::kDetect, false, true};
    OutcomeContext recover{RacePolicy::kRecover, false, true};
    std::string why;

    EXPECT_TRUE(model.outcome_allowed(1, MovStatus::kDone,
                                      MovError::kNone, detect, &why));
    EXPECT_TRUE(model.outcome_allowed(1, MovStatus::kRaceDetected,
                                      MovError::kRace, detect, &why));
    // A raced *abort* is the kRecover policy's outcome, not kDetect's.
    EXPECT_FALSE(model.outcome_allowed(1, MovStatus::kAborted,
                                       MovError::kAborted, detect, &why));
    EXPECT_TRUE(model.outcome_allowed(1, MovStatus::kAborted,
                                      MovError::kAborted, recover, &why));
    // Node exhaustion is always acceptable for a migration.
    EXPECT_TRUE(model.outcome_allowed(1, MovStatus::kFailed,
                                      MovError::kNoMemory, detect, &why));
    // DMA errors are only acceptable when faults are armed AND the
    // CPU-copy fallback is off.
    EXPECT_FALSE(model.outcome_allowed(1, MovStatus::kFailed,
                                       MovError::kDmaError, detect,
                                       &why));
    OutcomeContext faulted{RacePolicy::kDetect, true, false};
    EXPECT_TRUE(model.outcome_allowed(1, MovStatus::kFailed,
                                      MovError::kDmaError, faulted,
                                      &why));

    // The replication never races.
    EXPECT_TRUE(model.outcome_allowed(0, MovStatus::kDone,
                                      MovError::kNone, detect, &why));
    EXPECT_FALSE(model.outcome_allowed(0, MovStatus::kRaceDetected,
                                       MovError::kRace, detect, &why));
}

TEST(ReferenceModel, MalformedRequestsRequireTheirValidationError)
{
    Workload w;
    w.seed = 5;
    w.regions = {RegionSpec{4, vm::PageSize::k4K, 1}};
    WorkloadOp bad;
    bad.kind = OpKind::kMov;
    MovSpec m;
    m.malform = Malform::kBadNode;
    bad.movs = {m};
    w.ops = {bad, WorkloadOp{}};

    ReferenceModel model(w);
    OutcomeContext ctx{RacePolicy::kDetect, false, true};
    std::string why;
    EXPECT_TRUE(model.outcome_allowed(0, MovStatus::kFailed,
                                      MovError::kBadNode, ctx, &why));
    EXPECT_FALSE(model.outcome_allowed(0, MovStatus::kDone,
                                       MovError::kNone, ctx, &why));
    EXPECT_FALSE(model.outcome_allowed(0, MovStatus::kFailed,
                                       MovError::kBadAddress, ctx, &why));
}

TEST(Workload, DropOpsPreservesTrailingBarrier)
{
    const Workload w = generate_workload(3);
    const Workload shrunk = drop_ops(w, w.ops.size() - 1, 1);
    ASSERT_FALSE(shrunk.ops.empty());
    EXPECT_EQ(shrunk.ops.back().kind, OpKind::kBarrier);
    const Workload empty = drop_ops(w, 0, w.ops.size());
    ASSERT_EQ(empty.ops.size(), 1u);
    EXPECT_EQ(empty.ops.back().kind, OpKind::kBarrier);
}

}  // namespace
}  // namespace memif::check
