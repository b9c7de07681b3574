/**
 * @file
 * Tests of the user library itself: request lifecycle, the submit
 * protocol's syscall economy, retrieval ordering, stats, and multiple
 * MemifUser handles (threads) on one instance.
 */
#include "memif/user_api.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "memif/device.h"
#include "memif_fixture.h"

namespace memif::core {
namespace {

using Fixture = test::MemifFixture;

TEST(UserApi, AllocGivesDistinctOwnedRequests)
{
    Fixture f;
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 32; ++i) {
        const std::uint32_t idx = f.user.alloc_request();
        ASSERT_NE(idx, kNoRequest);
        EXPECT_TRUE(seen.insert(idx).second);
        EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kOwned);
    }
    for (const std::uint32_t idx : seen) f.user.free_request(idx);
}

TEST(UserApi, AllocFreeCyclesBeyondCapacity)
{
    Fixture f(MemifConfig{.capacity = 8});
    for (int round = 0; round < 100; ++round) {
        const std::uint32_t idx = f.user.alloc_request();
        ASSERT_NE(idx, kNoRequest);
        f.user.free_request(idx);
    }
}

TEST(UserApiDeath, DoubleFreePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Fixture f;
    const std::uint32_t idx = f.user.alloc_request();
    f.user.free_request(idx);
    EXPECT_DEATH(f.user.free_request(idx), "double free_request");
}

TEST(ConfigDeath, PrefetchAheadWithoutSvaPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MemifConfig cfg;
    cfg.xlate_prefetch_ahead = true;
    EXPECT_DEATH({ Fixture f(cfg); },
                 "xlate_prefetch_ahead requires sva_dma");
}

TEST(ConfigDeath, PipelinedEvictionWithoutTieredMemoryPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MemifConfig cfg;
    cfg.pipelined_eviction = true;
    EXPECT_DEATH({ Fixture f(cfg); },
                 "pipelined_eviction requires tiered_memory");
}

TEST(UserApi, RetrieveOnIdleInstanceReturnsNothing)
{
    Fixture f;
    EXPECT_EQ(f.user.retrieve_completed(), kNoRequest);
}

TEST(UserApi, SuccessfulCompletionsDrainBeforeFailures)
{
    Fixture f;
    const vm::VAddr good = f.proc.mmap(4 * 4096, vm::PageSize::k4K);

    // One failing request (unmapped source) and one succeeding one.
    const std::uint32_t bad = f.user.alloc_request();
    MovReq &breq = f.user.request(bad);
    breq.op = MovOp::kMigrate;
    breq.src_base = 0xDEAD0000;
    breq.num_pages = 1;
    breq.dst_node = f.kernel.fast_node();
    f.kernel.spawn(f.user.submit(bad));

    const std::uint32_t ok = f.user.alloc_request();
    MovReq &oreq = f.user.request(ok);
    oreq.op = MovOp::kMigrate;
    oreq.src_base = good;
    oreq.num_pages = 4;
    oreq.dst_node = f.kernel.fast_node();
    f.kernel.spawn(f.user.submit(ok));

    f.kernel.run();
    const std::uint32_t first = f.user.retrieve_completed();
    const std::uint32_t second = f.user.retrieve_completed();
    EXPECT_EQ(first, ok);
    EXPECT_EQ(second, bad);
    EXPECT_EQ(f.user.request(second).load_status(), MovStatus::kFailed);
}

TEST(UserApi, KicksStayRareUnderBurstyTraffic)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(256 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(16 * 4096, vm::PageSize::k4K, f.kernel.fast_node());

    auto burst = [&](int n) -> sim::Task {
        for (int i = 0; i < n; ++i) {
            const std::uint32_t idx = f.user.alloc_request();
            MovReq &req = f.user.request(idx);
            req.op = MovOp::kReplicate;
            req.src_base = src + static_cast<vm::VAddr>(i % 16) * 16 * 4096;
            req.dst_base = dst;
            req.num_pages = 16;
            co_await f.user.submit(idx);
        }
    };
    for (int b = 0; b < 5; ++b) {
        auto t = burst(10);
        f.kernel.run();
        while (f.user.retrieve_completed() != kNoRequest) {}
    }
    // 50 submissions; at most one kick per burst (idle period).
    EXPECT_EQ(f.user.stats().submits, 50u);
    EXPECT_LE(f.user.stats().kicks, 5u);
    EXPECT_GE(f.user.stats().kicks, 1u);
}

TEST(UserApi, TwoHandlesShareOneInstanceSafely)
{
    // Two MemifUser objects (two app threads) against one device: all
    // requests complete, the free list never double-allocates.
    Fixture f;
    MemifUser other(f.dev);
    const vm::VAddr src = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(64 * 4096, vm::PageSize::k4K, f.kernel.fast_node());

    auto worker = [&](MemifUser &u, unsigned id) -> sim::Task {
        for (int i = 0; i < 8; ++i) {
            const std::uint32_t idx = u.alloc_request();
            EXPECT_NE(idx, kNoRequest);
            MovReq &req = u.request(idx);
            req.op = MovOp::kReplicate;
            req.src_base = src + (id * 8 + static_cast<unsigned>(i) % 8) *
                                     4 * 4096ull;
            req.dst_base = dst + id * 32 * 4096ull;
            req.num_pages = 4;
            req.user_tag = id;
            co_await u.submit(idx);
            co_await sim::Delay{f.kernel.eq(), sim::microseconds(3)};
        }
    };
    auto a = worker(f.user, 0);
    auto b = worker(other, 1);
    f.kernel.run();

    unsigned completed = 0;
    for (;;) {
        std::uint32_t idx = f.user.retrieve_completed();
        if (idx == kNoRequest) idx = other.retrieve_completed();
        if (idx == kNoRequest) break;
        EXPECT_TRUE(f.user.request(idx).succeeded());
        f.user.free_request(idx);
        ++completed;
    }
    EXPECT_EQ(completed, 16u);
    EXPECT_TRUE(f.dev.idle());
}

TEST(UserApi, PollReturnsImmediatelyWhenCompletionPending)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(4 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(4 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    const std::uint32_t idx = f.user.alloc_request();
    MovReq &req = f.user.request(idx);
    req.op = MovOp::kReplicate;
    req.src_base = src;
    req.dst_base = dst;
    req.num_pages = 4;
    f.kernel.spawn(f.user.submit(idx));
    f.kernel.run();  // completes; event stays set

    bool woke = false;
    auto waiter = [&]() -> sim::Task {
        co_await f.user.poll();
        woke = true;
    };
    auto t = waiter();
    f.kernel.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(f.user.retrieve_completed(), idx);
}

TEST(UserApi, AllRejectedBatchChargesNoContention)
{
    // The shared staging queue's tail-CAS contention penalty is paid by
    // a call that deposits something. A batch whose every request is
    // refused at admission never reaches the queue: no penalty, no
    // retry counted, no kick.
    MemifConfig cfg;
    cfg.multi_tenant = true;
    cfg.tenant_inflight_quota = 1;
    Fixture f(cfg);
    MemifUser other(f.dev, /*cpu_id=*/1);
    const vm::VAddr src = f.proc.mmap(12 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(12 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    auto prepare = [&](MemifUser &u, std::uint32_t i) {
        const std::uint32_t idx = u.alloc_request();
        MovReq &req = u.request(idx);
        req.op = MovOp::kReplicate;
        req.src_base = src + i * 4 * 4096ull;
        req.dst_base = dst + i * 4 * 4096ull;
        req.num_pages = 4;
        return idx;
    };

    // CPU 0 takes the owner's one in-flight slot (tasks start eagerly,
    // so the deposit has happened when spawn returns).
    f.kernel.spawn(f.user.submit(prepare(f.user, 0)));
    ASSERT_EQ(f.dev.tenant_stats(0).outstanding, 1u);

    // CPU 1, inside the contention window: both requests bounce.
    const std::vector<std::uint32_t> idxs = {prepare(other, 1),
                                             prepare(other, 2)};
    const sim::CpuAccounting before = f.kernel.cpu().accounting();
    const std::uint64_t retries = f.dev.stats().shared_submit_retries;
    bool kicked = true;
    f.kernel.spawn(other.submit_many(idxs, &kicked));
    const sim::CpuAccounting &after = f.kernel.cpu().accounting();

    EXPECT_EQ(other.stats().rejected, 2u);
    EXPECT_EQ(after.context(sim::ExecContext::kUser),
              before.context(sim::ExecContext::kUser));
    EXPECT_EQ(f.dev.stats().shared_submit_retries, retries);
    EXPECT_FALSE(kicked);
    EXPECT_EQ(other.stats().kicks, 0u);
    EXPECT_EQ(other.stats().batch_submits, 1u);

    f.kernel.run();
    for (const std::uint32_t idx : idxs)
        EXPECT_EQ(other.request(idx).error, MovError::kNoSpace);
}

/** What one run of SubmitAndSingletonBatchAgree observed. */
struct SubmitTrace {
    sim::SimTime end = 0;
    sim::Duration user_time = 0;
    std::uint64_t kicks = 0;
    std::uint64_t completions = 0;
    std::uint64_t shared_retries = 0;

    bool operator==(const SubmitTrace &) const = default;
};

/** Two CPUs each submit four replications, one request per call,
 *  through submit() or through a one-element submit_many(). */
SubmitTrace
run_singletons(bool rings, bool batch)
{
    MemifConfig cfg;
    cfg.percpu_rings = rings;
    Fixture f(cfg);
    MemifUser other(f.dev, /*cpu_id=*/1);
    const vm::VAddr src = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(32 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    auto worker = [&](MemifUser &u, std::uint32_t id) -> sim::Task {
        for (std::uint32_t i = 0; i < 4; ++i) {
            const std::uint32_t idx = u.alloc_request();
            MovReq &req = u.request(idx);
            req.op = MovOp::kReplicate;
            req.src_base = src + (id * 4 + i) * 4 * 4096ull;
            req.dst_base = dst + (id * 4 + i) * 4 * 4096ull;
            req.num_pages = 4;
            const std::vector<std::uint32_t> one = {idx};
            if (batch)
                co_await u.submit_many(one);
            else
                co_await u.submit(idx);
            co_await sim::Delay{f.kernel.eq(), sim::nanoseconds(150)};
        }
    };
    auto a = worker(f.user, 0);
    auto b = worker(other, 1);
    f.kernel.run();
    SubmitTrace t;
    t.end = f.kernel.eq().now();
    t.user_time =
        f.kernel.cpu().accounting().context(sim::ExecContext::kUser);
    t.kicks = f.user.stats().kicks + other.stats().kicks;
    t.shared_retries = f.dev.stats().shared_submit_retries;
    while (f.user.retrieve_completed() != kNoRequest) ++t.completions;
    EXPECT_EQ(t.completions, 8u);
    return t;
}

TEST(UserApi, SubmitAndSingletonBatchAgree)
{
    for (const bool rings : {false, true}) {
        const SubmitTrace one = run_singletons(rings, /*batch=*/false);
        const SubmitTrace many = run_singletons(rings, /*batch=*/true);
        EXPECT_EQ(one, many) << (rings ? "rings" : "shared");
        if (!rings) {
            EXPECT_GT(one.shared_retries, 0u);
        }
    }
}

}  // namespace
}  // namespace memif::core
