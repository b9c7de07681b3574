/**
 * @file
 * Strided/gather replication tests at the memif device and C-API
 * layers: pitched copies must land exactly the bytes of a per-row
 * oracle (flat-degenerate, padded pitches, rows splitting at page
 * boundaries, mixed 64K/4K page sizes, SVA-routed streams, gathers),
 * the fault ladder must never tear a row (TC-error exhaustion rolls
 * back whole, the CPU fallback preserves the layout, a lost IRQ is
 * absorbed), and the C-API wrappers must surface malformed geometry,
 * lever-off rejection, admission bounces (with a usable retry hint)
 * and bad descriptors exactly like their flat siblings. The device
 * printer is checked here too, on a strided() workload that reaches
 * every layer: it prints each nonzero counter once, with its value.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dma/engine.h"
#include "memif/memif.h"
#include "memif_fixture.h"
#include "sim/random.h"
#include "sim/types.h"

namespace memif::core {
namespace {

MemifConfig
strided_cfg()
{
    // The strided lever alone: sva_dma stays off, so pitch-uniform
    // page-interior rows fold into true 2D (A/B-count) descriptors —
    // the geometry path these tests are aimed at.
    MemifConfig cfg;
    cfg.strided_dma = true;
    return cfg;
}

/** The shared fixture with a far tier, on strided_cfg() by default. */
struct Fixture : test::MemifFixture {
    explicit Fixture(MemifConfig cfg = strided_cfg())
        : MemifFixture(cfg, os::KernelConfig{.far_bytes = 64ull << 20})
    {
    }

    /** Populate and spawn one strided replication via the user lib. */
    std::uint32_t
    submit_strided(vm::VAddr src, vm::VAddr dst, std::uint32_t row_bytes,
                   std::uint32_t rows, std::uint64_t src_pitch,
                   std::uint64_t dst_pitch, std::uint64_t gather_list = 0)
    {
        const std::uint32_t idx = user.alloc_request();
        EXPECT_NE(idx, kNoRequest);
        MovReq &req = user.request(idx);
        req.op = MovOp::kReplicate;
        req.src_base = src;
        req.dst_base = dst;
        req.num_pages = 0;
        req.rows = rows;
        req.row_bytes = row_bytes;
        req.src_pitch = src_pitch;
        req.dst_pitch = dst_pitch;
        req.gather_list = gather_list;
        kernel.spawn(user.submit(idx));
        return idx;
    }
};

/** What dst must hold after the move: the naive per-row memcpy. */
std::vector<std::uint8_t>
oracle(Fixture &f, vm::VAddr src, vm::VAddr dst, std::uint32_t row_bytes,
       std::uint32_t rows, std::uint64_t sp, std::uint64_t dp)
{
    const std::uint64_t dspan = (std::uint64_t{rows} - 1) * dp + row_bytes;
    const std::uint64_t sspan = (std::uint64_t{rows} - 1) * sp + row_bytes;
    std::vector<std::uint8_t> want = f.read(dst, dspan);
    const std::vector<std::uint8_t> have = f.read(src, sspan);
    for (std::uint32_t r = 0; r < rows; ++r)
        std::memcpy(want.data() + r * dp, have.data() + r * sp, row_bytes);
    return want;
}

constexpr std::uint64_t kPb = 4096;

TEST(Strided, FlatPitchDegeneratesAndMatchesOracle)
{
    Fixture f;
    const vm::VAddr src = f.region(4 * kPb, 7);
    const vm::VAddr dst = f.region(4 * kPb, 201, f.kernel.fast_node());

    // pitch == row_bytes on both sides: a flat copy in 2D clothing.
    const auto want = oracle(f, src, dst, 512, 8, 512, 512);
    const std::uint32_t idx = f.submit_strided(src, dst, 512, 8, 512, 512);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.read(dst, want.size()), want);
    EXPECT_EQ(f.dev.stats().strided_requests, 1u);
    EXPECT_EQ(f.dev.stats().strided_rows_moved, 8u);
    // Bytes outside the written span survive untouched.
    const auto tail = f.read(dst + want.size(), kPb);
    for (std::uint64_t i = 0; i < tail.size(); ++i)
        ASSERT_EQ(tail[i], check::pat_byte(201, want.size() + i));
}

TEST(Strided, PitchedCopyMatchesPerRowOracle)
{
    // Randomized geometries, pinned seeds; every shape replays.
    for (const std::uint64_t seed : {3ull, 17ull, 400ull}) {
        Fixture f;
        sim::Rng rng(seed);
        const std::uint64_t bytes = 64 * kPb;
        const vm::VAddr src =
            f.region(bytes, static_cast<std::uint8_t>(seed));
        const vm::VAddr dst =
            f.region(bytes, static_cast<std::uint8_t>(seed + 101),
                     f.kernel.fast_node());

        for (unsigned round = 0; round < 12; ++round) {
            const std::uint32_t rows =
                2 + static_cast<std::uint32_t>(rng.next_below(14));
            const std::uint32_t rb =
                16 + static_cast<std::uint32_t>(rng.next_below(2000));
            const std::uint64_t sp = rb + 8 * rng.next_below(256);
            const std::uint64_t dp = rb + 8 * rng.next_below(256);
            const std::uint64_t sspan = (std::uint64_t{rows} - 1) * sp + rb;
            const std::uint64_t dspan = (std::uint64_t{rows} - 1) * dp + rb;
            if (sspan > bytes || dspan > bytes) continue;
            const std::uint64_t soff = rng.next_below(bytes - sspan + 1);
            const std::uint64_t doff = rng.next_below(bytes - dspan + 1);

            const auto want =
                oracle(f, src + soff, dst + doff, rb, rows, sp, dp);
            const std::uint32_t idx =
                f.submit_strided(src + soff, dst + doff, rb, rows, sp, dp);
            f.kernel.run();
            ASSERT_EQ(f.user.request(idx).load_status(), MovStatus::kDone)
                << "seed " << seed << " round " << round;
            ASSERT_EQ(f.read(dst + doff, want.size()), want)
                << "seed " << seed << " round " << round << ": rows "
                << rows << " rb " << rb << " sp " << sp << " dp " << dp;
        }
        EXPECT_GT(f.dev.stats().strided_requests, 0u);
        EXPECT_GT(f.dev.stats().strided_descriptors, 0u);
    }
}

TEST(Strided, RowsSplitAtPageBoundariesAndAcrossPageSizes)
{
    Fixture f;
    // Source on 64K pages, destination on 4K: destination rows tile
    // straight across 4 KB frame boundaries, so nearly every row
    // splits on the dst side while the src side stays page-interior.
    const vm::VAddr src =
        f.region(4ull << 16, 33, f.kernel.slow_node(), vm::PageSize::k64K);
    const vm::VAddr dst = f.region(16 * kPb, 90, f.kernel.fast_node());

    const std::uint32_t rows = 12, rb = 3000;
    const auto want = oracle(f, src, dst, rb, rows, 5000, rb);
    const std::uint32_t idx = f.submit_strided(src, dst, rb, rows, 5000, rb);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.read(dst, want.size()), want);
    EXPECT_GT(f.dev.stats().strided_row_splits, 0u);
}

TEST(Strided, SvaStreamDeliversSameBytes)
{
    // The same geometry through the non-SVA (2D descriptors) and SVA
    // (per-row translation slots) routes must land identical bytes.
    const std::uint32_t rows = 9, rb = 700;
    const std::uint64_t sp = 1100, dp = 800;
    std::vector<std::uint8_t> got[2];
    for (int leg = 0; leg < 2; ++leg) {
        MemifConfig cfg = strided_cfg();
        cfg.sva_dma = leg == 1;
        Fixture f(cfg);
        const vm::VAddr src = f.region(8 * kPb, 55);
        const vm::VAddr dst = f.region(8 * kPb, 120, f.kernel.fast_node());

        const auto want = oracle(f, src, dst, rb, rows, sp, dp);
        const std::uint32_t idx = f.submit_strided(src, dst, rb, rows, sp, dp);
        f.kernel.run();
        EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
        got[leg] = f.read(dst, want.size());
        EXPECT_EQ(got[leg], want) << "leg " << leg;
        if (leg == 0) {
            EXPECT_GT(f.dev.stats().strided_descriptors, 0u);
        } else {
            // SVA streams keep per-row 1:1 slots; no 2D folding.
            EXPECT_EQ(f.dev.stats().strided_descriptors, 0u);
        }
    }
    EXPECT_EQ(got[0], got[1]);
}

TEST(StridedFaults, TcErrorExhaustsRetriesWithoutTearingRows)
{
    MemifConfig cfg = strided_cfg();
    cfg.cpu_copy_fallback = false;  // let the DMA error reach the app
    Fixture f(cfg);
    const vm::VAddr src = f.region(8 * kPb, 11);
    const vm::VAddr dst = f.region(8 * kPb, 222, f.kernel.fast_node());

    // First chain and all dma_max_retries retries fail.
    f.faults().arm_nth(dma::kFaultTcError, 1, 1 + cfg.dma_max_retries);
    const std::uint32_t idx = f.submit_strided(src, dst, 900, 10, 1300, 1000);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx).error, MovError::kDmaError);
    // No torn rows: the whole destination window still reads its old
    // pattern — a failed pitched move lands nothing, not half a row.
    const auto after = f.read(dst, 8 * kPb);
    for (std::uint64_t i = 0; i < after.size(); ++i)
        ASSERT_EQ(after[i], check::pat_byte(222, i))
            << "byte " << i;
}

TEST(StridedFaults, CpuFallbackPreservesLayout)
{
    Fixture f;  // default strided cfg: cpu_copy_fallback on
    const vm::VAddr src = f.region(8 * kPb, 14);
    const vm::VAddr dst = f.region(8 * kPb, 77, f.kernel.fast_node());

    f.faults().arm_nth(dma::kFaultTcError, 1, 4);
    const auto want = oracle(f, src, dst, 900, 10, 1300, 1000);
    const std::uint32_t idx = f.submit_strided(src, dst, 900, 10, 1300, 1000);
    f.kernel.run();

    // The fallback replays the exact row geometry: the app sees the
    // same bytes a healthy DMA would have delivered.
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.read(dst, want.size()), want);
    EXPECT_GT(f.dev.stats().fallback_copies, 0u);
}

TEST(StridedFaults, LostIrqRecovers)
{
    Fixture f;
    const vm::VAddr src = f.region(8 * kPb, 19);
    const vm::VAddr dst = f.region(8 * kPb, 60, f.kernel.fast_node());

    f.faults().arm_nth(dma::kFaultLostIrq, 1);
    const auto want = oracle(f, src, dst, 512, 6, 2048, 640);
    const std::uint32_t idx = f.submit_strided(src, dst, 512, 6, 2048, 640);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.read(dst, want.size()), want);
}

// --------------------------------------------------------------------
// C-API wrappers (memif_mov_strided / memif_mov_gather).
// --------------------------------------------------------------------

/** Registers the fixture's device as /dev/memif0 for the C API. */
struct DevFile {
    explicit DevFile(MemifDevice &dev)
    {
        RegisterDeviceFile("/dev/memif0", dev);
    }
    ~DevFile() { ResetDeviceFiles(); }
};

TEST(StridedCApi, GatherRowsFromScatteredSources)
{
    Fixture f;
    DevFile df(f.dev);
    const vm::VAddr src = f.region(16 * kPb, 41);
    const vm::VAddr dst = f.region(8 * kPb, 9, f.kernel.fast_node());
    const vm::VAddr list = f.proc.mmap(kPb, vm::PageSize::k4K);

    // Rows gathered in reverse page order, one per source page.
    const std::uint32_t rows = 8, rb = 256;
    const std::uint64_t dp = 320;
    std::vector<std::uint64_t> addrs(rows);
    for (std::uint32_t r = 0; r < rows; ++r)
        addrs[r] = src + (rows - 1 - r) * 2 * kPb + 128;
    ASSERT_TRUE(f.proc.as().write(list, addrs.data(), rows * 8));

    std::vector<std::uint8_t> want = f.read(dst, (rows - 1) * dp + rb);
    for (std::uint32_t r = 0; r < rows; ++r) {
        const auto row = f.read(addrs[r], rb);
        std::memcpy(want.data() + r * dp, row.data(), rb);
    }

    auto app = [&]() -> sim::Task {
        const int fd = MemifOpen("/dev/memif0");
        EXPECT_GE(fd, 0);
        int rc = -1;
        mov_req *req = nullptr;
        co_await memif_mov_gather(fd, dst, src, list, rb, rows, dp, &rc,
                                  &req);
        EXPECT_EQ(rc, kOk);
        EXPECT_NE(req, nullptr);
        if (!req) co_return;
        mov_req *done = nullptr;
        while (!(done = RetrieveCompleted(fd))) co_await Poll(fd);
        EXPECT_EQ(done, req);
        EXPECT_TRUE(done->succeeded());
        FreeRequest(fd, done);
        EXPECT_EQ(MemifClose(fd), kOk);
    };
    auto task = app();
    f.kernel.run();
    ASSERT_TRUE(task.done());
    task.rethrow_if_failed();

    EXPECT_EQ(f.read(dst, want.size()), want);
    EXPECT_EQ(f.dev.stats().gather_requests, 1u);
    EXPECT_EQ(f.dev.stats().strided_rows_moved, rows);
}

TEST(StridedCApi, GatherRowOutsideVmaFailsBadAddress)
{
    Fixture f;
    DevFile df(f.dev);
    const vm::VAddr src = f.region(4 * kPb, 1);
    const vm::VAddr dst = f.region(4 * kPb, 2, f.kernel.fast_node());
    const vm::VAddr list = f.proc.mmap(kPb, vm::PageSize::k4K);

    // Second row address points past the end of the source vma.
    std::vector<std::uint64_t> addrs{src, src + 4 * kPb - 16};
    ASSERT_TRUE(f.proc.as().write(list, addrs.data(), addrs.size() * 8));
    const auto before = f.read(dst, 4 * kPb);

    auto app = [&]() -> sim::Task {
        const int fd = MemifOpen("/dev/memif0");
        EXPECT_GE(fd, 0);
        int rc = -1;
        mov_req *req = nullptr;
        co_await memif_mov_gather(fd, dst, src, list, 64, 2, 64, &rc,
                                  &req);
        EXPECT_EQ(rc, kOk);
        mov_req *done = nullptr;
        while (!(done = RetrieveCompleted(fd))) co_await Poll(fd);
        EXPECT_EQ(done->load_status(), MovStatus::kFailed);
        EXPECT_EQ(done->error, MovError::kBadAddress);
        FreeRequest(fd, done);
        EXPECT_EQ(MemifClose(fd), kOk);
    };
    auto task = app();
    f.kernel.run();
    ASSERT_TRUE(task.done());
    task.rethrow_if_failed();

    // The failed gather moved nothing.
    EXPECT_EQ(f.read(dst, 4 * kPb), before);
}

TEST(StridedCApi, MalformedGeometryFailsOnCompletionQueue)
{
    Fixture f;
    DevFile df(f.dev);
    const vm::VAddr src = f.region(8 * kPb, 5);
    const vm::VAddr dst = f.region(8 * kPb, 6, f.kernel.fast_node());

    struct Case {
        std::uint64_t d, s;
        std::uint32_t rb, rows;
        std::uint64_t sp, dp;
        MovError want;
    };
    const Case cases[] = {
        // Zero row_bytes.
        {dst, src, 0, 4, 64, 64, MovError::kBadRequest},
        // dst_pitch under row_bytes (rows would overlap).
        {dst, src, 128, 4, 128, 64, MovError::kBadRequest},
        // rows beyond the PaRAM.
        {dst, src, 64, dma::DescriptorRam::kEntries + 1, 64, 64,
         MovError::kBadRequest},
        // Overlapping src/dst envelopes in one vma.
        {src + 256, src, 512, 4, 512, 512, MovError::kBadRequest},
        // Source extent runs off the vma.
        {dst, src + 8 * kPb - 64, 128, 4, 4096, 128,
         MovError::kBadAddress},
    };
    auto app = [&]() -> sim::Task {
        const int fd = MemifOpen("/dev/memif0");
        EXPECT_GE(fd, 0);
        for (const Case &c : cases) {
            int rc = -1;
            mov_req *req = nullptr;
            co_await memif_mov_strided(fd, c.d, c.s, c.rb, c.rows, c.sp,
                                       c.dp, &rc, &req);
            EXPECT_EQ(rc, kOk);
            EXPECT_NE(req, nullptr);
            if (!req) co_return;
            mov_req *done = nullptr;
            while (!(done = RetrieveCompleted(fd))) co_await Poll(fd);
            EXPECT_EQ(done, req);
            EXPECT_EQ(done->load_status(), MovStatus::kFailed);
            EXPECT_EQ(done->error, c.want);
            FreeRequest(fd, done);
        }
        EXPECT_EQ(MemifClose(fd), kOk);
    };
    auto task = app();
    f.kernel.run();
    ASSERT_TRUE(task.done());
    task.rethrow_if_failed();
}

TEST(StridedCApi, FlatRequestOnARecycledStridedSlotIsServedFlat)
{
    // One request slot: the flat request is allocated on the very slot
    // the strided move used, and AllocRequest must hand it out blank.
    MemifConfig cfg = strided_cfg();
    cfg.capacity = 1;
    Fixture f(cfg);
    DevFile df(f.dev);
    const vm::VAddr src = f.region(8 * kPb, 5);
    const vm::VAddr dst = f.region(8 * kPb, 6, f.kernel.fast_node());

    auto app = [&]() -> sim::Task {
        const int fd = MemifOpen("/dev/memif0");
        EXPECT_GE(fd, 0);
        int rc = -1;
        mov_req *strided = nullptr;
        co_await memif_mov_strided(fd, dst, src, 512, 4, kPb, 1024, &rc,
                                   &strided);
        EXPECT_EQ(rc, kOk);
        mov_req *done = nullptr;
        while (!(done = RetrieveCompleted(fd))) co_await Poll(fd);
        EXPECT_EQ(done, strided);
        EXPECT_EQ(done->load_status(), MovStatus::kDone);
        FreeRequest(fd, done);

        mov_req *flat = AllocRequest(fd);
        EXPECT_EQ(flat, strided);
        if (!flat) co_return;
        flat->op = MovOp::kReplicate;
        flat->src_base = src + 4 * kPb;
        flat->dst_base = dst + 4 * kPb;
        flat->num_pages = 4;
        co_await SubmitRequest(fd, flat, &rc);
        EXPECT_EQ(rc, kOk);
        while (!(done = RetrieveCompleted(fd))) co_await Poll(fd);
        EXPECT_EQ(done, flat);
        EXPECT_EQ(done->load_status(), MovStatus::kDone);
        EXPECT_EQ(done->error, MovError::kNone);
        FreeRequest(fd, done);
        EXPECT_EQ(MemifClose(fd), kOk);
    };
    auto task = app();
    f.kernel.run();
    ASSERT_TRUE(task.done());
    task.rethrow_if_failed();
    EXPECT_EQ(f.read(dst + 4 * kPb, 4 * kPb), f.read(src + 4 * kPb, 4 * kPb));
    EXPECT_EQ(f.dev.stats().strided_requests, 1u);
}

TEST(StridedCApi, LeverOffRejectsValidGeometry)
{
    Fixture f{MemifConfig{}};  // strided_dma off
    DevFile df(f.dev);
    const vm::VAddr src = f.region(4 * kPb, 3);
    const vm::VAddr dst = f.region(4 * kPb, 4, f.kernel.fast_node());

    auto app = [&]() -> sim::Task {
        const int fd = MemifOpen("/dev/memif0");
        EXPECT_GE(fd, 0);
        int rc = -1;
        mov_req *req = nullptr;
        co_await memif_mov_strided(fd, dst, src, 512, 4, 512, 512, &rc,
                                   &req);
        EXPECT_EQ(rc, kOk);
        mov_req *done = nullptr;
        while (!(done = RetrieveCompleted(fd))) co_await Poll(fd);
        EXPECT_EQ(done->load_status(), MovStatus::kFailed);
        EXPECT_EQ(done->error, MovError::kBadRequest);
        FreeRequest(fd, done);
        EXPECT_EQ(MemifClose(fd), kOk);
    };
    auto task = app();
    f.kernel.run();
    ASSERT_TRUE(task.done());
    task.rethrow_if_failed();
    EXPECT_EQ(f.dev.stats().strided_requests, 0u);
}

TEST(StridedCApi, AdmissionQuotaBouncesWithRetryHint)
{
    MemifConfig cfg = strided_cfg();
    cfg.multi_tenant = true;
    cfg.tenant_inflight_quota = 1;
    Fixture f(cfg);
    DevFile df(f.dev);
    const vm::VAddr src = f.region(128 * kPb, 8);
    const vm::VAddr dst = f.region(128 * kPb, 9, f.kernel.fast_node());

    auto app = [&]() -> sim::Task {
        const int fd = MemifOpen("/dev/memif0");
        EXPECT_GE(fd, 0);
        // A large strided move fills the quota of one...
        int rc1 = -1;
        mov_req *big = nullptr;
        co_await memif_mov_strided(fd, dst, src, 1024, 256, 1024, 1024,
                                   &rc1, &big);
        EXPECT_EQ(rc1, kOk);
        // ... so the second bounces at admission with a retry hint.
        // The bounced request still travels the completion queue (the
        // wrapper must NOT free it on kErrNoSpace).
        int rc2 = -1;
        mov_req *bounced = nullptr;
        co_await memif_mov_strided(fd, dst + 100 * kPb, src + 100 * kPb,
                                   512, 8, 512, 512, &rc2, &bounced);
        EXPECT_EQ(rc2, kErrNoSpace);
        EXPECT_NE(bounced, nullptr);
        if (!bounced) co_return;
        EXPECT_EQ(bounced->load_status(), MovStatus::kFailed);
        EXPECT_EQ(bounced->error, MovError::kNoSpace);
        EXPECT_GT(bounced->retry_after_us, 0u);
        EXPECT_LE(bounced->retry_after_us, 10000u);

        for (int drained = 0; drained < 2;) {
            mov_req *done = RetrieveCompleted(fd);
            if (!done) {
                co_await Poll(fd);
                continue;
            }
            FreeRequest(fd, done);
            ++drained;
        }
        EXPECT_TRUE(big->load_status() == MovStatus::kFree ||
                    big->succeeded());
        EXPECT_EQ(MemifClose(fd), kOk);
    };
    auto task = app();
    f.kernel.run();
    ASSERT_TRUE(task.done());
    task.rethrow_if_failed();

    EXPECT_EQ(f.dev.stats().admission_rejections, 1u);
    EXPECT_EQ(f.dev.stats().quota_hits_inflight, 1u);
    EXPECT_EQ(f.dev.stats().strided_requests, 1u);
}

TEST(StridedCApi, BadFdRejectsWithoutAllocation)
{
    Fixture f;  // no device file registered at all
    auto app = [&]() -> sim::Task {
        int rc = 0;
        mov_req *req = reinterpret_cast<mov_req *>(0x1);
        co_await memif_mov_strided(12345, 0, 0, 64, 2, 64, 64, &rc, &req);
        EXPECT_EQ(rc, kErrBadFd);
        EXPECT_EQ(req, nullptr);
    };
    auto task = app();
    f.kernel.run();
    ASSERT_TRUE(task.done());
    task.rethrow_if_failed();
}

/**
 * Every layer's traffic on one strided() device: a flat migration, a
 * chained demotion to the far tier, a replication and a strided
 * replication, then the 16-page migration a touch races (returned).
 */
std::uint32_t
mixed_workload(Fixture &f)
{
    const mem::NodeId fast = f.kernel.fast_node();
    f.submit(MovOp::kMigrate, f.region(4 * kPb, 1), 4, fast);
    f.submit(MovOp::kMigrate, f.region(8 * kPb, 3, fast), 8,
             f.kernel.far_node());
    f.submit(MovOp::kReplicate, f.region(8 * kPb, 5), 8,
             f.region(8 * kPb, 7, fast));
    f.submit_strided(f.region(4 * kPb, 9), f.region(4 * kPb, 11, fast), 512,
                     8, 1024, 512);
    return f.submit(MovOp::kMigrate, f.region(16 * kPb, 13), 16, fast);
}

TEST(DeviceStats, PrintStatsListsEveryNonzeroCounterOnce)
{
    const sim::SimTime mid =
        test::dma_window<Fixture>(mixed_workload, MemifConfig::strided())
            .mid();
    Fixture f(MemifConfig::strided());
    const std::uint32_t raced = mixed_workload(f);
    os::TouchOutcome touched;
    f.touch_at(mid, f.proc, f.user.request(raced).src_base + 5 * kPb, true,
               &touched);
    f.kernel.run();

    const DeviceStats &s = f.dev.stats();
    EXPECT_EQ(s.migrations, 3u);
    EXPECT_EQ(s.chained_migrations, 1u);
    EXPECT_EQ(s.replications, 2u);
    EXPECT_EQ(s.strided_requests, 1u);
    EXPECT_EQ(s.races_detected, 1u);

    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *out = open_memstream(&buf, &len);
    ASSERT_NE(out, nullptr);
    f.dev.print_stats(out);
    std::fclose(out);
    std::istringstream text(std::string(buf, len));
    std::free(buf);

    // Every `name value` line, by name.
    std::map<std::string, std::vector<std::uint64_t>> printed;
    for (std::string line; std::getline(text, line);) {
        std::istringstream fields(line);
        std::string name;
        std::uint64_t value = 0;
        if (fields >> name >> value) printed[name].push_back(value);
    }
    std::size_t nonzero = 0;
    auto expect_printed = [&](const std::string &name, std::uint64_t value) {
        if (value == 0) {
            EXPECT_EQ(printed.count(name), 0u) << name << " is 0";
            return;
        }
        ++nonzero;
        EXPECT_EQ(printed[name], std::vector<std::uint64_t>{value}) << name;
    };
#define EXPECT_COUNTER_PRINTED(name, doc) expect_printed(#name, s.name);
    MEMIF_DEVICE_COUNTERS(EXPECT_COUNTER_PRINTED)
#undef EXPECT_COUNTER_PRINTED
    for (std::size_t i = 0; i < s.tc_dispatches.size(); ++i)
        expect_printed("tc_dispatches[" + std::to_string(i) + "]",
                       s.tc_dispatches[i]);
    for (std::size_t i = 0; i < s.ring_submits.size(); ++i)
        expect_printed("ring_submits[" + std::to_string(i) + "]",
                       s.ring_submits[i]);
    EXPECT_GE(nonzero, 30u);
}

}  // namespace
}  // namespace memif::core
