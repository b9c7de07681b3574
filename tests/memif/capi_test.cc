/**
 * @file
 * Tests for the paper-verbatim C-style API (§4.1, Fig. 2).
 */
#include "memif/memif.h"

#include <gtest/gtest.h>

#include <vector>

#include "memif_fixture.h"
#include "os/kernel.h"
#include "os/process.h"

namespace memif::core {
namespace {

/** The shared fixture with its device registered as /dev/memif0; the
 *  device files are reset when the test ends. */
struct Fixture : test::MemifFixture {
    explicit Fixture(MemifConfig cfg = {}) : MemifFixture(cfg)
    {
        RegisterDeviceFile("/dev/memif0", dev);
    }
    ~Fixture() { ResetDeviceFiles(); }

    /** A blank request off @p fd's free list, filled in to migrate
     *  @p npages pages at @p src to the fast node. */
    mov_req *
    migrate_req(int fd, vm::VAddr src, std::uint32_t npages)
    {
        mov_req *req = AllocRequest(fd);
        EXPECT_NE(req, nullptr);
        if (!req) return nullptr;
        req->op = MovOp::kMigrate;
        req->src_base = src;
        req->num_pages = npages;
        req->dst_node = kernel.fast_node();
        return req;
    }
};

TEST(CApi, OpenCloseLifecycle)
{
    Fixture f;

    EXPECT_EQ(MemifOpen("/dev/none"), kErrNoEntry);
    const int fd = MemifOpen("/dev/memif0");
    ASSERT_GE(fd, 0);
    EXPECT_EQ(MemifClose(fd), kOk);
    EXPECT_EQ(MemifClose(fd), kErrBadFd);
    EXPECT_EQ(MemifClose(1234), kErrBadFd);
    // Slot reuse.
    const int fd2 = MemifOpen("/dev/memif0");
    EXPECT_EQ(fd2, fd);
    MemifClose(fd2);
}

TEST(CApi, Figure2EndToEnd)
{
    Fixture f;
    const vm::VAddr region = f.proc.mmap(10 * 16 * 4096, vm::PageSize::k4K);

    int completed = 0;
    auto app = [&]() -> sim::Task {
        const int memfd = MemifOpen("/dev/memif0");
        EXPECT_GE(memfd, 0);

        // "Request to move memory regions" — ten of them, Fig. 2 style.
        for (int i = 0; i < 10; ++i) {
            mov_req *req = f.migrate_req(
                memfd, region + static_cast<vm::VAddr>(i) * 16 * 4096, 16);
            int rc = -1;
            co_await SubmitRequest(memfd, req, &rc);  // non-blocking
            EXPECT_EQ(rc, kOk);
        }

        // "Do computation"
        co_await sim::Delay{f.kernel.eq(), sim::microseconds(100)};

        // "Is any move completed?"
        while (completed < 10) {
            mov_req *req = RetrieveCompleted(memfd);
            if (!req) {
                // "No other work, sleep until any move is completed."
                co_await Poll(memfd);
                continue;
            }
            EXPECT_TRUE(req->succeeded());
            FreeRequest(memfd, req);
            ++completed;
        }
        EXPECT_EQ(MemifClose(memfd), kOk);
    };
    auto t = app();
    f.kernel.run();
    EXPECT_EQ(completed, 10);
}

TEST(CApi, MovManySubmitsBatchWithOneCrossing)
{
    Fixture f;
    const vm::VAddr region = f.proc.mmap(8 * 16 * 4096, vm::PageSize::k4K);

    int completed = 0;
    auto app = [&]() -> sim::Task {
        const int memfd = MemifOpen("/dev/memif0");
        EXPECT_GE(memfd, 0);

        mov_req *reqs[8] = {};
        for (int i = 0; i < 8; ++i) {
            reqs[i] = f.migrate_req(
                memfd, region + static_cast<vm::VAddr>(i) * 16 * 4096, 16);
        }
        f.kernel.reset_syscall_stats();
        int rc = -1;
        co_await memif_mov_many(memfd, reqs, 8, &rc);
        EXPECT_EQ(rc, kOk);
        // The whole batch cost one user/kernel crossing (the kick); the
        // kernel thread drained the other seven submissions itself.
        EXPECT_EQ(f.kernel.syscall_stats().crossings, 1u);

        while (completed < 8) {
            mov_req *req = RetrieveCompleted(memfd);
            if (!req) {
                co_await Poll(memfd);
                continue;
            }
            EXPECT_TRUE(req->succeeded());
            FreeRequest(memfd, req);
            ++completed;
        }
        EXPECT_EQ(MemifClose(memfd), kOk);
    };
    auto t = app();
    f.kernel.run();
    EXPECT_EQ(completed, 8);
    // Against eight one-at-a-time SubmitRequest() calls, each of which
    // starts an idle period and kicks: 8x fewer crossings.
    EXPECT_EQ(f.kernel.syscall_stats().crossings, 1u);

    int rc = -1;
    auto bad = memif_mov_many(1234, nullptr, 0, &rc);
    EXPECT_EQ(rc, kErrBadFd);
}

TEST(CApi, BadDescriptorsAreHarmless)
{
    EXPECT_EQ(AllocRequest(7), nullptr);
    EXPECT_EQ(RetrieveCompleted(7), nullptr);
    FreeRequest(7, nullptr);  // no crash
    int rc = 12345;
    auto t = SubmitRequest(7, nullptr, &rc);
    EXPECT_EQ(rc, kErrBadFd);
    auto p = Poll(7);  // completes immediately
    EXPECT_TRUE(p.done());
}

TEST(CApi, AllocRequestReportsNoSpaceWhenFreeListEmpty)
{
    Fixture f(MemifConfig{.capacity = 2});
    const int fd = MemifOpen("/dev/memif0");
    ASSERT_GE(fd, 0);

    int rc = 12345;
    mov_req *a = AllocRequest(fd, &rc);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(rc, kOk);
    mov_req *b = AllocRequest(fd, &rc);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(rc, kOk);

    // The application holds every slot: ENOSPC, not a silent nullptr.
    EXPECT_EQ(AllocRequest(fd, &rc), nullptr);
    EXPECT_EQ(rc, kErrNoSpace);
    EXPECT_EQ(AllocRequest(fd), nullptr);  // legacy overload still works

    FreeRequest(fd, b);
    EXPECT_NE(AllocRequest(fd, &rc), nullptr);
    EXPECT_EQ(rc, kOk);

    // A bad descriptor reports EBADF, not ENOSPC.
    EXPECT_EQ(AllocRequest(999, &rc), nullptr);
    EXPECT_EQ(rc, kErrBadFd);
    // A null out_rc is allowed.
    EXPECT_EQ(AllocRequest(999, nullptr), nullptr);
    MemifClose(fd);
}

TEST(CApi, UnregisterInvalidatesOpenDescriptors)
{
    Fixture f;
    const int fd = MemifOpen("/dev/memif0");
    ASSERT_GE(fd, 0);
    UnregisterDeviceFile("/dev/memif0");
    EXPECT_EQ(AllocRequest(fd), nullptr);
    EXPECT_EQ(MemifClose(fd), kErrBadFd);
}

TEST(CApi, TwoDevicesTwoDescriptors)
{
    Fixture f;
    RegisterDeviceFile(
        "/dev/memif1",
        f.open_device(f.proc,
                      MemifConfig{.capacity = 4,
                                  .gang_lookup = true,
                                  .race_policy = RacePolicy::kDetect,
                                  .poll_threshold_bytes = 512 * 1024})
            .dev);
    const int a = MemifOpen("/dev/memif0");
    const int b = MemifOpen("/dev/memif1");
    ASSERT_NE(a, b);
    // Instance isolation through the C API: exhaust b's free list.
    for (int i = 0; i < 4; ++i) EXPECT_NE(AllocRequest(b), nullptr);
    EXPECT_EQ(AllocRequest(b), nullptr);
    EXPECT_NE(AllocRequest(a), nullptr);
}

TEST(CApi, PollFdsWakesOnWhicheverDeviceCompletesFirst)
{
    Fixture f;
    RegisterDeviceFile("/dev/memif1", f.open_device(f.proc).dev);
    const vm::VAddr small = f.proc.mmap(4 * 4096, vm::PageSize::k4K);
    const vm::VAddr big = f.proc.mmap(512 * 4096, vm::PageSize::k4K);

    int ready = -99;
    auto app = [&]() -> sim::Task {
        const int fd0 = MemifOpen("/dev/memif0");
        const int fd1 = MemifOpen("/dev/memif1");
        // A long request on fd0, a short one on fd1.
        co_await SubmitRequest(fd0, f.migrate_req(fd0, big, 512));
        co_await SubmitRequest(fd1, f.migrate_req(fd1, small, 4));

        std::vector<int> fds{fd0, fd1, 1234 /*bogus: ignored*/};
        co_await PollFds(fds, &ready);
    };
    auto t = app();
    f.kernel.run();
    EXPECT_EQ(ready, 1);  // the short request's device woke us
}

TEST(CApi, PollFdsOnNothingReturnsImmediately)
{
    int ready = -99;
    auto t = PollFds({7, 8}, &ready);
    EXPECT_TRUE(t.done());
    EXPECT_EQ(ready, -1);
}

}  // namespace
}  // namespace memif::core
