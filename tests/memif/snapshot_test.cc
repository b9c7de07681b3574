/**
 * @file
 * The driver trusts nothing in the shared region (§4.2): it copies a
 * request's parameters once, at the top of Prep, and keeps what only it
 * may know about a request — its tenant quota slot, its daemon origin —
 * driver-side. Each test here has the application scribble over its
 * request slot where it must not — or reuse a slot a strided move left
 * its geometry in — and checks that the driver serves exactly what it
 * validated and still quiesces. The last test pins the destination page
 * run of a replication whose base is not aligned to the destination's
 * page size.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "memif/heat_policy.h"
#include "memif_fixture.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace memif::core {
namespace {

using sim::TracePoint;

constexpr std::uint64_t kPage = 4096;

using Bed = test::MemifFixture;

/** The application writes @p v over every byte of @p req past its last
 *  parameter field that the driver answers through: retry_after_us and
 *  the padding up to submit_time. */
void
scribble_tail(MovReq &req, std::uint8_t v)
{
    auto *lo = reinterpret_cast<std::byte *>(&req.retry_after_us);
    auto *hi = reinterpret_cast<std::byte *>(&req.submit_time);
    std::memset(lo, v, static_cast<std::size_t>(hi - lo));
}

// ---------------------------------------------------------------------
// The request is read once: a rewrite after validation changes nothing.
// ---------------------------------------------------------------------

TEST(RequestSnapshot, PageCountRewrittenAfterValidationIsIgnored)
{
    const MemifConfig cfg;
    for (const MovOp op : {MovOp::kMigrate, MovOp::kReplicate}) {
        for (const std::uint32_t forged : {4u, 512u}) {
            SCOPED_TRACE(testing::Message()
                         << "op " << static_cast<int>(op) << ", 8 -> "
                         << forged << " pages");
            Bed b(cfg);
            b.kernel.tracer().enable();
            const sim::CostModel &cm = b.kernel.costs();
            const mem::NodeId fast = b.kernel.fast_node();
            const vm::VAddr src =
                b.region(8 * kPage, 7, b.kernel.slow_node());
            const vm::VAddr dst = op == MovOp::kReplicate
                                      ? b.region(8 * kPage, 99, fast)
                                      : 0;
            const std::vector<std::uint8_t> want = b.read(src, 8 * kPage);
            const std::uint32_t idx = b.prepare(
                op, src, 8, op == MovOp::kReplicate ? dst : fast);
            MovReq &req = b.user.request(idx);
            b.kernel.spawn(b.user.submit(idx));

            // Validation runs request_validate + request_admin after
            // kServeBegin; rewrite the count 1 ns later, well before
            // the page lookup's charge ends at kPrepDone.
            std::optional<sim::SimTime> begin;
            while (!(begin = b.traced(TracePoint::kServeBegin, idx)))
                ASSERT_TRUE(b.kernel.eq().step());
            const sim::SimTime rewrite =
                *begin + cm.request_validate + cm.request_admin + 1;
            b.kernel.eq().schedule_at(
                rewrite, [&req, forged] { req.num_pages = forged; });
            b.kernel.run();

            const std::optional<sim::SimTime> prep_done =
                b.traced(TracePoint::kPrepDone, idx);
            ASSERT_TRUE(prep_done);
            EXPECT_GT(*prep_done, rewrite);
            EXPECT_EQ(req.num_pages, forged);
            EXPECT_EQ(req.load_status(), MovStatus::kDone);
            EXPECT_EQ(req.error, MovError::kNone);
            if (op == MovOp::kMigrate) {
                // All 8 validated pages moved, and nothing else.
                b.expect_on_node(src, 8, fast);
                EXPECT_EQ(b.read(src, 8 * kPage), want);
            } else {
                EXPECT_EQ(b.read(dst, 8 * kPage), want);
            }
            EXPECT_EQ(b.dev.stats().pages_moved, 8u);
        }
    }
}

// ---------------------------------------------------------------------
// Driver-side state: a scribbled slot forges no admission, no daemon,
// no tenant; a recycled slot leaks nothing into a daemon mov.
// ---------------------------------------------------------------------

TEST(RequestSnapshot, ScribbledSlotForgesNoQuotaSlot)
{
    MemifConfig cfg;
    cfg.multi_tenant = true;
    cfg.tenant_inflight_quota = 1;
    Bed b(cfg);
    const mem::NodeId fast = b.kernel.fast_node();
    const vm::VAddr a_src = b.region(8 * kPage, 1, b.kernel.slow_node());
    const vm::VAddr b_src = b.region(8 * kPage, 2, b.kernel.slow_node());
    const std::uint32_t a = b.prepare(MovOp::kMigrate, a_src, 8, fast);
    const std::uint32_t r = b.prepare(MovOp::kMigrate, b_src, 8, fast);
    b.kernel.spawn(b.user.submit(a));
    // a holds the tenant's only quota slot, so r is rejected at
    // admission — whatever its slot claims about holding one.
    scribble_tail(b.user.request(r), 0x01);
    b.kernel.spawn(b.user.submit(r));
    b.kernel.run();

    EXPECT_EQ(b.user.request(a).load_status(), MovStatus::kDone);
    EXPECT_EQ(b.user.request(r).load_status(), MovStatus::kFailed);
    EXPECT_EQ(b.user.request(r).error, MovError::kNoSpace);
    std::vector<std::uint32_t> done;
    for (std::uint32_t i; (i = b.user.retrieve_completed()) != kNoRequest;)
        done.push_back(i);
    EXPECT_EQ(done.size(), 2u);
    const TenantStats &ts = b.dev.tenant_stats(0);
    EXPECT_EQ(ts.outstanding, 0u);
    EXPECT_EQ(ts.admitted, 1u);
    EXPECT_EQ(ts.completed, 1u);
    EXPECT_EQ(ts.rejected, 1u);
}

TEST(RequestSnapshot, ScribbledSlotForgesNoDaemonMov)
{
    MemifConfig cfg;
    cfg.multi_tenant = true;
    Bed b(cfg);
    const vm::VAddr src = b.region(8 * kPage, 3, b.kernel.slow_node());
    const std::vector<std::uint8_t> want = b.read(src, 8 * kPage);
    const std::uint32_t idx =
        b.prepare(MovOp::kMigrate, src, 8, b.kernel.fast_node());
    b.kernel.spawn(b.user.submit(idx));
    // Queued and admitted; the application now scribbles its slot.
    scribble_tail(b.user.request(idx), 0x01);
    b.kernel.run();

    // Served and completed as the application's own request: on its
    // completion queue, with its tenant's quota slot returned.
    EXPECT_EQ(b.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(b.user.retrieve_completed(), idx);
    EXPECT_EQ(b.read(src, 8 * kPage), want);
    const TenantStats &ts = b.dev.tenant_stats(0);
    EXPECT_EQ(ts.outstanding, 0u);
    EXPECT_EQ(ts.completed, 1u);
    EXPECT_EQ(b.dev.stats().promotions_completed +
                  b.dev.stats().demotions_completed,
              0u);
}

TEST(RequestSnapshot, AsidRewrittenAfterAdmissionStaysWithTheAdmittedTenant)
{
    MemifConfig cfg;
    cfg.multi_tenant = true;
    Bed b(cfg);
    os::Process &other = b.kernel.create_process();
    ASSERT_EQ(b.dev.register_tenant(other), 1u);
    const mem::NodeId slow = b.kernel.slow_node();
    const mem::NodeId fast = b.kernel.fast_node();
    const vm::VAddr mine = b.region(8 * kPage, 4, slow);
    const vm::VAddr theirs = other.mmap(8 * kPage, vm::PageSize::k4K, slow);
    ASSERT_EQ(theirs, mine) << "the two regions must share a VA";
    const std::vector<std::uint8_t> want = b.read(mine, 8 * kPage);
    const std::uint32_t idx = b.prepare(MovOp::kMigrate, mine, 8, fast);
    b.kernel.spawn(b.user.submit(idx));
    // Admitted as tenant 0 and queued; the slot now names tenant 1,
    // whose address space maps the same VA.
    b.user.request(idx).asid = 1;
    b.kernel.run();

    EXPECT_EQ(b.user.request(idx).load_status(), MovStatus::kDone);
    auto expect_on = [&](os::Process &p, mem::NodeId node) {
        const vm::Vma *vma = p.as().find_vma(mine);
        ASSERT_NE(vma, nullptr);
        for (std::uint64_t i = 0; i < vma->num_pages(); ++i)
            EXPECT_EQ(b.kernel.phys().node_of(vma->pte(i).pfn), node)
                << "page " << i;
    };
    // Only the admitting tenant's pages moved.
    expect_on(b.proc, fast);
    expect_on(other, slow);
    EXPECT_EQ(b.read(mine, 8 * kPage), want);
    EXPECT_EQ(b.dev.tenant_stats(0).pages_moved, 8u);
    EXPECT_EQ(b.dev.tenant_stats(1).pages_moved, 0u);
}

TEST(RequestSnapshot, DaemonMovIgnoresTheGeometryAStridedMoveLeftInItsSlot)
{
    // One request slot: the daemon's movs reuse the very slot a strided
    // replication just returned, rows and pitches still filled in.
    MemifConfig cfg;
    cfg.capacity = 1;
    cfg.strided_dma = true;
    cfg.auto_migrate = true;
    cfg.heat_scan_interval = sim::microseconds(100);
    Bed b(cfg);
    const mem::NodeId slow = b.kernel.slow_node();
    const vm::VAddr src = b.region(4 * kPage, 8, slow);
    const vm::VAddr dst = b.region(4 * kPage, 9, b.kernel.fast_node());
    const std::uint32_t idx = b.user.alloc_request();
    ASSERT_NE(idx, kNoRequest);
    MovReq &req = b.user.request(idx);
    req.src_base = src;
    req.dst_base = dst;
    req.rows = 4;
    req.row_bytes = 512;
    req.src_pitch = kPage;
    req.dst_pitch = 1024;
    b.kernel.spawn(b.user.submit(idx));
    b.kernel.run();
    ASSERT_EQ(b.user.retrieve_completed(), idx);
    ASSERT_EQ(req.load_status(), MovStatus::kDone);
    b.user.free_request(idx);
    ASSERT_EQ(req.rows, 4u);

    // One bucket, touched once: the daemon promotes it, then demotes it.
    const vm::VAddr hot = b.region(8 * kPage, 10, slow);
    const std::vector<std::uint8_t> want = b.read(hot, 8 * kPage);
    ASSERT_TRUE(b.dev.manage_region(hot));
    auto touch = [&]() -> sim::Task {
        for (std::uint64_t p = 0; p < 8; ++p) {
            os::TouchOutcome t;
            co_await b.proc.touch(hot + p * kPage, false, &t);
        }
    };
    b.kernel.spawn(touch());
    b.kernel.run();

    const DeviceStats &s = b.dev.stats();
    EXPECT_EQ(s.daemon_movs_dropped, 0u);
    EXPECT_EQ(s.promotions_completed, 1u);
    EXPECT_EQ(s.demotions_completed, 1u);
    EXPECT_EQ(b.read(hot, 8 * kPage), want);
}

// ---------------------------------------------------------------------
// The destination page run counts a straddled last page.
// ---------------------------------------------------------------------

TEST(RequestSnapshot, ScannerSkipsEveryPageAReplicationWrites)
{
    // 256 KB of 4 KB source pages replicated to offset 260 KB of a
    // region of 16 64 KB pages: the bytes [260 KB, 516 KB) touch
    // destination pages 4 to 8, one more than 256 KB / 64 KB. Page 8,
    // the straddled one, is the first page of the second 8-page heat
    // bucket. Every scan epoch that runs while the copy is in flight
    // must skip both buckets, all 16 pages — sampling the second
    // would read heat off a page the engine is still writing.
    MemifConfig cfg;
    cfg.auto_migrate = true;
    cfg.heat_scan_interval = sim::microseconds(2);
    cfg.scan_idle_park_epochs = 1u << 30;  // keep scanning throughout
    Bed b(cfg);
    constexpr std::uint64_t kBigPage = 16 * kPage;
    const mem::NodeId slow = b.kernel.slow_node();
    const vm::VAddr src = b.region(64 * kPage, 5, slow);
    const vm::VAddr dst =
        b.region(2 * kBucketPages * kBigPage, 6, slow,
                 vm::PageSize::k64K);
    const vm::VAddr at = dst + 4 * kBigPage + kPage;
    ASSERT_TRUE(b.dev.manage_region(dst));
    const std::vector<std::uint8_t> want = b.read(src, 64 * kPage);
    const std::uint32_t idx = b.prepare(MovOp::kReplicate, src, 64, at);
    const MovReq &req = b.user.request(idx);
    b.kernel.spawn(b.user.submit(idx));

    const DeviceStats &s = b.dev.stats();
    std::uint64_t epochs_in_flight = 0;
    while (req.load_status() != MovStatus::kDone) {
        const bool before = req.load_status() == MovStatus::kInFlight;
        const std::uint64_t scans = s.heat_scans;
        const std::uint64_t skipped = s.heat_pages_skipped;
        ASSERT_TRUE(b.kernel.eq().step());
        if (!before || req.load_status() != MovStatus::kInFlight ||
            s.heat_scans == scans)
            continue;
        ++epochs_in_flight;
        EXPECT_EQ(s.heat_pages_skipped - skipped, 2 * kBucketPages)
            << "epoch " << s.heat_scans;
    }
    EXPECT_GT(epochs_in_flight, 0u);
    EXPECT_EQ(b.read(at, 64 * kPage), want);
}

}  // namespace
}  // namespace memif::core
