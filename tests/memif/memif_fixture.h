/**
 * @file
 * The memif test fixture: one kernel, one process, a device it opened
 * and that device's user library. Teardown checks the driver quiesced.
 * fill() and check() use the differential checker's byte pattern
 * (check::pat_byte), so a region a test fills is the region the
 * reference model would expect. A test that needs more (a second
 * process, extra tenants, a far node) derives from it.
 *
 * A test that needs a second device on the same kernel (one process
 * opening two instances, or one per process) opens it with
 * open_device(); teardown checks every open device quiesced.
 *
 * A test that must act inside a request's DMA window reads the window
 * from a calibration run's trace (dma_window()), never from a literal
 * instant: a change to any cost before the copy moves the window.
 */
#pragma once

#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "check/reference_model.h"
#include "memif/device.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace memif::core::test {

struct MemifFixture {
    os::Kernel kernel;
    os::Process &proc;

    /** A further device opened on this kernel, and its user library. */
    struct Instance {
        MemifDevice dev;
        MemifUser user;

        Instance(os::Kernel &k, os::Process &p, const MemifConfig &cfg)
            : dev(k, p, cfg), user(dev)
        {
        }
    };

  private:
    std::optional<MemifDevice> device_;
    std::optional<MemifUser> user_;
    std::vector<std::unique_ptr<Instance>> instances_;

  public:
    MemifDevice &dev;
    MemifUser &user;

    explicit MemifFixture(MemifConfig cfg = {}, os::KernelConfig kc = {})
        : kernel(kc),
          proc(kernel.create_process()),
          device_(std::in_place, kernel, proc, cfg),
          user_(std::in_place, *device_),
          dev(*device_),
          user(*user_)
    {
    }

    ~MemifFixture()
    {
        if (device_) expect_quiesced(dev);
        for (const auto &i : instances_) expect_quiesced(i->dev);
    }

    /** Opt-out for tests that deliberately leave work in flight. */
    bool check_quiesce_on_teardown = true;

    /** Tear the device (and the user library) down now, as the
     *  fixture's destructor would; the kernel and its processes live
     *  on. dev and user must not be used afterwards. */
    void
    close_device()
    {
        expect_quiesced(dev);
        user_.reset();
        device_.reset();
    }

    /** Open another device for @p p on this kernel; it lives as long
     *  as the fixture. */
    Instance &
    open_device(os::Process &p, const MemifConfig &cfg = {})
    {
        instances_.push_back(std::make_unique<Instance>(kernel, p, cfg));
        return *instances_.back();
    }

    sim::FaultInjector &faults() { return kernel.faults(); }

    void
    fill(vm::VAddr base, std::uint64_t bytes, std::uint8_t seed)
    {
        std::vector<std::uint8_t> buf(bytes);
        memif::check::fill_pattern(seed, buf);
        ASSERT_TRUE(proc.as().write(base, buf.data(), bytes));
    }

    bool
    check(vm::VAddr base, std::uint64_t bytes, std::uint8_t seed)
    {
        std::vector<std::uint8_t> buf(bytes);
        if (!proc.as().read(base, buf.data(), bytes)) return false;
        std::vector<std::uint8_t> want(bytes);
        memif::check::fill_pattern(seed, want);
        return buf == want;
    }

    /** mmap @p bytes on @p node (the slow node by default) and fill
     *  them with pattern @p seed. */
    vm::VAddr
    region(std::uint64_t bytes, std::uint8_t seed,
           mem::NodeId node = mem::kInvalidNode,
           vm::PageSize psize = vm::PageSize::k4K)
    {
        const vm::VAddr base =
            proc.mmap(bytes, psize,
                      node == mem::kInvalidNode ? kernel.slow_node() : node);
        EXPECT_NE(base, 0u);
        fill(base, bytes, seed);
        return base;
    }

    std::vector<std::uint8_t>
    read(vm::VAddr va, std::uint64_t bytes)
    {
        std::vector<std::uint8_t> out(bytes);
        EXPECT_TRUE(proc.as().read(va, out.data(), bytes));
        return out;
    }

    /** Node the backing frame of page @p idx of @p base's vma lives on. */
    mem::NodeId
    node_of_page(vm::VAddr base, std::uint64_t idx)
    {
        const vm::Vma *vma = proc.as().find_vma(base);
        EXPECT_NE(vma, nullptr);
        return vma ? kernel.phys().node_of(vma->pte(idx).pfn)
                   : mem::kInvalidNode;
    }

    /** Every page of [base, base + npages) is mapped on @p node, and
     *  none is a migration PTE. */
    void
    expect_on_node(vm::VAddr base, std::uint64_t npages, mem::NodeId node)
    {
        const vm::Vma *vma = proc.as().find_vma(base);
        ASSERT_NE(vma, nullptr);
        for (std::uint64_t i = 0; i < npages; ++i) {
            EXPECT_EQ(kernel.phys().node_of(vma->pte(i).pfn), node)
                << "page " << i;
            EXPECT_FALSE(vma->pte(i).migration) << "page " << i;
        }
    }

    /** Allocate and fill in one request without submitting it, on
     *  @p u (another device's user library) or on the fixture's. */
    std::uint32_t
    prepare(MemifUser &u, MovOp op, vm::VAddr src, std::uint32_t npages,
            std::uint64_t dst_or_node, std::uint64_t tag = 0)
    {
        const std::uint32_t idx = u.alloc_request();
        EXPECT_NE(idx, kNoRequest);
        MovReq &req = u.request(idx);
        req.op = op;
        req.src_base = src;
        req.num_pages = npages;
        req.user_tag = tag;
        if (op == MovOp::kReplicate)
            req.dst_base = dst_or_node;
        else
            req.dst_node = static_cast<std::uint32_t>(dst_or_node);
        return idx;
    }

    std::uint32_t
    prepare(MovOp op, vm::VAddr src, std::uint32_t npages,
            std::uint64_t dst_or_node, std::uint64_t tag = 0)
    {
        return prepare(user, op, src, npages, dst_or_node, tag);
    }

    /** Allocate + fill in + submit one request; returns its index. */
    std::uint32_t
    submit(MovOp op, vm::VAddr src, std::uint32_t npages,
           std::uint64_t dst_or_node, std::uint64_t tag = 0)
    {
        const std::uint32_t idx = prepare(op, src, npages, dst_or_node, tag);
        kernel.spawn(user.submit(idx));
        return idx;
    }

    /** Time of the @p nth (1-based) trace record of @p p for request
     *  @p idx. */
    std::optional<sim::SimTime>
    traced(sim::TracePoint p, std::uint32_t idx, unsigned nth = 1)
    {
        for (const sim::TraceRecord &r : kernel.tracer().records())
            if (r.point == p && r.req == idx && --nth == 0) return r.time;
        return std::nullopt;
    }

    /** At instant @p when, @p p accesses @p va (a write with @p write);
     *  @p out gets the outcome and @p done_at, if given, the instant
     *  the access finished. */
    void
    touch_at(sim::SimTime when, os::Process &p, vm::VAddr va, bool write,
             os::TouchOutcome *out, sim::SimTime *done_at = nullptr)
    {
        kernel.eq().schedule_at(when, [this, &p, va, write, out, done_at] {
            kernel.spawn(touch(p, va, write, out, done_at));
        });
    }

  private:
    sim::Task
    touch(os::Process &p, vm::VAddr va, bool write, os::TouchOutcome *out,
          sim::SimTime *done_at)
    {
        co_await p.touch(va, write, out);
        if (done_at) *done_at = kernel.eq().now();
    }

    void
    expect_quiesced(const MemifDevice &d)
    {
        // Every test must hand the driver back fully quiesced: no
        // in-flight records, leased descriptors, stuck slots, parked
        // frames unaccounted for, or stale xlate entries.
        if (!check_quiesce_on_teardown) return;
        std::string why;
        EXPECT_TRUE(d.check_quiesced(&why)) << "teardown: " << why;
    }
};

/** The two trace records of one request that bound a window: the
 *  @p from_nth (1-based) record of @p from and the @p to_nth of @p to.
 *  The default is the request's first copy. */
struct TraceSpan {
    sim::TracePoint from = sim::TracePoint::kDmaStart;
    sim::TracePoint to = sim::TracePoint::kDmaComplete;
    unsigned from_nth = 1;
    unsigned to_nth = 1;
};

/** Where a request's copy runs: by default its first kDmaStart and
 *  kDmaComplete, else the two records of the TraceSpan asked for. */
struct DmaWindow {
    sim::SimTime start = 0;
    sim::SimTime complete = 0;

    sim::SimTime mid() const { return start + (complete - start) / 2; }
};

/**
 * The window @p span bounds for the request @p setup submits. Builds a
 * calibration fixture of type @p F from @p args, runs @p setup on it
 * (setup returns the request's index), then traces the machine until
 * it runs dry. The trace starts when setup returns, so setup may first
 * run earlier requests to completion, or arm a fault. The simulation
 * is deterministic: a test that replays the same setup on a fresh
 * fixture finds its request at the same instants, so a touch at mid()
 * of the default span lands mid-copy.
 */
template <typename F = MemifFixture, typename Setup, typename... Args>
DmaWindow
dma_window(const TraceSpan &span, Setup &&setup, Args &&...args)
{
    F cal(std::forward<Args>(args)...);
    const std::uint32_t idx = setup(cal);
    cal.kernel.tracer().enable();
    cal.kernel.run();
    const std::optional<sim::SimTime> start =
        cal.traced(span.from, idx, span.from_nth);
    const std::optional<sim::SimTime> complete =
        cal.traced(span.to, idx, span.to_nth);
    EXPECT_TRUE(start && complete)
        << "request " << idx << " traced no " << sim::to_string(span.from)
        << " #" << span.from_nth << " or no " << sim::to_string(span.to)
        << " #" << span.to_nth;
    return DmaWindow{start.value_or(0), complete.value_or(0)};
}

/** The DMA window of the request @p setup submits: its first copy. */
template <typename F = MemifFixture, typename Setup, typename... Args>
    requires(!std::same_as<std::remove_cvref_t<Setup>, TraceSpan>)
DmaWindow
dma_window(Setup &&setup, Args &&...args)
{
    return dma_window<F>(TraceSpan{}, std::forward<Setup>(setup),
                         std::forward<Args>(args)...);
}

}  // namespace memif::core::test
