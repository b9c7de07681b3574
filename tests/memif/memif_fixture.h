/**
 * @file
 * The memif test fixture: one kernel, one process, a device it opened
 * and that device's user library. Teardown checks the driver quiesced.
 * fill() and check() use the differential checker's byte pattern
 * (check::pat_byte), so a region a test fills is the region the
 * reference model would expect.
 */
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/reference_model.h"
#include "memif/device.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/process.h"

namespace memif::core::test {

struct MemifFixture {
    os::Kernel kernel;
    os::Process &proc;
    MemifDevice dev;
    MemifUser user;

    explicit MemifFixture(MemifConfig cfg = {})
        : proc(kernel.create_process()),
          dev(kernel, proc, cfg),
          user(dev)
    {
    }

    ~MemifFixture()
    {
        // Every test must hand the driver back fully quiesced: no
        // in-flight records, leased descriptors, stuck slots, parked
        // frames unaccounted for, or stale xlate entries. Tests that
        // intentionally end mid-flight opt out via the flag.
        if (!check_quiesce_on_teardown) return;
        std::string why;
        EXPECT_TRUE(dev.check_quiesced(&why)) << "teardown: " << why;
    }

    /** Opt-out for tests that deliberately leave work in flight. */
    bool check_quiesce_on_teardown = true;

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

    /** Allocate + fill in + submit one request; returns its index. */
    std::uint32_t
    submit(MovOp op, vm::VAddr src, std::uint32_t npages,
           vm::VAddr dst_or_node, std::uint64_t tag = 0)
    {
        const std::uint32_t idx = user.alloc_request();
        EXPECT_NE(idx, kNoRequest);
        MovReq &req = user.request(idx);
        req.op = op;
        req.src_base = src;
        req.num_pages = npages;
        req.user_tag = tag;
        if (op == MovOp::kReplicate)
            req.dst_base = dst_or_node;
        else
            req.dst_node = static_cast<std::uint32_t>(dst_or_node);
        kernel.spawn(user.submit(idx));
        return idx;
    }
};

}  // namespace memif::core::test
