/**
 * @file
 * Unit tests for CPU accounting.
 */
#include "sim/cpu.h"

#include <gtest/gtest.h>

#include "sim/event_queue.h"

namespace memif::sim {
namespace {

TEST(CpuAccounting, ChargesByContextAndOp)
{
    CpuAccounting acct;
    acct.charge(ExecContext::kSyscall, Op::kRemap, 100);
    acct.charge(ExecContext::kSyscall, Op::kCopy, 50);
    acct.charge(ExecContext::kIrq, Op::kRelease, 25);
    EXPECT_EQ(acct.total, 175u);
    EXPECT_EQ(acct.context(ExecContext::kSyscall), 150u);
    EXPECT_EQ(acct.context(ExecContext::kIrq), 25u);
    EXPECT_EQ(acct.op(Op::kRemap), 100u);
    EXPECT_EQ(acct.op(Op::kCopy), 50u);
}

TEST(CpuAccounting, SinceSubtractsSnapshots)
{
    CpuAccounting a;
    a.charge(ExecContext::kUser, Op::kQueue, 10);
    CpuAccounting snap = a;
    a.charge(ExecContext::kUser, Op::kQueue, 7);
    CpuAccounting d = a.since(snap);
    EXPECT_EQ(d.total, 7u);
    EXPECT_EQ(d.op(Op::kQueue), 7u);
}

TEST(Cpu, BusyAdvancesTimeAndCharges)
{
    EventQueue eq;
    Cpu cpu(eq);
    auto coro = [&]() -> Task {
        co_await cpu.busy(ExecContext::kKthread, Op::kPrep, 500);
    };
    Task t = coro();
    eq.run();
    EXPECT_EQ(eq.now(), 500u);
    EXPECT_EQ(cpu.accounting().op(Op::kPrep), 500u);
    EXPECT_EQ(cpu.accounting().context(ExecContext::kKthread), 500u);
}

TEST(Cpu, OpAndContextNames)
{
    EXPECT_EQ(to_string(Op::kDmaConfig), "dma-cfg");
    EXPECT_EQ(to_string(ExecContext::kIrq), "irq");
}

}  // namespace
}  // namespace memif::sim
