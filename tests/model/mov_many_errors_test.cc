/**
 * @file
 * memif_mov_many() error paths through the paper-verbatim C API: a
 * partial allocation failure mid-batch, a DMA fault that exhausts its
 * retries on one request of a batch, and rollback visibility — in each
 * case the reference model must agree on which requests completed and
 * on every byte of user-visible memory afterwards.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "check/reference_model.h"
#include "check/workload.h"
#include "dma/engine.h"
#include "memif/memif.h"
#include "os/kernel.h"
#include "os/process.h"

namespace memif::check {
namespace {

using core::kNoRequest;
using core::MemifConfig;
using core::mov_req;
using core::MovError;
using core::MovOp;
using core::MovStatus;
using core::RacePolicy;

constexpr std::uint32_t kPages = 40;
constexpr std::uint8_t kPattern = 31;
constexpr std::uint64_t kPb = 4096;

/**
 * The shared batch shape: six 4-page migrations over pages [0, 24)
 * followed by one replication of pages [24, 28) into [28, 32). The
 * workload mirror lets the reference model pronounce on outcomes and
 * final bytes.
 */
Workload
batch_workload()
{
    Workload w;
    w.seed = 0;  // handcrafted
    w.regions = {RegionSpec{kPages, vm::PageSize::k4K, kPattern}};
    WorkloadOp batch;
    batch.kind = OpKind::kMovMany;
    for (std::uint32_t i = 0; i < 6; ++i)
        batch.movs.push_back(MovSpec{MovOp::kMigrate, 0, i * 4, 4, 0, 0,
                                     true, false, Malform::kNone});
    batch.movs.push_back(MovSpec{MovOp::kReplicate, 0, 24, 4, 0, 28,
                                 false, false, Malform::kNone});
    w.ops = {batch, WorkloadOp{}};
    return w;
}

struct BatchRun {
    os::Kernel kernel;
    os::Process &proc;
    core::MemifDevice dev;
    vm::VAddr base = 0;
    std::uint64_t baseline = 0;
    /** Terminal (status, error) by batch position. */
    std::vector<std::pair<MovStatus, MovError>> outcomes;

    explicit BatchRun(MemifConfig cfg = {})
        : proc(kernel.create_process()), dev(kernel, proc, cfg)
    {
        base = proc.mmap(kPages * kPb, vm::PageSize::k4K);
        EXPECT_NE(base, 0u);
        std::vector<std::uint8_t> buf(kPages * kPb);
        fill_pattern(kPattern, buf);
        EXPECT_TRUE(proc.as().write(base, buf.data(), buf.size()));
        core::RegisterDeviceFile("/dev/memif0", dev);
        baseline = kernel.phys().outstanding_pages();
    }

    ~BatchRun() { core::ResetDeviceFiles(); }

    /** Submit the batch_workload() batch via memif_mov_many and drain. */
    void
    run(const Workload &w)
    {
        const std::vector<MovSpec> &movs = w.ops[0].movs;
        outcomes.assign(movs.size(), {MovStatus::kFree, MovError::kNone});
        auto app = [&]() -> sim::Task {
            const int fd = core::MemifOpen("/dev/memif0");
            EXPECT_GE(fd, 0);
            std::vector<mov_req *> reqs;
            for (std::size_t i = 0; i < movs.size(); ++i) {
                mov_req *req = core::AllocRequest(fd);
                EXPECT_NE(req, nullptr);
                const MovSpec &m = movs[i];
                req->op = m.op;
                req->src_base = base + m.src_page * kPb;
                req->num_pages = m.num_pages;
                if (m.op == MovOp::kMigrate)
                    req->dst_node = kernel.fast_node();
                else
                    req->dst_base = base + m.dst_page * kPb;
                req->user_tag = i;
                reqs.push_back(req);
            }
            int rc = -1;
            co_await core::memif_mov_many(fd, reqs.data(), reqs.size(),
                                          &rc);
            EXPECT_EQ(rc, core::kOk);
            std::size_t completed = 0;
            while (completed < movs.size()) {
                mov_req *req = core::RetrieveCompleted(fd);
                if (!req) {
                    co_await core::Poll(fd);
                    continue;
                }
                EXPECT_LT(req->user_tag, outcomes.size());
                if (req->user_tag < outcomes.size())
                    outcomes[req->user_tag] = {req->load_status(),
                                               req->error};
                core::FreeRequest(fd, req);
                ++completed;
            }
            EXPECT_EQ(core::MemifClose(fd), core::kOk);
        };
        auto task = app();
        kernel.run();
        ASSERT_TRUE(task.done());
        task.rethrow_if_failed();
    }

    /** Every driver invariant that must hold after the batch drained. */
    void
    expect_quiesced()
    {
        EXPECT_TRUE(dev.idle());
        std::string why;
        EXPECT_TRUE(dev.check_quiesced(&why)) << why;
        EXPECT_EQ(kernel.phys().outstanding_pages(),
                  baseline + dev.magazine_pages());
    }

    /** Byte-compare the region against the reference model's verdict. */
    void
    expect_memory_matches(const ReferenceModel &model)
    {
        std::vector<std::uint8_t> buf(kPages * kPb);
        ASSERT_TRUE(proc.as().read(base, buf.data(), buf.size()));
        const std::vector<std::uint8_t> &want = model.memory(0);
        ASSERT_EQ(buf.size(), want.size());
        for (std::size_t i = 0; i < buf.size(); ++i)
            ASSERT_EQ(buf[i], want[i]) << "byte " << i;
    }
};

TEST(MovManyErrors, PartialAllocFailureMidBatch)
{
    const Workload w = batch_workload();
    BatchRun run;
    // The 10th destination-page allocation fails: that is page 2 of
    // the third migration (batch position 2). Everything else in the
    // batch must complete untouched by its neighbour's failure.
    run.kernel.faults().arm_nth(core::kFaultAllocFail, 10);
    run.run(w);

    ReferenceModel model(w);
    const OutcomeContext ctx{RacePolicy::kDetect, false, true};
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
        const auto [st, err] = run.outcomes[i];
        std::string why;
        EXPECT_TRUE(model.outcome_allowed(i, st, err, ctx, &why)) << why;
        model.commit(i, st);
        if (i == 2) {
            EXPECT_EQ(st, MovStatus::kFailed) << "batch position " << i;
            EXPECT_EQ(err, MovError::kNoMemory);
        } else {
            EXPECT_EQ(st, MovStatus::kDone) << "batch position " << i;
        }
    }
    // Rollback visibility: the failed migration's pages kept their
    // old frames and bytes; the replication landed; accounting and the
    // flight table are clean.
    run.expect_memory_matches(model);
    run.expect_quiesced();
}

/**
 * DMA-fault variant of the batch: the replication leads and the six
 * migrations follow, so the victim (the last migration) is the final
 * chain the batch starts. Chain-start occurrence N is then request
 * N-1's first attempt, and every occurrence after the batch's 7 chain
 * starts belongs to the victim's retries — the only deterministic way
 * to pin the tc_error fault to one request's whole retry ladder.
 */
Workload
dma_fault_workload()
{
    Workload w = batch_workload();
    std::vector<MovSpec> &movs = w.ops[0].movs;
    std::rotate(movs.begin(), movs.end() - 1, movs.end());
    return w;
}

TEST(MovManyErrors, DmaFaultOnLastRequestExhaustsRetriesAndRollsBack)
{
    const Workload w = dma_fault_workload();
    MemifConfig cfg;
    cfg.cpu_copy_fallback = false;  // let the DMA error reach the app
    BatchRun run(cfg);
    // Fail the victim's first chain (the batch's 7th start) and all
    // three of its retries; the rest of the batch rides on untouched
    // hardware.
    run.kernel.faults().arm_nth(dma::kFaultTcError, 7,
                                1 + cfg.dma_max_retries);
    run.run(w);

    ReferenceModel model(w);
    const OutcomeContext ctx{RacePolicy::kDetect, true, false};
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
        const auto [st, err] = run.outcomes[i];
        std::string why;
        EXPECT_TRUE(model.outcome_allowed(i, st, err, ctx, &why)) << why;
        model.commit(i, st);
        if (i == 6) {
            EXPECT_EQ(st, MovStatus::kFailed) << "batch position " << i;
            EXPECT_EQ(err, MovError::kDmaError);
        } else {
            EXPECT_EQ(st, MovStatus::kDone) << "batch position " << i;
        }
    }
    // Rollback visibility: the failed migration restored its old PTEs
    // and frames, so its pages read back their original bytes.
    run.expect_memory_matches(model);
    run.expect_quiesced();
}

TEST(MovManyErrors, MalformedEntryMidBatchFailsAloneAndInPlace)
{
    Workload w = batch_workload();
    // Corrupt batch position 3 into a zero-page request.
    w.ops[0].movs[3].num_pages = 0;
    w.ops[0].movs[3].malform = Malform::kZeroPages;
    BatchRun run;
    // The runner derives num_pages straight from the spec; a 0 simply
    // goes through validation and fails there.
    run.run(w);

    ReferenceModel model(w);
    const OutcomeContext ctx{RacePolicy::kDetect, false, true};
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
        const auto [st, err] = run.outcomes[i];
        std::string why;
        EXPECT_TRUE(model.outcome_allowed(i, st, err, ctx, &why)) << why;
        model.commit(i, st);
        if (i == 3) {
            EXPECT_EQ(st, MovStatus::kFailed);
            EXPECT_EQ(err, MovError::kBadRequest);
        } else {
            EXPECT_EQ(st, MovStatus::kDone);
        }
    }
    run.expect_memory_matches(model);
    run.expect_quiesced();
}

TEST(MovManyErrors, CpuCopyFallbackAbsorbsTheSameDmaFault)
{
    const Workload w = dma_fault_workload();
    BatchRun run;  // default config: fallback on
    run.kernel.faults().arm_nth(dma::kFaultTcError, 7, 4);
    run.run(w);

    ReferenceModel model(w);
    const OutcomeContext ctx{RacePolicy::kDetect, true, true};
    for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
        const auto [st, err] = run.outcomes[i];
        std::string why;
        EXPECT_TRUE(model.outcome_allowed(i, st, err, ctx, &why)) << why;
        EXPECT_EQ(st, MovStatus::kDone)
            << "batch position " << i << " err " << error_name(err);
        model.commit(i, st);
    }
    run.expect_memory_matches(model);
    run.expect_quiesced();
}

}  // namespace
}  // namespace memif::check
