#include "memif/user_api.h"

#include "sim/cost_model.h"
#include "sim/log.h"

namespace memif::core {

using lockfree::Color;
using lockfree::DequeueResult;

void
MemifUser::charge_queue_op()
{
    dev_.kernel().cpu().charge(sim::ExecContext::kUser, sim::Op::kQueue,
                               dev_.kernel().costs().queue_op);
}

std::uint32_t
MemifUser::alloc_request()
{
    const DequeueResult d = region_.free_queue().dequeue();
    charge_queue_op();
    if (!d.ok) return kNoRequest;
    MovReq &req = region_.request(d.value);
    req.store_status(MovStatus::kOwned);
    req.error = MovError::kNone;
    req.clear_params();
    return d.value;
}

void
MemifUser::free_request(std::uint32_t idx)
{
    MovReq &req = region_.request(idx);
    MEMIF_ASSERT(req.load_status() != MovStatus::kFree, "double free_request");
    req.store_status(MovStatus::kFree);
    region_.free_queue().enqueue(idx);
    charge_queue_op();
}

sim::Task
MemifUser::submit(std::uint32_t idx, bool *kicked)
{
    ++stats_.submits;
    co_await deposit(std::span(&idx, 1), kicked);
}

sim::Task
MemifUser::submit_many(const std::vector<std::uint32_t> &idxs, bool *kicked)
{
    if (!idxs.empty()) {
        stats_.submits += idxs.size();
        ++stats_.batch_submits;
    }
    co_await deposit(idxs, kicked);
}

sim::Task
MemifUser::deposit(std::span<const std::uint32_t> idxs, bool *kicked)
{
    if (kicked) *kicked = false;
    // Per-CPU rings: deposit in OUR ring — no other CPU touches it, so
    // no contention retry can occur, and the §4.4 color protocol runs
    // per ring. Otherwise the classic shared staging queue, whose tail
    // CAS concurrent submitters from different CPUs contend on.
    const bool rings = region_.num_rings() > 0;
    const std::uint32_t r = rings ? my_ring() : 0;
    lockfree::RedBlueQueue queue =
        rings ? region_.ring_queue(r) : region_.staging_queue();
    lockfree::RedBlueQueue submission = region_.submission_queue();

    // Deposit every request first; the color observed atomically with
    // an enqueue says who flushes, and any blue observation puts flush
    // responsibility on us (at most once per call).
    bool deposited = false;
    bool saw_blue = false;
    for (const std::uint32_t idx : idxs) {
        MovReq &req = region_.request(idx);
        req.submit_time = dev_.kernel().eq().now();
        req.submit_cpu = cpu_id_;
        req.asid = asid_;
        // Admission control runs here, in the caller's context, before
        // the request becomes visible to the kernel: a rejected request
        // is completed as kFailed/kNoSpace immediately (with a
        // retry-after hint) and never enters a queue.
        if (!dev_.admit_request(idx)) {
            ++stats_.rejected;
            continue;
        }
        // One tail CAS contention charge per call, at its first
        // deposit: a call whose every request was rejected never
        // touched the queue.
        if (!rings && !deposited)
            dev_.kernel().cpu().charge(sim::ExecContext::kUser,
                                       sim::Op::kQueue,
                                       dev_.shared_submit_penalty(cpu_id_));
        deposited = true;
        req.store_status(MovStatus::kSubmitted);
        dev_.kernel().tracer().record(req.submit_time,
                                      sim::TracePoint::kSubmit,
                                      sim::ExecContext::kUser, idx);
        const Color color = queue.enqueue(idx);
        charge_queue_op();
        if (rings) ++dev_.stats_.ring_submits[r];
        if (color == Color::kBlue) saw_blue = true;
    }
    if (!saw_blue) co_return;  // kernel awake: it will flush (red)

    for (;;) {
        // Flush everything to the submission queue.
        for (;;) {
            const DequeueResult d = queue.dequeue();
            charge_queue_op();
            if (!d.ok) break;
            submission.enqueue(d.value);
            charge_queue_op();
        }
        // Hand the queue to the kernel. Failure = someone enqueued
        // behind us: flush again.
        const int old = queue.set_color(Color::kRed);
        charge_queue_op();
        if (old == lockfree::kColorBusy) continue;
        if (old == static_cast<int>(Color::kRed)) co_return;  // raced: kicked
        break;  // we won the blue->red flip
    }

    // Exactly one thread per idle period reaches this point (§4.4):
    // one crossing for the whole call; the worker drains the rest.
    ++stats_.kicks;
    if (kicked) *kicked = true;
    co_await dev_.ioctl_mov_one();
}

std::uint32_t
MemifUser::retrieve_completed()
{
    DequeueResult d = region_.completion_ok_queue().dequeue();
    charge_queue_op();
    if (!d.ok) {
        d = region_.completion_err_queue().dequeue();
        charge_queue_op();
    }
    if (!d.ok) {
        // Nothing pending: rearm the poll event.
        dev_.completion_event().reset();
        return kNoRequest;
    }
    ++stats_.completions;
    return d.value;
}

sim::Task
MemifUser::poll()
{
    ++stats_.polls;
    os::Kernel &k = dev_.kernel();
    // poll() is a syscall: charge the crossing and sleep on the device
    // file's wait queue until a notification is (or already was) posted.
    co_await k.cpu().busy(sim::ExecContext::kSyscall, sim::Op::kSyscall,
                          k.costs().poll_syscall);
    co_await dev_.completion_event().wait();
}

}  // namespace memif::core
