/**
 * @file
 * The simulated OS kernel: one object owning the machine (event queue,
 * CPU accounting, physical memory, DMA engine) and the kernel-side
 * services both the Linux-migration baseline and the memif driver build
 * on — syscall cost charging, interrupt-context task spawning, the
 * migration wait queue, and process management.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dma/driver.h"
#include "dma/engine.h"
#include "mem/copier.h"
#include "mem/phys.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/trace.h"

namespace memif::os {

class Process;

/** Machine + kernel configuration. */
struct KernelConfig {
    /** DDR capacity to model (the real board has 8 GB; experiments need
     *  far less). The backing is committed on first write, so host
     *  memory follows the frames a run writes, not this capacity. */
    std::uint64_t slow_bytes = mem::KeystoneMemory::kDefaultSlowBytes;
    /** Far/remote tier capacity. Zero (the default) builds the classic
     *  two-node machine, byte-identical to every prior PR; nonzero adds
     *  a third node calibrated from the cost model's far_mem_bw /
     *  far_mem_latency (Akram et al.-style emulated remote memory). */
    std::uint64_t far_bytes = 0;
    /** Timing calibration; defaults model KeyStone II (Table 2). */
    sim::CostModel costs{};
    /** Cortex-A15 cores (Table 2). */
    unsigned num_cores = 4;
    /** DMA driver feature toggles (§5.3 ablations). */
    dma::DmaDriverOptions dma_options{};
    /** Seed for the fault injector's probability stream (the injector
     *  stays inert until a site is armed; see sim/fault.h). */
    std::uint64_t fault_seed = 0xfa017;
    /** Serialize kernel-context CPU time (syscall/irq/kthread) on one
     *  driver core instead of letting contexts overlap freely — the
     *  regime where per-request completion overhead sits on the
     *  critical path. Off by default; see sim::Cpu. */
    bool single_driver_core = false;
};

/** Counters for the user/kernel interface (satellite of the FlexSC-style
 *  motivation in §2.3: crossings are the cost batching amortizes). */
struct SyscallStats {
    std::uint64_t crossings = 0;       ///< enter+exit round trips charged
    sim::Duration crossing_time = 0;   ///< total time spent crossing
};

/**
 * The kernel. Everything in a simulation hangs off one Kernel instance;
 * it is not thread-safe (the DES is single-threaded by design).
 */
class Kernel {
  public:
    explicit Kernel(KernelConfig cfg = {});
    ~Kernel();
    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    // ----- machine access ---------------------------------------------
    sim::EventQueue &eq() { return eq_; }
    sim::Cpu &cpu() { return cpu_; }
    /** Driver-execution trace buffer (disabled by default). */
    sim::Tracer &tracer() { return tracer_; }
    const sim::CostModel &costs() const { return cfg_.costs; }
    mem::PhysicalMemory &phys() { return pm_; }
    mem::NodeId slow_node() const { return slow_node_; }
    mem::NodeId fast_node() const { return fast_node_; }
    /** Far/remote node (only with KernelConfig::far_bytes != 0). */
    mem::NodeId far_node() const { return far_node_; }
    bool has_far_node() const { return far_node_ != mem::kInvalidNode; }
    dma::Edma3Engine &dma_engine() { return *engine_; }
    dma::DmaDriver &dma() { return *dma_driver_; }
    /** Machine-wide fault injector (arm sites here; off by default). */
    sim::FaultInjector &faults() { return faults_; }

    // ----- processes ---------------------------------------------------
    Process &create_process();
    std::size_t process_count() const { return processes_.size(); }

    // ----- kernel facilities --------------------------------------------
    /**
     * Charge one user/kernel crossing (enter + exit) in the caller's
     * context and return the awaitable delay.
     */
    sim::Delay
    syscall_crossing()
    {
        ++syscall_stats_.crossings;
        syscall_stats_.crossing_time += cfg_.costs.syscall_crossing;
        return cpu_.busy(sim::ExecContext::kSyscall, sim::Op::kSyscall,
                         cfg_.costs.syscall_crossing);
    }

    const SyscallStats &syscall_stats() const { return syscall_stats_; }
    void reset_syscall_stats() { syscall_stats_ = SyscallStats{}; }

    /**
     * Keep a fire-and-forget task alive until it finishes (interrupt
     * handlers, kernel threads). Finished tasks are reaped lazily.
     */
    void spawn(sim::Task task);

    /**
     * Wait queue for threads blocked on migration PTEs (the baseline
     * race-prevention path; Linux uses per-page queues, we use one —
     * wakeups are rare and spurious wakeups re-check the PTE anyway).
     */
    sim::WaitQueue &migration_waitq() { return migration_waitq_; }

    /**
     * Round-robin a transfer controller to a new DMA client (e.g. a
     * memif instance), so concurrent instances' transfers overlap on
     * the engine's six TCs (Table 2).
     */
    unsigned
    assign_transfer_controller()
    {
        return next_tc_++ % dma::Edma3Engine::kNumTcs;
    }

    /** Run the simulation until no events remain; returns once every
     *  DMA copy it posted has landed. */
    void
    run()
    {
        eq_.run();
        mem::wait_copies();
    }
    /** Run the simulation up to @p deadline; returns once every DMA
     *  copy it posted has landed. */
    void
    run_until(sim::SimTime deadline)
    {
        eq_.run_until(deadline);
        mem::wait_copies();
    }

  private:
    KernelConfig cfg_;
    sim::EventQueue eq_;
    sim::Tracer tracer_;
    sim::Cpu cpu_;
    mem::PhysicalMemory pm_;
    mem::NodeId slow_node_;
    mem::NodeId fast_node_;
    mem::NodeId far_node_ = mem::kInvalidNode;
    sim::FaultInjector faults_;  // before engine_: engine holds a pointer
    std::unique_ptr<dma::Edma3Engine> engine_;
    std::unique_ptr<dma::DmaDriver> dma_driver_;
    sim::WaitQueue migration_waitq_;
    unsigned next_tc_ = 0;
    SyscallStats syscall_stats_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::vector<sim::Task> tasks_;
};

}  // namespace memif::os
