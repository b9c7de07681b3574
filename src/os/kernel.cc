#include "os/kernel.h"

#include "os/process.h"
#include "sim/log.h"

namespace memif::os {

Kernel::Kernel(KernelConfig cfg)
    : cfg_(cfg),
      cpu_(eq_, cfg.num_cores),
      migration_waitq_(eq_)
{
    cpu_.set_single_driver_core(cfg_.single_driver_core);
    auto ids = mem::KeystoneMemory::build(pm_, cfg_.slow_bytes);
    slow_node_ = ids.first;
    fast_node_ = ids.second;
    if (cfg_.far_bytes != 0) {
        // Third tier: an emulated remote node (Akram et al.) — capped
        // bandwidth plus per-descriptor RDMA-class latency, both from
        // the cost model. SLIT-style distances make the non-adjacency
        // explicit: SRAM and the far tier are two hops apart, with DDR
        // the natural staging point between them.
        far_node_ = pm_.add_node(mem::NodeConfig{
            .name = "far-remote",
            .bytes = cfg_.far_bytes,
            .bandwidth_bps = cfg_.costs.far_mem_bw,
            .is_fast = false,
            .latency_ns =
                static_cast<std::uint64_t>(cfg_.costs.far_mem_latency)});
        pm_.set_distance(slow_node_, far_node_, 30);
        pm_.set_distance(fast_node_, far_node_, 40);
    }
    faults_.seed(cfg_.fault_seed);
    engine_ =
        std::make_unique<dma::Edma3Engine>(eq_, pm_, cfg_.costs, &faults_);
    dma_driver_ = std::make_unique<dma::DmaDriver>(*engine_, cfg_.costs,
                                                   cfg_.dma_options);
}

Kernel::~Kernel() = default;

Process &
Kernel::create_process()
{
    const auto pid = static_cast<std::uint32_t>(processes_.size() + 1);
    processes_.push_back(std::make_unique<Process>(*this, pid));
    return *processes_.back();
}

void
Kernel::spawn(sim::Task task)
{
    sim::reap_finished(tasks_);
    if (!task.done()) tasks_.push_back(std::move(task));
    // else: finished synchronously; rethrow any stored error and drop.
    else
        task.rethrow_if_failed();
}

}  // namespace memif::os
