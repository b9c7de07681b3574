/**
 * @file
 * Host-time microbenchmark (google-benchmark) of the red-blue lock-free
 * queue — the one component that runs natively rather than under the
 * simulator.
 *
 * Checks the §4.3 claim that "compared to the classic design, the
 * overhead added by coloring is negligible", by comparing against a
 * mutex-protected queue baseline and measuring enqueue/dequeue pairs
 * single- and multi-threaded.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "lockfree/cell.h"
#include "lockfree/link.h"
#include "lockfree/queue.h"

namespace {

using namespace memif::lockfree;

struct Region {
    StackHeader stack_header;
    std::vector<Cell> cells;
    QueueHeader q_header;

    explicit Region(std::uint32_t n) : cells(n)
    {
        CellPool::initialize(&stack_header, cells.data(), n);
        CellPool pool(&stack_header, cells.data(), n);
        RedBlueQueue::initialize(&q_header, pool, Color::kRed);
    }
    RedBlueQueue
    queue()
    {
        return RedBlueQueue(&q_header,
                            CellPool(&stack_header, cells.data(),
                                     static_cast<std::uint32_t>(cells.size())));
    }
};

// State the threads of one run share. Setup/Teardown run once per run,
// before its threads start and after they all stop; allocating it from
// thread 0 inside the body instead lets the other threads read it before
// thread 0 has written it.
std::unique_ptr<Region> shared_region;
std::vector<std::unique_ptr<Region>> rings;
std::mutex mu;
std::deque<std::uint32_t> dq;

template <std::uint32_t kCells>
void
make_shared_region(const benchmark::State &)
{
    shared_region = std::make_unique<Region>(kCells);
}

void
make_rings(const benchmark::State &state)
{
    for (int i = 0; i < state.threads(); ++i)
        rings.push_back(std::make_unique<Region>(4096));
}

void
drop_shared_state(const benchmark::State &)
{
    shared_region.reset();
    rings.clear();
    dq.clear();
}

void
BM_RedBlueEnqueueDequeue(benchmark::State &state)
{
    RedBlueQueue q = shared_region->queue();
    for (auto _ : state) {
        q.enqueue(42);
        benchmark::DoNotOptimize(q.dequeue());
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RedBlueEnqueueDequeue)
    ->Threads(1)->Threads(2)->Threads(4)
    ->Setup(make_shared_region<4096>)->Teardown(drop_shared_state);

void
BM_MutexQueueEnqueueDequeue(benchmark::State &state)
{
    for (auto _ : state) {
        {
            std::lock_guard<std::mutex> lock(mu);
            dq.push_back(42);
        }
        std::uint32_t v = 0;
        {
            std::lock_guard<std::mutex> lock(mu);
            if (!dq.empty()) {
                v = dq.front();
                dq.pop_front();
            }
        }
        benchmark::DoNotOptimize(v);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_MutexQueueEnqueueDequeue)
    ->Threads(1)->Threads(2)->Threads(4)
    ->Teardown(drop_shared_state);

void
BM_RedBlueMultiProducerBurst(benchmark::State &state)
{
    // submit_many()-like burst deposits: 16 enqueues then 16 dequeues
    // per iteration, every producer on ONE shared queue. All threads
    // hammer the same tail CAS — the contention the per-CPU submission
    // rings are designed to remove.
    RedBlueQueue q = shared_region->queue();
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < 16; ++i) q.enqueue(i);
        for (std::uint32_t i = 0; i < 16; ++i)
            benchmark::DoNotOptimize(q.dequeue());
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_RedBlueMultiProducerBurst)
    ->Threads(1)->Threads(2)->Threads(4)
    ->Setup(make_shared_region<(1 << 16)>)->Teardown(drop_shared_state);

void
BM_RedBluePerProducerRings(benchmark::State &state)
{
    // The per-CPU-ring counterpart of the burst cell: identical op mix,
    // but each producer owns a private ring, so no CAS ever crosses
    // threads. The items/s gap versus MultiProducerBurst at 2/4
    // producers is the modeled contention win.
    RedBlueQueue q = rings[state.thread_index()]->queue();
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < 16; ++i) q.enqueue(i);
        for (std::uint32_t i = 0; i < 16; ++i)
            benchmark::DoNotOptimize(q.dequeue());
    }
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_RedBluePerProducerRings)
    ->Threads(1)->Threads(2)->Threads(4)
    ->Setup(make_rings)->Teardown(drop_shared_state);

void
BM_RedBlueSetColorProbe(benchmark::State &state)
{
    // The cost SubmitRequest pays per call when the queue is red: one
    // enqueue observing the color.
    Region region(4096);
    RedBlueQueue q = region.queue();
    for (auto _ : state) {
        const Color c = q.enqueue(1);
        benchmark::DoNotOptimize(c);
        benchmark::DoNotOptimize(q.dequeue());
    }
}
BENCHMARK(BM_RedBlueSetColorProbe);

void
BM_RedBlueFlushCycle(benchmark::State &state)
{
    // A full SubmitRequest blue-path cycle: enqueue, drain, recolor.
    Region staging_region(4096);
    Region submission_region(4096);
    RedBlueQueue staging = staging_region.queue();
    RedBlueQueue submission = submission_region.queue();
    staging.set_color(Color::kBlue);
    for (auto _ : state) {
        staging.enqueue(7);
        for (;;) {
            const DequeueResult d = staging.dequeue();
            if (!d.ok) break;
            submission.enqueue(d.value);
        }
        staging.set_color(Color::kRed);
        staging.set_color(Color::kBlue);
        benchmark::DoNotOptimize(submission.dequeue());
    }
}
BENCHMARK(BM_RedBlueFlushCycle);

}  // namespace

// Custom main: besides the console tables, write
// BENCH_lockfree_queue.json (google-benchmark's JSON schema) so the CI
// smoke job can collect the queue numbers alongside the figure
// harnesses' reports. An explicit --benchmark_out=<file> overrides it.
int
main(int argc, char **argv)
{
    std::string out = "--benchmark_out=BENCH_lockfree_queue.json";
    std::string format = "--benchmark_out_format=json";
    std::vector<char *> args(argv, argv + argc);
    if (std::none_of(args.begin(), args.end(), [](const char *a) {
            return std::string_view(a).starts_with("--benchmark_out=");
        })) {
        args.push_back(out.data());
        args.push_back(format.data());
    }
    int n = static_cast<int>(args.size());
    args.push_back(nullptr);
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
