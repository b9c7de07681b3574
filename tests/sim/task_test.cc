/**
 * @file
 * Unit tests for coroutine Tasks: eager start, delays, joining, exception
 * propagation, and liveness-guarded cancellation.
 */
#include "sim/task.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"

namespace memif::sim {
namespace {

Task
record_after(EventQueue &eq, Duration d, std::vector<SimTime> &out)
{
    co_await Delay{eq, d};
    out.push_back(eq.now());
}

TEST(Task, RunsEagerlyUntilFirstSuspension)
{
    EventQueue eq;
    bool started = false;
    auto coro = [&](EventQueue &q) -> Task {
        started = true;
        co_await Delay{q, 10};
    };
    Task t = coro(eq);
    EXPECT_TRUE(started);
    EXPECT_FALSE(t.done());
    eq.run();
    EXPECT_TRUE(t.done());
}

TEST(Task, DelayAdvancesVirtualTime)
{
    EventQueue eq;
    std::vector<SimTime> times;
    Task t = record_after(eq, 1234, times);
    eq.run();
    ASSERT_EQ(times.size(), 1u);
    EXPECT_EQ(times[0], 1234u);
}

TEST(Task, SequentialDelaysAccumulate)
{
    EventQueue eq;
    std::vector<SimTime> times;
    auto coro = [&]() -> Task {
        co_await Delay{eq, 100};
        times.push_back(eq.now());
        co_await Delay{eq, 200};
        times.push_back(eq.now());
    };
    Task t = coro();
    eq.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 100u);
    EXPECT_EQ(times[1], 300u);
}

TEST(Task, JoinResumesAwaiterAfterCompletion)
{
    EventQueue eq;
    std::vector<int> order;
    auto child = [&]() -> Task {
        co_await Delay{eq, 50};
        order.push_back(1);
    };
    std::optional<Task> child_task;
    auto parent = [&]() -> Task {
        child_task.emplace(child());
        co_await *child_task;
        order.push_back(2);
    };
    Task p = parent();
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(p.done());
}

TEST(Task, JoinOfAlreadyDoneTaskIsImmediate)
{
    EventQueue eq;
    auto quick = [&]() -> Task { co_return; };
    Task c = quick();
    EXPECT_TRUE(c.done());
    bool joined = false;
    auto parent = [&]() -> Task {
        co_await c;
        joined = true;
    };
    Task p = parent();
    EXPECT_TRUE(joined);  // no suspension needed
    eq.run();
}

TEST(Task, ExceptionPropagatesToJoiner)
{
    EventQueue eq;
    auto thrower = [&]() -> Task {
        co_await Delay{eq, 10};
        throw std::runtime_error("boom");
    };
    Task c = thrower();
    bool caught = false;
    auto parent = [&]() -> Task {
        try {
            co_await c;
        } catch (const std::runtime_error &e) {
            caught = std::string(e.what()) == "boom";
        }
    };
    Task p = parent();
    eq.run();
    EXPECT_TRUE(caught);
}

TEST(Task, RethrowIfFailedSurfacesError)
{
    EventQueue eq;
    auto thrower = [&]() -> Task {
        co_await Delay{eq, 1};
        throw std::logic_error("bad");
    };
    Task t = thrower();
    eq.run();
    EXPECT_TRUE(t.done());
    EXPECT_THROW(t.rethrow_if_failed(), std::logic_error);
}

TEST(Task, DestroyedTaskDoesNotResumeFromPendingEvent)
{
    EventQueue eq;
    bool resumed = false;
    {
        auto coro = [&]() -> Task {
            co_await Delay{eq, 100};
            resumed = true;  // must never run
        };
        Task t = coro();
        EXPECT_FALSE(t.done());
        // t destroyed here while suspended; the queued resume must no-op.
    }
    eq.run();
    EXPECT_FALSE(resumed);
}

TEST(Task, ManyConcurrentTasksInterleaveDeterministically)
{
    EventQueue eq;
    std::vector<SimTime> times;
    std::vector<Task> tasks;
    for (int i = 0; i < 16; ++i)
        tasks.push_back(record_after(eq, static_cast<Duration>(16 - i), times));
    eq.run();
    ASSERT_EQ(times.size(), 16u);
    for (size_t i = 1; i < times.size(); ++i) EXPECT_LE(times[i - 1], times[i]);
    EXPECT_EQ(times.front(), 1u);
    EXPECT_EQ(times.back(), 16u);
}

TEST(Task, MoveTransfersOwnership)
{
    EventQueue eq;
    auto coro = [&]() -> Task { co_await Delay{eq, 5}; };
    Task a = coro();
    Task b = std::move(a);
    EXPECT_TRUE(a.empty());
    EXPECT_FALSE(b.empty());
    eq.run();
    EXPECT_TRUE(b.done());
}

TEST(Task, StaleResumeStaysNoOpAfterSlotReuse)
{
    // A resume queued for a destroyed task must not wake the task that
    // took over its liveness slot.
    EventQueue eq;
    bool first_resumed = false;
    auto first = [&]() -> Task {
        co_await Delay{eq, 100};
        first_resumed = true;  // must never run
    };
    std::vector<SimTime> woke;
    auto second = [&]() -> Task {
        co_await Delay{eq, 200};
        woke.push_back(eq.now());
    };
    std::optional<Task> a(first());
    a.reset();  // frame gone; its resume at t=100 is still queued
    Task b = second();  // reuses the freed liveness slot
    eq.run();
    EXPECT_FALSE(first_resumed);
    EXPECT_EQ(woke, (std::vector<SimTime>{200}));
    EXPECT_TRUE(b.done());
}

TEST(Task, LivenessTokensDieWithTheirGeneration)
{
    detail::LivenessTable table;
    const std::uint32_t slot = table.acquire();
    const detail::Liveness old = table.token(slot);
    EXPECT_TRUE(table.alive(old));
    table.release(slot);
    EXPECT_FALSE(table.alive(old));
    EXPECT_EQ(table.acquire(), slot);  // recycled
    EXPECT_FALSE(table.alive(old));
    EXPECT_TRUE(table.alive(table.token(slot)));
}

}  // namespace
}  // namespace memif::sim
