/**
 * @file
 * Unit tests for SimEvent, WaitQueue and wait_any.
 */
#include "sim/sync.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/event_queue.h"
#include "sim/task.h"

namespace memif::sim {
namespace {

TEST(SimEvent, WaitBlocksUntilSet)
{
    EventQueue eq;
    SimEvent ev(eq);
    std::vector<SimTime> woke;
    auto waiter = [&]() -> Task {
        co_await ev.wait();
        woke.push_back(eq.now());
    };
    Task t = waiter();
    eq.schedule_at(42, [&] { ev.set(); });
    eq.run();
    ASSERT_EQ(woke.size(), 1u);
    EXPECT_EQ(woke[0], 42u);
}

TEST(SimEvent, WaitOnSetEventIsImmediate)
{
    EventQueue eq;
    SimEvent ev(eq);
    ev.set();
    bool done = false;
    auto waiter = [&]() -> Task {
        co_await ev.wait();
        done = true;
    };
    Task t = waiter();
    EXPECT_TRUE(done);
}

TEST(SimEvent, SetWakesAllWaiters)
{
    EventQueue eq;
    SimEvent ev(eq);
    int woke = 0;
    auto waiter = [&]() -> Task {
        co_await ev.wait();
        ++woke;
    };
    std::vector<Task> ts;
    for (int i = 0; i < 5; ++i) ts.push_back(waiter());
    EXPECT_EQ(ev.waiter_count(), 5u);
    ev.set();
    eq.run();
    EXPECT_EQ(woke, 5);
}

TEST(SimEvent, ResetRearms)
{
    EventQueue eq;
    SimEvent ev(eq);
    int wakeups = 0;
    auto waiter = [&]() -> Task {
        co_await ev.wait();
        ++wakeups;
        ev.reset();
        co_await ev.wait();
        ++wakeups;
    };
    Task t = waiter();
    eq.schedule_at(10, [&] { ev.set(); });
    eq.schedule_at(20, [&] { ev.set(); });
    eq.run();
    EXPECT_EQ(wakeups, 2);
}

TEST(WaitQueue, NotifyOneWakesFifo)
{
    EventQueue eq;
    WaitQueue wq(eq);
    std::vector<int> order;
    auto waiter = [&](int id) -> Task {
        co_await wq.wait();
        order.push_back(id);
    };
    Task a = waiter(1);
    Task b = waiter(2);
    EXPECT_TRUE(wq.notify_one());
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_TRUE(wq.notify_one());
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_FALSE(wq.notify_one());
}

TEST(WaitQueue, NotifyAllWakesEveryone)
{
    EventQueue eq;
    WaitQueue wq(eq);
    int woke = 0;
    auto waiter = [&]() -> Task {
        co_await wq.wait();
        ++woke;
    };
    std::vector<Task> ts;
    for (int i = 0; i < 7; ++i) ts.push_back(waiter());
    EXPECT_EQ(wq.notify_all(), 7u);
    eq.run();
    EXPECT_EQ(woke, 7);
}

TEST(WaitQueue, NotifySkipsDeadWaiters)
{
    EventQueue eq;
    WaitQueue wq(eq);
    bool second_woke = false;
    auto dead = [&]() -> Task { co_await wq.wait(); };
    auto live = [&]() -> Task {
        co_await wq.wait();
        second_woke = true;
    };
    {
        Task d = dead();
        Task l = live();
        EXPECT_EQ(wq.waiter_count(), 2u);
        // d destroyed at scope end while asleep.
        // (note: l also dies; re-create below)
    }
    // Both tasks above died; notify should wake nobody and not crash.
    EXPECT_FALSE(wq.notify_one());
    Task l2 = live();
    EXPECT_TRUE(wq.notify_one());
    eq.run();
    EXPECT_TRUE(second_woke);
}

TEST(WaitAny, ReturnsOnTheFirstEvent)
{
    EventQueue eq;
    SimEvent a(eq), b(eq), c(eq);
    std::size_t which = 99;
    bool done = false;
    std::vector<SimEvent *> set{&a, &b, &c};
    auto waiter = [&]() -> Task {
        co_await wait_any(eq, set, &which);
        done = true;
    };
    Task t = waiter();
    eq.schedule_at(50, [&] { b.set(); });
    eq.schedule_at(500, [&] { a.set(); });
    eq.run_until(100);
    EXPECT_TRUE(done);
    EXPECT_EQ(which, 1u);
    // The later event may still fire; nothing dangles.
    eq.run();
}

TEST(WaitAny, AlreadySetEventReturnsImmediately)
{
    EventQueue eq;
    SimEvent a(eq), b(eq);
    b.set();
    std::size_t which = 99;
    bool done = false;
    std::vector<SimEvent *> set{&a, &b};
    auto waiter = [&]() -> Task {
        co_await wait_any(eq, set, &which);
        done = true;
    };
    Task t = waiter();
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(which, 1u);
}

TEST(WaitAny, LosingEventsDropTheirWaitersSafely)
{
    EventQueue eq;
    SimEvent a(eq), b(eq);
    std::vector<SimEvent *> set{&a, &b};
    auto waiter = [&]() -> Task {
        co_await wait_any(eq, set, nullptr);
    };
    Task t = waiter();
    a.set();
    eq.run();
    EXPECT_TRUE(t.done());
    // The losing event may still hold a (disarmed) stale waiter entry;
    // signalling it later must resume nothing and drain the entry.
    b.set();
    eq.run();
    EXPECT_EQ(b.waiter_count(), 0u);
}

TEST(WaitQueue, NotifySkipsDeadWaiterAfterItsSlotIsReused)
{
    EventQueue eq;
    WaitQueue wq(eq);
    auto sleeper = [&]() -> Task { co_await wq.wait(); };
    bool bystander_woke = false;
    auto bystander = [&]() -> Task {
        co_await Delay{eq, 1000};
        bystander_woke = true;
    };
    bool live_woke = false;
    auto live = [&]() -> Task {
        co_await wq.wait();
        live_woke = true;
    };
    std::optional<Task> dead(sleeper());
    dead.reset();  // dies asleep; its waiter entry stays queued
    Task b = bystander();  // takes the dead task's liveness slot
    Task l = live();
    EXPECT_EQ(wq.waiter_count(), 2u);
    EXPECT_TRUE(wq.notify_one());  // skips the stale entry, wakes l
    EXPECT_EQ(wq.waiter_count(), 0u);
    eq.run_until(10);
    EXPECT_TRUE(live_woke);
    EXPECT_FALSE(bystander_woke);
    eq.run();
    EXPECT_TRUE(bystander_woke);
}

TEST(SimEvent, WokenWaiterMayWaitAgainAtOnce)
{
    EventQueue eq;
    SimEvent ev(eq);
    int rounds = 0;
    auto waiter = [&]() -> Task {
        for (int i = 0; i < 3; ++i) {
            co_await ev.wait();
            ++rounds;
            ev.reset();
        }
    };
    std::vector<Task> tasks;
    tasks.push_back(waiter());
    tasks.push_back(waiter());
    for (int round = 1; round <= 3; ++round) {
        EXPECT_EQ(ev.waiter_count(), 2u);
        ev.set();
        EXPECT_EQ(ev.waiter_count(), 0u);
        eq.run();
        EXPECT_EQ(rounds, 2 * round);
    }
    EXPECT_TRUE(tasks[0].done());
    EXPECT_TRUE(tasks[1].done());
}

}  // namespace
}  // namespace memif::sim
