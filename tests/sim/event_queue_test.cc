/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism, clock
 * behaviour, run_until semantics, and cancellation across slot reuse.
 */
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace memif::sim {
namespace {

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule_at(30, [&] { order.push_back(3); });
    eq.schedule_at(10, [&] { order.push_back(1); });
    eq.schedule_at(20, [&] { order.push_back(2); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTimestampIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule_at(100, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    SimTime fired_at = 0;
    eq.schedule_at(50, [&] {
        eq.schedule_after(25, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 75u);
}

TEST(EventQueue, PastScheduleClampsToNow)
{
    EventQueue eq;
    SimTime fired_at = 0;
    eq.schedule_at(100, [&] {
        eq.schedule_at(10, [&] { fired_at = eq.now(); });  // "in the past"
    });
    eq.run();
    EXPECT_EQ(fired_at, 100u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) eq.schedule_after(10, chain);
    };
    eq.schedule_at(0, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule_at(10, [&] { ++fired; });
    eq.schedule_at(20, [&] { ++fired; });
    eq.schedule_at(30, [&] { ++fired; });
    EXPECT_EQ(eq.run_until(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue eq;
    EXPECT_EQ(eq.run_until(500), 0u);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i) eq.schedule_at(i, [] {});
    eq.run();
    EXPECT_EQ(eq.events_executed(), 10u);
}

TEST(EventQueue, CancelledEventNeverRuns)
{
    EventQueue eq;
    int fired = 0;
    const EventQueue::EventId id = eq.schedule_at(10, [&] { ++fired; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.events_executed(), 0u);
}

TEST(EventQueue, CancelledEventDoesNotAdvanceClock)
{
    // The watchdog relies on this: disarming must leave no virtual-time
    // footprint, or fault-free runs would end later than the seed.
    EventQueue eq;
    const EventQueue::EventId id = eq.schedule_at(1000, [] {});
    eq.schedule_at(10, [] {});
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, CancelledEventLeavesQueueEmpty)
{
    EventQueue eq;
    const EventQueue::EventId id = eq.schedule_at(50, [] {});
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, CancelReturnsFalseForUnknownOrExecuted)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(EventQueue::kInvalidEvent));
    const EventQueue::EventId id = eq.schedule_at(5, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));       // already executed
    EXPECT_FALSE(eq.cancel(id + 42));  // never scheduled
}

TEST(EventQueue, CancelOneOfSeveralAtSameTime)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule_at(100, [&] { order.push_back(0); });
    const EventQueue::EventId id =
        eq.schedule_at(100, [&] { order.push_back(1); });
    eq.schedule_at(100, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventQueue, CancelFromWithinAnEvent)
{
    EventQueue eq;
    int fired = 0;
    const EventQueue::EventId victim = eq.schedule_at(20, [&] { ++fired; });
    eq.schedule_at(10, [&] { EXPECT_TRUE(eq.cancel(victim)); });
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, StaleIdCannotCancelTheSlotsNextOccupant)
{
    // ABA: once an event runs its slot is recycled; the old id must not
    // cancel whatever event takes the slot next.
    EventQueue eq;
    const EventQueue::EventId first = eq.schedule_at(10, [] {});
    eq.run();
    bool ran = false;
    const EventQueue::EventId second = eq.schedule_at(20, [&] { ran = true; });
    EXPECT_EQ(second & 0xFFFFFFFFu, first & 0xFFFFFFFFu);  // same slot
    EXPECT_NE(second, first);
    EXPECT_FALSE(eq.cancel(first));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, CancelledSlotIsRecycledOnlyAfterItSurfaces)
{
    EventQueue eq;
    const EventQueue::EventId victim = eq.schedule_at(10, [] {});
    EXPECT_TRUE(eq.cancel(victim));
    EXPECT_FALSE(eq.cancel(victim));  // already cancelled
    // The cancelled key still sits in the heap: a new event gets a
    // fresh slot, not the victim's.
    const EventQueue::EventId other = eq.schedule_at(20, [] {});
    EXPECT_NE(other & 0xFFFFFFFFu, victim & 0xFFFFFFFFu);
    eq.run();
    // Both slots are recycled now, under new generations: whichever
    // the next event takes, neither old id cancels it.
    bool ran = false;
    const EventQueue::EventId reuse = eq.schedule_at(30, [&] { ran = true; });
    EXPECT_FALSE(eq.cancel(victim));
    EXPECT_FALSE(eq.cancel(other));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(eq.cancel(reuse));
}

TEST(EventQueue, PendingTracksCancelSurfaceAndReuse)
{
    EventQueue eq;
    std::vector<EventQueue::EventId> ids;
    for (SimTime t = 1; t <= 4; ++t) ids.push_back(eq.schedule_at(t, [] {}));
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_TRUE(eq.cancel(ids[0]));  // at the top of the heap
    EXPECT_TRUE(eq.cancel(ids[2]));  // in the middle
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_FALSE(eq.empty());
    EXPECT_TRUE(eq.step());  // surfaces ids[0], runs ids[1]
    EXPECT_EQ(eq.now(), 2u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.schedule_at(3, [] {});  // reuses a recycled slot
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.events_executed(), 3u);
    EXPECT_EQ(eq.now(), 4u);
}

TEST(EventQueue, FuzzedTieBreakOrderIsPinned)
{
    // The permutation a seed produces is part of the fuzzer's replay
    // contract: a failing seed must replay the same interleaving on
    // every build. The golden order predates the slot-indexed heap, so
    // it also shows the heap reproduces the old dispatch order exactly.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule_at(100, [&] { order.push_back(100); });  // FIFO key
    eq.set_tie_break_seed(0x5eed);
    std::vector<EventQueue::EventId> ids;
    for (int i = 0; i < 12; ++i)
        ids.push_back(
            eq.schedule_at(100, [&order, i] { order.push_back(i); }));
    EXPECT_TRUE(eq.cancel(ids[5]));
    eq.schedule_at(50, [&] {
        order.push_back(50);
        for (int i = 20; i < 24; ++i)
            eq.schedule_at(100, [&order, i] { order.push_back(i); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{50, 100, 10, 22, 6, 20, 7, 23, 21, 11,
                                       4, 9, 8, 2, 1, 0, 3}));
}

}  // namespace
}  // namespace memif::sim
