/**
 * @file
 * Tests for the shared_ptr free list: storage is reused, a retired
 * object never revives, and a live one is never handed out twice.
 */
#include "sim/recycle_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace memif::sim {
namespace {

struct Record {
    int id = 0;
    std::vector<int> pages;
    void
    recycle()
    {
        id = 0;
        pages.clear();
    }
};

TEST(RecyclePool, RetiredObjectIsResetReusedAndNeverRevived)
{
    RecyclePool<Record> pool;
    std::shared_ptr<Record> a = pool.make();
    a->id = 7;
    a->pages.assign(100, 1);
    const std::weak_ptr<Record> weak = a;
    const Record *storage = a.get();
    a.reset();
    EXPECT_TRUE(weak.expired());
    EXPECT_EQ(pool.parked(), 1u);

    const std::shared_ptr<Record> b = pool.make();
    EXPECT_EQ(b.get(), storage);
    EXPECT_EQ(b->id, 0);
    EXPECT_TRUE(b->pages.empty());
    EXPECT_GE(b->pages.capacity(), 100u);
    // The weak handle belongs to the retired object, not the storage.
    EXPECT_EQ(weak.lock(), nullptr);
    EXPECT_EQ(pool.parked(), 0u);
}

TEST(RecyclePool, LiveObjectsAreNeverShared)
{
    RecyclePool<Record> pool;
    const std::shared_ptr<Record> a = pool.make();
    const std::weak_ptr<Record> weak = a;
    const std::shared_ptr<Record> b = pool.make();
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(weak.lock(), a);
}

TEST(RecyclePool, ObjectMayOutliveItsPool)
{
    std::shared_ptr<Record> survivor;
    {
        RecyclePool<Record> pool;
        survivor = pool.make();
        survivor->pages.push_back(1);
    }
    survivor.reset();  // parks into the store the deleter keeps alive
    SUCCEED();
}

}  // namespace
}  // namespace memif::sim
