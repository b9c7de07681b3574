/**
 * @file
 * A free list of heap objects handed out as shared_ptrs: when the last
 * strong reference goes, the deleter resets the object (T::recycle(),
 * which must keep its containers' capacity) and parks it for the next
 * make(). Steady-state churn then costs one control block per object
 * instead of the object and every vector it grows.
 *
 * Each make() mints a fresh control block, so a weak_ptr taken from a
 * retired object stays expired even after its storage is reused: the
 * storage is recycled, the object is never revived. Parked objects are
 * owned by a store the deleters share, so an object that outlives its
 * pool still has somewhere to go.
 */
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace memif::sim {

template <class T>
class RecyclePool {
  public:
    /** A reset object: a parked one when there is one, else a new T. */
    std::shared_ptr<T>
    make()
    {
        std::unique_ptr<T> obj;
        if (store_->parked.empty()) {
            obj = std::make_unique<T>();
        } else {
            obj = std::move(store_->parked.back());
            store_->parked.pop_back();
        }
        return std::shared_ptr<T>(obj.release(), Recycle{store_});
    }

    /** Objects parked for reuse (tests). */
    std::size_t parked() const { return store_->parked.size(); }

  private:
    struct Store {
        std::vector<std::unique_ptr<T>> parked;
    };
    struct Recycle {
        std::shared_ptr<Store> store;
        void
        operator()(T *obj) const
        {
            obj->recycle();
            store->parked.emplace_back(obj);
        }
    };
    std::shared_ptr<Store> store_ = std::make_shared<Store>();
};

}  // namespace memif::sim
