// A grow-on-demand pool of reusable objects that are expensive to build:
// model replicas and fused executors. acquire() hands out an idle object, or
// builds one when every built object is leased; the Lease puts it back when
// it goes out of scope. So the number built is the peak number of concurrent
// leases, never the number of users.
//
// A leased object keeps whatever state its last user left in it. Users must
// load everything they read (e.g. Sequential::set_weights before training;
// Sequential::infer takes its weights as an argument), which every model and
// executor entry point already does.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/model.hpp"
#include "obs/metrics.hpp"

namespace specdag::nn {

template <typename T>
class LeasePool {
 public:
  using Maker = std::function<std::unique_ptr<T>()>;

  // Exclusive use of one pooled object until destruction.
  class Lease {
   public:
    Lease(Lease&& other) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (item_) pool_->release(std::move(item_));
    }

    T& operator*() const { return *item_; }
    T* operator->() const { return item_.get(); }

   private:
    friend class LeasePool;
    Lease(LeasePool* pool, std::unique_ptr<T> item) : pool_(pool), item_(std::move(item)) {}

    LeasePool* pool_;
    std::unique_ptr<T> item_;
  };

  explicit LeasePool(Maker make) : make_(std::move(make)) {}
  LeasePool(const LeasePool&) = delete;
  LeasePool& operator=(const LeasePool&) = delete;

  // Thread-safe. Builds outside the lock, so a slow build never stalls
  // concurrent returns.
  Lease acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<T> item = std::move(idle_.back());
        idle_.pop_back();
        return Lease(this, std::move(item));
      }
    }
    std::unique_ptr<T> item = make_();
    std::lock_guard<std::mutex> lock(mutex_);
    ++built_;
    return Lease(this, std::move(item));
  }

  // Objects built so far (leased or idle).
  std::size_t built() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return built_;
  }

 private:
  void release(std::unique_ptr<T> item) {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(item));
  }

  Maker make_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<T>> idle_;
  std::size_t built_ = 0;
};

// Model replicas of one architecture, shared by every client of a network.
using ReplicaPool = LeasePool<Sequential>;

// A pool that builds replicas with `factory`, counting each build in the
// `nn.replicas_built` obs counter.
inline ReplicaPool make_replica_pool(ModelFactory factory) {
  return ReplicaPool([factory = std::move(factory)] {
    static obs::Counter& built = obs::Registry::counter("nn.replicas_built");
    built.add();
    return std::make_unique<Sequential>(factory());
  });
}

}  // namespace specdag::nn
