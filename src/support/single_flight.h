// Process-lifetime single-flight memo map: a pure, expensive value (a
// synthesized corpus, a generated graph) is computed once per key and
// shared as an immutable instance.
//
// The first caller for a key computes outside the lock, so requests for
// *different* keys proceed in parallel; concurrent callers for the same key
// block on its shared_future and receive the same pointer. A computation
// that throws propagates to every waiter and is erased, so a later call
// recomputes instead of replaying the failure.
#pragma once

#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "obs/metrics.h"

namespace simprof::support {

template <typename K, typename V>
class SingleFlight {
 public:
  using Ptr = std::shared_ptr<const V>;

  /// `joined` counts calls served by an existing (finished or in-flight)
  /// computation, `computed` counts computations started.
  SingleFlight(obs::Counter& joined, obs::Counter& computed)
      : joined_(joined), computed_(computed) {}

  /// The memoized value for `key`, running `make()` (returning a V) only if
  /// no computation for the key has succeeded or is in flight.
  template <typename Make>
  Ptr get(const K& key, Make&& make) {
    std::promise<Ptr> promise;
    std::shared_future<Ptr> future;
    bool runner = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = flights_.find(key); it != flights_.end()) {
        joined_.increment();
        future = it->second;
      } else {
        runner = true;
        future = flights_.emplace(key, promise.get_future().share())
                     .first->second;
      }
    }
    if (runner) {
      computed_.increment();
      try {
        promise.set_value(std::make_shared<const V>(make()));
      } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mu_);
        flights_.erase(key);
      }
    }
    return future.get();
  }

 private:
  obs::Counter& joined_;
  obs::Counter& computed_;
  std::mutex mu_;
  std::map<K, std::shared_future<Ptr>> flights_;
};

}  // namespace simprof::support
