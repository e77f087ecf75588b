// Guarded<T>: a value reachable only under its own mutex.
//
// The sweep runner, the fabric coordinator and worker, and the trace
// registry share state between threads.  Each keeps that state in a
// Guarded, which owns the mutex and the value together, so the compiler
// enforces what a comment could only ask for: lock() is the one way to the
// value.  The handle lock() returns holds the lock for its scope and has
// no unlock(), so a critical section is simply a scope; a thread that must
// sleep until the state changes waits on a condition variable through the
// handle, which releases the lock while blocked and retakes it to check.
// A reference taken through a handle must not outlive it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

namespace dynvote {

template <typename T>
class Guarded {
 public:
  template <typename... Args>
  explicit Guarded(Args&&... args) : value_(std::forward<Args>(args)...) {}

  Guarded(const Guarded&) = delete;
  Guarded& operator=(const Guarded&) = delete;

  /// Holds the lock from lock() to the end of its scope.
  class Locked {
   public:
    Locked(const Locked&) = delete;
    Locked& operator=(const Locked&) = delete;

    T& operator*() const { return *value_; }
    T* operator->() const { return value_; }

    /// Block on `cv` until `ready(value)` holds.
    template <typename Ready>
    void wait(std::condition_variable& cv, Ready ready) {
      cv.wait(lock_, [&] { return ready(*value_); });
    }

    /// As wait, but give up after `timeout`; returns ready(value).
    template <typename Rep, typename Period, typename Ready>
    bool wait_for(std::condition_variable& cv,
                  std::chrono::duration<Rep, Period> timeout, Ready ready) {
      return cv.wait_for(lock_, timeout, [&] { return ready(*value_); });
    }

   private:
    friend class Guarded;
    Locked(std::mutex& mutex, T& value) : lock_(mutex), value_(&value) {}

    std::unique_lock<std::mutex> lock_;
    T* value_;
  };

  Locked lock() { return Locked(mutex_, value_); }

 private:
  std::mutex mutex_;
  T value_;
};

}  // namespace dynvote
