// Guarded<T> carries the lock discipline of every multi-threaded part of
// the repo (runner, fabric, trace registry), so its two promises are tested
// on their own, and under ThreadSanitizer in CI: writes through lock() from
// many threads never race, and a handle's wait sleeps until another
// thread's write makes its predicate true.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/guarded.hpp"

namespace dynvote {
namespace {

TEST(Guarded, ConcurrentIncrementsAreSerialized) {
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kIncrements = 20000;
  Guarded<std::uint64_t> counter(std::uint64_t{0});
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kIncrements; ++i) ++*counter.lock();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(*counter.lock(), kThreads * kIncrements);
}

TEST(Guarded, WaitSleepsUntilAnotherThreadsWrite) {
  struct Box {
    bool ready = false;
    int value = 0;
  };
  Guarded<Box> box;
  std::condition_variable changed;
  std::thread producer([&] {
    {
      const auto b = box.lock();
      b->value = 42;
      b->ready = true;
    }
    changed.notify_all();
  });
  int seen = 0;
  {
    auto b = box.lock();
    b.wait(changed, [](const Box& state) { return state.ready; });
    seen = b->value;
  }
  producer.join();
  EXPECT_EQ(seen, 42);
}

TEST(Guarded, WaitForGivesUpWithThePredicateFalse) {
  Guarded<bool> flag(false);
  std::condition_variable never;
  auto f = flag.lock();
  EXPECT_FALSE(f.wait_for(never, std::chrono::milliseconds(1),
                          [](bool set) { return set; }));
}

}  // namespace
}  // namespace dynvote
