// The host-speed probe: a fixed kernel that belongs to the benchmark, not
// to the program, timed on the cores the sweeps run on so that the
// end-to-end times can be scaled to one reference host speed.
//
// The benchmark runs on a few virtual cores of a shared host, and a
// neighbour on the same physical core slows whatever runs there: the same
// fresh-start sweep took from 4.8 to 8.4 s within two minutes, in CPU time
// as much as in wall time.  The slowdown belongs to one core at a time: a
// kernel timed on another core while the sweep ran did not see it.  So the
// kernel runs on the core that just finished a case, while the thread that
// ran the case waits (ProbingProgress in dvperf.cpp).  The kernel --
// malloc/free churn over a quarter MiB of live blocks, which is what a
// fresh-start run does most -- slowed by the same factor as the sweep.  It
// runs in a child process, so its memory stays out of the benchmark's heap
// and peak RSS, and it calls glibc's malloc and free directly: the
// program's counting operator new (dv_alloc_hook) and any later change to
// the library leave it untouched.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <iterator>
#include <new>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSlots = 512;
constexpr int kStepsPerBlock = 20000;  // about half a millisecond
constexpr int kBlocks = 4;

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool read_full(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_full(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

class Kernel {
 public:
  Kernel() : slots_(kSlots, nullptr) {}

  ~Kernel() {
    for (void* slot : slots_) std::free(slot);
  }

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// CPU seconds of one block, the median of kBlocks: a block that an
  /// interrupt or another thread broke into does not count as slow.
  double measure() {
    double blocks[kBlocks];
    for (double& block_seconds : blocks) block_seconds = block();
    std::sort(std::begin(blocks), std::end(blocks));
    return (blocks[kBlocks / 2 - 1] + blocks[kBlocks / 2]) / 2;
  }

 private:
  double block() {
    const double start = thread_cpu_seconds();
    std::uint64_t x = state_;
    for (int step = 0; step < kStepsPerBlock; ++step) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      void*& slot = slots_[x % kSlots];
      std::free(slot);
      const std::size_t words = 4 + ((x >> 11) & 127);
      auto* block = static_cast<std::uint64_t*>(
          std::malloc(words * sizeof(std::uint64_t)));
      if (block == nullptr) throw std::bad_alloc();
      block[0] = x;
      block[words - 1] = x >> 1;
      slot = block;
    }
    state_ = x;
    return thread_cpu_seconds() - start;
  }

  std::vector<void*> slots_;
  std::uint64_t state_ = kReferenceSeed;
};

/// The child: each request names a core; the kernel moves there, runs, and
/// the reply is its time.  Ends when the request pipe closes.
[[noreturn]] void serve(int requests, int replies) {
  int status = 0;
  try {
    Kernel kernel;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    int cpu = 0;
    while (read_full(requests, &cpu, sizeof cpu)) {
      cpu_set_t here;
      CPU_ZERO(&here);
      if (cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &allowed)) {
        CPU_SET(cpu, &here);
        sched_setaffinity(0, sizeof here, &here);
      } else {
        sched_setaffinity(0, sizeof allowed, &allowed);
      }
      const double seconds = kernel.measure();
      if (!write_full(replies, &seconds, sizeof seconds)) break;
    }
  } catch (...) {
    status = 1;
  }
  // _exit: no atexit handlers, no second flush of the parent's stdio.
  _exit(status);
}

}  // namespace

HostProbe::HostProbe() {
  int requests[2];
  int replies[2];
  if (pipe(requests) != 0) throw std::runtime_error("host probe: pipe failed");
  if (pipe(replies) != 0) {
    close(requests[0]);
    close(requests[1]);
    throw std::runtime_error("host probe: pipe failed");
  }
  pid_ = fork();
  if (pid_ < 0) {
    for (int fd : {requests[0], requests[1], replies[0], replies[1]}) close(fd);
    throw std::runtime_error("host probe: fork failed");
  }
  if (pid_ == 0) {
    close(requests[1]);
    close(replies[0]);
    serve(requests[0], replies[1]);
  }
  close(requests[0]);
  close(replies[1]);
  requests_ = requests[1];
  replies_ = replies[0];
}

HostProbe::~HostProbe() {
  // EOF on its request pipe ends the child.
  close(requests_);
  close(replies_);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double HostProbe::measure_here() {
  const int cpu = sched_getcpu();
  double seconds = 0.0;
  if (!write_full(requests_, &cpu, sizeof cpu) ||
      !read_full(replies_, &seconds, sizeof seconds)) {
    throw std::runtime_error("host probe: the probe process ended");
  }
  return seconds;
}

}  // namespace perfbench
