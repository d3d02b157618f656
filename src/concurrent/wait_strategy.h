#ifndef RTREC_CONCURRENT_WAIT_STRATEGY_H_
#define RTREC_CONCURRENT_WAIT_STRATEGY_H_

#include <cstdint>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rtrec::concurrent {

/// One CPU-relax iteration for busy-wait loops: keeps the core from
/// speculating past the loop and (on SMT) yields pipeline slots to the
/// sibling thread without a syscall.
inline void CpuPause() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// How long a ring-queue side busy-waits before parking on an atomic
/// wait. Spins are CpuPause iterations (no syscall),
/// yields are sched_yield rounds (cheap syscall, lets the counterpart
/// run on an oversubscribed host); after both are exhausted the caller
/// parks. The zero-spin configuration is what a single-CPU host wants:
/// spinning there burns the exact timeslice the counterpart needs.
struct SpinPolicy {
  int spins = 128;
  int yields = 4;

  /// Policy adapted to the host: no spinning when this process may run
  /// on one CPU only (the counterpart cannot be running concurrently).
  /// The CPU count is the affinity mask's population count on Linux (a
  /// pinned process counts its allowed CPUs, not the machine's cores),
  /// std::thread::hardware_concurrency elsewhere.
  static SpinPolicy ForHost() {
    int num_cpus = 0;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      num_cpus = CPU_COUNT(&set);
    }
#endif
    if (num_cpus == 0) {
      num_cpus = static_cast<int>(std::thread::hardware_concurrency());
    }
    SpinPolicy policy;
    if (num_cpus <= 1) policy.spins = 0;
    return policy;
  }
};

}  // namespace rtrec::concurrent

#endif  // RTREC_CONCURRENT_WAIT_STRATEGY_H_
