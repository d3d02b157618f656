#include "concurrent/cpu_bind.h"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace rtrec::concurrent {

#if defined(__linux__)

std::vector<int> CpuBind::AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

int CpuBind::NumCpus() {
  const std::vector<int> cpus = AllowedCpus();
  if (!cpus.empty()) return static_cast<int>(cpus.size());
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

#else  // !__linux__

std::vector<int> CpuBind::AllowedCpus() {
  std::vector<int> cpus;
  const int n = NumCpus();
  for (int cpu = 0; cpu < n; ++cpu) cpus.push_back(cpu);
  return cpus;
}

int CpuBind::NumCpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

#endif  // __linux__

}  // namespace rtrec::concurrent
