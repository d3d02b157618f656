#ifndef RTREC_CONCURRENT_CPU_BIND_H_
#define RTREC_CONCURRENT_CPU_BIND_H_

#include <vector>

namespace rtrec::concurrent {

/// The CPUs this process may run on. On Linux this reads
/// sched_getaffinity; elsewhere it falls back to
/// std::thread::hardware_concurrency.
class CpuBind {
 public:
  /// Number of CPUs this process may run on (the affinity mask's
  /// population count, not the machine's core count).
  static int NumCpus();

  /// The CPU ids in this process's affinity mask, ascending. May be
  /// empty only if the platform query fails entirely.
  static std::vector<int> AllowedCpus();
};

}  // namespace rtrec::concurrent

#endif  // RTREC_CONCURRENT_CPU_BIND_H_
