#ifndef RTREC_PERFBENCH_LOADGEN_H_
#define RTREC_PERFBENCH_LOADGEN_H_

// Open-loop load generator over the rtrec TCP wire protocol. Each
// connection is driven by one thread that sends frames at their due times
// (encoded with the public net/wire.h codec, many requests in flight) and
// matches replies by request id, so a slow server receives the same load
// and every latency is measured from when the request was due.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/action.h"
#include "core/recommender.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One scheduled operation: a Recommend (read) or an Observe (write).
struct Op {
  bool is_write = false;
  rtrec::RecRequest request;
  rtrec::UserAction action;
  /// Due time, nanoseconds after the leg's start.
  std::int64_t due_ns = 0;
};

/// Tallies over the Recommend pages a connection received. Every user
/// the benchmark asks about is warmed, so an empty page or a page that
/// lists a video twice is wrong. A served page is the engine's ranked
/// list blended with the group's hot videos (DemographicFilter), which
/// carry popularity scores and are not filtered against the request
/// seed; seed echoes and score inversions are counted, not failed.
struct PageChecks {
  std::size_t pages = 0;
  std::size_t empty = 0;
  std::size_t duplicated = 0;
  std::size_t seed_echoed = 0;  ///< A request seed came back as a result.
  std::size_t unsorted = 0;     ///< Scores not in non-increasing order.

  bool ok() const { return empty == 0 && duplicated == 0; }
  void Merge(const PageChecks& o) {
    pages += o.pages;
    empty += o.empty;
    duplicated += o.duplicated;
    seed_echoed += o.seed_echoed;
    unsorted += o.unsorted;
  }
};

/// What one open-loop leg observed, merged over its connections.
struct LegResult {
  std::vector<double> read_us;         ///< Reply time - due time, reads.
  std::vector<double> read_send_us;    ///< Reply time - send time, reads.
  std::vector<double> write_us;        ///< Ack time - due time, writes.
  std::vector<double> lateness_us;     ///< Send time - due time, all ops.
  std::size_t reads_sent = 0, reads_ok = 0, reads_failed = 0;
  std::size_t writes_sent = 0, writes_ok = 0, writes_failed = 0;
  /// Seconds from the leg start to the last reply (or the schedule end,
  /// whichever is later).
  double elapsed_s = 0.0;
  PageChecks pages;
  std::string error;  ///< First connection-level error, if any.

  /// Every scheduled operation ends ok or failed (unsent ones too).
  std::size_t attempted() const {
    return reads_ok + reads_failed + writes_ok + writes_failed;
  }
  std::size_t failed() const { return reads_failed + writes_failed; }
  void Merge(LegResult&& o);
};

/// Sets the calling thread's timer slack to 1 ns, so a benchmark thread
/// that sleeps until a due time wakes then and not up to 50 us later
/// (the kernel default); the measurements are tens of microseconds.
void TightenTimerSlack();

/// Drives each schedule in `per_connection` over its own connection to
/// 127.0.0.1:`port`, one thread per connection, all sharing one start
/// time. Schedules must be sorted by due time. Requests still unanswered
/// `drain_timeout_ms` after a connection's last send count as failed.
LegResult RunOpenLoop(std::uint16_t port,
                      const std::vector<std::vector<Op>>& per_connection,
                      int drain_timeout_ms = 2000);

}  // namespace perfbench

#endif  // RTREC_PERFBENCH_LOADGEN_H_
