#ifndef RTREC_COMMON_FAULT_INJECTION_H_
#define RTREC_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "common/status.h"

namespace rtrec {

class MetricsRegistry;

/// What an armed fault point does when its trigger fires.
///
/// Trigger selection: if `every_nth > 0` the fault fires on every Nth hit
/// of the point (1 = every hit); otherwise it fires with `probability` on
/// each hit. `one_shot` additionally restricts the fault to firing exactly
/// once, after which the point behaves as disarmed until re-armed.
struct FaultSpec {
  enum class Action {
    kError,    ///< Hit() returns `Status(error_code, error_message)`.
    kLatency,  ///< Hit() sleeps `latency_ms` then returns OK.
  };

  Action action = Action::kError;
  StatusCode error_code = StatusCode::kUnavailable;
  std::string error_message = "injected fault";
  int latency_ms = 0;
  double probability = 1.0;
  std::uint64_t every_nth = 0;
  bool one_shot = false;

  /// Convenience factories, chainable with the fluent setters below:
  ///   FaultInjector::Instance().Arm("service.recommend",
  ///       FaultSpec::Error(StatusCode::kUnavailable).WithProbability(0.01));
  static FaultSpec Error(StatusCode code = StatusCode::kUnavailable);
  static FaultSpec Latency(int ms);

  FaultSpec& WithProbability(double p) {
    probability = p;
    return *this;
  }
  FaultSpec& WithEveryNth(std::uint64_t n) {
    every_nth = n;
    return *this;
  }
  FaultSpec& WithOneShot() {
    one_shot = true;
    return *this;
  }
  FaultSpec& WithMessage(std::string msg) {
    error_message = std::move(msg);
    return *this;
  }
};

/// Process-wide registry of named fault points for robustness testing.
///
/// Production code declares points with RTREC_FAULT_POINT("name"); tests
/// arm them with a FaultSpec to make the surrounding code fail on demand.
/// The disarmed fast path is a single relaxed atomic load — no lock, no
/// map lookup, no branch on the point name — so fault points are safe to
/// leave in hot paths permanently.
///
/// Every injected fault increments `fault.injected.<point>` (and the
/// rollup `fault.injected`) in the configured MetricsRegistry.
///
/// Thread-safe. Arm/Disarm may race with Hit; a Hit concurrent with a
/// Disarm may observe either state.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Arms (or re-arms, replacing the spec and resetting trigger state)
  /// the named point.
  void Arm(const std::string& point, FaultSpec spec);

  /// Disarms one point. No-op if not armed.
  void Disarm(const std::string& point);

  /// Disarms every point. Tests should call this in TearDown.
  void DisarmAll();

  /// Registry receiving fault.injected.* counters. Defaults to
  /// MetricsRegistry::Default(). Pass nullptr to restore the default.
  void SetMetrics(MetricsRegistry* metrics);

  /// True iff any point is armed process-wide. The zero-cost fast path.
  static bool AnyArmed() {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  /// Evaluates the named point: returns a non-OK Status iff an armed
  /// kError fault fired; a kLatency fault sleeps, then returns OK.
  /// Callers should go through RTREC_FAULT_POINT, which short-circuits
  /// via AnyArmed().
  Status Hit(std::string_view point);

  /// Times the named point's fault has fired since it was last armed.
  std::uint64_t InjectedCount(const std::string& point) const;

 private:
  FaultInjector() = default;

  struct PointState {
    FaultSpec spec;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> injected{0};
    std::atomic<bool> spent{false};  // One-shot already fired.
  };

  Status Fire(std::string_view point, PointState& state);

  static std::atomic<int> armed_points_;

  mutable std::shared_mutex mu_;
  // Shared so an in-flight Hit keeps its state alive after Disarm.
  std::map<std::string, std::shared_ptr<PointState>, std::less<>> points_;
  std::atomic<MetricsRegistry*> metrics_{nullptr};
};

/// Fast-path helper behind RTREC_FAULT_POINT.
inline Status MaybeInjectFault(std::string_view point) {
  if (!FaultInjector::AnyArmed()) return Status::OK();
  return FaultInjector::Instance().Hit(point);
}

/// Declares a fault point. Expands to a Status: OK unless a test armed
/// the point and its trigger fired. Typical use:
///
///   RTREC_RETURN_IF_ERROR(RTREC_FAULT_POINT("kvstore.checkpoint.write"));
///
/// or, in void/bool contexts:
///
///   if (!RTREC_FAULT_POINT("net.socket.read").ok()) return false;
#define RTREC_FAULT_POINT(name) ::rtrec::MaybeInjectFault(name)

}  // namespace rtrec

#endif  // RTREC_COMMON_FAULT_INJECTION_H_
