#include "common/fault_injection.h"

#include <chrono>
#include <thread>

#include "common/metrics.h"
#include "common/random.h"

namespace rtrec {
namespace {

// Status(code, msg) is private; route through the per-code factories.
Status MakeStatus(StatusCode code, std::string msg) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(msg));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case StatusCode::kAborted:
      return Status::Aborted(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(msg));
  }
  return Status::Internal(std::move(msg));
}

}  // namespace

std::atomic<int> FaultInjector::armed_points_{0};

FaultSpec FaultSpec::Error(StatusCode code) {
  FaultSpec spec;
  spec.action = Action::kError;
  spec.error_code = code;
  return spec;
}

FaultSpec FaultSpec::Latency(int ms) {
  FaultSpec spec;
  spec.action = Action::kLatency;
  spec.latency_ms = ms;
  return spec;
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const std::string& point, FaultSpec spec) {
  // Re-arming installs a fresh state rather than rewriting the spec a
  // concurrent Hit may be reading.
  auto state = std::make_shared<PointState>();
  state->spec = std::move(spec);
  std::unique_lock lock(mu_);
  auto [it, inserted] = points_.try_emplace(point, state);
  if (inserted) {
    armed_points_.fetch_add(1, std::memory_order_relaxed);
  } else {
    it->second = std::move(state);
  }
}

void FaultInjector::Disarm(const std::string& point) {
  std::unique_lock lock(mu_);
  if (points_.erase(point) > 0) {
    armed_points_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::DisarmAll() {
  std::unique_lock lock(mu_);
  armed_points_.fetch_sub(static_cast<int>(points_.size()),
                          std::memory_order_relaxed);
  points_.clear();
}

void FaultInjector::SetMetrics(MetricsRegistry* metrics) {
  metrics_.store(metrics, std::memory_order_release);
}

Status FaultInjector::Hit(std::string_view point) {
  std::shared_ptr<PointState> state;
  {
    std::shared_lock lock(mu_);
    auto it = points_.find(point);
    if (it == points_.end()) return Status::OK();
    state = it->second;
  }
  // Holding a reference keeps the state alive through a concurrent
  // Disarm or re-Arm, which then takes effect from the next Hit.
  std::uint64_t hit =
      state->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  const FaultSpec& spec = state->spec;
  bool eligible = true;
  if (spec.every_nth > 0) {
    eligible = (hit % spec.every_nth) == 0;
  } else if (spec.probability < 1.0) {
    static std::atomic<std::uint64_t> seed_counter{0};
    thread_local Rng rng(0x9E3779B97F4A7C15ull *
                         (seed_counter.fetch_add(1) + 1));
    eligible = rng.NextBool(spec.probability);
  }
  if (!eligible) return Status::OK();
  if (spec.one_shot && state->spent.exchange(true)) return Status::OK();
  return Fire(point, *state);
}

Status FaultInjector::Fire(std::string_view point, PointState& state) {
  state.injected.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry* metrics = metrics_.load(std::memory_order_acquire);
  if (metrics == nullptr) metrics = &MetricsRegistry::Default();
  metrics->GetCounter("fault.injected")->Increment();
  metrics->GetCounter("fault.injected." + std::string(point))->Increment();
  const FaultSpec& spec = state.spec;
  switch (spec.action) {
    case FaultSpec::Action::kError:
      return MakeStatus(spec.error_code,
                        spec.error_message + " at " + std::string(point));
    case FaultSpec::Action::kLatency:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.latency_ms));
      return Status::OK();
  }
  return Status::OK();  // Unreachable; silences -Wreturn-type.
}

std::uint64_t FaultInjector::InjectedCount(const std::string& point) const {
  std::shared_lock lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return 0;
  return it->second->injected.load(std::memory_order_relaxed);
}

}  // namespace rtrec
