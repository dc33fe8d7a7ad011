// Bounded execution: deadlines, cooperative cancellation, work budgets.
//
// Every backend (the serial ForestExecutor, the OpenMP parallel engine,
// the sharded distributed runtime, and generated kernels through the v3
// kernel ABI) polls one ExecControl handle at ROOT-VERTEX granularity:
// between two poll points a backend only ever finishes the root unit it
// is working on, so a run stops within ~2 poll strides of the deadline
// and the partial per-plan sums it has accumulated so far stay
// well-defined. Polls are stride-gated (the stride is rounded up to a
// power of two so the gate is a single mask test) — the hot path pays
// one predictable branch per root, nothing more.
//
// Callers that arm a control should use the RunReport-returning API
// variants: a stopped run reports WHY it stopped (timeout / cancelled /
// budget) and how many root units completed, and returns best-effort
// partial counts (IEP sums are divided without the divisibility check —
// partial inclusion–exclusion sums are generally not divisible by x, so
// partial counts are approximate for IEP plans and exact lower-bound
// accumulations for plain plans).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace graphpi::support {

/// Root vertices a worker claims at a time from the shared dynamic
/// schedule of every parallel root loop: the OpenMP engine
/// (engine/parallel.h) and the generated kernels (codegen/codegen.h),
/// which emit this value. Small on purpose: on a degree-ordered graph
/// the hubs hold the lowest ids, so a large chunk hands one worker most
/// of the run's work.
inline constexpr std::int64_t kRootChunk = 4;

/// Why a counting run returned.
enum class RunStatus : std::uint8_t {
  kOk = 0,     ///< ran to completion; counts are exact
  kTimeout,    ///< the monotonic deadline passed
  kCancelled,  ///< the caller's cancel flag was observed set
  kBudget,     ///< the root-unit work budget was exhausted
};

[[nodiscard]] const char* to_string(RunStatus status) noexcept;

/// Bumps the matching `exec.{timeouts,cancellations,budget_exhausted}`
/// metrics-registry counter; kOk is a no-op. Each backend calls this
/// exactly once when it finalizes a bounded run's status.
void observe_run_status(RunStatus status) noexcept;

/// Outcome of one bounded counting call.
struct RunReport {
  RunStatus status = RunStatus::kOk;
  /// Root vertices fully processed before the run returned.
  std::uint64_t completed_roots = 0;

  [[nodiscard]] bool complete() const noexcept {
    return status == RunStatus::kOk;
  }

  /// Chunked batches merge their per-chunk reports: roots add, the first
  /// non-ok status wins (later chunks never run after a stop).
  void merge(const RunReport& other) noexcept {
    completed_roots += other.completed_roots;
    if (status == RunStatus::kOk) status = other.status;
  }
};

/// A handle describing the bounds of one run: an optional monotonic
/// deadline, an optional external cancel flag, and an optional root-unit
/// budget. Immutable while a run polls it; safe to share across the
/// workers of one run (check() only reads).
class ExecControl {
 public:
  using Clock = std::chrono::steady_clock;

  static constexpr std::uint32_t kDefaultPollStride = 64;

  ExecControl() = default;

  /// Arms a deadline `timeout_ms` from now (monotonic clock).
  void arm_deadline_ms(double timeout_ms) noexcept {
    deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       timeout_ms));
    has_deadline_ = true;
  }

  /// Cooperative cancel flag; any thread may set it to true at any time.
  void set_cancel_flag(const std::atomic<bool>* flag) noexcept {
    cancel_ = flag;
  }

  /// Stop after ~`roots` completed root units (0 = unlimited). Enforced
  /// at poll points, so the overshoot is bounded by one stride.
  void set_root_budget(std::uint64_t roots) noexcept { budget_ = roots; }

  /// Root units between two full checks; rounded up to a power of two
  /// (0 restores the default). Small strides tighten stop latency, large
  /// strides shrink the (already tiny) polling cost.
  void set_poll_stride(std::uint32_t stride) noexcept {
    if (stride == 0) stride = kDefaultPollStride;
    std::uint32_t p = 1;
    while (p < stride && p < (1u << 30)) p <<= 1;
    stride_ = p;
  }

  [[nodiscard]] bool armed() const noexcept {
    return has_deadline_ || cancel_ != nullptr || budget_ != 0;
  }
  [[nodiscard]] bool has_deadline() const noexcept { return has_deadline_; }
  [[nodiscard]] Clock::time_point deadline() const noexcept {
    return deadline_;
  }
  [[nodiscard]] const std::atomic<bool>* cancel_flag() const noexcept {
    return cancel_;
  }
  [[nodiscard]] std::uint64_t root_budget() const noexcept { return budget_; }
  [[nodiscard]] std::uint32_t poll_stride() const noexcept { return stride_; }
  [[nodiscard]] std::uint64_t poll_mask() const noexcept {
    return stride_ - 1;
  }

  /// The full (clock-reading) check — call it stride-gated. Order:
  /// explicit cancellation beats the deadline beats the budget.
  [[nodiscard]] RunStatus check(std::uint64_t completed_roots) const noexcept {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed))
      return RunStatus::kCancelled;
    if (has_deadline_ && Clock::now() >= deadline_) return RunStatus::kTimeout;
    if (budget_ != 0 && completed_roots >= budget_) return RunStatus::kBudget;
    return RunStatus::kOk;
  }

 private:
  Clock::time_point deadline_{};
  const std::atomic<bool>* cancel_ = nullptr;
  std::uint64_t budget_ = 0;
  std::uint32_t stride_ = kDefaultPollStride;
  bool has_deadline_ = false;
};

/// Per-worker stride gate for serial root loops. A null or unarmed
/// control degenerates to a counter — the loop stays branch-cheap.
class PollGate {
 public:
  explicit PollGate(const ExecControl* control) noexcept
      : control_(control != nullptr && control->armed() ? control : nullptr),
        mask_(control_ != nullptr ? control_->poll_mask() : 0) {}

  /// Call once per completed root unit; the returned status is sticky.
  [[nodiscard]] RunStatus completed_unit() noexcept {
    ++done_;
    if (control_ == nullptr || status_ != RunStatus::kOk) return status_;
    if ((done_ & mask_) != 0) return RunStatus::kOk;
    status_ = control_->check(done_);
    return status_;
  }

  [[nodiscard]] std::uint64_t done() const noexcept { return done_; }
  [[nodiscard]] RunStatus status() const noexcept { return status_; }

 private:
  const ExecControl* control_;
  std::uint64_t mask_;
  std::uint64_t done_ = 0;
  RunStatus status_ = RunStatus::kOk;
};

}  // namespace graphpi::support
