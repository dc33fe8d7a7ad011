// Self-compiling kernel cache: the execution path behind
// Backend::kGenerated.
//
// The pipeline is the paper's "code generation and compilation" stage
// made a runtime service: a Plan (or PlanForest) is emitted to C++ by
// src/codegen/, compiled to a shared object by the system compiler,
// dlopened, and invoked through the C ABI of codegen/kernel_abi.h. The
// kernel calls back into the host's runtime-dispatched set kernels
// (graph/vertex_set.h), so one compiled artifact serves scalar and
// vector machines and follows select_kernel_isa() switches.
//
// Cache key: the canonical forms of the patterns (core/pattern_canon.h)
// plus a fingerprint of the compiled plans — schedules, restriction
// windows, IEP terms — which is exactly what graph traits influence
// through the planner. Implemented as a hash of the emitted source, so
// two graphs that plan the same pattern identically share one kernel.
// Artifacts persist on disk (default: <tmp>/graphpi-kernel-cache,
// override with GRAPHPI_KERNEL_CACHE_DIR), so later processes skip the
// compile entirely; loaded handles stay open for the process lifetime.
//
// Every entry point degrades gracefully: when no compiler is found (or
// GRAPHPI_JIT_DISABLE is set), lookups report unavailability and the
// callers (GraphPi::count / count_batch) fall back to the interpreter.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "codegen/kernel_abi.h"
#include "core/plan_forest.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "support/exec_control.h"

namespace graphpi::jit {

/// Generated batch kernel: fills one finalized count per forest plan.
/// `run` is a codegen::KernelRunOptions* (nullable — defaults).
using GeneratedBatchFn = void (*)(const void* graph, const void* ops,
                                  const void* run,
                                  unsigned long long* counts);

/// True when a working C++ compiler was found (GRAPHPI_CXX, CXX, then
/// c++ / g++ / clang++, probed once per process) and the JIT is not
/// disabled via GRAPHPI_JIT_DISABLE.
[[nodiscard]] bool compiler_available();

/// Command name of the probed compiler; empty when unavailable.
[[nodiscard]] const std::string& compiler_command();

class KernelCache {
 public:
  struct Stats {
    std::uint64_t memory_hits = 0;  ///< served from the in-process map
    std::uint64_t disk_hits = 0;    ///< dlopened a previously built .so
    std::uint64_t compiles = 0;     ///< invoked the system compiler
    std::uint64_t failures = 0;     ///< compile/dlopen/ABI failures
  };

  /// Process-wide cache (kernels are plan-keyed, not graph-keyed, so one
  /// instance serves every GraphPi handle). Thread-safe.
  static KernelCache& instance();

  /// Compiled kernel for `forest`, building it on a miss. Returns nullptr
  /// when no compiler is available or the build fails (the failure is
  /// remembered — subsequent calls are cheap).
  [[nodiscard]] GeneratedBatchFn get(const PlanForest& forest);

  [[nodiscard]] Stats stats() const;

  /// Directory holding the .cpp/.so artifacts.
  [[nodiscard]] const std::string& cache_dir() const { return dir_; }

  /// The shared object get() publishes (and looks for) for `forest`.
  [[nodiscard]] std::string artifact_path(const PlanForest& forest) const;

 private:
  KernelCache();
  struct Entry;
  struct Impl;
  /// Publishes a build outcome under the lock (first writer wins) and
  /// updates the stats; returns the entry's final kernel.
  GeneratedBatchFn record_result(std::uint64_t key, GeneratedBatchFn fn,
                                 bool disk_hit, bool compiled);
  std::string dir_;
  Impl* impl_;  ///< intentionally leaked: dlopened code may outlive exit
};

/// Runs `forest` against `graph` through a generated kernel: ensures the
/// hub index when a plan wants it, builds the ABI view, invokes the
/// cached kernel. Kernels are compiled with OpenMP when the system
/// compiler supports -fopenmp, and partition the root loop over
/// `threads` workers (<= 0: runtime default). nullopt when the JIT is
/// unavailable or a plan has fewer than 2 steps — callers fall back to
/// the interpreter.
///
/// An armed `control` maps onto the v3 kernel ABI: poll stride and root
/// budget pass straight through, while deadlines and the caller's cancel
/// flag are serviced by a host watchdog thread that flips the kernel's
/// cancel cell (generated code never reads clocks). On a stop the kernel
/// returns best-effort partial counts and `report` carries the status
/// and completed-root tally.
[[nodiscard]] std::optional<std::vector<Count>> run_generated(
    const Graph& graph, const PlanForest& forest, int threads = 0,
    const support::ExecControl* control = nullptr,
    support::RunReport* report = nullptr);

}  // namespace graphpi::jit
