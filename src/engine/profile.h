// Instrumented execution: per-loop counters for one matching run.
//
// The performance model (Section IV-C) predicts, per loop depth, the
// candidate-set cardinality l_i, the intersection work c_i and the
// restriction filter rate f_i. The profiler measures the real quantities
// so the model can be validated head-on (tests/engine/profile_test.cpp
// checks prediction-vs-measurement correlation).
//
// This profiler is the *model-validation* instrument: exhaustive
// per-loop counts from a dedicated instrumented run. For lightweight
// always-on production telemetry — per-run counters, latency
// histograms, trace spans across every backend — use the metrics
// registry (support/metrics.h) and trace layer (support/trace.h)
// instead; they cost nothing on the hot path and export JSON/Prometheus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "graph/graph.h"

namespace graphpi {

struct ExecutionProfile {
  /// Number of times loop d's body started iterating (= parent leaves).
  std::vector<std::uint64_t> loop_entries;
  /// Total candidates produced for depth d across all entries (before
  /// restriction bounds).
  std::vector<std::uint64_t> candidates;
  /// Total candidates surviving the restriction range bounds.
  std::vector<std::uint64_t> candidates_in_bounds;
  /// Total elements read by intersection merges building depth d's set.
  std::vector<std::uint64_t> intersection_work;
  /// Embeddings found.
  std::uint64_t embeddings = 0;

  /// Mean candidate-set size at depth d (measured l_d).
  [[nodiscard]] double mean_candidates(int depth) const {
    const auto e = loop_entries[static_cast<std::size_t>(depth)];
    return e == 0 ? 0.0
                  : static_cast<double>(
                        candidates[static_cast<std::size_t>(depth)]) /
                        static_cast<double>(e);
  }

  /// Measured survival rate of the restriction bounds at depth d
  /// (1 - f_d in the model's terms).
  [[nodiscard]] double bound_survival(int depth) const {
    const auto c = candidates[static_cast<std::size_t>(depth)];
    return c == 0 ? 1.0
                  : static_cast<double>(candidates_in_bounds
                                            [static_cast<std::size_t>(depth)]) /
                        static_cast<double>(c);
  }

  [[nodiscard]] std::string to_string() const;
};

/// Runs a full (plain enumeration) count while collecting the profile.
/// Returns the embedding count; the profile is written to `out`.
[[nodiscard]] Count count_profiled(const Graph& graph,
                                   const Configuration& config,
                                   ExecutionProfile& out);

}  // namespace graphpi
