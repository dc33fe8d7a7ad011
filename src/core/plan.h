// The executable plan IR.
//
// A Plan is the flat, engine-facing compilation of a Configuration
// (schedule + restriction set + optional IEP plan): one PlanStep per loop
// depth carrying exactly what an executor needs to run that depth —
// the predecessor depths whose adjacencies are intersected, the
// restriction-window bounds, and the operation kind (extend the partial
// embedding / counting-only leaf / IEP suffix-set definition). Compiling
// once decouples the execution engines from the scheduling core: the
// forest executor (which counts), the listing matcher, the sharded
// runtime and generated kernels all target this IR instead of
// re-deriving loop structure from the Schedule inline.
//
// Plans are data-graph independent and immutable after compilation; the
// same Plan can be executed concurrently by many workers.
#pragma once

#include <string>
#include <vector>

#include "core/configuration.h"
#include "core/iep.h"
#include "core/pattern.h"

namespace graphpi {

/// One loop depth of a compiled plan.
struct PlanStep {
  enum class Kind {
    /// Materialize the candidate set, loop over it, descend one depth.
    kExtend,
    /// Innermost counting loop: the candidate-set size inside the
    /// restriction window is computed with size-only kernels; nothing is
    /// materialized. Only the last step of a non-IEP plan has this kind
    /// (listing runs treat it as kExtend).
    kCountLeaf,
    /// Candidate-set definition consumed by the IEP leaf evaluation; the
    /// executor never loops over these depths.
    kIepSuffix,
  };

  Kind kind = Kind::kExtend;
  /// Pattern vertex searched at this depth (embedding remap only; the
  /// loop structure is fully described by the fields below).
  int pattern_vertex = 0;
  /// Depths (not pattern vertices) of the already-mapped pattern
  /// neighbors whose adjacency lists are intersected.
  std::vector<int> predecessor_depths;
  /// Candidates must be > mapped[d] for every d here (restriction
  /// id(this) > id(mapped[d])).
  std::vector<int> lower_bound_depths;
  /// Candidates must be < mapped[d] for every d here.
  std::vector<int> upper_bound_depths;

  friend bool operator==(const PlanStep&, const PlanStep&) = default;
};

/// A compiled, executable plan for one pattern.
struct Plan {
  Pattern pattern;
  std::vector<PlanStep> steps;  ///< one per loop depth (pattern.size())
  /// First IEP depth; equals size() when IEP is inactive. Steps at depths
  /// >= outer_depth are kIepSuffix.
  int outer_depth = 0;
  /// IEP terms + divisor; iep.k == 0 disables IEP.
  IepPlan iep;
  /// Hint: some step intersects two or more adjacency lists, so the
  /// executor benefits from the graph's hub bitmap index.
  bool wants_hub_index = false;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(steps.size());
  }
  [[nodiscard]] bool iep_active() const noexcept { return iep.k > 0; }
  /// Depth of the plan's terminal action: the kCountLeaf step for plain
  /// plans, the IEP leaf evaluation point for IEP plans.
  [[nodiscard]] int leaf_depth() const noexcept {
    return iep_active() ? outer_depth : size() - 1;
  }

  [[nodiscard]] std::string to_string() const;
};

/// Compiles `config` (whose schedule must cover its pattern) into the
/// executable IR. Deterministic and cheap — O(n^2 + restrictions).
[[nodiscard]] Plan compile_plan(const Configuration& config);

}  // namespace graphpi
