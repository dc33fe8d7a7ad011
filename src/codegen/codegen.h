// C++ code generation from the executable plan IR.
//
// The paper's pipeline ends in "optimal configuration → generated C++
// kernel" (Figure 3, after AutoMine's method). This generator targets the
// same IR every engine executes — core::Plan for one pattern,
// core::PlanForest for a prefix-sharing batch — so emitted kernels carry
// the full plan semantics the ForestExecutor runs:
//
//   * restriction windows: each loop's [lo, hi) bound is resolved from
//     the mapped vertices and enforced on the sorted candidates with a
//     start lower-bound and an early `break` (Figure 5(b));
//   * counting-only leaves: the innermost loop of a plain plan never
//     materializes its candidate set — the windowed intersection size is
//     computed by the size-only kernels, minus the already-used vertices;
//   * IEP: the suffix candidate sets S_1..S_k are materialized once per
//     outer assignment and the signed inclusion–exclusion term products
//     (Algorithm 2) are unrolled inline; the kernel divides the
//     aggregated sum by the surviving-automorphism factor x;
//   * hub hints: multi-way intersections probe the graph view's hub
//     bitmap rows when present, mirroring exec::intersect_adjacencies;
//   * forests: one function per trie node, per-plan restriction branches
//     narrowing a runtime active-plan bitmask, exactly the
//     ForestExecutor model (minus its leaf memoization);
//   * parallelism: the root-vertex loop is emitted as an OpenMP
//     `parallel for` over a per-root entry function with one traversal
//     state per worker, dynamic chunks of support::kRootChunk roots
//     and a per-plan reduction — the engine/parallel.h root loop —
//     guarded by `#ifdef _OPENMP` so the same source still builds
//     (serially) without -fopenmp. The thread count arrives through the
//     ABI's KernelRunOptions.
//
// Emitted sources are self-contained C++17 translation units that hold
// only their plan's loop nest: the trie-node functions, the root loop and
// small inline probes, with no library header beyond <cstdint> (and
// <omp.h> under OpenMP) and no std::vector. They take the data graph and
// an ops table through the C ABI in kernel_abi.h; the table supplies the
// set kernels, allocates every buffer and runs the multi-way
// intersection chains, so each kernel compiles in a fraction of the time
// a self-sufficient one would. The execution path is engine/jit.h:
// KernelCache compiles emitted sources with the system compiler, dlopens
// the result, and serves Backend::kGenerated with the host table
// (host_kernel_ops). generate_standalone appends a portable table and a
// main, so that program builds with nothing but a compiler.
//
// tests/codegen/codegen_exec_test.cpp compiles emitted kernels (plain,
// IEP, and forest forms) and checks them against ForestExecutor counts
// under both scalar and vector dispatch.
#pragma once

#include <string>

#include "core/configuration.h"
#include "core/plan.h"
#include "core/plan_forest.h"

namespace graphpi::codegen {

struct CodegenOptions {
  /// Name of the emitted extern "C" entry point. The ABI version probe is
  /// exported alongside as "<name>_abi".
  std::string function_name = "graphpi_generated_count";
};

/// Emits a translation unit defining
///   extern "C" unsigned long long <name>(const void* graph,
///                                        const void* ops,
///                                        const void* run);
/// counting the embeddings of the plan's pattern (final count: IEP plans
/// divide by x internally). `graph` / `ops` / `run` follow kernel_abi.h
/// (`run` may be null for defaults). The plan must have >= 2 steps.
[[nodiscard]] std::string generate_source(const Plan& plan,
                                          const CodegenOptions& options = {});

/// Convenience: compiles `config` (schedule must cover the pattern) into
/// a Plan first. Unlike the pre-IR generator, IEP configurations are
/// fully supported.
[[nodiscard]] std::string generate_source(const Configuration& config,
                                          const CodegenOptions& options = {});

/// Emits a batch kernel for a whole forest:
///   extern "C" void <name>(const void* graph, const void* ops,
///                          const void* run,
///                          unsigned long long* counts);
/// `counts` receives one finalized count per forest.plans() entry.
[[nodiscard]] std::string generate_forest_source(
    const PlanForest& forest, const CodegenOptions& options = {});

/// Emits a complete standalone program: the counting kernel, a portable
/// ops table (sorted-merge set kernels, heap buffers, the chains) and a
/// main() that loads an edge list ("u v" lines) from argv[1], builds CSR
/// and prints the count. Builds with `g++ -O2 -std=c++17` alone. Useful
/// as human-readable documentation of what the engine executes.
[[nodiscard]] std::string generate_standalone(const Configuration& config,
                                              const CodegenOptions& options = {});

}  // namespace graphpi::codegen
