// The C ABI between the host and generated kernels.
//
// Emitted kernels are self-contained translation units (no GraphPi
// headers, no library header beyond <cstdint> and <omp.h>), so they
// mirror these structs verbatim (as `GenGraph` / `GenBuf` / `GenOps` /
// `GenRun` in the emitted source) and take them through opaque
// `const void*` parameters:
//
//   extern "C" unsigned long long <name>(const void* graph, const void* ops,
//                                        const void* run);
//   extern "C" void <name>(const void* graph, const void* ops,
//                          const void* run,
//                          unsigned long long* counts);   // forest form
//   extern "C" unsigned <name>_abi();                     // layout version
//
// `graph` is the data graph: plain CSR arrays plus the optional hub
// bitmap index (null slot array when not built — kernels fall back to
// merge intersections, exactly like the interpreter without the index).
// `ops` is the host's ops table and is required (never null). Its set
// kernels route through the runtime CPU dispatch in graph/vertex_set.h —
// this is how one compiled kernel serves scalar and vector machines, and
// how force_scalar_kernels() / select_kernel_isa() apply to generated
// code too. Its buffer entries own every allocation a kernel makes: a
// kernel's candidate and scratch buffers are plain `KernelBuf` structs
// that only the host grows and frees, and the multi-way intersection
// chains that grow them (candidate sets, size-only chains of 3+
// adjacencies, IEP blocks of 3+ sets) run on the host. That keeps
// std::vector and the chain loops out of every kernel, which is most of
// what a kernel used to cost to compile. The standalone programs of
// generate_standalone carry portable versions of every entry instead.
// `run` carries per-invocation execution knobs (KernelRunOptions); null
// means defaults. Kernels compiled with OpenMP partition the root-vertex
// loop across threads (each worker owns its traversal state and buffers
// and calls the stateless host ops concurrently — the ops table is safe
// to share); without OpenMP the same kernel degrades to the serial loop.
//
// Any layout or calling-convention change here MUST bump
// kKernelAbiVersion; the KernelCache (engine/jit.h) refuses to run a
// dlopened kernel whose <name>_abi() disagrees and transparently
// recompiles or falls back to the interpreter instead. Version 1 kernels
// lacked the `run` parameter; version 2 lacked the cancellation/budget
// fields of KernelRunOptions; version 3 lacked the buffer and chain
// entries of KernelOps (kernels held std::vector buffers and their own
// chain loops, and accepted ops == nullptr for inline fallbacks).
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace graphpi::codegen {

inline constexpr unsigned kKernelAbiVersion = 4;

/// CSR view + optional hub index handed to a generated kernel. Mirrored
/// as `GenGraph` in emitted sources — field order and types are the ABI.
struct KernelGraph {
  const std::uint64_t* offsets = nullptr;  ///< n_vertices + 1 entries
  const std::uint32_t* neighbors = nullptr;
  std::uint32_t n_vertices = 0;
  /// Hub bitmap index (graph.h); null slot array disables hub probing.
  const std::uint32_t* hub_slot = nullptr;  ///< 0xffffffff = not a hub
  const std::uint64_t* hub_bits = nullptr;  ///< rows of hub_words words
  std::uint64_t hub_words = 0;
};

/// A growable vertex buffer a kernel keeps in its traversal state.
/// Mirrored as `GenBuf` in emitted sources. Kernels zero-initialize it,
/// read and write data[0, size) and set `size`; only the host's
/// `grow` / `release` entries touch `data` and `capacity`.
struct KernelBuf {
  std::uint32_t* data = nullptr;
  std::uint64_t size = 0;      ///< elements in use
  std::uint64_t capacity = 0;  ///< elements allocated
};

/// Host entry points a generated kernel calls back into. Mirrored as
/// `GenOps` in emitted sources — field order and types are the ABI. All
/// sorted inputs are strictly ascending; a set kernel's `out` needs
/// min(an, bn) + 8 capacity (vector block stores).
struct KernelOps {
  std::uint64_t (*intersect)(const std::uint32_t* a, std::uint64_t an,
                             const std::uint32_t* b, std::uint64_t bn,
                             std::uint32_t* out) = nullptr;
  std::uint64_t (*intersect_size_bounded)(const std::uint32_t* a,
                                          std::uint64_t an,
                                          const std::uint32_t* b,
                                          std::uint64_t bn, std::uint32_t lo,
                                          std::uint32_t hi) = nullptr;
  std::uint64_t (*intersect_bitmap)(const std::uint32_t* a, std::uint64_t an,
                                    const std::uint64_t* bits,
                                    std::uint32_t* out) = nullptr;
  std::uint64_t (*intersect_size_bitmap_bounded)(const std::uint32_t* a,
                                                 std::uint64_t an,
                                                 const std::uint64_t* bits,
                                                 std::uint32_t lo,
                                                 std::uint32_t hi) = nullptr;
  /// Makes `buf->capacity >= need`. When it reallocates, the old contents
  /// are dropped and `size` becomes 0 (every caller overwrites the buffer).
  void (*grow)(KernelBuf* buf, std::uint64_t need) = nullptr;
  /// Frees `buf->data` and zeroes the struct.
  void (*release)(KernelBuf* buf) = nullptr;
  /// set = ∩_j N(vs[j]) for nv >= 1 predecessors, hub-aware (probes a hub
  /// bitmap row where an endpoint has one); `scr` is scratch.
  void (*build_isect)(const KernelGraph* g, const std::uint32_t* vs,
                      std::uint64_t nv, KernelBuf* set,
                      KernelBuf* scr) = nullptr;
  /// |∩_j N(vs[j]) ∩ [lo, hi)| for nv >= 3, hub-aware, with a size-only
  /// final step; `buf` and `scr` are scratch.
  std::uint64_t (*isect_size_chain_bounded)(const KernelGraph* g,
                                            const std::uint32_t* vs,
                                            std::uint64_t nv, std::uint32_t lo,
                                            std::uint32_t hi, KernelBuf* buf,
                                            KernelBuf* scr) = nullptr;
  /// |∩_j *sets[j]| for ns >= 3 materialized sets (IEP block factors);
  /// `scr_a` and `scr_b` are scratch.
  std::uint64_t (*isect_size_set_chain)(const KernelBuf* const* sets,
                                        std::uint64_t ns, KernelBuf* scr_a,
                                        KernelBuf* scr_b) = nullptr;
};

/// Per-invocation execution knobs. Mirrored as `GenRun` in emitted
/// sources; kernels accept a null pointer as all-defaults (unbounded).
struct KernelRunOptions {
  /// OpenMP worker count for the root-partitioned loop; <= 0 uses the
  /// OpenMP runtime default. Ignored by kernels compiled without OpenMP.
  std::int32_t threads = 0;
  /// Root vertices between cooperative-stop checks per worker; 0 = the
  /// kernel default (64). Rounded up to a power of two by the kernel.
  std::uint32_t poll_stride = 0;
  /// Cooperative cancel flag (host-owned; any thread may set it nonzero).
  /// Workers poll it per `poll_stride` completed roots and stop early.
  /// Null = never cancelled. The host arms deadlines by flipping this
  /// flag from a watchdog thread — kernels never read clocks.
  const volatile std::int32_t* cancel = nullptr;
  /// Stop after ~this many completed roots across all workers (0 =
  /// unlimited); enforced at poll boundaries like the cancel flag.
  std::uint64_t root_budget = 0;
  /// Out (optional): roots fully processed before the kernel returned.
  std::uint64_t* completed_roots = nullptr;
  /// Out (optional): why the kernel returned — 0 ran to completion,
  /// 1 cancel flag observed, 2 root budget exhausted. On a nonzero stop
  /// reason the produced counts are best-effort partials (IEP sums are
  /// divided without a divisibility guarantee).
  std::int32_t* stop_reason = nullptr;
};

/// The ops table backed by the host's runtime-dispatched kernels
/// (graph/vertex_set.h) and heap. One static instance; always valid. All
/// entries are stateless and safe to call from concurrent kernel workers
/// (each worker passes its own buffers).
[[nodiscard]] const KernelOps& host_kernel_ops() noexcept;

/// View over `g` for a kernel call. Includes the hub index iff built —
/// call g.ensure_hub_index() first when the plan wants it. The view
/// borrows; `g` must outlive every call made with it.
[[nodiscard]] KernelGraph make_kernel_graph(const Graph& g) noexcept;

}  // namespace graphpi::codegen
