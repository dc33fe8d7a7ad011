// Sorted vertex-set kernels.
//
// These are the hot loops of the whole system: every level of the
// nested-loop pattern-matching algorithm builds its candidate set by
// intersecting sorted neighborhoods (Section IV-E: "the intersection
// operation of two sets can be efficiently implemented with the time
// complexity of O(n + m), and the intersection is naturally sorted").
//
// Kernel layout:
//   * `*_scalar` functions are the portable reference implementations;
//     they are always compiled and are the ground truth the property
//     tests compare every other variant against.
//   * The un-suffixed entry points (`intersect`, `intersect_size`, ...)
//     dispatch at RUNTIME through a cpuid-probed kernel table: the AVX2
//     and AVX-512 (VBMI2 compress-store) implementations are compiled
//     unconditionally on x86 (per-function `target(...)` attributes, so
//     the baseline build stays portable) and the widest slot the
//     executing CPU supports is selected at load time — one binary
//     serves scalar, AVX2, and AVX-512 machines without recompiling.
//     `select_kernel_isa()` / `force_scalar_kernels()` switch the table
//     at runtime, and the GRAPHPI_KERNEL_ISA environment variable
//     ("scalar" | "avx2" | "avx512" | "auto") pins the initial choice.
//     Generated kernels (src/codegen/) call back into these same entry
//     points, so the dispatch decision covers interpreted and compiled
//     execution alike.
//   * `*_size*` variants compute |result| without materializing it; the
//     matcher's innermost loop and single-block IEP terms go through
//     these so counting runs allocate nothing at the leaves.
//   * `*_bitmap` variants intersect a sorted span against a precomputed
//     bitmap row (one bit per data-graph vertex, see Graph::hub_bits) —
//     O(|span|) membership-test intersection used when one side is a
//     high-degree hub.
//
// All span inputs must be strictly ascending; outputs are strictly
// ascending.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/types.h"

namespace graphpi {

/// Sentinel for "no upper bound" in the bounded size kernels.
inline constexpr VertexId kNoVertexBound = std::numeric_limits<VertexId>::max();

// ---------------------------------------------------------------------------
// Runtime CPU dispatch.
//
// The hot kernels exist in one slot per ISA; a global table pointer picks
// the slot. The pointer is atomic, so concurrent kernels may read it
// while the first of them publishes the default; still, switch it only
// while no matcher is running, or one query may mix two ISAs.
// ---------------------------------------------------------------------------

/// Kernel instruction-set slots. kAuto means "best the CPU supports".
enum class KernelIsa {
  kAuto,
  kScalar,
  kAvx2,
  /// AVX2 match core + VBMI2-family compress-store retire
  /// (`vpcompressd`) + VPOPCNTDQ bitmap popcount; requires
  /// avx512f+bw+vl+vbmi2+vpopcntdq (Ice Lake+). Kept at the AVX2 match
  /// width on purpose: all-pairs matching costs B^2 comparisons per >= B
  /// elements consumed, so 16-lane blocks measure slower (see the tier
  /// comment in vertex_set.cpp).
  kAvx512,
};

[[nodiscard]] const char* to_string(KernelIsa isa) noexcept;

/// True when the executing CPU can run `isa` (cpuid probe; kAuto and
/// kScalar are always true). Independent of whether a kernel slot exists.
[[nodiscard]] bool cpu_supports(KernelIsa isa) noexcept;

/// ISA of the kernel table the dispatching entry points currently use.
/// Never returns kAuto.
[[nodiscard]] KernelIsa active_kernel_isa() noexcept;

/// Name of the active table ("avx512", "avx2" or "scalar").
[[nodiscard]] const char* active_isa() noexcept;

/// Name of the best table this CPU supports (what kAuto resolves to,
/// before any GRAPHPI_KERNEL_ISA override).
[[nodiscard]] const char* detected_isa() noexcept;

/// Routes the dispatching kernels to `isa`. Returns false (and leaves the
/// selection unchanged) when the CPU lacks the feature.
bool select_kernel_isa(KernelIsa isa) noexcept;

/// Name of the active kernel backend. Kept for older call sites; equal to
/// active_isa() now that the choice is made at runtime.
[[nodiscard]] const char* simd_backend() noexcept;

/// True when the dispatching kernels currently use vector instructions.
[[nodiscard]] bool simd_enabled() noexcept;

/// Test/benchmark hook: `force_scalar_kernels(true)` selects the scalar
/// table, `(false)` restores the best probed table — sugar over
/// select_kernel_isa so existing call sites keep working.
void force_scalar_kernels(bool on) noexcept;

/// True when the scalar table is active on a machine whose best table is
/// vectorized (i.e. scalar was forced rather than all the CPU offers).
[[nodiscard]] bool scalar_kernels_forced() noexcept;

// ---------------------------------------------------------------------------
// Scalar reference kernels (ground truth for the property tests).
// ---------------------------------------------------------------------------

/// out = a ∩ b (two-pointer merge, O(|a| + |b|)). `out` is cleared first.
void intersect_scalar(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::vector<VertexId>& out);

/// |a ∩ b| without materializing the result.
[[nodiscard]] std::size_t intersect_size_scalar(std::span<const VertexId> a,
                                                std::span<const VertexId> b);

// ---------------------------------------------------------------------------
// Dispatching kernels (routed through the runtime-selected table).
// ---------------------------------------------------------------------------

/// Writes a ∩ b to `out` and returns the element count. `out` must have
/// capacity for min(|a|, |b|) + 8 elements — the vector slots store full
/// 8-lane blocks at the current match offset. This is the raw core the
/// vector-output `intersect` wraps, and the entry point generated kernels
/// call through the codegen ops table (codegen/kernel_abi.h).
[[nodiscard]] std::size_t intersect_into(std::span<const VertexId> a,
                                         std::span<const VertexId> b,
                                         VertexId* out);

/// out = a ∩ b. `out` is cleared first.
void intersect(std::span<const VertexId> a, std::span<const VertexId> b,
               std::vector<VertexId>& out);

/// |a ∩ b| without materializing the result.
[[nodiscard]] std::size_t intersect_size(std::span<const VertexId> a,
                                         std::span<const VertexId> b);

/// |{ x ∈ a ∩ b : lo_inclusive <= x < hi_exclusive }| — the counting-only
/// leaf kernel: the restriction window is applied by trimming both inputs
/// with binary searches before the vectorized count, so no candidate
/// vector is ever built. Pass 0 / kNoVertexBound for an open side.
[[nodiscard]] std::size_t intersect_size_bounded(std::span<const VertexId> a,
                                                 std::span<const VertexId> b,
                                                 VertexId lo_inclusive,
                                                 VertexId hi_exclusive);

/// out = { x ∈ a ∩ b : x < bound }. Used when a restriction id(u) > id(x)
/// applies to the vertex whose candidate set is being built — the bound
/// prunes the set during construction instead of breaking in the loop.
void intersect_below(std::span<const VertexId> a, std::span<const VertexId> b,
                     VertexId bound, std::vector<VertexId>& out);

/// Galloping (binary-search) intersection; profitable when |a| << |b|.
/// Produces the same result as `intersect`.
void intersect_gallop(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::vector<VertexId>& out);

/// Size-only galloping intersection.
[[nodiscard]] std::size_t intersect_size_gallop(std::span<const VertexId> a,
                                                std::span<const VertexId> b);

/// Size-adaptive intersection: picks merge or gallop based on the size
/// ratio of the inputs.
void intersect_adaptive(std::span<const VertexId> a,
                        std::span<const VertexId> b,
                        std::vector<VertexId>& out);

/// Size-only adaptive intersection (merge/SIMD vs gallop by size ratio).
[[nodiscard]] std::size_t intersect_size_adaptive(std::span<const VertexId> a,
                                                  std::span<const VertexId> b);

/// Bounded size-only adaptive intersection: trims both inputs to the
/// window [lo_inclusive, hi_exclusive) first, then counts adaptively.
[[nodiscard]] std::size_t intersect_size_bounded_adaptive(
    std::span<const VertexId> a, std::span<const VertexId> b,
    VertexId lo_inclusive, VertexId hi_exclusive);

// ---------------------------------------------------------------------------
// Bitmap kernels (one side is a precomputed bitmap over the vertex space).
// ---------------------------------------------------------------------------

/// out = { x ∈ a : bit x set in `bits` }. O(|a|) with branch-free probes.
void intersect_bitmap(std::span<const VertexId> a, const std::uint64_t* bits,
                      std::vector<VertexId>& out);

/// Raw-pointer form of intersect_bitmap: writes survivors to `out`
/// (capacity >= |a|) and returns the count.
[[nodiscard]] std::size_t intersect_bitmap_into(std::span<const VertexId> a,
                                                const std::uint64_t* bits,
                                                VertexId* out);

/// |{ x ∈ a : bit x set }|.
[[nodiscard]] std::size_t intersect_size_bitmap(std::span<const VertexId> a,
                                                const std::uint64_t* bits);

/// |{ x ∈ a : bit x set, lo_inclusive <= x < hi_exclusive }|.
[[nodiscard]] std::size_t intersect_size_bitmap_bounded(
    std::span<const VertexId> a, const std::uint64_t* bits,
    VertexId lo_inclusive, VertexId hi_exclusive);

/// Word-parallel popcount of `a AND b` over `words` 64-bit words — the
/// hub-vs-hub counting kernel (64 membership tests per word op).
[[nodiscard]] std::size_t bitmap_and_popcount(const std::uint64_t* a,
                                              const std::uint64_t* b,
                                              std::size_t words);

/// Windowed hub-vs-hub count: popcount of `a AND b` restricted to bit
/// positions in [lo_inclusive, hi_exclusive) ∩ [0, universe).
[[nodiscard]] std::size_t bitmap_and_popcount_bounded(const std::uint64_t* a,
                                                      const std::uint64_t* b,
                                                      VertexId universe,
                                                      VertexId lo_inclusive,
                                                      VertexId hi_exclusive);

// ---------------------------------------------------------------------------
// Varint decode kernels (the snapshot block codec, io/snapshot.h).
//
// Graph snapshots store delta-encoded adjacency as LEB128 varints; with
// degree-ordered relabeling most deltas fit one byte, so the vector
// slots sweep runs of continuation-free bytes 16 (AVX2) or 64 (AVX-512)
// at a time — probe the high bits with one movemask, widen with cvtepu8
// — and expand mixed 1-/2-byte groups branchlessly through a
// masked-VByte-style pshufb lookup table, peeling to scalar only for
// the rare >= 3-byte value.
// ---------------------------------------------------------------------------

/// Error sentinel for the varint decoders' byte-consumed return value.
inline constexpr std::size_t kVarintMalformed =
    std::numeric_limits<std::size_t>::max();

/// Decodes exactly `count` LEB128 varints from `in` into `out` (which
/// must have room for `count` values). Returns the number of input bytes
/// consumed, or kVarintMalformed when the stream is truncated or a value
/// does not fit 32 bits (at most 5 bytes; the 5th may only carry 4 bits).
/// Dispatching entry point (runtime-selected table).
[[nodiscard]] std::size_t varint_decode_u32(std::span<const std::uint8_t> in,
                                            std::size_t count,
                                            std::uint32_t* out);

/// Portable reference decoder (ground truth for the property tests).
[[nodiscard]] std::size_t varint_decode_u32_scalar(
    std::span<const std::uint8_t> in, std::size_t count, std::uint32_t* out);

// ---------------------------------------------------------------------------
// Small-set helpers.
// ---------------------------------------------------------------------------

/// Removes from the sorted set `s` every element that appears in the
/// (small, unsorted) exclusion list. O(|excl| * log |s| + moved elements).
void remove_all(std::vector<VertexId>& s, std::span<const VertexId> excluded);

/// Number of elements of the sorted set `s` that appear in the (small,
/// unsorted) list `values`.
[[nodiscard]] std::size_t count_present(std::span<const VertexId> s,
                                        std::span<const VertexId> values);

/// True iff sorted set `s` contains `v`.
[[nodiscard]] bool contains(std::span<const VertexId> s, VertexId v);

/// Number of elements of sorted `s` strictly below `bound`.
[[nodiscard]] std::size_t count_below(std::span<const VertexId> s,
                                      VertexId bound);

/// Number of elements of sorted `s` strictly above `bound`.
[[nodiscard]] std::size_t count_above(std::span<const VertexId> s,
                                      VertexId bound);

/// Trims sorted `s` to the window [lo_inclusive, hi_exclusive).
[[nodiscard]] std::span<const VertexId> trim_to_window(
    std::span<const VertexId> s, VertexId lo_inclusive, VertexId hi_exclusive);

}  // namespace graphpi
