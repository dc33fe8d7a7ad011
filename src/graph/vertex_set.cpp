#include "graph/vertex_set.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

// Runtime dispatch: on x86 with GCC/Clang the vector kernels are compiled
// unconditionally via per-function target attributes, so even a portable
// baseline build (-DGRAPHPI_NATIVE=OFF) carries them and picks the best
// slot at load time with a cpuid probe.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GRAPHPI_DISPATCH_X86 1
#include <immintrin.h>
#else
#define GRAPHPI_DISPATCH_X86 0
#endif

namespace graphpi {

// ---------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------

void intersect_scalar(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::vector<VertexId>& out) {
  out.clear();
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

std::size_t intersect_size_scalar(std::span<const VertexId> a,
                                  std::span<const VertexId> b) {
  std::size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

std::size_t varint_decode_u32_scalar(std::span<const std::uint8_t> in,
                                     std::size_t count, std::uint32_t* out) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t v = 0;
    int shift = 0;
    while (true) {
      if (p == end) return kVarintMalformed;  // truncated mid-value
      const std::uint8_t b = *p++;
      // The 5th byte (shift 28) may only carry the top 4 bits of a u32,
      // and must terminate the value.
      if (shift == 28 && (b & 0xf0) != 0) return kVarintMalformed;
      v |= static_cast<std::uint32_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    out[i] = v;
  }
  return static_cast<std::size_t>(p - in.data());
}

namespace {

std::size_t intersect_into_scalar(std::span<const VertexId> a,
                                  std::span<const VertexId> b, VertexId* out) {
  std::size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out[n++] = a[i];
      ++i;
      ++j;
    }
  }
  return n;
}

std::size_t bitmap_and_popcount_scalar(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::size_t words) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < words; ++w)
    n += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  return n;
}

#if GRAPHPI_DISPATCH_X86

// ---------------------------------------------------------------------------
// AVX2 kernels.
//
// Block-wise all-pairs intersection (Schlegel et al. / Lemire): compare an
// 8-lane block of `a` against all 8 rotations of an 8-lane block of `b`,
// OR the equality masks together, then advance whichever block exhausted
// its value range. Each block pair performs 64 comparisons in 8 vector
// compares + 7 lane rotations; the strictly-ascending-input invariant
// guarantees every element matches at most once, so the accumulated mask
// popcount is exactly the number of common elements in the block pair.
// ---------------------------------------------------------------------------

#define GRAPHPI_AVX2_FN __attribute__((target("avx2")))

/// Lane-rotation index vectors for _mm256_permutevar8x32_epi32.
GRAPHPI_AVX2_FN inline __m256i rotation(int r) {
  alignas(32) static const std::uint32_t kRot[8][8] = {
      {0, 1, 2, 3, 4, 5, 6, 7}, {1, 2, 3, 4, 5, 6, 7, 0},
      {2, 3, 4, 5, 6, 7, 0, 1}, {3, 4, 5, 6, 7, 0, 1, 2},
      {4, 5, 6, 7, 0, 1, 2, 3}, {5, 6, 7, 0, 1, 2, 3, 4},
      {6, 7, 0, 1, 2, 3, 4, 5}, {7, 0, 1, 2, 3, 4, 5, 6}};
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(kRot[r]));
}

/// 8-bit match mask of which lanes of block `va` occur anywhere in `vb`.
GRAPHPI_AVX2_FN inline unsigned block_match_mask(__m256i va, __m256i vb) {
  __m256i eq = _mm256_cmpeq_epi32(va, vb);
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(
                               va, _mm256_permutevar8x32_epi32(vb, rotation(1))));
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(
                               va, _mm256_permutevar8x32_epi32(vb, rotation(2))));
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(
                               va, _mm256_permutevar8x32_epi32(vb, rotation(3))));
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(
                               va, _mm256_permutevar8x32_epi32(vb, rotation(4))));
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(
                               va, _mm256_permutevar8x32_epi32(vb, rotation(5))));
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(
                               va, _mm256_permutevar8x32_epi32(vb, rotation(6))));
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(
                               va, _mm256_permutevar8x32_epi32(vb, rotation(7))));
  return static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
}

/// Left-pack shuffle indices: entry m lists, in order, the lanes whose bit
/// is set in the 8-bit mask m (remaining lanes arbitrary).
struct CompactTable {
  alignas(32) std::uint32_t idx[256][8];
  constexpr CompactTable() : idx{} {
    for (int m = 0; m < 256; ++m) {
      int out = 0;
      for (int lane = 0; lane < 8; ++lane)
        if ((m >> lane) & 1) idx[m][out++] = static_cast<std::uint32_t>(lane);
      for (; out < 8; ++out) idx[m][out] = 0;
    }
  }
};
constexpr CompactTable kCompact{};

GRAPHPI_AVX2_FN std::size_t intersect_size_avx2(std::span<const VertexId> a,
                                                std::span<const VertexId> b) {
  const std::size_t na = a.size(), nb = b.size();
  std::size_t i = 0, j = 0, n = 0;
  if (na >= 8 && nb >= 8) {
    const VertexId* pa = a.data();
    const VertexId* pb = b.data();
    while (i + 8 <= na && j + 8 <= nb) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + j));
      n += static_cast<std::size_t>(std::popcount(block_match_mask(va, vb)));
      const VertexId amax = pa[i + 7], bmax = pb[j + 7];
      if (amax <= bmax) i += 8;
      if (bmax <= amax) j += 8;
    }
  }
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

GRAPHPI_AVX2_FN std::size_t intersect_into_avx2(std::span<const VertexId> a,
                                                std::span<const VertexId> b,
                                                VertexId* out) {
  const std::size_t na = a.size(), nb = b.size();
  // The caller provides min(na, nb) + 8 capacity: a block store writes a
  // full 8 lanes at the current match offset even when few are real
  // matches.
  VertexId* dst = out;
  std::size_t i = 0, j = 0;
  if (na >= 8 && nb >= 8) {
    const VertexId* pa = a.data();
    const VertexId* pb = b.data();
    while (i + 8 <= na && j + 8 <= nb) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + j));
      const unsigned mask = block_match_mask(va, vb);
      const __m256i shuffle = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kCompact.idx[mask]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                          _mm256_permutevar8x32_epi32(va, shuffle));
      dst += std::popcount(mask);
      const VertexId amax = pa[i + 7], bmax = pb[j + 7];
      if (amax <= bmax) i += 8;
      if (bmax <= amax) j += 8;
    }
  }
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      *dst++ = a[i];
      ++i;
      ++j;
    }
  }
  return static_cast<std::size_t>(dst - out);
}

GRAPHPI_AVX2_FN std::size_t bitmap_and_popcount_avx2(const std::uint64_t* a,
                                                     const std::uint64_t* b,
                                                     std::size_t words) {
  std::size_t n = 0;
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    alignas(32) std::uint64_t tmp[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp),
                       _mm256_and_si256(va, vb));
    n += static_cast<std::size_t>(std::popcount(tmp[0]) + std::popcount(tmp[1]) +
                                  std::popcount(tmp[2]) + std::popcount(tmp[3]));
  }
  for (; w < words; ++w) n += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  return n;
}

/// Widens 8 single-byte varints to 8 u32 lanes.
GRAPHPI_AVX2_FN inline void widen_singles_avx2(const std::uint8_t* p,
                                               std::uint32_t* out) {
  const __m128i b8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_cvtepu8_epi32(b8));
}

/// Decodes one multi-byte varint the scalar way; the vector loops call
/// this exactly at bytes whose continuation bit the movemask flagged.
/// Returns false on truncation/overflow; advances `p` past the value.
inline bool decode_one_varint(const std::uint8_t*& p, const std::uint8_t* end,
                              std::uint32_t& v) {
  v = 0;
  int shift = 0;
  while (true) {
    if (p == end) return false;
    const std::uint8_t b = *p++;
    if (shift == 28 && (b & 0xf0) != 0) return false;
    v |= static_cast<std::uint32_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return true;
    shift += 7;
  }
}

// Masked-VByte-style branchless decode for mixed windows. The 8-bit
// continuation mask of an 8-byte group indexes a precomputed pshufb
// control that expands its leading run of complete 1- and 2-byte
// varints into eight u16 lanes in one shuffle; a (b & 0x7F) | ((b >> 1)
// & 0x3F80) pair then strips the continuation bits. Values of >= 3
// bytes (vanishingly rare in the delta streams this decodes: a
// degree-ordered gap >= 16384) drop to the scalar one-value path. The
// table parse is greedy and stops early at byte 7 when a pair would
// straddle the group edge, so a shuffle never references a source byte
// past index 7 (offset +8 keeps every reference inside a 16-byte load).
struct VarintStepEntry {
  std::array<std::uint8_t, 16> shuf;  // pshufb control; 0x80 zeroes a lane
  std::uint8_t consumed;              // source bytes covered by the shuffle
  std::uint8_t produced;              // values expanded into u16 lanes
  std::uint8_t long_varint;           // a >= 3-byte value cut the parse short
};

consteval std::array<VarintStepEntry, 256> make_varint_step_table() {
  std::array<VarintStepEntry, 256> table{};
  for (unsigned m = 0; m < 256; ++m) {
    VarintStepEntry& e = table[m];
    e.shuf.fill(0x80);
    unsigned pos = 0;
    unsigned n = 0;
    while (pos < 8) {
      if ((m >> pos & 1u) == 0) {  // terminator first: a 1-byte value
        e.shuf[2 * n] = static_cast<std::uint8_t>(pos);
        pos += 1;
        ++n;
      } else if (pos == 7) {
        break;  // pair would straddle the group edge; next step resumes
      } else if ((m >> (pos + 1) & 1u) == 0) {  // continuation+terminator
        e.shuf[2 * n] = static_cast<std::uint8_t>(pos);
        e.shuf[2 * n + 1] = static_cast<std::uint8_t>(pos + 1);
        pos += 2;
        ++n;
      } else {  // two continuation bytes: a >= 3-byte value starts here
        e.long_varint = 1;
        break;
      }
    }
    e.consumed = static_cast<std::uint8_t>(pos);
    e.produced = static_cast<std::uint8_t>(n);
  }
  return table;
}

alignas(64) constexpr std::array<VarintStepEntry, 256> kVarintStepTable =
    make_varint_step_table();

/// One table-driven step: expand the masked group at `p + offset` of the
/// 16 bytes in `raw` and store up to 8 u32 values at `dst`. Lanes past
/// `produced` store zero and are overwritten by the caller's next step.
GRAPHPI_AVX2_FN inline const VarintStepEntry& varint_lut_step(
    __m128i raw, unsigned mask8, unsigned offset, std::uint32_t* dst) {
  const VarintStepEntry& e = kVarintStepTable[mask8];
  const __m128i ctrl = _mm_add_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(e.shuf.data())),
      _mm_set1_epi8(static_cast<char>(offset)));
  const __m128i packed = _mm_shuffle_epi8(raw, ctrl);
  const __m128i v16 = _mm_or_si128(
      _mm_and_si128(packed, _mm_set1_epi16(0x007F)),
      _mm_srli_epi16(_mm_and_si128(packed, _mm_set1_epi16(0x7F00)), 1));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_cvtepu16_epi32(v16));
  return e;
}

GRAPHPI_AVX2_FN std::size_t varint_decode_u32_avx2(
    std::span<const std::uint8_t> in, std::size_t count, std::uint32_t* out) {
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  std::size_t i = 0;
  while (i + 16 <= count && end - p >= 16) {
    const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const auto mask =
        static_cast<std::uint32_t>(_mm_movemask_epi8(raw)) & 0xFFFFu;
    if (mask == 0) {
      // 16 continuation-free bytes = 16 complete values: widen and store.
      widen_singles_avx2(p, out + i);
      widen_singles_avx2(p + 8, out + i + 8);
      p += 16;
      i += 16;
      continue;
    }
    // Two 8-byte LUT groups per load. Both steps together produce at
    // most 16 values (a long-varint stop caps its group at 7 + 1), so
    // the loop bound keeps every 8-lane store inside `out[0, count)`.
    unsigned off = 0;
    for (int step = 0; step < 2; ++step) {
      const VarintStepEntry& e =
          varint_lut_step(raw, (mask >> off) & 0xFFu, off, out + i);
      i += e.produced;
      off += e.consumed;
      if (e.long_varint) {
        const std::uint8_t* q = p + off;
        std::uint32_t v = 0;
        if (!decode_one_varint(q, end, v)) return kVarintMalformed;
        out[i++] = v;
        off = static_cast<unsigned>(q - p);
        break;  // the scalar value may run past the loaded window
      }
    }
    p += off;
  }
  const std::size_t tail = varint_decode_u32_scalar(
      {p, static_cast<std::size_t>(end - p)}, count - i, out + i);
  if (tail == kVarintMalformed) return kVarintMalformed;
  return static_cast<std::size_t>(p - in.data()) + tail;
}

// ---------------------------------------------------------------------------
// AVX-512 kernels (VBMI2 + VPOPCNTDQ tier).
//
// Measured design, not maximal width. Block-wise all-pairs matching does
// B*B comparisons to consume >= B elements, so doubling the block width
// to 16 lanes doubles the comparisons per element — and on the cores
// this tier targets (Ice Lake+) every cross-lane shuffle AND every
// compare-into-mask issues on port 5, so the 512-bit variant measures
// ~1.7x SLOWER than the AVX2 scheme, whose legacy-encoded compares
// spread across three ports (bench/micro_kernels; see also the variant
// study in this PR). The tier therefore keeps the AVX2 8-lane match
// core and upgrades the two places the wider ISA actually wins:
//
//   * intersect_into retires matches with a VBMI2-family masked
//     compress-store (`vpcompressd`) straight from the match mask,
//     writing exactly popcount(mask) lanes — the 8 KB left-pack shuffle
//     table drops out of the hot loop's cache footprint;
//   * bitmap_and_popcount uses VPOPCNTDQ (`vpopcntq`) with an in-vector
//     accumulator, ~1.9x the AVX2 extract-and-scalar-popcount loop.
//
// intersect_size has no retire step, so its table slot reuses the AVX2
// kernel unchanged.
// ---------------------------------------------------------------------------

// "avx2" is included so the AVX2 match helpers inline into these
// functions (GCC only inlines across target attributes into a superset).
#define GRAPHPI_AVX512_FN                                              \
  __attribute__((target(                                               \
      "avx2,avx512f,avx512bw,avx512vl,avx512vbmi2,avx512vpopcntdq")))

// GCC's _mm512_reduce_add_epi64 builds its shuffle tree from an
// "undefined" source via the `__T __Y = __Y;` self-init idiom, which
// -Wall flags as uninitialized when inlined here. False positive;
// silence it for the AVX-512 kernel block only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

GRAPHPI_AVX512_FN std::size_t intersect_into_avx512(
    std::span<const VertexId> a, std::span<const VertexId> b, VertexId* out) {
  const std::size_t na = a.size(), nb = b.size();
  VertexId* dst = out;
  std::size_t i = 0, j = 0;
  if (na >= 8 && nb >= 8) {
    const VertexId* pa = a.data();
    const VertexId* pb = b.data();
    while (i + 8 <= na && j + 8 <= nb) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + j));
      const unsigned mask = block_match_mask(va, vb);
      // Compress-store retire: the matched lanes of va, already
      // ascending, land contiguously at dst — exactly popcount(mask)
      // lanes written, no table lookup, no block-store slack (the +8
      // capacity contract is kept for slot interchangeability).
      _mm256_mask_compressstoreu_epi32(dst, static_cast<__mmask8>(mask),
                                       va);
      dst += std::popcount(mask);
      const VertexId amax = pa[i + 7], bmax = pb[j + 7];
      if (amax <= bmax) i += 8;
      if (bmax <= amax) j += 8;
    }
  }
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      *dst++ = a[i];
      ++i;
      ++j;
    }
  }
  return static_cast<std::size_t>(dst - out);
}

GRAPHPI_AVX512_FN std::size_t bitmap_and_popcount_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  std::size_t w = 0;
  __m512i acc = _mm512_setzero_si512();
  for (; w + 8 <= words; w += 8) {
    const __m512i conj = _mm512_and_si512(_mm512_loadu_si512(a + w),
                                          _mm512_loadu_si512(b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(conj));
  }
  std::size_t n =
      static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
  for (; w < words; ++w)
    n += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  return n;
}

GRAPHPI_AVX512_FN std::size_t varint_decode_u32_avx512(
    std::span<const std::uint8_t> in, std::size_t count, std::uint32_t* out) {
  // 64-byte continuation probe (one movepi8_mask), 16-lane widening
  // stores while the stream stays single-byte; the first continuation
  // byte hands off to the AVX2 kernel's masked-LUT mixed loop.
  const std::uint8_t* p = in.data();
  const std::uint8_t* const end = p + in.size();
  std::size_t i = 0;
  while (i + 64 <= count && end - p >= 64) {
    const __m512i bytes = _mm512_loadu_si512(p);
    const __mmask64 cont = _mm512_movepi8_mask(bytes);
    if (cont == 0) {
      for (int k = 0; k < 64; k += 16) {
        const __m128i b16 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + k));
        _mm512_storeu_si512(out + i + k, _mm512_cvtepu8_epi32(b16));
      }
      p += 64;
      i += 64;
      continue;
    }
    // First continuation byte seen: hand the rest of the stream to the
    // AVX2 kernel's masked-LUT loop below, which is the measured best
    // scheme for mixed 1-/2-byte varint data (the 512-bit win here is
    // the all-singles sweep, 64 values per mask probe).
    break;
  }
  const std::size_t tail = varint_decode_u32_avx2(
      {p, static_cast<std::size_t>(end - p)}, count - i, out + i);
  if (tail == kVarintMalformed) return kVarintMalformed;
  return static_cast<std::size_t>(p - in.data()) + tail;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // GRAPHPI_DISPATCH_X86

// ---------------------------------------------------------------------------
// Kernel table + runtime selection.
// ---------------------------------------------------------------------------

struct KernelTable {
  const char* name;
  KernelIsa isa;
  std::size_t (*intersect_size)(std::span<const VertexId>,
                                std::span<const VertexId>);
  std::size_t (*intersect_into)(std::span<const VertexId>,
                                std::span<const VertexId>, VertexId*);
  std::size_t (*bitmap_and_popcount)(const std::uint64_t*,
                                     const std::uint64_t*, std::size_t);
  std::size_t (*varint_decode)(std::span<const std::uint8_t>, std::size_t,
                               std::uint32_t*);
};

constexpr KernelTable kScalarTable{"scalar", KernelIsa::kScalar,
                                   &intersect_size_scalar,
                                   &intersect_into_scalar,
                                   &bitmap_and_popcount_scalar,
                                   &varint_decode_u32_scalar};

#if GRAPHPI_DISPATCH_X86
constexpr KernelTable kAvx2Table{"avx2", KernelIsa::kAvx2,
                                 &intersect_size_avx2, &intersect_into_avx2,
                                 &bitmap_and_popcount_avx2,
                                 &varint_decode_u32_avx2};
constexpr KernelTable kAvx512Table{"avx512", KernelIsa::kAvx512,
                                   &intersect_size_avx2,
                                   &intersect_into_avx512,
                                   &bitmap_and_popcount_avx512,
                                   &varint_decode_u32_avx512};
#endif

bool probe_cpu(KernelIsa isa) noexcept {
#if GRAPHPI_DISPATCH_X86
  __builtin_cpu_init();
  switch (isa) {
    case KernelIsa::kAuto:
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case KernelIsa::kAvx512:
      // The kernels use the VBMI2 compress-store family plus VPOPCNTDQ
      // (both Ice Lake+), and build on the AVX2 match core.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512vbmi2") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }
  return false;
#else
  return isa == KernelIsa::kAuto || isa == KernelIsa::kScalar;
#endif
}

/// Best populated slot the CPU supports, before any override.
const KernelTable& probed_best_table() noexcept {
#if GRAPHPI_DISPATCH_X86
  static const KernelTable* best = probe_cpu(KernelIsa::kAvx512)
                                       ? &kAvx512Table
                                   : probe_cpu(KernelIsa::kAvx2)
                                       ? &kAvx2Table
                                       : &kScalarTable;
  return *best;
#else
  return kScalarTable;
#endif
}

/// What kAuto resolves to: the probed best, unless GRAPHPI_KERNEL_ISA pins
/// the initial selection ("scalar" | "avx2" | "avx512" | "auto"; unknown
/// values and unsupported requests fall back to the probed best).
const KernelTable& default_table() noexcept {
  static const KernelTable* chosen = [] {
    const char* env = std::getenv("GRAPHPI_KERNEL_ISA");
    if (env != nullptr) {
      if (std::strcmp(env, "scalar") == 0) return &kScalarTable;
#if GRAPHPI_DISPATCH_X86
      if (std::strcmp(env, "avx2") == 0 && probe_cpu(KernelIsa::kAvx2))
        return &kAvx2Table;
      if (std::strcmp(env, "avx512") == 0 && probe_cpu(KernelIsa::kAvx512))
        return &kAvx512Table;
#endif
    }
    return &probed_best_table();
  }();
  return *chosen;
}

/// Active table pointer (null until first use or select_kernel_isa).
/// Every OpenMP worker of the first intersecting region reads it and may
/// publish the default, so it is atomic; relaxed order suffices because
/// the tables are immutable statics. A relaxed load is a plain `mov` on
/// x86. Switching tables while a matcher runs is still unsupported.
std::atomic<const KernelTable*> g_active{nullptr};

inline const KernelTable& table() noexcept {
  const KernelTable* t = g_active.load(std::memory_order_relaxed);
  if (t == nullptr) {
    // Publish the default unless select_kernel_isa got there first.
    t = &default_table();
    const KernelTable* expected = nullptr;
    if (!g_active.compare_exchange_strong(expected, t,
                                          std::memory_order_relaxed))
      t = expected;
  }
  return *t;
}

}  // namespace

const char* to_string(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kAuto: return "auto";
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx512: return "avx512";
  }
  return "?";
}

bool cpu_supports(KernelIsa isa) noexcept { return probe_cpu(isa); }

KernelIsa active_kernel_isa() noexcept { return table().isa; }

const char* active_isa() noexcept { return table().name; }

const char* detected_isa() noexcept { return probed_best_table().name; }

bool select_kernel_isa(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kAuto:
      g_active.store(&default_table(), std::memory_order_relaxed);
      return true;
    case KernelIsa::kScalar:
      g_active.store(&kScalarTable, std::memory_order_relaxed);
      return true;
    case KernelIsa::kAvx2:
#if GRAPHPI_DISPATCH_X86
      if (probe_cpu(KernelIsa::kAvx2)) {
        g_active.store(&kAvx2Table, std::memory_order_relaxed);
        return true;
      }
#endif
      return false;
    case KernelIsa::kAvx512:
#if GRAPHPI_DISPATCH_X86
      if (probe_cpu(KernelIsa::kAvx512)) {
        g_active.store(&kAvx512Table, std::memory_order_relaxed);
        return true;
      }
#endif
      return false;
  }
  return false;
}

const char* simd_backend() noexcept { return active_isa(); }

bool simd_enabled() noexcept {
  return active_kernel_isa() != KernelIsa::kScalar;
}

void force_scalar_kernels(bool on) noexcept {
  select_kernel_isa(on ? KernelIsa::kScalar : KernelIsa::kAuto);
}

bool scalar_kernels_forced() noexcept {
  return active_kernel_isa() == KernelIsa::kScalar &&
         default_table().isa != KernelIsa::kScalar;
}

// ---------------------------------------------------------------------------
// Dispatching entry points.
// ---------------------------------------------------------------------------

std::size_t intersect_into(std::span<const VertexId> a,
                           std::span<const VertexId> b, VertexId* out) {
  return table().intersect_into(a, b, out);
}

std::size_t intersect_size(std::span<const VertexId> a,
                           std::span<const VertexId> b) {
  return table().intersect_size(a, b);
}

void intersect(std::span<const VertexId> a, std::span<const VertexId> b,
               std::vector<VertexId>& out) {
  // Headroom for the vector slot's block stores. Grow only — resize past
  // the previous (smaller) result value-initializes the gap, so never
  // pre-shrink a reused buffer.
  const std::size_t need = std::min(a.size(), b.size()) + 8;
  if (out.size() < need) out.resize(need);
  out.resize(table().intersect_into(a, b, out.data()));
}

std::size_t bitmap_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) {
  return table().bitmap_and_popcount(a, b, words);
}

std::size_t varint_decode_u32(std::span<const std::uint8_t> in,
                              std::size_t count, std::uint32_t* out) {
  return table().varint_decode(in, count, out);
}

// ---------------------------------------------------------------------------
// Bounded / galloping / adaptive variants (built on the kernels above).
// ---------------------------------------------------------------------------

std::span<const VertexId> trim_to_window(std::span<const VertexId> s,
                                         VertexId lo_inclusive,
                                         VertexId hi_exclusive) {
  const VertexId* first = s.data();
  const VertexId* last = s.data() + s.size();
  if (lo_inclusive > 0) first = std::lower_bound(first, last, lo_inclusive);
  if (hi_exclusive != kNoVertexBound)
    last = std::lower_bound(first, last, hi_exclusive);
  return {first, last};
}

std::size_t intersect_size_bounded(std::span<const VertexId> a,
                                   std::span<const VertexId> b,
                                   VertexId lo_inclusive,
                                   VertexId hi_exclusive) {
  return intersect_size(trim_to_window(a, lo_inclusive, hi_exclusive),
                        trim_to_window(b, lo_inclusive, hi_exclusive));
}

void intersect_below(std::span<const VertexId> a, std::span<const VertexId> b,
                     VertexId bound, std::vector<VertexId>& out) {
  intersect(trim_to_window(a, 0, bound), trim_to_window(b, 0, bound), out);
}

void intersect_gallop(std::span<const VertexId> a, std::span<const VertexId> b,
                      std::vector<VertexId>& out) {
  out.clear();
  if (a.size() > b.size()) std::swap(a, b);
  const std::size_t nb = b.size();
  std::size_t lo = 0;
  for (VertexId x : a) {
    // Exponential probe forward from the last match position, then binary
    // search inside the located window. Probe indices are clamped to nb
    // before any dereference or pointer formation (past-the-end arithmetic
    // is UB even without a dereference).
    std::size_t step = 1;
    std::size_t hi = lo;
    while (hi < nb && b[hi] < x) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    if (hi > nb) hi = nb;
    lo = static_cast<std::size_t>(
        std::lower_bound(b.begin() + static_cast<std::ptrdiff_t>(lo),
                         b.begin() + static_cast<std::ptrdiff_t>(hi), x) -
        b.begin());
    if (lo == nb) break;
    if (b[lo] == x) out.push_back(x);
  }
}

std::size_t intersect_size_gallop(std::span<const VertexId> a,
                                  std::span<const VertexId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  const std::size_t nb = b.size();
  std::size_t lo = 0, n = 0;
  for (VertexId x : a) {
    std::size_t step = 1;
    std::size_t hi = lo;
    while (hi < nb && b[hi] < x) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    if (hi > nb) hi = nb;
    lo = static_cast<std::size_t>(
        std::lower_bound(b.begin() + static_cast<std::ptrdiff_t>(lo),
                         b.begin() + static_cast<std::ptrdiff_t>(hi), x) -
        b.begin());
    if (lo == nb) break;
    if (b[lo] == x) ++n;
  }
  return n;
}

namespace {
/// Gallop wins once the size ratio exceeds ~32 (empirically; see
/// bench/micro_kernels).
constexpr std::size_t kGallopRatio = 32;

inline bool prefer_gallop(std::size_t na, std::size_t nb) {
  const std::size_t small = std::min(na, nb);
  const std::size_t large = std::max(na, nb);
  return small != 0 && large / small >= kGallopRatio;
}
}  // namespace

void intersect_adaptive(std::span<const VertexId> a,
                        std::span<const VertexId> b,
                        std::vector<VertexId>& out) {
  if (prefer_gallop(a.size(), b.size())) {
    intersect_gallop(a, b, out);
  } else {
    intersect(a, b, out);
  }
}

std::size_t intersect_size_adaptive(std::span<const VertexId> a,
                                    std::span<const VertexId> b) {
  if (prefer_gallop(a.size(), b.size())) return intersect_size_gallop(a, b);
  return intersect_size(a, b);
}

std::size_t intersect_size_bounded_adaptive(std::span<const VertexId> a,
                                            std::span<const VertexId> b,
                                            VertexId lo_inclusive,
                                            VertexId hi_exclusive) {
  return intersect_size_adaptive(trim_to_window(a, lo_inclusive, hi_exclusive),
                                 trim_to_window(b, lo_inclusive, hi_exclusive));
}

// ---------------------------------------------------------------------------
// Bitmap kernels.
// ---------------------------------------------------------------------------

namespace {
inline std::size_t bit_probe(const std::uint64_t* bits, VertexId v) {
  return static_cast<std::size_t>((bits[v >> 6] >> (v & 63)) & 1u);
}
}  // namespace

void intersect_bitmap(std::span<const VertexId> a, const std::uint64_t* bits,
                      std::vector<VertexId>& out) {
  out.clear();
  for (VertexId v : a)
    if (bit_probe(bits, v) != 0) out.push_back(v);
}

std::size_t intersect_bitmap_into(std::span<const VertexId> a,
                                  const std::uint64_t* bits, VertexId* out) {
  std::size_t n = 0;
  for (VertexId v : a)
    if (bit_probe(bits, v) != 0) out[n++] = v;
  return n;
}

std::size_t intersect_size_bitmap(std::span<const VertexId> a,
                                  const std::uint64_t* bits) {
  std::size_t n = 0;
  for (VertexId v : a) n += bit_probe(bits, v);
  return n;
}

std::size_t intersect_size_bitmap_bounded(std::span<const VertexId> a,
                                          const std::uint64_t* bits,
                                          VertexId lo_inclusive,
                                          VertexId hi_exclusive) {
  return intersect_size_bitmap(trim_to_window(a, lo_inclusive, hi_exclusive),
                               bits);
}

std::size_t bitmap_and_popcount_bounded(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        VertexId universe,
                                        VertexId lo_inclusive,
                                        VertexId hi_exclusive) {
  const std::uint64_t lo64 = lo_inclusive;
  const std::uint64_t hi64 =
      std::min<std::uint64_t>(hi_exclusive, universe);
  if (lo64 >= hi64) return 0;
  const std::size_t first_word = static_cast<std::size_t>(lo64 >> 6);
  const std::size_t last_word = static_cast<std::size_t>((hi64 - 1) >> 6);
  // Masks select bits >= lo in the first word and < hi in the last.
  const std::uint64_t lo_mask = ~std::uint64_t{0} << (lo64 & 63);
  const std::uint64_t hi_mask =
      (hi64 & 63) == 0 ? ~std::uint64_t{0}
                       : (~std::uint64_t{0} >> (64 - (hi64 & 63)));
  if (first_word == last_word) {
    return static_cast<std::size_t>(
        std::popcount(a[first_word] & b[first_word] & lo_mask & hi_mask));
  }
  std::size_t n = static_cast<std::size_t>(
      std::popcount(a[first_word] & b[first_word] & lo_mask));
  n += bitmap_and_popcount(a + first_word + 1, b + first_word + 1,
                           last_word - first_word - 1);
  n += static_cast<std::size_t>(
      std::popcount(a[last_word] & b[last_word] & hi_mask));
  return n;
}

// ---------------------------------------------------------------------------
// Small-set helpers.
// ---------------------------------------------------------------------------

void remove_all(std::vector<VertexId>& s, std::span<const VertexId> excluded) {
  for (VertexId v : excluded) {
    auto it = std::lower_bound(s.begin(), s.end(), v);
    if (it != s.end() && *it == v) s.erase(it);
  }
}

std::size_t count_present(std::span<const VertexId> s,
                          std::span<const VertexId> values) {
  std::size_t n = 0;
  for (VertexId v : values)
    if (std::binary_search(s.begin(), s.end(), v)) ++n;
  return n;
}

bool contains(std::span<const VertexId> s, VertexId v) {
  return std::binary_search(s.begin(), s.end(), v);
}

std::size_t count_below(std::span<const VertexId> s, VertexId bound) {
  return static_cast<std::size_t>(
      std::lower_bound(s.begin(), s.end(), bound) - s.begin());
}

std::size_t count_above(std::span<const VertexId> s, VertexId bound) {
  return static_cast<std::size_t>(
      s.end() - std::upper_bound(s.begin(), s.end(), bound));
}

}  // namespace graphpi
