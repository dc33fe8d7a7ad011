#include "codegen/kernel_abi.h"

#include <algorithm>
#include <utility>

#include "graph/vertex_set.h"

namespace graphpi::codegen {

namespace {

// Flat extern-"C"-shaped adapters over the dispatching kernels. They pick
// up whatever table select_kernel_isa() has active at call time, so a
// generated kernel follows runtime ISA switches exactly like the
// interpreter.

std::uint64_t ops_intersect(const std::uint32_t* a, std::uint64_t an,
                            const std::uint32_t* b, std::uint64_t bn,
                            std::uint32_t* out) {
  return intersect_into({a, static_cast<std::size_t>(an)},
                        {b, static_cast<std::size_t>(bn)}, out);
}

std::uint64_t ops_intersect_size_bounded(const std::uint32_t* a,
                                         std::uint64_t an,
                                         const std::uint32_t* b,
                                         std::uint64_t bn, std::uint32_t lo,
                                         std::uint32_t hi) {
  return intersect_size_bounded({a, static_cast<std::size_t>(an)},
                                {b, static_cast<std::size_t>(bn)}, lo, hi);
}

std::uint64_t ops_intersect_bitmap(const std::uint32_t* a, std::uint64_t an,
                                   const std::uint64_t* bits,
                                   std::uint32_t* out) {
  return intersect_bitmap_into({a, static_cast<std::size_t>(an)}, bits, out);
}

std::uint64_t ops_intersect_size_bitmap_bounded(const std::uint32_t* a,
                                                std::uint64_t an,
                                                const std::uint64_t* bits,
                                                std::uint32_t lo,
                                                std::uint32_t hi) {
  return intersect_size_bitmap_bounded({a, static_cast<std::size_t>(an)},
                                       bits, lo, hi);
}

// Buffers: plain new[]/delete[] arrays. grow drops the old contents
// rather than copying them, because every caller overwrites the buffer.

void ops_grow(KernelBuf* buf, std::uint64_t need) {
  if (buf->capacity >= need) return;
  const std::uint64_t capacity = std::max(need, 2 * buf->capacity);
  delete[] buf->data;
  *buf = KernelBuf{};
  buf->data = new std::uint32_t[capacity];
  buf->capacity = capacity;
}

void ops_release(KernelBuf* buf) {
  delete[] buf->data;
  *buf = KernelBuf{};
}

// The hub-aware chains, over the same probes the emitted kernels inline
// (isect_adj / isect_refine in codegen.cpp).

constexpr std::uint32_t kNotHub = 0xffffffffu;

const std::uint64_t* hub_row(const KernelGraph& g, std::uint32_t v) {
  if (g.hub_slot == nullptr) return nullptr;
  const std::uint32_t slot = g.hub_slot[v];
  return slot == kNotHub
             ? nullptr
             : g.hub_bits + static_cast<std::uint64_t>(slot) * g.hub_words;
}

std::span<const VertexId> adj(const KernelGraph& g, std::uint32_t v) {
  const std::uint64_t off = g.offsets[v];
  return {g.neighbors + off, static_cast<std::size_t>(g.offsets[v + 1] - off)};
}

/// N(u) ∩ N(v) into `out` (min(deg u, deg v) + 8 capacity).
std::uint64_t isect_adj(const KernelGraph& g, std::uint32_t u, std::uint32_t v,
                        std::uint32_t* out) {
  const std::span<const VertexId> au = adj(g, u), av = adj(g, v);
  const std::uint64_t* bu = hub_row(g, u);
  const std::uint64_t* bv = hub_row(g, v);
  if (bv != nullptr && (bu == nullptr || au.size() <= av.size()))
    return intersect_bitmap_into(au, bv, out);
  if (bu != nullptr) return intersect_bitmap_into(av, bu, out);
  return intersect_into(au, av, out);
}

/// set[0, n) ∩ N(v) into `out` (n + 8 capacity).
std::uint64_t isect_refine(const KernelGraph& g, const std::uint32_t* set,
                           std::uint64_t n, std::uint32_t v,
                           std::uint32_t* out) {
  const std::span<const VertexId> s{set, static_cast<std::size_t>(n)};
  if (const std::uint64_t* bits = hub_row(g, v))
    return intersect_bitmap_into(s, bits, out);
  return intersect_into(s, adj(g, v), out);
}

/// Leaves ∩_{j < last} N(vs[j]) in buf[0, return) for last >= 2.
std::uint64_t isect_chain(const KernelGraph& g, const std::uint32_t* vs,
                          std::uint64_t last, KernelBuf* buf, KernelBuf* scr) {
  ops_grow(buf, adj(g, vs[0]).size() + 8);
  std::uint64_t n = isect_adj(g, vs[0], vs[1], buf->data);
  for (std::uint64_t j = 2; j < last; ++j) {
    ops_grow(scr, n + 8);
    n = isect_refine(g, buf->data, n, vs[j], scr->data);
    std::swap(*buf, *scr);
  }
  return n;
}

void ops_build_isect(const KernelGraph* g, const std::uint32_t* vs,
                     std::uint64_t nv, KernelBuf* set, KernelBuf* scr) {
  if (nv == 1) {
    const std::span<const VertexId> a = adj(*g, vs[0]);
    ops_grow(set, a.size());
    std::copy(a.begin(), a.end(), set->data);
    set->size = a.size();
    return;
  }
  set->size = isect_chain(*g, vs, nv, set, scr);
}

std::uint64_t ops_isect_size_chain_bounded(const KernelGraph* g,
                                           const std::uint32_t* vs,
                                           std::uint64_t nv, std::uint32_t lo,
                                           std::uint32_t hi, KernelBuf* buf,
                                           KernelBuf* scr) {
  const std::uint32_t v = vs[nv - 1];
  const std::uint64_t n = isect_chain(*g, vs, nv - 1, buf, scr);
  const std::span<const VertexId> set{buf->data, static_cast<std::size_t>(n)};
  if (const std::uint64_t* bits = hub_row(*g, v))
    return intersect_size_bitmap_bounded(set, bits, lo, hi);
  return intersect_size_bounded(set, adj(*g, v), lo, hi);
}

std::span<const VertexId> view(const KernelBuf& buf) {
  return {buf.data, static_cast<std::size_t>(buf.size)};
}

std::uint64_t ops_isect_size_set_chain(const KernelBuf* const* sets,
                                       std::uint64_t ns, KernelBuf* scr_a,
                                       KernelBuf* scr_b) {
  ops_grow(scr_a, std::min(sets[0]->size, sets[1]->size) + 8);
  std::uint64_t n = intersect_into(view(*sets[0]), view(*sets[1]), scr_a->data);
  for (std::uint64_t j = 2; j + 1 < ns; ++j) {
    ops_grow(scr_b, n + 8);
    n = intersect_into({scr_a->data, static_cast<std::size_t>(n)},
                       view(*sets[j]), scr_b->data);
    std::swap(*scr_a, *scr_b);
  }
  return intersect_size_bounded({scr_a->data, static_cast<std::size_t>(n)},
                                view(*sets[ns - 1]), 0, kNoVertexBound);
}

}  // namespace

const KernelOps& host_kernel_ops() noexcept {
  static const KernelOps ops{&ops_intersect,
                             &ops_intersect_size_bounded,
                             &ops_intersect_bitmap,
                             &ops_intersect_size_bitmap_bounded,
                             &ops_grow,
                             &ops_release,
                             &ops_build_isect,
                             &ops_isect_size_chain_bounded,
                             &ops_isect_size_set_chain};
  return ops;
}

KernelGraph make_kernel_graph(const Graph& g) noexcept {
  KernelGraph view;
  view.offsets = g.raw_offsets().data();
  view.neighbors = g.raw_neighbors().data();
  view.n_vertices = g.vertex_count();
  if (g.has_hub_index() && !g.hub_slots().empty()) {
    view.hub_slot = g.hub_slots().data();
    view.hub_bits = g.hub_rows().data();
    view.hub_words = g.hub_words();
  }
  return view;
}

}  // namespace graphpi::codegen
