#include "codegen/codegen.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/kernel_abi.h"
#include "support/check.h"
#include "support/exec_control.h"

namespace graphpi::codegen {

namespace {

/// Stream helper managing indentation.
class Emitter {
 public:
  Emitter& line(const std::string& s = "") {
    if (!s.empty())
      for (int i = 0; i < indent_; ++i) out_ << "  ";
    out_ << s << '\n';
    return *this;
  }
  void open(const std::string& s) {
    line(s.empty() ? "{" : s + " {");
    ++indent_;
  }
  void close(const std::string& suffix = "") {
    --indent_;
    line("}" + suffix);
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
  int indent_ = 0;
};

std::string n2s(std::uint64_t v) { return std::to_string(v); }

std::string mask_literal(PlanForest::PlanMask m) {
  std::ostringstream oss;
  oss << "0x" << std::hex << m << "ull";
  return oss.str();
}

std::string mapped(int depth) { return "s.m[" + std::to_string(depth) + "]"; }

std::string depth_list(std::span<const int> depths) {
  std::string out;
  for (std::size_t i = 0; i < depths.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(depths[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Prelude: ABI mirror structs and the inline probes the per-plan emission
// composes. Buffers and the chains that grow them live behind the ops
// table, so the prelude needs no library header beyond <cstdint>.
// ---------------------------------------------------------------------------

void emit_prelude(Emitter& e) {
  e.line("// Auto-generated by GraphPi codegen (plan IR). Do not edit.");
  e.line("//");
  e.line("// Self-contained C++17 (GCC/Clang: __int128 is used for IEP");
  e.line("// term products). The entry point takes the graph view and an");
  e.line("// ops table (set kernels, buffer growth, intersection chains)");
  e.line("// through the C ABI of codegen/kernel_abi.h. Compiled with OpenMP");
  e.line("// (-fopenmp) the root-vertex loop runs in parallel; without it");
  e.line("// the same source degrades to the serial loop.");
  e.line("#include <cstdint>");
  e.line("#if defined(_OPENMP)");
  e.line("#include <omp.h>");
  e.line("#endif");
  e.line();
  e.open("namespace");
  e.line("using u32 = uint32_t;");
  e.line("using u64 = uint64_t;");
  e.line("using i32 = int32_t;");
  e.line();
  e.line("constexpr u32 kNoBound = 0xffffffffu;");
  e.line();
  e.line("// ABI mirror of codegen/kernel_abi.h, version " +
         std::to_string(kKernelAbiVersion) + ".");
  e.open("struct GenGraph");
  e.line("const u64* offsets;");
  e.line("const u32* neighbors;");
  e.line("u32 n_vertices;");
  e.line("const u32* hub_slot;  // null = no hub index; 0xffffffff = not a hub");
  e.line("const u64* hub_bits;");
  e.line("u64 hub_words;");
  e.close(";");
  e.line("// A buffer the kernel fills; only ops.grow / ops.release allocate.");
  e.open("struct GenBuf");
  e.line("u32* data;");
  e.line("u64 size;");
  e.line("u64 capacity;");
  e.close(";");
  e.open("struct GenOps");
  e.line("u64 (*intersect)(const u32* a, u64 an, const u32* b, u64 bn, u32* out);");
  e.line("u64 (*intersect_size_bounded)(const u32* a, u64 an, const u32* b, "
         "u64 bn, u32 lo, u32 hi);");
  e.line("u64 (*intersect_bitmap)(const u32* a, u64 an, const u64* bits, "
         "u32* out);");
  e.line("u64 (*intersect_size_bitmap_bounded)(const u32* a, u64 an, "
         "const u64* bits, u32 lo, u32 hi);");
  e.line("void (*grow)(GenBuf* buf, u64 need);  // capacity >= need; may drop "
         "contents");
  e.line("void (*release)(GenBuf* buf);");
  e.line("// set = ∩_j N(vs[j]) (hub-aware; nv >= 1).");
  e.line("void (*build_isect)(const GenGraph* g, const u32* vs, u64 nv, "
         "GenBuf* set, GenBuf* scr);");
  e.line("// |∩_j N(vs[j]) ∩ [lo, hi)| (hub-aware, size-only last step; "
         "nv >= 3).");
  e.line("u64 (*isect_size_chain_bounded)(const GenGraph* g, const u32* vs, "
         "u64 nv, u32 lo, u32 hi, GenBuf* buf, GenBuf* scr);");
  e.line("// |∩_j *sets[j]| (IEP blocks of ns >= 3 sets).");
  e.line("u64 (*isect_size_set_chain)(const GenBuf* const* sets, u64 ns, "
         "GenBuf* scr_a, GenBuf* scr_b);");
  e.close(";");
  e.open("struct GenRun");
  e.line("i32 threads;           // <= 0: OpenMP runtime default");
  e.line("u32 poll_stride;       // roots between stop checks; 0 = 64");
  e.line("const volatile i32* cancel;  // nonzero = stop; null = never");
  e.line("u64 root_budget;       // stop after ~this many roots; 0 = unlimited");
  e.line("u64* completed_roots;  // out: roots fully processed (optional)");
  e.line("i32* stop_reason;      // out: 0 done, 1 cancelled, 2 budget");
  e.close(";");
  e.line();
  e.line("// First index of sorted a[0..n) holding a value >= x.");
  e.open("inline u64 lb(const u32* a, u64 n, u32 x)");
  e.line("u64 lo = 0, hi = n;");
  e.open("while (lo < hi)");
  e.line("const u64 mid = (lo + hi) / 2;");
  e.line("if (a[mid] < x) lo = mid + 1; else hi = mid;");
  e.close();
  e.line("return lo;");
  e.close();
  e.line();
  e.open("inline const u64* hub_row(const GenGraph& g, u32 v)");
  e.line("if (g.hub_slot == nullptr) return nullptr;");
  e.line("const u32 slot = g.hub_slot[v];");
  e.line("return slot == kNoBound ? nullptr "
         ": g.hub_bits + static_cast<u64>(slot) * g.hub_words;");
  e.close();
  e.open("inline const u32* adj(const GenGraph& g, u32 v, u64& n)");
  e.line("const u64 off = g.offsets[v];");
  e.line("n = g.offsets[v + 1] - off;");
  e.line("return g.neighbors + off;");
  e.close();
  e.open("inline bool has_edge(const GenGraph& g, u32 u, u32 v)");
  e.line("if (const u64* bits = hub_row(g, u)) "
         "return ((bits[v >> 6] >> (v & 63)) & 1u) != 0;");
  e.line("u64 n; const u32* a = adj(g, u, n);");
  e.line("const u64 i = lb(a, n, v);");
  e.line("return i < n && a[i] == v;");
  e.close();
  e.line();
  e.line("// Hub-aware intersection of two adjacencies (the plan's hub-index");
  e.line("// hint: probe the smaller adjacency against a hub bitmap row when");
  e.line("// one endpoint has one). out needs min(deg u, deg v) + 8 capacity.");
  e.open("inline u64 isect_adj(const GenGraph& g, const GenOps& k, u32 u, "
         "u32 v, u32* out)");
  e.line("u64 nu, nv;");
  e.line("const u32* au = adj(g, u, nu);");
  e.line("const u32* av = adj(g, v, nv);");
  e.line("const u64* bu = hub_row(g, u);");
  e.line("const u64* bv = hub_row(g, v);");
  e.line("if (bv != nullptr && (bu == nullptr || nu <= nv)) "
         "return k.intersect_bitmap(au, nu, bv, out);");
  e.line("if (bu != nullptr) return k.intersect_bitmap(av, nv, bu, out);");
  e.line("return k.intersect(au, nu, av, nv, out);");
  e.close();
  e.line("// set ∩ N(v); out needs n + 8 capacity.");
  e.open("inline u64 isect_refine(const GenGraph& g, const GenOps& k, "
         "const u32* set, u64 n, u32 v, u32* out)");
  e.line("if (const u64* bits = hub_row(g, v)) "
         "return k.intersect_bitmap(set, n, bits, out);");
  e.line("u64 nv; const u32* av = adj(g, v, nv);");
  e.line("return k.intersect(set, n, av, nv, out);");
  e.close();
  e.line("// |set ∩ N(v) ∩ [lo, hi)| without materializing (size-only leaf).");
  e.open("inline u64 isect_size_refine_bounded(const GenGraph& g, "
         "const GenOps& k, const u32* set, u64 n, u32 v, u32 lo, u32 hi)");
  e.line("if (const u64* bits = hub_row(g, v)) "
         "return k.intersect_size_bitmap_bounded(set, n, bits, lo, hi);");
  e.line("u64 nv; const u32* av = adj(g, v, nv);");
  e.line("return k.intersect_size_bounded(set, n, av, nv, lo, hi);");
  e.close();
  e.line("// |N(u) ∩ N(v) ∩ [lo, hi)| (hub-aware, size-only).");
  e.open("inline u64 isect_size_adj_bounded(const GenGraph& g, "
         "const GenOps& k, u32 u, u32 v, u32 lo, u32 hi)");
  e.line("u64 nu, nv;");
  e.line("const u32* au = adj(g, u, nu);");
  e.line("const u32* av = adj(g, v, nv);");
  e.line("const u64* bu = hub_row(g, u);");
  e.line("const u64* bv = hub_row(g, v);");
  e.line("if (bv != nullptr && (bu == nullptr || nu <= nv)) "
         "return k.intersect_size_bitmap_bounded(au, nu, bv, lo, hi);");
  e.line("if (bu != nullptr) "
         "return k.intersect_size_bitmap_bounded(av, nv, bu, lo, hi);");
  e.line("return k.intersect_size_bounded(au, nu, av, nv, lo, hi);");
  e.close();
  e.line("// |a ∩ b| over materialized sets (IEP block factors).");
  e.open("inline u64 isect_size_sets(const GenOps& k, const GenBuf& a, "
         "const GenBuf& b)");
  e.line("return k.intersect_size_bounded(a.data, a.size, b.data, b.size, 0u, "
         "kNoBound);");
  e.close();
  e.line("// |[lo, hi) ∩ [0, n_vertices)| — the 0-predecessor leaf.");
  e.open("inline u64 range_count(const GenGraph& g, u32 lo, u32 hi)");
  e.line("const u32 cap = hi < g.n_vertices ? hi : g.n_vertices;");
  e.line("return lo < cap ? cap - lo : 0;");
  e.close();
  e.line("// |N(v) ∩ [lo, hi)| — the 1-predecessor leaf.");
  e.open("inline u64 adj_window_count(const GenGraph& g, u32 v, u32 lo, "
         "u32 hi)");
  e.line("u64 n; const u32* a = adj(g, v, n);");
  e.line("const u64 first = lo != 0 ? lb(a, n, lo) : 0;");
  e.line("const u64 last = hi == kNoBound ? n : lb(a, n, hi);");
  e.line("return last > first ? last - first : 0;");
  e.close();
  e.open("inline void remove_value(GenBuf& set, u32 v)");
  e.line("const u64 i = lb(set.data, set.size, v);");
  e.line("if (i >= set.size || set.data[i] != v) return;");
  e.line("for (u64 j = i + 1; j < set.size; ++j) set.data[j - 1] = set.data[j];");
  e.line("--set.size;");
  e.close();
}

void emit_state(Emitter& e, int max_depth, std::size_t n_plans,
                std::size_t n_suffix) {
  const std::string depth = n2s(static_cast<std::uint64_t>(max_depth));
  const std::string suffix = n2s(std::max<std::size_t>(n_suffix, 1));
  e.line();
  e.line("// Traversal state: the partial embedding by schedule depth plus");
  e.line("// reusable buffers (mirrors the executor workspaces). Value-");
  e.line("// initialize it (State s{};) and free it with release_state.");
  e.open("struct State");
  e.line("u32 m[" + depth + "];");
  e.line("GenBuf cand[" + depth + "], tmp[" + depth + "];");
  e.line("GenBuf sset[" + suffix +
         "];  // shared IEP suffix sets of the node being evaluated");
  e.line("GenBuf scr_a, scr_b;");
  e.line("u64 sums[" + n2s(n_plans) +
         "];  // per-plan accumulators (undivided IEP sums)");
  e.close(";");
  e.open("void release_state(const GenOps& k, State& s)");
  e.line("for (u64 d = 0; d < " + depth +
         "; ++d) { k.release(&s.cand[d]); k.release(&s.tmp[d]); }");
  e.line("for (u64 i = 0; i < " + suffix + "; ++i) k.release(&s.sset[i]);");
  e.line("k.release(&s.scr_a);");
  e.line("k.release(&s.scr_b);");
  e.close();
}

// ---------------------------------------------------------------------------
// Per-node emission (the trie walk as straight-line nested code).
// ---------------------------------------------------------------------------

struct NodeEmitter {
  const PlanForest& forest;
  Emitter& e;
  int uid = 0;  ///< per-function unique suffix for local names

  std::string fresh() { return std::to_string(uid++); }

  /// Emits the window [lo, hi) implied by bound-depth lists; returns the
  /// (lo, hi) expressions — literals when unbounded.
  std::pair<std::string, std::string> window(std::span<const int> lower,
                                             std::span<const int> upper) {
    if (lower.empty() && upper.empty()) return {"0u", "kNoBound"};
    const std::string id = fresh();
    const std::string lo = "lo" + id, hi = "hi" + id;
    e.line("u32 " + lo + " = 0; u32 " + hi + " = kNoBound;");
    for (int d : lower)
      e.line("if (" + mapped(d) + " + 1 > " + lo + ") " + lo + " = " +
             mapped(d) + " + 1;");
    for (int d : upper)
      e.line("if (" + mapped(d) + " < " + hi + ") " + hi + " = " + mapped(d) +
             ";");
    return {lo, hi};
  }

  /// Declares `const u32 vs<id>[] = {s.m[p0], ...};` and returns its name.
  std::string pred_array(std::span<const int> preds) {
    const std::string name = "vs" + fresh();
    std::string init;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (i != 0) init += ", ";
      init += mapped(preds[i]);
    }
    e.line("const u32 " + name + "[] = {" + init + "};");
    return name;
  }

  /// Emits `u64 <raw> = |∩ preds ∩ [lo, hi)|` (no used-vertex correction)
  /// at node depth `depth`; returns the variable name.
  std::string raw_count(std::span<const int> preds, int depth,
                        const std::string& lo, const std::string& hi) {
    const std::string raw = "raw" + fresh();
    if (preds.empty()) {
      e.line("u64 " + raw + " = range_count(g, " + lo + ", " + hi + ");");
    } else if (preds.size() == 1) {
      e.line("u64 " + raw + " = adj_window_count(g, " + mapped(preds[0]) +
             ", " + lo + ", " + hi + ");");
    } else if (preds.size() == 2) {
      e.line("u64 " + raw + " = isect_size_adj_bounded(g, k, " +
             mapped(preds[0]) + ", " + mapped(preds[1]) + ", " + lo + ", " +
             hi + ");");
    } else {
      const std::string vs = pred_array(preds);
      e.line("u64 " + raw + " = k.isect_size_chain_bounded(&g, " + vs + ", " +
             n2s(preds.size()) + ", " + lo + ", " + hi + ", &s.cand[" +
             std::to_string(depth) + "], &s.tmp[" + std::to_string(depth) +
             "]);");
    }
    return raw;
  }

  /// Subtracts already-mapped vertices that fall in the window and are
  /// adjacent to every predecessor (exec::count_used_in_intersection).
  void used_corrections(const std::string& raw, std::span<const int> preds,
                        int depth, const std::string& lo,
                        const std::string& hi) {
    for (int d = 0; d < depth; ++d) {
      std::string cond;
      if (lo != "0u") cond += mapped(d) + " >= " + lo;
      if (hi != "kNoBound") {
        if (!cond.empty()) cond += " && ";
        cond += mapped(d) + " < " + hi;
      }
      for (int p : preds) {
        if (!cond.empty()) cond += " && ";
        cond += "has_edge(g, " + mapped(p) + ", " + mapped(d) + ")";
      }
      if (cond.empty()) cond = "true";
      e.line("if (" + cond + ") --" + raw + ";");
    }
  }

  void count_leaf(const PlanForest::CountLeaf& leaf, int depth) {
    e.line("// plan " + std::to_string(leaf.plan) + " counting leaf: preds [" +
           depth_list(leaf.predecessor_depths) + "]");
    e.open("if ((active >> " + std::to_string(leaf.plan) + ") & 1)");
    const auto [lo, hi] =
        window(leaf.lower_bound_depths, leaf.upper_bound_depths);
    const bool windowed = lo != "0u" || hi != "kNoBound";
    if (windowed) e.open("if (" + lo + " < " + hi + ")");
    const std::string raw = raw_count(leaf.predecessor_depths, depth, lo, hi);
    used_corrections(raw, leaf.predecessor_depths, depth, lo, hi);
    e.line("s.sums[" + std::to_string(leaf.plan) + "] += " + raw + ";");
    if (windowed) e.close();
    e.close();
  }

  /// Materializes suffix set `def_idx` of `node` into s.sset[def_idx].
  void build_suffix_set(const PlanForest::Node& node, std::size_t def_idx) {
    const std::vector<int>& def = node.suffix_defs[def_idx];
    const std::string set = "s.sset[" + n2s(def_idx) + "]";
    e.line("// suffix set " + n2s(def_idx) + ": preds [" + depth_list(def) +
           "] minus mapped");
    e.open("if ((active & " +
           mask_literal(node.suffix_def_demand_masks[def_idx]) + ") != 0)");
    if (def.empty()) {
      // Disconnected suffix vertex: every vertex is a candidate.
      e.line("k.grow(&" + set + ", g.n_vertices);");
      e.line(set + ".size = g.n_vertices;");
      e.line("for (u32 x = 0; x < g.n_vertices; ++x) " + set + ".data[x] = x;");
    } else {
      const std::string vs = pred_array(def);
      e.line("k.build_isect(&g, " + vs + ", " + n2s(def.size()) + ", &" + set +
             ", &s.scr_a);");
    }
    for (int d = 0; d < node.depth; ++d)
      e.line("remove_value(" + set + ", " + mapped(d) + ");");
    e.close();
  }

  /// One signed IEP term: coefficient * ∏_blocks |∩_{i∈B} sset[...]|.
  void iep_term(const IepPlan::Term& term, std::span<const int> set_ids) {
    const std::string prod = "prod" + fresh();
    e.open("");  // anonymous scope keeps the block temporaries local
    e.line("__int128 " + prod + " = " + std::to_string(term.coefficient) +
           ";");
    for (const auto& block : term.blocks) {
      std::string factor;
      if (block.size() == 1) {
        factor = "s.sset[" + n2s(static_cast<std::uint64_t>(
                                 set_ids[block[0]])) + "].size";
      } else if (block.size() == 2) {
        factor = "isect_size_sets(k, s.sset[" +
                 n2s(static_cast<std::uint64_t>(set_ids[block[0]])) +
                 "], s.sset[" +
                 n2s(static_cast<std::uint64_t>(set_ids[block[1]])) + "])";
      } else {
        const std::string bs = "bs" + fresh();
        std::string init;
        for (std::size_t i = 0; i < block.size(); ++i) {
          if (i != 0) init += ", ";
          init += "&s.sset[" +
                  n2s(static_cast<std::uint64_t>(set_ids[block[i]])) + "]";
        }
        e.line("const GenBuf* const " + bs + "[] = {" + init + "};");
        factor = "k.isect_size_set_chain(" + bs + ", " + n2s(block.size()) +
                 ", &s.scr_a, &s.scr_b)";
      }
      e.line(prod + " *= static_cast<__int128>(" + factor + ");");
    }
    e.line("sum += " + prod + ";");
    e.close();
  }

  void iep_leaf(const PlanForest::IepLeaf& leaf) {
    const Plan& plan = forest.plans()[static_cast<std::size_t>(leaf.plan)];
    e.line("// plan " + std::to_string(leaf.plan) + " IEP leaf (k=" +
           std::to_string(plan.iep.k) + ", " +
           std::to_string(plan.iep.terms.size()) + " terms)");
    e.open("if ((active >> " + std::to_string(leaf.plan) + ") & 1)");
    e.line("__int128 sum = 0;");
    for (const auto& term : plan.iep.terms) iep_term(term, leaf.set_ids);
    e.line("// |S_IEP| per leaf is a tuple count, so sum >= 0.");
    e.line("s.sums[" + std::to_string(leaf.plan) +
           "] += static_cast<u64>(sum);");
    e.close();
  }

  /// Candidate loop over an extension's predecessors inside the union
  /// window [ulo, uhi); `body` emits the per-candidate payload given the
  /// loop variable's name.
  template <typename Body>
  void candidate_loop(std::span<const int> preds, int depth,
                      const std::string& ulo, const std::string& uhi,
                      Body&& body) {
    const std::string id = fresh();
    const std::string v = "v" + id;
    if (preds.empty()) {
      const std::string cap =
          uhi == "kNoBound"
              ? "g.n_vertices"
              : "(" + uhi + " < g.n_vertices ? " + uhi + " : g.n_vertices)";
      e.open("for (u32 " + v + " = " + (ulo == "0u" ? "0" : ulo) + "; " + v +
             " < " + cap + "; ++" + v + ")");
      body(v);
      e.close();
      return;
    }
    std::string arr, len;
    if (preds.size() == 1) {
      arr = "a" + id;
      len = "n" + id;
      e.line("u64 " + len + "; const u32* " + arr + " = adj(g, " +
             mapped(preds[0]) + ", " + len + ");");
    } else {
      const std::string vs = pred_array(preds);
      const std::string cand = "s.cand[" + std::to_string(depth) + "]";
      e.line("k.build_isect(&g, " + vs + ", " + n2s(preds.size()) + ", &" +
             cand + ", &s.tmp[" + std::to_string(depth) + "]);");
      arr = "a" + id;
      len = "n" + id;
      e.line("const u32* " + arr + " = " + cand + ".data;");
      e.line("const u64 " + len + " = " + cand + ".size;");
    }
    const std::string i = "i" + id;
    const std::string start =
        ulo == "0u" ? "0" : "(" + ulo + " != 0 ? lb(" + arr + ", " + len +
                                ", " + ulo + ") : 0)";
    e.open("for (u64 " + i + " = " + start + "; " + i + " < " + len + "; ++" +
           i + ")");
    e.line("const u32 " + v + " = " + arr + "[" + i + "];");
    if (uhi != "kNoBound")
      e.line("if (" + v + " >= " + uhi + ") break;  // restriction early break");
    body(v);
    e.close();
  }

  void injectivity(const std::string& v, int depth) {
    std::string cond;
    for (int d = 0; d < depth; ++d) {
      if (!cond.empty()) cond += " || ";
      cond += v + " == " + mapped(d);
    }
    if (!cond.empty()) e.line("if (" + cond + ") continue;");
  }

  void extension(const PlanForest::Extension& ext, int depth) {
    const std::string child = "node" + std::to_string(ext.child);
    e.line("// extension -> " + child + ": preds [" +
           depth_list(ext.predecessor_depths) + "], " +
           std::to_string(ext.branches.size()) + " restriction branch(es)");
    if (ext.branches.size() == 1) {
      // Single branch: the loop bounds apply its whole window, so no
      // per-candidate mask narrowing is needed.
      const PlanForest::Branch& br = ext.branches.front();
      const std::string next = "next" + fresh();
      e.open("");
      e.line("const u64 " + next + " = active & " + mask_literal(br.mask) +
             ";");
      e.open("if (" + next + " != 0)");
      const auto [lo, hi] = window(br.lower_bound_depths, br.upper_bound_depths);
      const bool windowed = lo != "0u" || hi != "kNoBound";
      if (windowed) e.open("if (" + lo + " < " + hi + ")");
      candidate_loop(ext.predecessor_depths, depth, lo, hi,
                     [&](const std::string& v) {
                       injectivity(v, depth);
                       e.line(mapped(depth) + " = " + v + ";");
                       e.line(child + "(g, k, s, " + next + ");");
                     });
      if (windowed) e.close();
      e.close();
      e.close();
      return;
    }
    // Several distinct windows: resolve the surviving branches, loop the
    // union window, narrow the active mask per candidate (the
    // ForestExecutor model).
    const std::string id = fresh();
    const std::string bm = "bm" + id, blo = "blo" + id, bhi = "bhi" + id;
    const std::string live = "live" + id, ulo = "ulo" + id, uhi = "uhi" + id;
    const std::string nb = n2s(ext.branches.size());
    e.open("if ((active & " + mask_literal(ext.mask) + ") != 0)");
    e.line("u64 " + bm + "[" + nb + "]; u32 " + blo + "[" + nb + "], " + bhi +
           "[" + nb + "];");
    e.line("u64 " + live + " = 0;");
    e.line("u32 " + ulo + " = kNoBound; u32 " + uhi + " = 0;");
    for (const PlanForest::Branch& br : ext.branches) {
      e.open("");
      e.line("const u64 m = active & " + mask_literal(br.mask) + ";");
      e.open("if (m != 0)");
      const auto [lo, hi] = window(br.lower_bound_depths, br.upper_bound_depths);
      const bool windowed = lo != "0u" || hi != "kNoBound";
      if (windowed) e.open("if (" + lo + " < " + hi + ")");
      e.line(bm + "[" + live + "] = m; " + blo + "[" + live + "] = " + lo +
             "; " + bhi + "[" + live + "] = " + hi + "; ++" + live + ";");
      e.line("if (" + lo + " < " + ulo + ") " + ulo + " = " + lo + ";");
      e.line("if (" + hi + " > " + uhi + ") " + uhi + " = " + hi + ";");
      if (windowed) e.close();
      e.close();
      e.close();
    }
    e.open("if (" + live + " != 0)");
    candidate_loop(
        ext.predecessor_depths, depth, ulo, uhi, [&](const std::string& v) {
          const std::string next = "next" + fresh();
          e.line("u64 " + next + " = 0;");
          e.line("for (u64 b = 0; b < " + live + "; ++b) if (" + v + " >= " +
                 blo + "[b] && " + v + " < " + bhi + "[b]) " + next + " |= " +
                 bm + "[b];");
          e.line("if (" + next + " == 0) continue;");
          injectivity(v, depth);
          e.line(mapped(depth) + " = " + v + ";");
          e.line("node" + std::to_string(ext.child) + "(g, k, s, " + next +
                 ");");
        });
    e.close();
    e.close();
  }

  void node_function(std::size_t node_idx) {
    const PlanForest::Node& node =
        forest.nodes()[static_cast<std::size_t>(node_idx)];
    uid = 0;
    e.line();
    e.open("void node" + std::to_string(node_idx) +
           "(const GenGraph& g, const GenOps& k, State& s, u64 active)");
    // Leaves first: they may use cand[depth]/tmp[depth], which the
    // extension loops below rebuild (same order as the executors).
    for (const PlanForest::CountLeaf& leaf : node.count_leaves)
      count_leaf(leaf, node.depth);
    if (!node.iep_leaves.empty()) {
      for (std::size_t i = 0; i < node.suffix_defs.size(); ++i)
        build_suffix_set(node, i);
      for (const PlanForest::IepLeaf& leaf : node.iep_leaves)
        iep_leaf(leaf);
    }
    for (const PlanForest::Extension& ext : node.extensions)
      extension(ext, node.depth);
    if (node.count_leaves.empty() && node.iep_leaves.empty() &&
        node.extensions.empty())
      e.line("(void)g; (void)k; (void)s; (void)active;");
    e.close();
  }

  /// The root traversal pinned to one depth-0 vertex — the unit the
  /// parallel run() partitions across threads (mirrors
  /// ForestExecutor::accumulate_root). The root's extension windows are
  /// always unbounded (no vertex is mapped before depth 0) and plans
  /// have >= 2 steps, so the root carries no leaves: the body is just
  /// the per-extension mask narrowing without a candidate loop.
  void root_function() {
    const PlanForest::Node& root = forest.nodes().front();
    GRAPHPI_CHECK_MSG(root.count_leaves.empty() && root.iep_leaves.empty(),
                      "codegen root node must not carry leaves");
    for (const PlanForest::Extension& ext : root.extensions)
      for (const PlanForest::Branch& br : ext.branches)
        GRAPHPI_CHECK_MSG(br.lower_bound_depths.empty() &&
                              br.upper_bound_depths.empty(),
                          "root extension windows must be unbounded");
    e.line();
    e.open("void root0(const GenGraph& g, const GenOps& k, State& s, "
           "u64 active, u32 v)");
    e.line("s.m[0] = v;");
    for (const PlanForest::Extension& ext : root.extensions) {
      e.line("// extension -> node" + std::to_string(ext.child) +
             " (root windows are unbounded: plain mask narrowing)");
      e.open("");
      e.line("const u64 next = active & " + mask_literal(ext.mask) + ";");
      e.line("if (next != 0) node" + std::to_string(ext.child) +
             "(g, k, s, next);");
      e.close();
    }
    if (root.extensions.empty()) e.line("(void)g; (void)k; (void)active;");
    e.close();
  }
};

/// Shared body: prelude, state, node functions, the per-root entry, and
/// the (OpenMP-parallel when compiled so) accumulator run. Callers wrap
/// it in their entry-point shape.
void emit_forest_body(Emitter& e, const PlanForest& forest) {
  emit_prelude(e);
  int max_depth = 0;
  std::size_t max_suffix = 0;
  for (const Plan& p : forest.plans())
    max_depth = std::max(max_depth, p.size());
  for (const auto& node : forest.nodes())
    max_suffix = std::max(max_suffix, node.suffix_defs.size());
  emit_state(e, std::max(max_depth, 1), forest.plans().size(), max_suffix);
  e.line();
  // Node 0 is the root: its traversal is emitted as root0 (pinned to one
  // depth-0 vertex) so run() can partition work by root vertex.
  for (std::size_t i = 1; i < forest.nodes().size(); ++i)
    e.line("void node" + std::to_string(i) +
           "(const GenGraph& g, const GenOps& k, State& s, u64 active);");
  NodeEmitter ne{forest, e};
  for (std::size_t i = 1; i < forest.nodes().size(); ++i)
    ne.node_function(i);
  ne.root_function();
  const std::string np = n2s(forest.plans().size());
  const std::string all = mask_literal(forest.all_plans_mask());
  e.line();
  e.open("void run(const GenGraph& g, const GenOps& k, const GenRun* r, "
         "u64* counts)");
  e.line("u64 totals[" + np + "];");
  e.line("for (u64 i = 0; i < " + np + "; ++i) totals[i] = 0;");
  e.line("// Cooperative-stop state (ABI v3): the host's cancel flag, an");
  e.line("// optional shared root budget, and a power-of-two poll mask so");
  e.line("// the per-root gate is a single AND+branch. The host arms");
  e.line("// deadlines by flipping `cancel` from a watchdog thread —");
  e.line("// kernels never read clocks.");
  e.line("const volatile i32* cancel = r != nullptr ? r->cancel : nullptr;");
  e.line("const u64 budget = r != nullptr ? r->root_budget : 0;");
  e.line("const u32 stride = "
         "r != nullptr && r->poll_stride != 0 ? r->poll_stride : 64u;");
  e.line("u32 pow2 = 1;");
  e.line("while (pow2 < stride && pow2 < (1u << 30)) pow2 <<= 1;");
  e.line("const u64 mask = pow2 - 1;");
  e.line("const bool armed = cancel != nullptr || budget != 0;");
  e.line("u64 done_total = 0;");
  e.line("u64 polled_total = 0;  // budget tally, flushed per stride");
  e.line("i32 reason = 0;");
  e.line("#if defined(_OPENMP)");
  e.line("// Root-partitioned parallel traversal (the engine/parallel.h");
  e.line("// root loop): one State per worker, dynamic chunks over the root");
  e.line("// vertices to ride out degree skew, per-plan reduction at the");
  e.line("// end. Workers only read g and call the stateless ops table, so");
  e.line("// host kernels stay safe under concurrency. The worker count is");
  e.line("// scoped to this region via num_threads — never");
  e.line("// omp_set_num_threads, which would leak into the host thread's");
  e.line("// OpenMP default. Worksharing loops cannot break, so a stopped");
  e.line("// worker skips its remaining iterations.");
  e.line("const int nth = r != nullptr && r->threads > 0 ? r->threads "
         ": omp_get_max_threads();");
  e.line("#pragma omp parallel num_threads(nth)");
  e.open("");
  e.line("State s{};");
  e.line("u64 done = 0;");
  e.line("int stop = 0;");
  e.line("#pragma omp for schedule(dynamic, " +
         std::to_string(support::kRootChunk) + ") nowait");
  e.open("for (long long v = 0; v < static_cast<long long>(g.n_vertices); "
         "++v)");
  e.open("if (stop == 0)");
  e.line("root0(g, k, s, " + all + ", static_cast<u32>(v));");
  e.line("++done;");
  e.open("if (armed && (done & mask) == 0)");
  e.line("i32 seen;");
  e.line("#pragma omp atomic read");
  e.line("seen = reason;");
  e.open("if (seen != 0)");
  e.line("stop = 1;");
  e.close();
  e.open("else");
  e.line("int mine = 0;");
  e.line("if (cancel != nullptr && *cancel != 0) mine = 1;");
  e.open("else if (budget != 0)");
  e.line("u64 total;");
  e.line("#pragma omp atomic capture");
  e.line("{ polled_total += mask + 1; total = polled_total; }");
  e.line("if (total >= budget) mine = 2;");
  e.close();
  e.open("if (mine != 0)");
  e.line("#pragma omp critical(gp_stop)");
  e.line("{ if (reason == 0) reason = mine; }");
  e.line("stop = 1;");
  e.close();
  e.close();
  e.close();
  e.close();
  e.close();
  e.line("#pragma omp critical(gp_reduce)");
  e.open("");
  e.line("for (u64 i = 0; i < " + np + "; ++i) totals[i] += s.sums[i];");
  e.line("done_total += done;");
  e.close();
  e.line("release_state(k, s);");
  e.close();
  e.line("#else");
  e.line("State s{};");
  e.open("for (u32 v = 0; v < g.n_vertices; ++v)");
  e.line("root0(g, k, s, " + all + ", v);");
  e.line("++done_total;");
  e.open("if (armed && (done_total & mask) == 0)");
  e.line("if (cancel != nullptr && *cancel != 0) { reason = 1; break; }");
  e.line("if (budget != 0 && done_total >= budget) { reason = 2; break; }");
  e.close();
  e.close();
  e.line("(void)polled_total;");
  e.line("for (u64 i = 0; i < " + np + "; ++i) totals[i] += s.sums[i];");
  e.line("release_state(k, s);");
  e.line("#endif");
  e.line("if (r != nullptr && r->completed_roots != nullptr) "
         "*r->completed_roots = done_total;");
  e.line("if (r != nullptr && r->stop_reason != nullptr) "
         "*r->stop_reason = reason;");
  for (std::size_t i = 0; i < forest.plans().size(); ++i) {
    const Plan& plan = forest.plans()[i];
    if (plan.iep_active()) {
      e.line("counts[" + n2s(i) + "] = totals[" + n2s(i) + "] / " +
             n2s(plan.iep.divisor) +
             "ull;  // IEP surviving-automorphism factor x");
    } else {
      e.line("counts[" + n2s(i) + "] = totals[" + n2s(i) + "];");
    }
  }
  e.close();
  e.close("  // namespace");
  e.line();
}

void emit_abi_probe(Emitter& e, const std::string& name) {
  e.line("extern \"C\" unsigned " + name + "_abi() { return " +
         std::to_string(kKernelAbiVersion) + "; }");
}

void emit_plan_header_comments(Emitter& e, const PlanForest& forest) {
  for (std::size_t i = 0; i < forest.plans().size(); ++i) {
    const Plan& plan = forest.plans()[i];
    e.line("// Pattern " + n2s(i) + ": " + plan.pattern.to_string());
    e.line("// Plan " + n2s(i) + ": " + plan.to_string());
  }
  const auto& s = forest.stats();
  e.line("// Forest: " + n2s(s.nodes) + " trie nodes, " + n2s(s.extensions) +
         " extensions, " + n2s(s.shared_steps) + " shared steps");
}

}  // namespace

std::string generate_source(const Plan& plan, const CodegenOptions& options) {
  GRAPHPI_CHECK_MSG(plan.size() >= 2,
                    "codegen requires plans with >= 2 steps");
  const PlanForest forest({plan});
  Emitter e;
  emit_plan_header_comments(e, forest);
  emit_forest_body(e, forest);
  emit_abi_probe(e, options.function_name);
  e.open("extern \"C\" unsigned long long " + options.function_name +
         "(const void* graph, const void* ops, const void* run_opts)");
  e.line("const GenGraph& g = *static_cast<const GenGraph*>(graph);");
  e.line("const GenOps& k = *static_cast<const GenOps*>(ops);");
  e.line("u64 count = 0;");
  e.line("run(g, k, static_cast<const GenRun*>(run_opts), &count);");
  e.line("return count;");
  e.close();
  return e.str();
}

std::string generate_source(const Configuration& config,
                            const CodegenOptions& options) {
  GRAPHPI_CHECK(config.schedule.size() == config.pattern.size());
  Emitter e;
  e.line("// Pattern: " + config.pattern.to_string());
  e.line("// Schedule: " + config.schedule.to_string());
  e.line("// Restrictions: " + to_string(config.restrictions));
  return e.str() + generate_source(compile_plan(config), options);
}

std::string generate_forest_source(const PlanForest& forest,
                                   const CodegenOptions& options) {
  GRAPHPI_CHECK_MSG(!forest.plans().empty(), "empty forest");
  for (const Plan& plan : forest.plans())
    GRAPHPI_CHECK_MSG(plan.size() >= 2,
                      "codegen requires plans with >= 2 steps");
  Emitter e;
  emit_plan_header_comments(e, forest);
  emit_forest_body(e, forest);
  emit_abi_probe(e, options.function_name);
  e.open("extern \"C\" void " + options.function_name +
         "(const void* graph, const void* ops, const void* run_opts, "
         "unsigned long long* counts)");
  e.line("const GenGraph& g = *static_cast<const GenGraph*>(graph);");
  e.line("const GenOps& k = *static_cast<const GenOps*>(ops);");
  const std::string np = n2s(forest.plans().size());
  e.line("u64 tmp[" + np + "];");
  e.line("run(g, k, static_cast<const GenRun*>(run_opts), tmp);");
  e.line("for (u64 i = 0; i < " + np + "; ++i) counts[i] = tmp[i];");
  e.close();
  return e.str();
}

std::string generate_standalone(const Configuration& config,
                                const CodegenOptions& options) {
  std::ostringstream out;
  out << generate_source(config, options);
  out << R"(
#include <cstdio>
#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

// Portable ops table: sorted-merge / bitmap-probe set kernels and the
// buffer and chain entries, standing in for the host table a GraphPi
// process passes, so this program needs nothing but a C++17 compiler.
namespace {
u64 fb_intersect(const u32* a, u64 an, const u32* b, u64 bn, u32* out) {
  u64 i = 0, j = 0, n = 0;
  while (i < an && j < bn) {
    if (a[i] < b[j]) ++i;
    else if (a[i] > b[j]) ++j;
    else { out[n++] = a[i]; ++i; ++j; }
  }
  return n;
}
u64 fb_intersect_size_bounded(const u32* a, u64 an, const u32* b, u64 bn,
                              u32 lo, u32 hi) {
  u64 i = lo != 0 ? lb(a, an, lo) : 0;
  u64 j = lo != 0 ? lb(b, bn, lo) : 0;
  u64 n = 0;
  while (i < an && j < bn) {
    if (a[i] >= hi || b[j] >= hi) break;
    if (a[i] < b[j]) ++i;
    else if (a[i] > b[j]) ++j;
    else { ++n; ++i; ++j; }
  }
  return n;
}
u64 fb_intersect_bitmap(const u32* a, u64 an, const u64* bits, u32* out) {
  u64 n = 0;
  for (u64 i = 0; i < an; ++i)
    if ((bits[a[i] >> 6] >> (a[i] & 63)) & 1u) out[n++] = a[i];
  return n;
}
u64 fb_intersect_size_bitmap_bounded(const u32* a, u64 an, const u64* bits,
                                     u32 lo, u32 hi) {
  u64 n = 0;
  for (u64 i = lo != 0 ? lb(a, an, lo) : 0; i < an && a[i] < hi; ++i)
    n += (bits[a[i] >> 6] >> (a[i] & 63)) & 1u;
  return n;
}
void fb_grow(GenBuf* buf, u64 need) {
  if (buf->capacity >= need) return;
  const u64 capacity = need > 2 * buf->capacity ? need : 2 * buf->capacity;
  delete[] buf->data;
  *buf = GenBuf{};
  buf->data = new u32[capacity];
  buf->capacity = capacity;
}
void fb_release(GenBuf* buf) {
  delete[] buf->data;
  *buf = GenBuf{};
}
const GenOps& fallback_ops();
// Leaves the intersection of N(vs[0..last)) in buf; returns its size.
u64 fb_chain(const GenGraph& g, const u32* vs, u64 last, GenBuf* buf,
             GenBuf* scr) {
  u64 n0;
  (void)adj(g, vs[0], n0);
  fb_grow(buf, n0 + 8);
  u64 n = isect_adj(g, fallback_ops(), vs[0], vs[1], buf->data);
  for (u64 j = 2; j < last; ++j) {
    fb_grow(scr, n + 8);
    n = isect_refine(g, fallback_ops(), buf->data, n, vs[j], scr->data);
    std::swap(*buf, *scr);
  }
  return n;
}
void fb_build_isect(const GenGraph* g, const u32* vs, u64 nv, GenBuf* set,
                    GenBuf* scr) {
  if (nv == 1) {
    u64 n;
    const u32* a = adj(*g, vs[0], n);
    fb_grow(set, n);
    std::copy(a, a + n, set->data);
    set->size = n;
    return;
  }
  set->size = fb_chain(*g, vs, nv, set, scr);
}
u64 fb_isect_size_chain_bounded(const GenGraph* g, const u32* vs, u64 nv,
                                u32 lo, u32 hi, GenBuf* buf, GenBuf* scr) {
  const u64 n = fb_chain(*g, vs, nv - 1, buf, scr);
  return isect_size_refine_bounded(*g, fallback_ops(), buf->data, n,
                                   vs[nv - 1], lo, hi);
}
u64 fb_isect_size_set_chain(const GenBuf* const* sets, u64 ns, GenBuf* scr_a,
                            GenBuf* scr_b) {
  fb_grow(scr_a, std::min(sets[0]->size, sets[1]->size) + 8);
  u64 n = fb_intersect(sets[0]->data, sets[0]->size, sets[1]->data,
                       sets[1]->size, scr_a->data);
  for (u64 j = 2; j + 1 < ns; ++j) {
    fb_grow(scr_b, n + 8);
    n = fb_intersect(scr_a->data, n, sets[j]->data, sets[j]->size,
                     scr_b->data);
    std::swap(*scr_a, *scr_b);
  }
  return fb_intersect_size_bounded(scr_a->data, n, sets[ns - 1]->data,
                                   sets[ns - 1]->size, 0u, kNoBound);
}
const GenOps& fallback_ops() {
  static constexpr GenOps ops = {
      &fb_intersect,          &fb_intersect_size_bounded,
      &fb_intersect_bitmap,   &fb_intersect_size_bitmap_bounded,
      &fb_grow,               &fb_release,
      &fb_build_isect,        &fb_isect_size_chain_bounded,
      &fb_isect_size_set_chain};
  return ops;
}
}  // namespace

// Minimal CSR loader for "u v" edge lists; mirrors graphpi::read_edge_list.
int main(int argc, char** argv) {
  if (argc < 2) { std::fprintf(stderr, "usage: %s edge_list\n", argv[0]); return 1; }
  std::ifstream in(argv[1]);
  if (!in) { std::fprintf(stderr, "cannot open %s\n", argv[1]); return 1; }
  std::vector<std::pair<unsigned, unsigned>> edges;
  unsigned n = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    unsigned a, b;
    if (std::sscanf(line.c_str(), "%u %u", &a, &b) != 2 || a == b) continue;
    edges.emplace_back(a, b);
    edges.emplace_back(b, a);
    n = std::max(n, std::max(a, b) + 1);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<u64> offsets(n + 1, 0);
  std::vector<u32> neighbors;
  neighbors.reserve(edges.size());
  for (auto [u, v] : edges) { offsets[u + 1]++; neighbors.push_back(v); }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  const GenGraph gg{offsets.data(), neighbors.data(), n, nullptr, nullptr, 0};
  std::printf("%llu\n", )" << options.function_name
      << R"((&gg, &fallback_ops(), nullptr));
  return 0;
}
)";
  return out.str();
}

}  // namespace graphpi::codegen
