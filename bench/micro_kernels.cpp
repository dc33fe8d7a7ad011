// Micro-benchmarks of the hot kernels: sorted-set intersection variants
// (scalar reference vs the compiled SIMD dispatch, materializing vs
// size-only vs bitmap), candidate-set construction, triangle counting,
// and end-to-end intersection-heavy counting (house / 5-clique on an
// R-MAT graph) with and without the vectorized kernels + hub index.
//
// Two modes:
//   * default: google-benchmark suite (all the usual flags work);
//   * `micro_kernels --json [path]`: self-timed run of the kernel suite
//     that writes machine-readable JSON — one record per kernel with
//     {name, ns_per_op, elements_per_s} — to `path` (default
//     BENCH_micro_kernels.json) so per-PR trajectories can track
//     intersection throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "core/pattern_library.h"
#include "core/restriction.h"
#include "core/plan_forest.h"
#include "engine/forest.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/triangle.h"
#include "graph/vertex_set.h"
#include "support/rng.h"
#include "support/timer.h"

namespace {

using namespace graphpi;

std::vector<VertexId> make_sorted(std::size_t n, VertexId universe,
                                  std::uint64_t seed) {
  support::Xoshiro256StarStar rng(seed);
  std::vector<VertexId> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(static_cast<VertexId>(rng.bounded(universe)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::vector<std::uint64_t> make_bitmap(const std::vector<VertexId>& set,
                                       VertexId universe) {
  std::vector<std::uint64_t> bits((static_cast<std::size_t>(universe) + 63) /
                                  64);
  for (VertexId v : set) bits[v >> 6] |= std::uint64_t{1} << (v & 63);
  return bits;
}

// ---------------------------------------------------------------------------
// google-benchmark suite.
// ---------------------------------------------------------------------------

template <typename Kernel>
void run_pair_bench(benchmark::State& state, Kernel&& kernel) {
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)),
                             1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)),
                             1 << 20, 2);
  for (auto _ : state) benchmark::DoNotOptimize(kernel(a, b));
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(a.size() + b.size()));
}

void BM_IntersectScalar(benchmark::State& state) {
  std::vector<VertexId> out;
  run_pair_bench(state, [&out](const auto& a, const auto& b) {
    intersect_scalar(a, b, out);
    return out.data();
  });
}
BENCHMARK(BM_IntersectScalar)
    ->Args({1000, 1000})
    ->Args({100, 10000})
    ->Args({10, 100000});

void BM_IntersectDispatch(benchmark::State& state) {
  std::vector<VertexId> out;
  run_pair_bench(state, [&out](const auto& a, const auto& b) {
    intersect(a, b, out);
    return out.data();
  });
}
BENCHMARK(BM_IntersectDispatch)
    ->Args({1000, 1000})
    ->Args({100, 10000})
    ->Args({10, 100000});

void BM_IntersectSizeScalar(benchmark::State& state) {
  run_pair_bench(state, [](const auto& a, const auto& b) {
    return intersect_size_scalar(a, b);
  });
}
BENCHMARK(BM_IntersectSizeScalar)->Args({1000, 1000})->Args({10000, 10000});

void BM_IntersectSizeDispatch(benchmark::State& state) {
  run_pair_bench(state, [](const auto& a, const auto& b) {
    return intersect_size(a, b);
  });
}
BENCHMARK(BM_IntersectSizeDispatch)->Args({1000, 1000})->Args({10000, 10000});

void BM_IntersectSizeBounded(benchmark::State& state) {
  run_pair_bench(state, [](const auto& a, const auto& b) {
    return intersect_size_bounded(a, b, 1 << 18, 3 << 18);
  });
}
BENCHMARK(BM_IntersectSizeBounded)->Args({1000, 1000})->Args({10000, 10000});

void BM_IntersectGallop(benchmark::State& state) {
  std::vector<VertexId> out;
  run_pair_bench(state, [&out](const auto& a, const auto& b) {
    intersect_gallop(a, b, out);
    return out.data();
  });
}
BENCHMARK(BM_IntersectGallop)
    ->Args({1000, 1000})
    ->Args({100, 10000})
    ->Args({10, 100000});

void BM_IntersectSizeGallop(benchmark::State& state) {
  run_pair_bench(state, [](const auto& a, const auto& b) {
    return intersect_size_gallop(a, b);
  });
}
BENCHMARK(BM_IntersectSizeGallop)->Args({100, 10000})->Args({10, 100000});

void BM_IntersectAdaptive(benchmark::State& state) {
  std::vector<VertexId> out;
  run_pair_bench(state, [&out](const auto& a, const auto& b) {
    intersect_adaptive(a, b, out);
    return out.data();
  });
}
BENCHMARK(BM_IntersectAdaptive)
    ->Args({1000, 1000})
    ->Args({100, 10000})
    ->Args({10, 100000});

void BM_IntersectSizeBitmap(benchmark::State& state) {
  const auto a = make_sorted(static_cast<std::size_t>(state.range(0)),
                             1 << 20, 1);
  const auto b = make_sorted(static_cast<std::size_t>(state.range(1)),
                             1 << 20, 2);
  const auto bits = make_bitmap(b, 1 << 20);
  for (auto _ : state)
    benchmark::DoNotOptimize(intersect_size_bitmap(a, bits.data()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size()));
}
BENCHMARK(BM_IntersectSizeBitmap)->Args({1000, 100000})->Args({100, 100000});

void BM_BitmapAndPopcount(benchmark::State& state) {
  const auto a = make_sorted(60000, 1 << 20, 1);
  const auto b = make_sorted(60000, 1 << 20, 2);
  const auto ba = make_bitmap(a, 1 << 20);
  const auto bb = make_bitmap(b, 1 << 20);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        bitmap_and_popcount(ba.data(), bb.data(), ba.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ba.size() * 64));
}
BENCHMARK(BM_BitmapAndPopcount);

void BM_TriangleCount(benchmark::State& state) {
  const Graph g = clustered_power_law(
      static_cast<VertexId>(state.range(0)),
      static_cast<std::uint64_t>(state.range(0)) * 12, 2.3, 0.4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_triangles(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edge_count()));
}
BENCHMARK(BM_TriangleCount)->Arg(2000)->Arg(8000);

void BM_GraphBuild(benchmark::State& state) {
  const Graph src = erdos_renyi(static_cast<VertexId>(state.range(0)),
                                static_cast<std::uint64_t>(state.range(0)) * 8,
                                11);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < src.vertex_count(); ++u)
    for (VertexId v : src.neighbors(u))
      if (u < v) edges.emplace_back(u, v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_graph(src.vertex_count(), edges));
  }
}
BENCHMARK(BM_GraphBuild)->Arg(5000);

void BM_RestrictionGeneration(benchmark::State& state) {
  const Pattern p = patterns::evaluation_pattern(
      static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_restriction_sets(p));
  }
}
BENCHMARK(BM_RestrictionGeneration)->Arg(1)->Arg(3)->Arg(5);

void BM_LinearExtensions(benchmark::State& state) {
  // Worst case: empty poset on 8 elements (counts all 40320 orders).
  const RestrictionSet chain{{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear_extension_count(8, chain));
  }
}
BENCHMARK(BM_LinearExtensions);

/// R-MAT workload for the end-to-end counting comparisons: heavy-tailed
/// hubs make the intersections large and skewed.
Graph bench_rmat() { return rmat(10, 14000, 17); }

void BM_CountHouseRmat(benchmark::State& state) {
  const bool accelerated = state.range(0) != 0;
  Graph g = bench_rmat();
  if (!accelerated) g.build_hub_index(0xffffffffu);  // empty index
  force_scalar_kernels(!accelerated);
  const Configuration config = plan_configuration(
      patterns::house(), GraphStats::of(g), PlannerOptions{});
  const PlanForest forest({compile_plan(config)});
  const ForestExecutor executor(g, forest);
  ForestExecutor::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.count(ws));
  }
  force_scalar_kernels(false);
}
BENCHMARK(BM_CountHouseRmat)->Arg(0)->Arg(1);

void BM_CountClique5Rmat(benchmark::State& state) {
  const bool accelerated = state.range(0) != 0;
  Graph g = bench_rmat();
  if (!accelerated) g.build_hub_index(0xffffffffu);
  force_scalar_kernels(!accelerated);
  const Configuration config = plan_configuration(
      patterns::clique(5), GraphStats::of(g), PlannerOptions{});
  const PlanForest forest({compile_plan(config)});
  const ForestExecutor executor(g, forest);
  ForestExecutor::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.count(ws));
  }
  force_scalar_kernels(false);
}
BENCHMARK(BM_CountClique5Rmat)->Arg(0)->Arg(1);

void BM_CountHouse(benchmark::State& state) {
  const Graph g = clustered_power_law(1200, 8000, 2.3, 0.4, 13);
  const Configuration config = plan_configuration(
      patterns::house(), GraphStats::of(g), PlannerOptions{});
  const PlanForest forest({compile_plan(config)});
  const ForestExecutor executor(g, forest);
  ForestExecutor::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.count(ws));
  }
}
BENCHMARK(BM_CountHouse);

void BM_CountHouseIep(benchmark::State& state) {
  const Graph g = clustered_power_law(1200, 8000, 2.3, 0.4, 13);
  PlannerOptions planner;
  planner.use_iep = true;
  const Configuration config =
      plan_configuration(patterns::house(), GraphStats::of(g), planner);
  const PlanForest forest({compile_plan(config)});
  const ForestExecutor executor(g, forest);
  ForestExecutor::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.count(ws));
  }
}
BENCHMARK(BM_CountHouseIep);

// ---------------------------------------------------------------------------
// --json mode: self-timed suite with machine-readable output.
// ---------------------------------------------------------------------------

struct JsonRecord {
  std::string name;
  double ns_per_op = 0.0;
  double elements_per_s = 0.0;
};

/// Times `op` (which returns the number of elements it processed),
/// auto-scaling iterations until the measurement window exceeds ~50 ms.
template <typename Op>
JsonRecord time_kernel(const std::string& name, Op&& op) {
  std::uint64_t iters = 1;
  double seconds = 0.0;
  std::uint64_t elements = 0;
  for (;;) {
    support::Timer t;
    elements = 0;
    for (std::uint64_t i = 0; i < iters; ++i) elements += op();
    seconds = t.elapsed_seconds();
    if (seconds >= 0.05 || iters >= (std::uint64_t{1} << 30)) break;
    iters *= 4;
  }
  JsonRecord r;
  r.name = name;
  r.ns_per_op = seconds * 1e9 / static_cast<double>(iters);
  r.elements_per_s =
      seconds > 0 ? static_cast<double>(elements) / seconds : 0.0;
  return r;
}

int run_json_suite(const std::string& path) {
  // Open the sink first: fail fast instead of after a 30s suite.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::vector<JsonRecord> records;
  std::vector<VertexId> out;

  struct Shape {
    const char* tag;
    std::size_t na, nb;
  };
  const Shape shapes[] = {{"1kx1k", 1000, 1000},
                          {"100x10k", 100, 10000},
                          {"10x100k", 10, 100000},
                          {"10kx10k", 10000, 10000}};
  for (const Shape& s : shapes) {
    const auto a = make_sorted(s.na, 1 << 20, 1);
    const auto b = make_sorted(s.nb, 1 << 20, 2);
    const auto n = a.size() + b.size();
    const std::string suffix = std::string("/") + s.tag;
    records.push_back(time_kernel("intersect_scalar" + suffix, [&] {
      intersect_scalar(a, b, out);
      return n;
    }));
    records.push_back(time_kernel("intersect" + suffix, [&] {
      intersect(a, b, out);
      return n;
    }));
    records.push_back(time_kernel("intersect_size_scalar" + suffix, [&] {
      benchmark::DoNotOptimize(intersect_size_scalar(a, b));
      return n;
    }));
    records.push_back(time_kernel("intersect_size" + suffix, [&] {
      benchmark::DoNotOptimize(intersect_size(a, b));
      return n;
    }));
    records.push_back(time_kernel("intersect_size_adaptive" + suffix, [&] {
      benchmark::DoNotOptimize(intersect_size_adaptive(a, b));
      return n;
    }));
    records.push_back(
        time_kernel("intersect_size_bounded" + suffix, [&] {
          benchmark::DoNotOptimize(
              intersect_size_bounded(a, b, 1 << 18, 3 << 18));
          return n;
        }));
    const auto bits = make_bitmap(b, 1 << 20);
    records.push_back(time_kernel("intersect_size_bitmap" + suffix, [&] {
      benchmark::DoNotOptimize(intersect_size_bitmap(a, bits.data()));
      return a.size();
    }));
  }

  {
    const auto a = make_sorted(60000, 1 << 20, 1);
    const auto b = make_sorted(60000, 1 << 20, 2);
    const auto ba = make_bitmap(a, 1 << 20);
    const auto bb = make_bitmap(b, 1 << 20);
    records.push_back(time_kernel("bitmap_and_popcount/1Mbit", [&] {
      benchmark::DoNotOptimize(
          bitmap_and_popcount(ba.data(), bb.data(), ba.size()));
      return ba.size() * 64;
    }));
  }

  // End-to-end intersection-heavy counting: scalar baseline (merge
  // kernels, no hub index — the seed's configuration) vs the vectorized
  // dispatch + hub bitmaps. elements_per_s reports embeddings/s.
  const auto count_case = [&records](const std::string& name,
                                     const Pattern& pattern, bool use_iep,
                                     bool accelerated) {
    Graph g = bench_rmat();
    if (!accelerated) g.build_hub_index(0xffffffffu);
    force_scalar_kernels(!accelerated);
    PlannerOptions planner;
    planner.use_iep = use_iep;
    const Configuration config =
        plan_configuration(pattern, GraphStats::of(g), planner);
    const PlanForest forest({compile_plan(config)});
    const ForestExecutor executor(g, forest);
    ForestExecutor::Workspace ws;
    records.push_back(time_kernel(name, [&] {
      return static_cast<std::size_t>(executor.count(ws).front());
    }));
    force_scalar_kernels(false);
  };
  count_case("count_house_rmat/scalar", patterns::house(), false, false);
  count_case("count_house_rmat/simd", patterns::house(), false, true);
  count_case("count_clique5_rmat/scalar", patterns::clique(5), true, false);
  count_case("count_clique5_rmat/simd", patterns::clique(5), true, true);

  // The runtime dispatch means the compiled-in flags no longer pin the
  // path: record which table actually ran and what the CPU offers.
  std::fprintf(f,
               "{\n  \"backend\": \"%s\",\n  \"active_isa\": \"%s\",\n"
               "  \"detected_isa\": \"%s\",\n  \"cpu_avx512\": %s,\n"
               "  \"results\": [\n",
               simd_backend(), active_isa(), detected_isa(),
               cpu_supports(KernelIsa::kAvx512) ? "true" : "false");
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"elements_per_s\": %.3e}%s\n",
                 records[i].name.c_str(), records[i].ns_per_op,
                 records[i].elements_per_s,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %zu kernel records to %s (active isa: %s, detected: %s)\n",
              records.size(), path.c_str(), active_isa(), detected_isa());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const std::string path =
          i + 1 < argc ? argv[i + 1] : "BENCH_micro_kernels.json";
      return run_json_suite(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
