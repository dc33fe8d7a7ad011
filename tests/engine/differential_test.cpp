// Randomized cross-backend × cross-ISA differential harness.
//
// One reference (each pattern counted alone on the serial backend, a
// one-plan forest, under default dispatch),
// everything else measured against it bit-for-bit: seeded R-MAT graphs ×
// the full named pattern library × every execution backend {serial,
// parallel, generated, distributed lockstep, distributed async with two
// workers per node} × every kernel table the executing CPU can select
// {scalar, AVX2, AVX-512 when detected}. Counting is
// integer-exact in every engine, so any divergence — a vector kernel
// miscounting a block boundary, a generated kernel mistranslating a
// restriction window, a shard dropping a boundary continuation, an IEP
// divisor that does not hold off K_n — fails loudly with the pattern and
// combination that produced it.
//
// cycle(6) is deliberately in the sweep: its IEP plans used to pass the
// K_n closed-form validation while overcounting non-uniformly on real
// graphs (divisor x=3 held only on average), making the serial count throw
// mid-division. The planner's order-uniformity validation (core/iep.cpp)
// now rejects those plans; the dedicated regression below pins the fix
// across backends.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "api/graphpi.h"
#include "core/pattern_library.h"
#include "engine/jit.h"
#include "graph/generators.h"
#include "graph/vertex_set.h"
#include "test_util.h"

namespace graphpi {
namespace {

std::vector<std::pair<std::string, Pattern>> full_library() {
  using namespace patterns;
  return {{"triangle", clique(3)},
          {"rectangle", rectangle()},
          {"tailed_triangle", tailed_triangle()},
          {"house", house()},
          {"pentagon", pentagon()},
          {"hourglass", hourglass()},
          {"cycle6tri", cycle_6_tri()},
          {"clique4", clique(4)},
          {"clique5", clique(5)},
          {"cycle5", cycle(5)},
          {"cycle6", cycle(6)},
          {"path4", path(4)},
          {"path5", path(5)},
          {"star4", star(4)},
          {"star5", star(5)}};
}

/// Every kernel table the executing CPU can actually select.
std::vector<KernelIsa> selectable_isas() {
  std::vector<KernelIsa> isas = {KernelIsa::kScalar};
  if (cpu_supports(KernelIsa::kAvx2)) isas.push_back(KernelIsa::kAvx2);
  if (cpu_supports(KernelIsa::kAvx512)) isas.push_back(KernelIsa::kAvx512);
  return isas;
}

struct BackendArm {
  const char* name;
  MatchOptions options;
};

std::vector<BackendArm> backend_arms() {
  std::vector<BackendArm> arms;
  arms.push_back({"serial", {}});
  BackendArm parallel{"parallel", {}};
  parallel.options.backend = Backend::kParallel;
  parallel.options.threads = 3;  // force a real multi-worker split
  arms.push_back(parallel);
  BackendArm generated{"generated", {}};
  generated.options.backend = Backend::kGenerated;
  generated.options.threads = 3;
  arms.push_back(generated);
  BackendArm distributed{"distributed", {}};
  distributed.options.backend = Backend::kDistributed;
  distributed.options.nodes = 3;
  arms.push_back(distributed);
  BackendArm async{"distributed-async", {}};
  async.options.backend = Backend::kDistributed;
  async.options.nodes = 3;
  async.options.dist_exec = dist::ExecMode::kAsync;
  async.options.dist_workers = 2;
  arms.push_back(async);
  return arms;
}

TEST(Differential, AllBackendsAllIsasAgreeOnSeededRmat) {
  const auto library = full_library();
  std::vector<Pattern> patterns;
  patterns.reserve(library.size());
  for (const auto& [name, p] : library) patterns.push_back(p);

  // Sized so the full sweep (|library| × backends × ISAs) stays inside a
  // CI-friendly budget — cycle(6)'s surviving IEP plans carry a 6x
  // outer-redundancy divisor, so it dominates every arm. The seeds are
  // arbitrary but fixed: failures reproduce exactly.
  const std::pair<const char*, Graph> graphs[] = {
      {"rmat(7,650,101)", rmat(7, 650, 101)},
      {"rmat(6,250,202)", rmat(6, 250, 202)},
  };
  for (const auto& [gname, graph] : graphs) {
    const GraphPi engine(graph);
    // Reference: one serial count per pattern (a one-plan forest),
    // default dispatch, so the shared multi-plan forests below are
    // cross-checked against single-plan runs.
    std::vector<Count> want;
    want.reserve(library.size());
    for (const auto& [name, p] : library) want.push_back(engine.count(p));

    for (const KernelIsa isa : selectable_isas()) {
      const testing::IsaGuard guard(isa);
      for (const BackendArm& arm : backend_arms()) {
        const std::vector<Count> got =
            engine.count_batch(patterns, arm.options);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < library.size(); ++i) {
          EXPECT_EQ(got[i], want[i])
              << gname << " / " << library[i].first << " / " << arm.name
              << " / " << to_string(isa);
        }
      }
    }
  }
}

TEST(Differential, DistributedSweepBitIdenticalUnderInjectedFaults) {
  // The full 15-pattern library through the 3-node sharded backend with a
  // nonzero seeded FaultPlan: the reliability layer (CRC frames +
  // retransmit + dedup) must mask every injected drop/duplicate/
  // reorder/corruption, leaving the counts BIT-IDENTICAL to serial — and
  // the stats must prove the faults actually fired.
  const auto library = full_library();
  std::vector<Pattern> patterns;
  patterns.reserve(library.size());
  for (const auto& [name, p] : library) patterns.push_back(p);

  const Graph graph = rmat(6, 250, 202);
  const GraphPi engine(graph);
  const std::vector<Count> want = engine.count_batch(patterns);

  MatchOptions options;
  options.backend = Backend::kDistributed;
  options.nodes = 3;
  options.faults = dist::FaultPlan::uniform(/*seed=*/31337, /*drop=*/0.06,
                                            /*duplicate=*/0.06,
                                            /*reorder=*/0.04,
                                            /*corrupt=*/0.06);
  dist::ClusterStats stats;
  options.cluster_stats = &stats;
  const std::vector<Count> got = engine.count_batch(patterns, options);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < library.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << library[i].first << " under faults";
  EXPECT_GT(stats.injected_drops, 0u);
  EXPECT_GT(stats.injected_duplicates, 0u);
  EXPECT_GT(stats.injected_corruptions, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.duplicates_suppressed, 0u);
  EXPECT_GT(stats.corrupt_frames_detected, 0u);
}

TEST(Differential, SnapshotRoundTripBitIdenticalOnEveryBackend) {
  // The snapshot arm: degree-reorder + save + mmap-load (io/snapshot.h)
  // must be invisible to counting. Reference = the library counted on
  // the graph as built; comparand = the same library on the
  // reordered-saved-loaded graph, across every backend arm under default
  // dispatch (the ISA × decode cross-product lives in tests/io/).
  const auto library = full_library();
  std::vector<Pattern> patterns;
  patterns.reserve(library.size());
  for (const auto& [name, p] : library) patterns.push_back(p);

  const Graph graph = rmat(6, 250, 202);
  const std::vector<Count> want = GraphPi(graph).count_batch(patterns);

  const std::string path =
      (std::filesystem::temp_directory_path() / "graphpi_differential.gps")
          .string();
  graph.reorder_by_degree().save_snapshot(path);
  const Graph loaded = Graph::load_snapshot(path);
  std::filesystem::remove(path);

  const GraphPi engine(loaded);
  for (const BackendArm& arm : backend_arms()) {
    const std::vector<Count> got = engine.count_batch(patterns, arm.options);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < library.size(); ++i)
      EXPECT_EQ(got[i], want[i])
          << "snapshot / " << library[i].first << " / " << arm.name;
  }
}

TEST(Differential, CycleSixIepRegression) {
  // The latent IEP-divisor bug: cycle(6) planned with use_iep produced
  // configurations whose undivided sum was not divisible by the computed
  // surviving-automorphism factor on real graphs (the K_n validation
  // passed on the aggregate). The order-uniformity check now rejects
  // them, so IEP-enabled counting must succeed and agree with plain
  // enumeration on every backend.
  const Graph graph = rmat(7, 650, 101);
  const GraphPi engine(graph);
  const Pattern cycle6 = patterns::cycle(6);

  MatchOptions no_iep;
  no_iep.use_iep = false;
  const Count want = engine.count(cycle6, no_iep);

  for (const Backend backend :
       {Backend::kSerial, Backend::kParallel, Backend::kGenerated}) {
    MatchOptions options;  // use_iep defaults to true
    options.backend = backend;
    options.threads = 3;
    Count got = 0;
    EXPECT_NO_THROW(got = engine.count(cycle6, options))
        << "backend " << static_cast<int>(backend);
    EXPECT_EQ(got, want) << "backend " << static_cast<int>(backend);
  }

  // Whatever configuration the planner now selects for cycle(6) must be
  // empirically sound, not just K_n-sound.
  EXPECT_TRUE(empirically_validate(engine.plan(cycle6)));
}

}  // namespace
}  // namespace graphpi
