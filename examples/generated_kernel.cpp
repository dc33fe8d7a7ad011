// Generated-vs-interpreted demo: runs the same patterns through the
// in-process forest walk (Backend::kSerial) and the self-compiling kernel
// cache (Backend::kGenerated — plan IR -> emitted C++ -> system compiler
// -> dlopen, engine/jit.h), checks the counts agree, and reports both
// timings. The first generated run pays the compile; the second shows
// the steady-state kernel.
//
//   ./generated_kernel [dataset=wiki_vote] [scale=0.3]
#include <cstdio>
#include <cstdlib>

#include "api/graphpi.h"
#include "engine/jit.h"
#include "support/timer.h"

int main(int argc, char** argv) {
  using namespace graphpi;

  const std::string dataset = argc > 1 ? argv[1] : "wiki_vote";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.3;
  const Graph graph = datasets::load(dataset, scale);
  const GraphPi engine(graph);

  std::printf("graph: %s (scale %.2f) — %u vertices, %llu edges\n",
              dataset.c_str(), scale, graph.vertex_count(),
              static_cast<unsigned long long>(graph.edge_count()));
  if (!jit::compiler_available()) {
    std::printf("no system compiler found: Backend::kGenerated will fall "
                "back to the interpreter.\n");
  } else {
    std::printf("compiler: %s, set kernels: %s\n",
                jit::compiler_command().c_str(), active_isa());
  }

  const std::pair<const char*, Pattern> cases[] = {
      {"house (IEP)", patterns::house()},
      {"pentagon (IEP)", patterns::pentagon()},
      {"clique4", patterns::clique(4)},
  };
  MatchOptions generated;
  generated.backend = Backend::kGenerated;

  std::printf("%-16s %14s %12s %12s %12s\n", "pattern", "count",
              "interp(ms)", "gen#1(ms)", "gen#2(ms)");
  for (const auto& [name, pattern] : cases) {
    support::Timer t;
    const Count serial = engine.count(pattern);
    const double interp_ms = t.elapsed_seconds() * 1e3;

    t = support::Timer();
    const Count gen1 = engine.count(pattern, generated);  // includes compile
    const double gen1_ms = t.elapsed_seconds() * 1e3;

    t = support::Timer();
    const Count gen2 = engine.count(pattern, generated);  // cached kernel
    const double gen2_ms = t.elapsed_seconds() * 1e3;

    if (serial != gen1 || serial != gen2) {
      std::fprintf(stderr, "%s: MISMATCH serial=%llu gen=%llu/%llu\n", name,
                   static_cast<unsigned long long>(serial),
                   static_cast<unsigned long long>(gen1),
                   static_cast<unsigned long long>(gen2));
      return 1;
    }
    std::printf("%-16s %14llu %12.2f %12.2f %12.2f\n", name,
                static_cast<unsigned long long>(serial), interp_ms, gen1_ms,
                gen2_ms);
  }

  const auto stats = jit::KernelCache::instance().stats();
  std::printf(
      "kernel cache: %llu compiled, %llu memory hits, %llu disk hits (%s)\n",
      static_cast<unsigned long long>(stats.compiles),
      static_cast<unsigned long long>(stats.memory_hits),
      static_cast<unsigned long long>(stats.disk_hits),
      jit::KernelCache::instance().cache_dir().c_str());
  return 0;
}
