// graphpi_perfbench: one process of the GraphPi benchmark.
//
//   graphpi_perfbench --workload oneshot|exec|served|sharded --seed N
//                     --seconds S --tmp DIR --expected FILE
//                     [--traced] [--setup-only] [--max-passes K]
//                     [--trace-out FILE]
//
// Runs the workload's set-up once (timed), then repeats its pass until
// S seconds of passes are spent (or K passes ran), checks every count,
// and prints one JSON line with the raw per-pass figures. run.py starts
// these processes, reduces their figures to the benchmark's metrics and
// prints the result line; see perfbench/README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "engine/jit.h"
#include "harness.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "graphpi_perfbench: %s\n", why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--tmp") o.tmp_dir = value();
    else if (arg == "--expected") o.expected_path = value();
    else if (arg == "--trace-out") o.trace_out = value();
    else if (arg == "--max-passes") o.max_passes = std::stoi(value());
    else if (arg == "--traced") o.traced = true;
    else if (arg == "--setup-only") o.setup_only = true;
    else usage(("unknown argument " + arg).c_str());
  }
  if (o.tmp_dir.empty() || o.expected_path.empty())
    usage("--tmp and --expected are required");
  const unsigned hw = std::thread::hardware_concurrency();
  o.threads = static_cast<int>(std::min(4u, hw == 0 ? 1u : hw));
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "oneshot") return make_oneshot();
  if (name == "exec") return make_exec();
  if (name == "served") return make_served();
  if (name == "sharded") return make_sharded();
  usage(("unknown workload " + name).c_str());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  return "unknown";
}

/// JSON string literal (escapes quotes, backslashes and control bytes).
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <class Map>
std::string object(const Map& map) {
  std::string out = "{";
  for (const auto& [key, value] : map) {
    if (out.size() > 1) out += ",";
    out += quote(key) + ":" + number(static_cast<double>(value));
  }
  return out + "}";
}

std::string to_json(const Options& o, const RunRecord& run,
                    double peak_rss_mb) {
  std::ostringstream out;
  out << "{\"workload\":" << quote(o.workload) << ",\"seed\":" << o.seed
      << ",\"traced\":" << (o.traced ? "true" : "false")
      << ",\"setup_s\":" << number(run.setup_s)
      << ",\"attempted\":" << run.attempted << ",\"failed\":" << run.failed
      << ",\"peak_rss_mb\":" << number(peak_rss_mb) << ",\"errors\":[";
  for (std::size_t i = 0; i < run.errors.size(); ++i)
    out << (i ? "," : "") << quote(run.errors[i]);
  out << "],\"passes\":[";
  for (std::size_t i = 0; i < run.passes.size(); ++i) {
    const PassSample& p = run.passes[i];
    out << (i ? "," : "") << "{\"wall_s\":" << number(p.wall_s)
        << ",\"call_ms\":[";
    for (std::size_t c = 0; c < p.call_ms.size(); ++c)
      out << (c ? "," : "") << number(p.call_ms[c]);
    out << "],\"backend_s\":" << object(p.backend_s)
        << ",\"exact\":" << object(p.exact) << "}";
  }
  out << "],\"setup_exact\":" << object(run.setup_exact)
      << ",\"layer\":" << object(run.layer) << ",\"fingerprint\":{"
      << "\"cpu\":" << quote(cpu_model())
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"isa_detected\":" << quote(graphpi::detected_isa())
      << ",\"isa_active\":" << quote(graphpi::active_isa())
      << ",\"compiler\":" << quote(PERFBENCH_COMPILER)
      << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE)
      << ",\"jit_compiler\":" << quote(graphpi::jit::compiler_command())
      << "}}";
  return out.str();
}

void run_measured(Workload& workload, const Options& o, RunRecord& run) {
  CountCheck check(load_expected(o.expected_path, o.workload));
  run.measure_start_ns = now_ns();
  for (int pass = 0;; ++pass) {
    if (o.max_passes > 0 && pass >= o.max_passes) break;
    if (pass > 0 && seconds_since(run.measure_start_ns) >= o.seconds) break;
    PassSample sample;
    const std::uint64_t start = now_ns();
    workload.pass(o, run, sample, check);
    sample.wall_s = seconds_since(start);
    check.settle(run);
    run.passes.push_back(std::move(sample));
  }
  run.measure_end_ns = now_ns();
  for (const auto& [name, samples] : run.layer_samples)
    run.layer[name] = median(samples);
  if (!o.traced) return;
  const Tracer& tracer = Tracer::instance();
  const std::vector<double> self =
      tracer.self_seconds(run.measure_start_ns, run.measure_end_ns);
  const double passes = static_cast<double>(run.passes.size());
  for (int l = 0; l < kLayerCount; ++l)
    run.layer[std::string("trace.self_s.") +
              layer_name(static_cast<Layer>(l))] =
        self[static_cast<std::size_t>(l)] / passes;
  run.layer["trace.coverage"] =
      tracer.coverage(run.measure_start_ns, run.measure_end_ns);
  workload.finish(o, run);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    graphpi::support::metrics::set_enabled(o.traced);
    Tracer::instance().enable(o.traced);
    // An empty kernel cache private to this process, set before the first
    // JIT use: compile work is the same in every run, and no kernel can
    // leak in from another run's cache.
    const std::filesystem::path kernels =
        std::filesystem::path(o.tmp_dir) /
        ("kernels-" + std::to_string(::getpid()));
    std::filesystem::remove_all(kernels);
    std::filesystem::create_directories(kernels);
    ::setenv("GRAPHPI_KERNEL_CACHE_DIR", kernels.c_str(), 1);

    const std::unique_ptr<Workload> workload = make_workload(o.workload);
    RunRecord run;
    workload->prepare(o);
    const std::uint64_t setup_start = now_ns();
    workload->setup(o, run);
    run.setup_s = seconds_since(setup_start);
    if (!o.setup_only) run_measured(*workload, o, run);
    if (o.traced && !o.trace_out.empty()) {
      std::ofstream trace(o.trace_out);
      trace << Tracer::instance().to_chrome_json();
    }
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::cout << to_json(o, run, peak_rss_mb) << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graphpi_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
