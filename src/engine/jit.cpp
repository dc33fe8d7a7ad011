#include "engine/jit.h"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "codegen/codegen.h"
#include "core/pattern_canon.h"
#include "support/check.h"
#include "support/metrics.h"
#include "support/timer.h"
#include "support/trace.h"

namespace graphpi::jit {

namespace fs = std::filesystem;

namespace {

/// Exported symbol names of every cached kernel (the function name is
/// fixed; the artifact file name carries the key).
constexpr const char* kEntrySymbol = "graphpi_kernel_batch";

bool jit_disabled() { return std::getenv("GRAPHPI_JIT_DISABLE") != nullptr; }

/// Probes `cmd --version` quietly.
bool compiler_works(const std::string& cmd) {
  if (cmd.empty()) return false;
  const std::string probe = cmd + " --version > /dev/null 2>&1";
  return std::system(probe.c_str()) == 0;
}

const std::string& probed_compiler() {
  static const std::string compiler = [] {
    for (const char* env : {"GRAPHPI_CXX", "CXX"}) {
      if (const char* c = std::getenv(env); c != nullptr && compiler_works(c))
        return std::string(c);
    }
    for (const char* candidate : {"c++", "g++", "clang++"})
      if (compiler_works(candidate)) return std::string(candidate);
    return std::string();
  }();
  return compiler;
}

/// Shell-quotes a path for the std::system compile line (cache dirs may
/// contain spaces; metacharacters must not reach the shell).
std::string quoted(const fs::path& p) {
  std::string out = "'";
  for (char c : p.string()) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += '\'';
  return out;
}

/// FNV-1a over the emitted source — the exact fingerprint of the plan
/// semantics (schedules, windows, IEP terms) the kernel implements.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Human-auditable key prefix: a second hash over the canonical pattern
/// strings, so artifacts of the same pattern set sort together on disk.
std::uint64_t pattern_set_hash(const PlanForest& forest) {
  std::ostringstream oss;
  for (const Plan& plan : forest.plans())
    oss << canonical_string(plan.pattern) << ';';
  return fnv1a(oss.str());
}

/// File name stem of a forest's artifacts: "graphpi_<pattern set>_<source>".
std::string artifact_stem(const PlanForest& forest, const std::string& source) {
  char stem[64];
  std::snprintf(stem, sizeof stem, "graphpi_%016llx_%016llx",
                static_cast<unsigned long long>(pattern_set_hash(forest)),
                static_cast<unsigned long long>(fnv1a(source)));
  return stem;
}

std::string emit(const PlanForest& forest) {
  codegen::CodegenOptions opt;
  opt.function_name = kEntrySymbol;
  return codegen::generate_forest_source(forest, opt);
}

}  // namespace

bool compiler_available() {
  return !jit_disabled() && !probed_compiler().empty();
}

const std::string& compiler_command() { return probed_compiler(); }

struct KernelCache::Entry {
  GeneratedBatchFn fn = nullptr;  ///< nullptr = remembered failure
};

struct KernelCache::Impl {
  std::mutex mutex;
  std::unordered_map<std::uint64_t, Entry> entries;
  Stats stats;
};

KernelCache& KernelCache::instance() {
  static KernelCache cache;
  return cache;
}

KernelCache::KernelCache() : impl_(new Impl) {
  if (const char* dir = std::getenv("GRAPHPI_KERNEL_CACHE_DIR");
      dir != nullptr) {
    dir_ = dir;
  } else {
    std::error_code ec;
    const fs::path tmp = fs::temp_directory_path(ec);
    dir_ = (ec ? fs::path("/tmp") : tmp) / "graphpi-kernel-cache";
  }
}

GeneratedBatchFn KernelCache::get(const PlanForest& forest) {
  if (!compiler_available()) return nullptr;
  const support::trace::Span span("jit.cache.get");

  const std::string source = emit(forest);
  const std::uint64_t key = fnv1a(source);

  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (const auto it = impl_->entries.find(key);
        it != impl_->entries.end()) {
      if (it->second.fn != nullptr) {
        ++impl_->stats.memory_hits;
        support::metrics::metric_counter("jit.cache.memory_hits").inc();
      }
      return it->second.fn;
    }
  }

  // Build with the lock RELEASED: a cold compile takes seconds and must
  // not stall other threads' memory hits. Two threads racing on the same
  // key do benign duplicate work — the .so is published by atomic rename
  // (identical content either way) and the first map insert below wins.
  const std::string stem = artifact_stem(forest, source);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  const fs::path so = fs::path(dir_) / (stem + ".so");
  const fs::path cpp = fs::path(dir_) / (stem + ".cpp");

  const auto load = [&](bool fresh_build) -> GeneratedBatchFn {
    void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle == nullptr) return nullptr;
    // Refuse kernels emitted under a different ABI layout (stale disk
    // artifacts from an older build).
    using AbiFn = unsigned (*)();
    const auto abi = reinterpret_cast<AbiFn>(
        dlsym(handle, (std::string(kEntrySymbol) + "_abi").c_str()));
    if (abi == nullptr || abi() != codegen::kKernelAbiVersion) {
      dlclose(handle);
      if (!fresh_build) fs::remove(so, ec);  // evict, then recompile
      return nullptr;
    }
    // The handle stays open for the process lifetime: returned function
    // pointers may be in flight on other threads.
    return reinterpret_cast<GeneratedBatchFn>(dlsym(handle, kEntrySymbol));
  };

  GeneratedBatchFn fn = nullptr;
  bool disk_hit = false;
  bool compiled = false;

  if (fs::exists(so, ec)) {
    fn = load(/*fresh_build=*/false);
    disk_hit = fn != nullptr;
  }

  if (fn == nullptr) {
    // Compile: write source and object under attempt-unique temp names,
    // publish both by atomic rename. Threads racing the same key (and
    // concurrent processes) then never write one path from two writers —
    // the losers just overwrite identical published bytes.
    compiled = true;
    static std::atomic<std::uint64_t> attempt_counter{0};
    const std::string attempt =
        ".tmp" + std::to_string(static_cast<long>(::getpid())) + "_" +
        std::to_string(
            attempt_counter.fetch_add(1, std::memory_order_relaxed));
    const fs::path tmp_cpp = fs::path(dir_) / (stem + attempt + ".cpp");
    const fs::path tmp_so = fs::path(dir_) / (stem + attempt + ".so");
    const fs::path log = fs::path(dir_) / (stem + attempt + ".log");
    std::ofstream out(tmp_cpp);
    out << source;
    out.close();
    if (!out) {
      fs::remove(tmp_cpp, ec);
      return record_result(key, nullptr, disk_hit, compiled);
    }
    const std::string base = probed_compiler() +
                             " -O2 -std=c++17 -shared -fPIC -o " +
                             quoted(tmp_so) + " " + quoted(tmp_cpp);
    // Prefer an OpenMP build (parallel root loop); the emitted source
    // degrades to its serial loop under compilers without -fopenmp, so a
    // failed first attempt falls back to a plain build.
    const support::trace::Span compile_span("jit.compile");
    const support::Timer compile_timer;
    const bool compile_failed =
        std::system((base + " -fopenmp 2> " + quoted(log)).c_str()) != 0 &&
        std::system((base + " 2> " + quoted(log)).c_str()) != 0;
    if (support::metrics::enabled())
      support::metrics::metric_histogram("jit.compile_ms")
          .observe(compile_timer.elapsed_millis());
    if (compile_failed) {
      // Keep tmp_cpp and the log: the diagnostics reference that source,
      // and the remembered in-memory failure means this pair is written
      // at most once per key per process.
      fs::remove(tmp_so, ec);
      return record_result(key, nullptr, disk_hit, compiled);
    }
    fs::rename(tmp_so, so, ec);
    if (ec) {
      fs::remove(tmp_cpp, ec);
      fs::remove(tmp_so, ec);
      fs::remove(log, ec);
      return record_result(key, nullptr, disk_hit, compiled);
    }
    // Keep the human-auditable source next to the published .so; the
    // rename is cosmetic, so on failure just drop the temp copy.
    std::error_code cpp_ec;
    fs::rename(tmp_cpp, cpp, cpp_ec);
    if (cpp_ec) fs::remove(tmp_cpp, ec);
    fs::remove(log, ec);
    fn = load(/*fresh_build=*/true);
  }
  return record_result(key, fn, disk_hit, compiled);
}

GeneratedBatchFn KernelCache::record_result(std::uint64_t key,
                                            GeneratedBatchFn fn,
                                            bool disk_hit, bool compiled) {
  using support::metrics::metric_counter;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (disk_hit) {
    ++impl_->stats.disk_hits;
    metric_counter("jit.cache.disk_hits").inc();
  }
  if (compiled) {
    ++impl_->stats.compiles;
    metric_counter("jit.cache.compiles").inc();
  }
  if (fn == nullptr && compiled) {
    ++impl_->stats.failures;
    metric_counter("jit.cache.failures").inc();
  }
  const auto [it, inserted] = impl_->entries.emplace(key, Entry{fn});
  if (!inserted && it->second.fn == nullptr) it->second.fn = fn;
  return it->second.fn;  // first successful publisher wins
}

std::string KernelCache::artifact_path(const PlanForest& forest) const {
  return (fs::path(dir_) / (artifact_stem(forest, emit(forest)) + ".so"))
      .string();
}

KernelCache::Stats KernelCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->stats;
}

std::optional<std::vector<Count>> run_generated(const Graph& graph,
                                                const PlanForest& forest,
                                                int threads,
                                                const support::ExecControl* control,
                                                support::RunReport* report) {
  // Generated kernels have no root terminal: a 1-vertex plan is left to
  // the interpreter.
  for (const Plan& plan : forest.plans())
    if (plan.size() < 2) return std::nullopt;
  GeneratedBatchFn fn = KernelCache::instance().get(forest);
  if (fn == nullptr) return std::nullopt;
  const support::trace::Span span("generated.run");
  // Mirror the interpreter: build the hub index when any plan hints it,
  // so the kernel's hub-probing branches engage.
  for (const Plan& plan : forest.plans())
    if (plan.wants_hub_index) {
      graph.ensure_hub_index();
      break;
    }
  const codegen::KernelGraph view = codegen::make_kernel_graph(graph);
  codegen::KernelRunOptions run;
  run.threads = threads;
  std::uint64_t completed = 0;
  std::int32_t reason = 0;
  run.completed_roots = &completed;
  run.stop_reason = &reason;

  // Bounded execution over the v3 ABI: budget and stride pass straight
  // through; deadlines and the caller's cancel flag become a host
  // watchdog thread flipping the kernel's cancel cell, because generated
  // code polls a memory cell per stride instead of reading clocks.
  const support::ExecControl* ctl =
      control != nullptr && control->armed() ? control : nullptr;
  std::atomic<std::int32_t> cancel_cell{0};
  std::thread watchdog;
  std::mutex watchdog_mutex;
  std::condition_variable watchdog_cv;
  bool kernel_finished = false;
  int fired = 0;  // 1 = deadline, 2 = caller's cancel flag
  if (ctl != nullptr) {
    run.poll_stride = ctl->poll_stride();
    run.root_budget = ctl->root_budget();
    if (ctl->has_deadline() || ctl->cancel_flag() != nullptr) {
      run.cancel = reinterpret_cast<const volatile std::int32_t*>(&cancel_cell);
      watchdog = std::thread([&] {
        std::unique_lock<std::mutex> lock(watchdog_mutex);
        for (;;) {
          if (kernel_finished) return;
          if (ctl->cancel_flag() != nullptr &&
              ctl->cancel_flag()->load(std::memory_order_relaxed)) {
            fired = 2;
            break;
          }
          if (ctl->has_deadline() &&
              support::ExecControl::Clock::now() >= ctl->deadline()) {
            fired = 1;
            break;
          }
          // Sleep exactly to the deadline when that is the only trigger;
          // otherwise wake ~1ms to notice the caller's flag promptly.
          auto wake =
              support::ExecControl::Clock::now() + std::chrono::milliseconds(1);
          if (ctl->has_deadline() && ctl->cancel_flag() == nullptr)
            wake = ctl->deadline();
          else if (ctl->has_deadline() && ctl->deadline() < wake)
            wake = ctl->deadline();
          watchdog_cv.wait_until(lock, wake);
        }
        cancel_cell.store(1, std::memory_order_relaxed);
      });
    }
  }

  std::vector<unsigned long long> counts(forest.plans().size(), 0);
  fn(&view, &codegen::host_kernel_ops(), &run, counts.data());

  if (watchdog.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(watchdog_mutex);
      kernel_finished = true;
    }
    watchdog_cv.notify_all();
    watchdog.join();
  }
  support::RunStatus status = support::RunStatus::kOk;
  if (reason == 2) {
    status = support::RunStatus::kBudget;
  } else if (reason == 1) {
    status = fired == 2 ? support::RunStatus::kCancelled
                        : support::RunStatus::kTimeout;
  }
  if (report != nullptr) {
    report->completed_roots = completed;
    report->status = status;
  }
  support::observe_run_status(status);
  {
    using support::metrics::Counter;
    using support::metrics::metric_counter;
    static Counter& c_runs = metric_counter("generated.runs");
    static Counter& c_roots = metric_counter("generated.roots_completed");
    c_runs.inc();
    c_roots.inc(completed);
  }
  return std::vector<Count>(counts.begin(), counts.end());
}

}  // namespace graphpi::jit
