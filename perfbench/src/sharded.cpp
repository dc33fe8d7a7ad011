// Workload `sharded`: the distributed runtime on reloaded shard files.
//
// Set-up partitions the wiki_vote stand-in (scale 0.1) into 4 hash
// shards, writes them as per-shard GPS1 files and reloads them with
// io::load_shard_snapshots. A pass counts the forest {pentagon, house,
// P2} with distributed_count_batch in lockstep and in async mode (4 nodes
// x 1 worker), and with count_batch on the serial, parallel and
// generated backends as references. The distributed arms ship
// continuations across shards, so the channel and the executors do most
// of the work; lockstep is the only path that reaches the channel's
// per-message ack handling.
#include <algorithm>
#include <filesystem>

#include "engine/jit.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace graphpi;

constexpr const char* kPatterns[] = {"pentagon", "house", "p2"};
constexpr int kNodes = 4;

enum class Arm { kLockstep, kAsync, kSerial, kParallel, kGenerated };

const char* arm_key(Arm arm) {
  switch (arm) {
    case Arm::kLockstep: return "lockstep";
    case Arm::kAsync: return "async";
    case Arm::kSerial: return "serial";
    case Arm::kParallel: return "parallel";
    case Arm::kGenerated: return "generated";
  }
  return "unknown";
}

class Sharded final : public Workload {
 public:
  void setup(const Options& o, RunRecord& run) override {
    {
      const Span span(Layer::kGraph, "graph.build");
      graph_ = datasets::load("wiki_vote", 0.1);
    }
    std::uint64_t start = now_ns();
    {
      const Span span(Layer::kGraph, "graph.stats");
      engine_ = std::make_unique<GraphPi>(graph_);
    }
    run.layer["graph.stats_s"] = seconds_since(start);
    const std::string prefix =
        (std::filesystem::path(o.tmp_dir) /
         ("wiki_vote-" + std::to_string(::getpid())))
            .string();
    {
      start = now_ns();
      dist::ShardOptions shard_options;
      shard_options.nodes = kNodes;
      shard_options.strategy = dist::PartitionStrategy::kHash;
      const Span span(Layer::kDist, "dist.partition");
      const dist::ShardedGraph sharded(graph_, shard_options);
      run.layer["dist.partition_s"] = seconds_since(start);
      const Span save_span(Layer::kIo, "io.shard_save");
      (void)io::save_shard_snapshots(sharded, prefix);
    }
    start = now_ns();
    {
      const Span span(Layer::kIo, "io.shard_load");
      shards_ = std::make_unique<dist::ShardedGraph>(
          io::load_shard_snapshots(prefix));
    }
    run.layer["io.shard_load_s"] = seconds_since(start);
    for (int k = 0; k < kNodes; ++k)
      std::filesystem::remove(io::shard_snapshot_path(prefix, k, kNodes));
    {
      const Span span(Layer::kDist, "dist.hub_indexes");
      shards_->ensure_hub_indexes();
    }
    {
      const Span span(Layer::kGraph, "graph.hub_index");
      graph_.ensure_hub_index();
    }
    start = now_ns();
    {
      const Span span(Layer::kCore, "core.forest_build");
      std::vector<Pattern> patterns;
      for (const char* spec : kPatterns)
        patterns.push_back(patterns::parse_spec(spec));
      forest_ = std::make_unique<PlanForest>(engine_->plan_batch(patterns));
    }
    run.layer["core.forest_build_ms"] = seconds_since(start) * 1e3;
    start = now_ns();
    {
      const Span span(Layer::kJit, "jit.compile.forest");
      (void)jit::KernelCache::instance().get(*forest_);
    }
    run.layer["jit.compile_s"] = seconds_since(start);
    run.setup_exact["jit.compiles"] =
        jit::KernelCache::instance().stats().compiles;
    arms_ = {Arm::kLockstep, Arm::kAsync, Arm::kSerial, Arm::kParallel,
             Arm::kGenerated};
    std::mt19937_64 rng(o.seed);
    std::shuffle(arms_.begin(), arms_.end(), rng);
  }

  void pass(const Options& o, RunRecord& run, PassSample& sample,
            CountCheck& check) override {
    std::uint64_t async_shipped = 0;
    for (const Arm arm : arms_) {
      dist::ClusterStats stats;
      std::vector<Count> counts;
      const std::uint64_t start = now_ns();
      if (arm == Arm::kLockstep || arm == Arm::kAsync) {
        dist::ClusterOptions options;
        options.exec = arm == Arm::kLockstep ? dist::ExecMode::kLockstep
                                             : dist::ExecMode::kAsync;
        options.workers_per_node = 1;
        const Span span(Layer::kDist, std::string("dist.") + arm_key(arm));
        counts = dist::distributed_count_batch(*shards_, *forest_, options,
                                               &stats);
      } else {
        MatchOptions options;
        options.backend = arm == Arm::kSerial     ? Backend::kSerial
                          : arm == Arm::kParallel ? Backend::kParallel
                                                  : Backend::kGenerated;
        options.threads = o.threads;
        const Span span(Layer::kEngine,
                        std::string("engine.forest.") + arm_key(arm));
        counts = engine_->count_batch(*forest_, options);
      }
      const double seconds = seconds_since(start);
      sample.call_ms.push_back(seconds * 1e3);
      sample.backend_s[arm_key(arm)] += seconds;
      for (std::size_t i = 0; i < counts.size() && i < std::size(kPatterns);
           ++i)
        check.add(kPatterns[i], arm_key(arm), counts[i]);
      if (counts.size() != std::size(kPatterns))
        check.add_failure(std::string(arm_key(arm)) + ": " +
                          std::to_string(counts.size()) + " counts");

      if (arm == Arm::kLockstep) {
        sample.exact["dist.lockstep.messages"] = stats.messages;
        sample.exact["dist.lockstep.acks"] = stats.ack_messages;
        sample.exact["dist.lockstep.bytes"] = stats.bytes;
        sample.exact["dist.shipped_continuations"] =
            stats.shipped_continuations;
        run.sample("dist.lockstep.us_per_message",
                   stats.messages > 0
                       ? seconds * 1e6 / static_cast<double>(stats.messages)
                       : 0.0);
      } else if (arm == Arm::kAsync) {
        async_shipped = stats.shipped_continuations;
        run.sample("dist.async.frames",
                   static_cast<double>(stats.coalesced_frames));
        run.sample("dist.async.mailbox_high_water",
                   static_cast<double>(stats.mailbox_high_water));
        run.sample("dist.async.node_imbalance", imbalance(stats));
      }
      if (arm == Arm::kLockstep || arm == Arm::kAsync) {
        // The channel is fault-free here: any retransmit is a failure.
        retransmits_ += stats.retransmits;
        if (stats.retransmits > 0)
          check.add_failure(std::string(arm_key(arm)) + ": " +
                            std::to_string(stats.retransmits) +
                            " retransmits");
        run.sample(std::string("dist.") + arm_key(arm) + "_s", seconds);
      }
    }
    // Continuations shipped do not depend on the exec mode.
    if (async_shipped != sample.exact["dist.shipped_continuations"])
      check.add_failure("async shipped " + std::to_string(async_shipped) +
                        " continuations, lockstep " +
                        std::to_string(sample.exact["dist.shipped_continuations"]));
  }

  void finish(const Options& o, RunRecord& run) override {
    run.layer["dist.retransmits"] = static_cast<double>(retransmits_);
    run.layer["graph.intersect_gelems"] = intersect_gelems(graph_, o.seed);
  }

 private:
  static double imbalance(const dist::ClusterStats& stats) {
    const auto& busy = stats.seconds_per_node;
    if (busy.empty()) return 0.0;
    double sum = 0.0;
    for (double s : busy) sum += s;
    const double mean = sum / static_cast<double>(busy.size());
    return mean > 0.0 ? *std::max_element(busy.begin(), busy.end()) / mean
                      : 0.0;
  }

  Graph graph_;
  std::unique_ptr<GraphPi> engine_;
  std::unique_ptr<dist::ShardedGraph> shards_;
  std::unique_ptr<PlanForest> forest_;
  std::vector<Arm> arms_;
  std::uint64_t retransmits_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sharded() { return std::make_unique<Sharded>(); }

}  // namespace perfbench
