// Adapter exposing the Zipper DES runtime (core/dsim) through the generic
// Coupling interface the workflow runner drives.
#pragma once

#include <memory>

#include "core/dsim/sim_runtime.hpp"
#include "workflow/cluster.hpp"
#include "workflow/coupling.hpp"

namespace zipper::workflow {

/// Field-wise sum of slice runtimes' counters. All fields are integer Times
/// or counts, so summing per-shard slices and then applying the ratio
/// formulas in zipper_metrics() reproduces a single whole-workflow runtime's
/// metrics byte-for-byte.
inline void accumulate_stats(core::dsim::SimZipperStats& into,
                             const core::dsim::SimZipperStats& s) {
  into.producer_stall += s.producer_stall;
  into.sender_busy += s.sender_busy;
  into.writer_busy += s.writer_busy;
  into.analysis_busy += s.analysis_busy;
  into.store_busy += s.store_busy;
  into.blocks_total += s.blocks_total;
  into.blocks_stolen += s.blocks_stolen;
  into.blocks_consumer_stolen += s.blocks_consumer_stolen;
  into.blocks_analyzed += s.blocks_analyzed;
  into.bytes_via_network += s.bytes_via_network;
  into.bytes_via_pfs += s.bytes_via_pfs;
  into.put_retries += s.put_retries;
  into.blocks_spilled_slow += s.blocks_spilled_slow;
  into.control_actions += s.control_actions;
}

/// The metric map every Zipper figure reads, as a pure function of the
/// runtime counters so the sequential path (one runtime) and the sharded
/// path (summed slices) share one formula.
inline std::map<std::string, double> zipper_metrics(
    const core::dsim::SimZipperStats& s, bool chaos) {
  std::map<std::string, double> m{
      {"stall_s", sim::to_seconds(s.producer_stall)},
      {"sender_busy_s", sim::to_seconds(s.sender_busy)},
      {"writer_busy_s", sim::to_seconds(s.writer_busy)},
      {"analysis_busy_s", sim::to_seconds(s.analysis_busy)},
      {"store_busy_s", sim::to_seconds(s.store_busy)},
      {"blocks_total", static_cast<double>(s.blocks_total)},
      {"blocks_stolen", static_cast<double>(s.blocks_stolen)},
      {"consumer_steals", static_cast<double>(s.blocks_consumer_stolen)},
      {"steal_fraction", s.blocks_total
                             ? static_cast<double>(s.blocks_stolen) / s.blocks_total
                             : 0.0},
      {"bytes_via_network", static_cast<double>(s.bytes_via_network)},
      {"bytes_via_pfs", static_cast<double>(s.bytes_via_pfs)},
  };
  // Resilience counters appear only for chaos/controller runs so default
  // artifacts stay byte-identical to the pre-chaos layout.
  if (chaos) {
    m.emplace("put_retries", static_cast<double>(s.put_retries));
    m.emplace("blocks_spilled_slow", static_cast<double>(s.blocks_spilled_slow));
    m.emplace("control_actions", static_cast<double>(s.control_actions));
  }
  return m;
}

class ZipperCoupling : public Coupling {
 public:
  ZipperCoupling(Cluster& cluster, const apps::WorkloadProfile& profile,
                 core::dsim::SimZipperConfig cfg)
      : chaos_(cfg.chaos != nullptr || static_cast<bool>(cfg.controller)),
        zip_(std::make_unique<core::dsim::SimZipper>(
            cluster.sim, *cluster.world, *cluster.fs, cluster.recorder, profile,
            cfg, cluster.layout().producers, cluster.layout().consumers,
            cluster.consumer_rank(0))) {}

  /// Shard-slice coupling: a SimZipper over producers [first local index
  /// maps to world rank cfg.first_producer_rank] and `consumers` consumer
  /// ranks starting at `first_consumer_rank`, running on shard `shard`'s
  /// kernel. The caller (run_workflow_sharded) pre-slices cfg and hooks.
  ZipperCoupling(Cluster& cluster, int shard,
                 const apps::WorkloadProfile& profile,
                 core::dsim::SimZipperConfig cfg, int producers, int consumers,
                 int first_consumer_rank)
      : chaos_(cfg.chaos != nullptr || static_cast<bool>(cfg.controller)),
        zip_(std::make_unique<core::dsim::SimZipper>(
            cluster.shard_sim(shard), *cluster.world, *cluster.fs,
            cluster.recorder, profile, cfg, producers, consumers,
            first_consumer_rank)) {}

  std::string name() const override { return "Zipper"; }

  void spawn_services() override { zip_->spawn_services(); }

  sim::Task producer_step(int p, int step) override {
    return zip_->producer_put(p, step);
  }
  sim::Task producer_block(int p, int step, int block, int num_blocks) override {
    co_await zip_->producer_put_block(p, step, block, num_blocks);
  }
  int producer_blocks_per_step() const override { return zip_->blocks_per_step(); }
  sim::Task producer_finalize(int p) override { return zip_->producer_finalize(p); }
  sim::Task consumer_run(int c) override { return zip_->consumer_run(c); }

  std::map<std::string, double> metrics() const override {
    return zipper_metrics(zip_->stats(), chaos_);
  }

  const core::dsim::SimZipperStats& stats() const { return zip_->stats(); }
  /// Per-endpoint counters (unified exec::RankStats — the same struct the
  /// threaded runtime's endpoints report).
  core::exec::RankStats producer_stats(int p) const {
    return zip_->producer_stats(p);
  }
  core::exec::RankStats consumer_stats(int c) const {
    return zip_->consumer_stats(c);
  }
  bool has_chaos() const noexcept { return chaos_; }

 private:
  bool chaos_ = false;
  std::unique_ptr<core::dsim::SimZipper> zip_;
};

}  // namespace zipper::workflow
