#include "core/dsim/sim_runtime.hpp"

#include <utility>

#include "core/zipper/vt_binding.hpp"

namespace zipper::core::dsim {

namespace {

zbody::VtEnvConfig make_env_config(const SimZipperConfig& cfg,
                                   int first_consumer_rank) {
  zbody::VtEnvConfig ec;
  ec.sender_bandwidth = cfg.sender_bandwidth;
  ec.writer_bandwidth = cfg.writer_bandwidth;
  ec.receiver_bandwidth = cfg.receiver_bandwidth;
  ec.reader_bandwidth = cfg.reader_bandwidth;
  ec.sender_window = cfg.sender_window;
  ec.file_tag = cfg.file_tag;
  ec.first_producer_rank = cfg.first_producer_rank;
  ec.first_consumer_rank = first_consumer_rank;
  return ec;
}

zbody::BodyConfig make_body_config(SimZipperConfig cfg,
                                   const apps::WorkloadProfile& profile,
                                   int first_consumer_rank) {
  zbody::BodyConfig bc;
  bc.block_bytes = cfg.block_bytes;
  bc.producer_buffer_blocks = cfg.producer_buffer_blocks;
  bc.high_water = cfg.high_water;
  bc.enable_steal = cfg.enable_steal;
  bc.preserve = cfg.preserve;
  bc.consumer_buffer_blocks = cfg.consumer_buffer_blocks;
  bc.sched = cfg.sched;
  bc.step_bytes = profile.bytes_per_rank_per_step;
  bc.first_producer_rank = cfg.first_producer_rank;
  bc.first_consumer_rank = first_consumer_rank;
  bc.chaos = std::move(cfg.chaos);
  bc.max_put_retries = cfg.max_put_retries;
  bc.put_retry_backoff = cfg.put_retry_backoff;
  bc.controller = std::move(cfg.controller);
  bc.control_interval = cfg.control_interval;
  bc.on_analyzed = std::move(cfg.on_analyzed);
  bc.on_output = std::move(cfg.on_output);
  return bc;
}

}  // namespace

SimZipper::SimZipper(sim::Simulation& sim, mpi::World& world,
                     pfs::ParallelFileSystem& fs, trace::Recorder& rec,
                     const apps::WorkloadProfile& profile, SimZipperConfig cfg,
                     int num_producers, int num_consumers,
                     int first_consumer_rank)
    : env_(std::make_unique<zbody::VtEnv>(
          sim, world, fs, rec, profile,
          make_env_config(cfg, first_consumer_rank), num_producers,
          num_consumers)),
      body_(std::make_unique<zbody::ZipperBody<zbody::VtBinding>>(
          *env_, make_body_config(std::move(cfg), profile, first_consumer_rank),
          num_producers, num_consumers)) {}

SimZipper::~SimZipper() = default;

void SimZipper::spawn_services() {
  for (int p = 0; p < body_->producers(); ++p) {
    body_->spawn_producer_services(p);
  }
  body_->spawn_control();
}

sim::Task SimZipper::producer_put(int p, int step) {
  return body_->producer_put(p, step);
}

SimZipper::PutAwaiter SimZipper::producer_put_block(int p, int step,
                                                    int block, int num_blocks) {
  return body_->producer_put_block(p, step, block, num_blocks);
}

SimZipper::PutAwaiter SimZipper::producer_put_raw(int p, BlockHeader h) {
  return body_->put(p, zbody::Item<zbody::VtBinding>{h, {}});
}

sim::Task SimZipper::producer_finalize(int p) {
  body_->producer_finalize(p);
  co_return;
}

sim::Task SimZipper::consumer_run(int c) { return body_->consumer_run(c); }

const SimZipperStats& SimZipper::stats() const {
  body_->aggregate_into(stats_);
  return stats_;
}

exec::RankStats SimZipper::producer_stats(int p) const {
  return body_->producer_stats(p);
}

exec::RankStats SimZipper::consumer_stats(int c) const {
  return body_->consumer_stats(c);
}

int SimZipper::blocks_per_step() const noexcept {
  return body_->blocks_per_step();
}

}  // namespace zipper::core::dsim
