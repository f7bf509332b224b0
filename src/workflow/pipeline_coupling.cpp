#include "workflow/pipeline_coupling.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "sim/time.hpp"

namespace zipper::workflow {

namespace {

/// Per-edge flavor of the shared template config. The edge method is a
/// rate/flow-control preset of the one runtime, not a separate code path:
/// kStaged and kPfs narrow the credit window to a synchronous handoff and
/// drop the spill side channel; kPfs additionally pins the wire to the
/// PFS-coupled writer/reader rates. A colocated downstream stage upgrades
/// the edge to a memory-speed software path.
core::dsim::SimZipperConfig edge_config(const core::dsim::SimZipperConfig& base,
                                        const PipelineSpec& pl, std::size_t e,
                                        int first_producer_rank,
                                        std::size_t num_edges) {
  core::dsim::SimZipperConfig c = base;
  c.first_producer_rank = first_producer_rank;
  // Per-edge file tag so spilled blocks with equal BlockIds from different
  // edges cannot collide on the PFS namespace.
  if (e > 0) c.file_tag = "e" + std::to_string(e) + base.file_tag;
  // Preserve writes the *final* analysis products; interior edges forward.
  c.preserve = base.preserve && e + 1 == num_edges;
  // Chaos and the online controller target exactly one edge.
  if (static_cast<int>(e) != pl.chaos_edge) {
    c.chaos = nullptr;
    c.controller = nullptr;
  }
  switch (pl.edges[e].method) {
    case EdgeMethod::kZip:
      break;
    case EdgeMethod::kStaged:
      c.sender_window = 1;
      c.enable_steal = false;
      break;
    case EdgeMethod::kPfs:
      c.sender_window = 1;
      c.enable_steal = false;
      c.sender_bandwidth = base.writer_bandwidth;
      c.receiver_bandwidth = base.reader_bandwidth;
      break;
  }
  // Colocated (non-staging) downstream stage: same ranks, but the edge
  // crosses memory instead of the fabric's software path.
  if (e >= 1 && !pl.stages[e + 1].staging) {
    c.sender_bandwidth *= 4;
    c.receiver_bandwidth *= 4;
  }
  return c;
}

}  // namespace

PipelineCoupling::PipelineCoupling(Cluster& cluster,
                                   const apps::WorkloadProfile& profile,
                                   const core::dsim::SimZipperConfig& cfg,
                                   const PipelineSpec& pipeline)
    : cl_(&cluster),
      pl_(pipeline),
      chaos_(cfg.chaos != nullptr || static_cast<bool>(cfg.controller)) {
  pl_.validate();
  if (!pl_.enabled) throw std::invalid_argument("pipeline: spec not enabled");
  const auto& lay = cluster.layout();
  ranks_ = pl_.resolved_ranks(lay.producers, lay.consumers);
  const std::size_t E = pl_.edges.size();
  base_rank_.resize(ranks_.size());
  base_rank_[0] = 0;
  for (std::size_t i = 1; i < ranks_.size(); ++i)
    base_rank_[i] = base_rank_[i - 1] + ranks_[i - 1];
  assert(ranks_[0] == lay.producers && ranks_[1] == lay.consumers &&
         "cluster layout does not match the pipeline's resolved ranks");

  relays_.resize(E);
  for (std::size_t e = 1; e < E; ++e) {
    for (int p = 0; p < ranks_[e]; ++p) {
      relays_[e].push_back(
          std::make_unique<sim::Channel<core::BlockHeader>>(cluster.sim));
    }
  }

  for (std::size_t e = 0; e < E; ++e) {
    auto c = edge_config(cfg, pl_, e, base_rank_[e], E);
    // The downstream stage's analysis weight rides on the profile's per-byte
    // rate; everything else about the profile only concerns stage 0.
    apps::WorkloadProfile prof = profile;
    prof.analysis_ns_per_byte *= pl_.stages[e + 1].work_factor;
    const bool last = e + 1 == E;
    const auto user_analyzed = cfg.on_analyzed;
    c.on_analyzed = [this, e, last,
                     user_analyzed](int cc, const core::BlockHeader& h) {
      if (on_edge_analyzed) on_edge_analyzed(static_cast<int>(e), cc, h);
      if (last && user_analyzed) user_analyzed(cc, h);
    };
    if (last) {
      c.on_output = cfg.on_output;
    } else {
      c.on_output = [this, e](int cc, const core::BlockHeader& h) {
        relays_[e + 1][static_cast<std::size_t>(cc)]->try_send(h);
      };
    }
    zips_.push_back(std::make_unique<core::dsim::SimZipper>(
        cluster.sim, *cluster.world, *cluster.fs, cluster.recorder, prof, c,
        ranks_[e], ranks_[e + 1], base_rank_[e + 1]));
  }

  std::int64_t interior = 0;
  for (std::size_t e = 1; e < E; ++e) interior += ranks_[e + 1];
  chain_done_ = std::make_unique<sim::Latch>(cluster.sim, interior);
}

void PipelineCoupling::spawn_services() {
  for (auto& z : zips_) z->spawn_services();
  for (std::size_t e = 1; e < zips_.size(); ++e) {
    for (int p = 0; p < ranks_[e]; ++p) cl_->sim.spawn(forward_main(e, p));
    for (int c = 0; c < ranks_[e + 1]; ++c)
      cl_->sim.spawn(stage_consumer(e, c));
  }
}

sim::Task PipelineCoupling::producer_step(int p, int step) {
  return zips_[0]->producer_put(p, step);
}

sim::Task PipelineCoupling::producer_block(int p, int step, int block,
                                           int num_blocks) {
  co_await zips_[0]->producer_put_block(p, step, block, num_blocks);
}

int PipelineCoupling::producer_blocks_per_step() const {
  return zips_[0]->blocks_per_step();
}

sim::Task PipelineCoupling::producer_finalize(int p) {
  return zips_[0]->producer_finalize(p);
}

sim::Task PipelineCoupling::consumer_run(int c) {
  co_await zips_[0]->consumer_run(c);
  if (zips_.size() > 1) relays_[1][static_cast<std::size_t>(c)]->close();
  // Hold the runner's completion latch until every deeper stage drained, so
  // end_to_end_s covers the whole chain.
  co_await chain_done_->wait();
}

sim::Task PipelineCoupling::forward_main(std::size_t e, int p) {
  auto& relay = *relays_[e][static_cast<std::size_t>(p)];
  const double comp = pl_.edges[e].compression;
  std::int32_t seq = 0;
  while (true) {
    auto h = co_await relay.recv();
    if (!h) break;
    core::BlockHeader out;
    // Each stage owns its per-producer FIFO numbering: RoutePolicy and the
    // done protocol key on id.producer, which must be the *local* producer
    // index of this edge.
    out.id = core::BlockId{h->id.step, static_cast<std::int32_t>(p), seq++};
    out.offset = 0;
    out.bytes = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(h->bytes) / comp));
    co_await zips_[e]->producer_put_raw(p, out);
  }
  co_await zips_[e]->producer_finalize(p);
}

sim::Task PipelineCoupling::stage_consumer(std::size_t e, int c) {
  co_await zips_[e]->consumer_run(c);
  if (e + 1 < zips_.size())
    relays_[e + 1][static_cast<std::size_t>(c)]->close();
  chain_done_->count_down();
}

std::map<std::string, double> PipelineCoupling::metrics() const {
  // Edge 0 publishes under the legacy key set so every downstream reader
  // (analyze's observe(), presenters, the tuner probe) keeps working
  // unchanged; per-edge values carry an e<i>_ prefix.
  const auto& s0 = zips_[0]->stats();
  std::map<std::string, double> m{
      {"stall_s", sim::to_seconds(s0.producer_stall)},
      {"sender_busy_s", sim::to_seconds(s0.sender_busy)},
      {"writer_busy_s", sim::to_seconds(s0.writer_busy)},
      {"analysis_busy_s", sim::to_seconds(s0.analysis_busy)},
      {"store_busy_s", sim::to_seconds(s0.store_busy)},
      {"blocks_total", static_cast<double>(s0.blocks_total)},
      {"blocks_stolen", static_cast<double>(s0.blocks_stolen)},
      {"consumer_steals", static_cast<double>(s0.blocks_consumer_stolen)},
      {"steal_fraction",
       s0.blocks_total
           ? static_cast<double>(s0.blocks_stolen) / s0.blocks_total
           : 0.0},
      {"bytes_via_network", static_cast<double>(s0.bytes_via_network)},
      {"bytes_via_pfs", static_cast<double>(s0.bytes_via_pfs)},
  };
  m.emplace("pipeline_edges", static_cast<double>(zips_.size()));
  for (std::size_t e = 0; e < zips_.size(); ++e) {
    const auto& s = zips_[e]->stats();
    const std::string k = "e" + std::to_string(e) + "_";
    m.emplace(k + "stall_s", sim::to_seconds(s.producer_stall));
    m.emplace(k + "sender_busy_s", sim::to_seconds(s.sender_busy));
    m.emplace(k + "writer_busy_s", sim::to_seconds(s.writer_busy));
    m.emplace(k + "analysis_busy_s", sim::to_seconds(s.analysis_busy));
    m.emplace(k + "store_busy_s", sim::to_seconds(s.store_busy));
    m.emplace(k + "blocks_total", static_cast<double>(s.blocks_total));
    m.emplace(k + "blocks_analyzed", static_cast<double>(s.blocks_analyzed));
    m.emplace(k + "blocks_stolen", static_cast<double>(s.blocks_stolen));
    m.emplace(k + "consumer_steals",
              static_cast<double>(s.blocks_consumer_stolen));
    m.emplace(k + "bytes_via_network",
              static_cast<double>(s.bytes_via_network));
    m.emplace(k + "bytes_via_pfs", static_cast<double>(s.bytes_via_pfs));
    if (chaos_ && static_cast<int>(e) == pl_.chaos_edge) {
      m.emplace(k + "put_retries", static_cast<double>(s.put_retries));
      m.emplace(k + "blocks_spilled_slow",
                static_cast<double>(s.blocks_spilled_slow));
      m.emplace(k + "control_actions",
                static_cast<double>(s.control_actions));
    }
  }
  return m;
}

}  // namespace zipper::workflow
