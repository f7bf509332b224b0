#include "workflow/runner.hpp"

#include <chrono>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "sim/latch.hpp"
#include "sim/sharded.hpp"
#include "trace/recorder.hpp"
#include "workflow/zipper_coupling.hpp"

namespace zipper::workflow {

using sim::Task;
using sim::Time;

namespace {

constexpr int kHaloTagBase = 1 << 16;

/// One producer rank: the CL/ST/UD phases plus the transport PUT.
/// `sim` is the kernel this rank runs on (a shard's in sharded runs); `p` is
/// the global producer index (world rank, RNG seed, halo ring), `cp` the
/// coupling-local index (slice couplings number their producers from 0).
Task producer_proc(Cluster& cl, sim::Simulation& sim,
                   const apps::WorkloadProfile& prof, Coupling* coupling,
                   const core::chaos::ChaosEngine* chaos, int p, int cp,
                   sim::Latch& done, Time& finish) {
  auto& rec = cl.recorder;
  const int P = cl.layout().producers;
  const int rank = cl.producer_rank(p);

  // Deterministic per-rank compute jitter (see WorkloadProfile::compute_jitter).
  common::Xoshiro256 jitter_rng(0x5EED0000u + static_cast<std::uint64_t>(p));
  // The chaos drift axis oscillates this rank's compute cost over the run;
  // `drift` is re-evaluated once per step below. 1.0 without an engine.
  double drift = 1.0;
  const auto jittered = [&](sim::Time t) {
    if (drift != 1.0 && t > 0)
      t = static_cast<sim::Time>(static_cast<double>(t) * drift);
    if (prof.compute_jitter <= 0 || t <= 0) return t;
    const double f = 1.0 + prof.compute_jitter * jitter_rng.uniform(-1.0, 1.0);
    return static_cast<sim::Time>(static_cast<double>(t) * f);
  };
  // Startup skew: real ranks never leave MPI_Init in lockstep (first-touch
  // faults, module loads). Without it, every rank's first sends collide at
  // the NIC in an artificial synchronized burst.
  co_await sim.delay(static_cast<sim::Time>(jitter_rng.below(20 * sim::kMillisecond)));

  const bool granular =
      prof.block_granular_compute && coupling != nullptr &&
      coupling->producer_blocks_per_step() > 1;
  const int nb = granular ? coupling->producer_blocks_per_step() : 1;

  for (int step = 0; step < prof.steps; ++step) {
    if (chaos) drift = chaos->compute_multiplier(p, step);
    if (granular) {
      // Continuous production: each block is computed then immediately
      // handed to the coupling (the synthetic-producer pattern of Figs
      // 12-15; injection pressure tracks the generation rate).
      for (int b = 0; b < nb; ++b) {
        {
          trace::ScopedSpan s(rec, sim, rank, trace::Cat::kCollision);
          co_await sim.delay(jittered(prof.compute_per_step() / nb));
        }
        trace::ScopedSpan s(rec, sim, rank, trace::Cat::kPut);
        co_await coupling->producer_block(cp, step, b, nb);
      }
      continue;
    }
    {
      trace::ScopedSpan s(rec, sim, rank, trace::Cat::kCollision);
      co_await sim.delay(jittered(prof.t_collision));
    }
    {
      trace::ScopedSpan s(rec, sim, rank, trace::Cat::kStreaming);
      if (prof.halo_neighbors > 0 && P > 1) {
        // LBM/MD halo exchange along a producer ring: MPI_Sendrecv with both
        // neighbors. Tag disambiguates step and direction.
        const int right = cl.producer_rank((p + 1) % P);
        const int left = cl.producer_rank((p - 1 + P) % P);
        mpi::Envelope e;
        const int t0 = kHaloTagBase + (step % 1024) * 2;
        co_await cl.world->sendrecv(rank, right, t0, prof.halo_bytes, left, t0, e);
        if (prof.halo_neighbors > 1) {
          co_await cl.world->sendrecv(rank, left, t0 + 1, prof.halo_bytes, right,
                                      t0 + 1, e);
        }
      }
      co_await sim.delay(jittered(prof.t_streaming));
    }
    {
      trace::ScopedSpan s(rec, sim, rank, trace::Cat::kUpdate);
      co_await sim.delay(jittered(prof.t_update));
    }
    if (coupling) {
      trace::ScopedSpan s(rec, sim, rank, trace::Cat::kPut);
      co_await coupling->producer_step(cp, step);
    }
  }
  if (coupling) co_await coupling->producer_finalize(cp);
  finish = sim.now();
  done.count_down();
}

Task consumer_proc(sim::Simulation& sim, Coupling* coupling, int cc,
                   sim::Latch& done, Time& finish) {
  co_await coupling->consumer_run(cc);
  finish = sim.now();
  done.count_down();
}

Task finish_watcher(Cluster& cl, sim::Latch& all_done, bool& finished) {
  co_await all_done.wait();
  finished = true;
  cl.sim.request_stop();
}

/// The result tail shared by the sequential and sharded paths: finish-time
/// maxima, recorder aggregates, fabric counters. Coupling metrics are filled
/// in by the caller (the sharded path sums slice stats first).
RunResult collect_result(Cluster& cl, int P, int Q,
                         const std::vector<Time>& producer_finish,
                         const std::vector<Time>& consumer_finish) {
  RunResult r;
  Time last_producer = 0, last_any = 0;
  for (Time t : producer_finish) last_producer = std::max(last_producer, t);
  last_any = last_producer;
  for (Time t : consumer_finish) last_any = std::max(last_any, t);
  r.end_to_end_s = sim::to_seconds(last_any);
  r.producers_done_s = sim::to_seconds(last_producer);

  const auto& rec = cl.recorder;
  const double inv_p = 1.0 / P;
  r.compute_s = sim::to_seconds(rec.total(trace::Cat::kCollision) +
                                rec.total(trace::Cat::kUpdate)) *
                inv_p;
  r.halo_s = sim::to_seconds(rec.total(trace::Cat::kStreaming)) * inv_p;
  r.put_s = sim::to_seconds(rec.total(trace::Cat::kPut)) * inv_p;
  if (Q > 0) {
    r.analysis_s = sim::to_seconds(rec.total(trace::Cat::kAnalysis)) / Q;
  }
  r.producer_xmit_wait = cl.producer_xmit_wait();
  return r;
}

}  // namespace

RunResult run_workflow(Cluster& cl, const apps::WorkloadProfile& prof,
                       Coupling* coupling, const core::chaos::ChaosEngine* chaos) {
  const int P = cl.layout().producers;
  const int Q = coupling ? cl.layout().consumers : 0;

  if (coupling) coupling->spawn_services();

  sim::Latch all_done(cl.sim, P + Q);
  std::vector<Time> producer_finish(static_cast<std::size_t>(P), 0);
  std::vector<Time> consumer_finish(static_cast<std::size_t>(Q), 0);
  bool finished = false;

  for (int p = 0; p < P; ++p) {
    cl.sim.spawn(producer_proc(cl, cl.sim, prof, coupling, chaos, p, p, all_done,
                               producer_finish[static_cast<std::size_t>(p)]));
  }
  for (int c = 0; c < Q; ++c) {
    cl.sim.spawn(consumer_proc(cl.sim, coupling, c, all_done,
                               consumer_finish[static_cast<std::size_t>(c)]));
  }
  cl.sim.spawn(finish_watcher(cl, all_done, finished));
  cl.sim.run();
  if (!finished) {
    throw std::runtime_error("workflow deadlocked: " +
                             std::string(coupling ? coupling->name() : "sim-only"));
  }

  RunResult r = collect_result(cl, P, Q, producer_finish, consumer_finish);
  if (coupling) r.metrics = coupling->metrics();
  return r;
}

RunResult run_workflow_sharded(Cluster& cl, const apps::WorkloadProfile& prof,
                               const core::dsim::SimZipperConfig& base_cfg,
                               const ShardPlan& plan, ShardRunInfo* info) {
  const int S = plan.num_shards;
  const int P = cl.layout().producers;
  const int Q = cl.layout().consumers;
  if (!plan.sharded() || static_cast<int>(plan.groups.size()) != S ||
      cl.num_shards() != S) {
    throw std::logic_error("run_workflow_sharded: plan/cluster shard mismatch");
  }

  // One slice SimZipper per group: local producer/consumer indices [0, Pg) /
  // [0, Qg) map onto world ranks p0.. / consumer_rank(c0)... Hooks are
  // re-based so observers see global indices; they fire on shard worker
  // threads, so user-supplied hooks must be thread-safe.
  std::vector<std::unique_ptr<ZipperCoupling>> slices;
  slices.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    const ShardGroup& g = plan.groups[static_cast<std::size_t>(s)];
    core::dsim::SimZipperConfig cfg = base_cfg;
    cfg.first_producer_rank = cl.producer_rank(g.p0);
    if (base_cfg.on_analyzed) {
      cfg.on_analyzed = [fn = base_cfg.on_analyzed, p0 = g.p0,
                         c0 = g.c0](int c, const core::BlockHeader& h) {
        core::BlockHeader gh = h;
        gh.id.producer += p0;
        fn(c0 + c, gh);
      };
    }
    if (base_cfg.on_output) {
      cfg.on_output = [fn = base_cfg.on_output, p0 = g.p0,
                       c0 = g.c0](int c, const core::BlockHeader& h) {
        core::BlockHeader gh = h;
        gh.id.producer += p0;
        fn(c0 + c, gh);
      };
    }
    slices.push_back(std::make_unique<ZipperCoupling>(
        cl, s, prof, std::move(cfg), g.p1 - g.p0, g.c1 - g.c0,
        cl.consumer_rank(g.c0)));
  }

  for (auto& slice : slices) slice->spawn_services();

  std::vector<Time> producer_finish(static_cast<std::size_t>(P), 0);
  std::vector<Time> consumer_finish(static_cast<std::size_t>(Q), 0);
  std::vector<std::unique_ptr<sim::Latch>> latches;
  latches.reserve(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    const ShardGroup& g = plan.groups[static_cast<std::size_t>(s)];
    auto& ssim = cl.shard_sim(s);
    latches.push_back(std::make_unique<sim::Latch>(
        ssim, (g.p1 - g.p0) + (g.c1 - g.c0)));
    for (int p = g.p0; p < g.p1; ++p) {
      ssim.spawn(producer_proc(cl, ssim, prof, slices[static_cast<std::size_t>(s)].get(),
                               nullptr, p, p - g.p0, *latches.back(),
                               producer_finish[static_cast<std::size_t>(p)]));
    }
    for (int c = g.c0; c < g.c1; ++c) {
      ssim.spawn(consumer_proc(ssim, slices[static_cast<std::size_t>(s)].get(),
                               c - g.c0, *latches.back(),
                               consumer_finish[static_cast<std::size_t>(c)]));
    }
  }

  // The partitioner only shards fully decomposed plans (no cross-shard
  // edges, no perpetual background processes), so every shard free-runs to
  // drain.
  const auto wall0 = std::chrono::steady_clock::now();
  const sim::ShardedStats st = sim::run_shards(cl.shard_sims(), plan.threads);
  const auto wall1 = std::chrono::steady_clock::now();

  for (int s = 0; s < S; ++s) {
    if (latches[static_cast<std::size_t>(s)]->pending() != 0) {
      throw std::runtime_error("workflow deadlocked: Zipper shard " +
                               std::to_string(s));
    }
  }

  if (info) {
    info->events = st.events;
    info->wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  }

  RunResult r = collect_result(cl, P, Q, producer_finish, consumer_finish);
  core::dsim::SimZipperStats total;
  bool chaos = false;
  for (auto& slice : slices) {
    accumulate_stats(total, slice->stats());
    chaos = chaos || slice->has_chaos();
  }
  r.metrics = zipper_metrics(total, chaos);
  return r;
}

}  // namespace zipper::workflow
