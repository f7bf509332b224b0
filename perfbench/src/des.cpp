// The two discrete-event workloads.
//
//   des_weak_xl      CFD/Stampede2 Zipper weak-scaling point (scaling_xl's
//                    shape: no spill, no halo) at 39,168 ranks, run
//                    sequentially through the decomposed public path
//                    (make_profile / plan_shards / Cluster / make_coupling /
//                    run_workflow) and sharded through exp::run_scenario at
//                    4 threads; the two results must be byte-identical.
//   des_spill_steal  O(n) synthetic on Bridges, 392 -> 196 ranks, Preserve
//                    mode, writer spill, least-queued routing, consumer
//                    stealing and seeded PFS background load: the workload
//                    where pfs, core/sched and the spill ladder do the work.
//                    The 4-thread request falls back to the sequential path.
//                    Each iteration runs four background-load patterns
//                    derived from the seed side by side, one thread each.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "exp/partition.hpp"
#include "exp/scenario.hpp"
#include "transports/factory.hpp"
#include "workflow/cluster.hpp"
#include "workflow/runner.hpp"
#include "workflow/zipper_coupling.hpp"

namespace perfbench {

using namespace zipper;
using Metrics = std::vector<std::pair<std::string, double>>;

void des_layer_rungs(const exp::ScenarioSpec& spec, Report& r);  // rungs.cpp

namespace {

constexpr int kShardThreads = 4;
constexpr std::uint64_t kDefaultSeed = 1;

// Background-load patterns des_spill_steal runs side by side, one thread
// each (at most nproc = 4). Over seeds, the kernel event count of one pattern
// moves by up to 14%; a run that covers four patterns carries less of that
// input-to-input spread. On a shared host, one thread's speed drifts with
// the CPU it runs on; four pinned copies of this workload run at once kept
// their own speeds (median ns/event within 3% of each other), with
// iteration-to-iteration correlations from 0 to 0.5 between CPUs, so a run
// on all four averages drift a single thread would carry whole.
constexpr int kSpillStealPatterns = 4;

// Pinned digests of the sequential result at full size: des_weak_xl is
// seed-independent (no PFS traffic), des_spill_steal is pinned for the
// default seed's first pattern only.
constexpr std::uint64_t kWeakXlDigest = 0x25de2b3d007a51e8ull;
constexpr std::uint64_t kSpillStealDigest = 0xeee8c6f957489559ull;

exp::ScenarioSpec weak_xl_spec(const Options& o) {
  exp::ScenarioSpec s;
  // 39168 = the smallest leaf-aligned scaling_xl point the partitioner cuts
  // into 4 shards; 3264 (one 48-host leaf) keeps the smoke run small.
  const int cores = o.smoke ? 3264 : 39168;
  s.label = "des_weak_xl";
  s.cluster = "stampede2";
  s.workload = exp::Workload::kCfdStampede2;
  s.steps = 1;
  s.producers = cores * 2 / 3;
  s.consumers = cores / 3;
  s.method = transports::Method::kZipper;
  s.params.socket_stack_bandwidth = 120e6;
  s.zipper.block_bytes = common::MiB;
  s.zipper.enable_steal = false;
  s.halo_neighbors = 0;
  s.pfs_osts_base = 32;
  s.pfs_osts_ref_producers = 8704;
  return s;
}

exp::ScenarioSpec spill_steal_spec(const Options& o) {
  exp::ScenarioSpec s;
  s.label = "des_spill_steal";
  s.cluster = "bridges";
  s.workload = exp::Workload::kSyntheticLinear;
  // 4 steps: a ~1.3 s sequential run, so a run takes ~25 timed samples.
  // Over two minutes on a shared 4-vCPU host, the p25 of windows of 22
  // samples spread 7% and of 6 samples 16%; longer iterations leave too few
  // samples a run for that.
  s.steps = o.smoke ? 3 : 4;
  s.producers = o.smoke ? 24 : 392;
  s.consumers = s.producers / 2;
  s.method = transports::Method::kZipper;
  s.synthetic_block_bytes = common::MiB;
  s.zipper.block_bytes = common::MiB;
  s.zipper.preserve = true;
  s.zipper.enable_steal = true;  // writer spill at the default high water
  s.zipper.sched.route = core::sched::RouteKind::kLeastQueued;
  s.zipper.sched.consumer_steal = true;
  s.pfs_osts_base = 24;
  s.pfs_osts_ref_producers = 1568;
  s.background_load_intensity = 0.3;
  s.background_load_seed = o.seed;
  return s;
}

/// The metric rows exp::run_scenario emits for a plain workflow, rebuilt
/// from a RunResult so the decomposed path can be byte-compared with it.
Metrics as_scenario_metrics(const apps::WorkloadProfile& profile, int P, int Q,
                            const workflow::RunResult& r) {
  Metrics m{{"steps", profile.steps},
            {"producers", P},
            {"consumers", Q},
            {"servers", 0},
            {"end_to_end_s", r.end_to_end_s},
            {"producers_done_s", r.producers_done_s},
            {"compute_s", r.compute_s},
            {"halo_s", r.halo_s},
            {"put_s", r.put_s},
            {"analysis_s", r.analysis_s},
            {"xmit_wait", static_cast<double>(r.producer_xmit_wait)}};
  for (const auto& kv : r.metrics) m.push_back(kv);
  return m;
}

Metrics strip_shard_columns(const Metrics& in) {
  Metrics out;
  for (const auto& kv : in) {
    if (kv.first.rfind("shard_", 0) != 0) out.push_back(kv);
  }
  return out;
}

bool bitwise_equal(const Metrics& a, const Metrics& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t digest(const Metrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  };
  for (const auto& [k, v] : m) {
    feed(k.data(), k.size());
    feed(&v, sizeof(v));
  }
  return h;
}

double metric_of(const Metrics& m, const std::string& key) {
  for (const auto& kv : m) {
    if (kv.first == key) return kv.second;
  }
  return 0;
}

/// One decomposed sequential set-up: every layer a scenario run builds
/// before its first simulated event, each timed on its own.
struct Setup {
  apps::WorkloadProfile profile;
  workflow::ShardPlan plan;
  std::unique_ptr<workflow::Cluster> cluster;
  std::unique_ptr<workflow::Coupling> coupling;
  double plan_s = 0, cluster_s = 0, coupling_s = 0;
  double total_s() const { return plan_s + cluster_s + coupling_s; }
};

Setup build(const exp::ScenarioSpec& spec) {
  Setup s;
  auto t = Clock::now();
  workflow::ClusterSpec cs;
  {
    Span sp("exp", "make_profile+make_cluster_spec+plan_shards");
    s.profile = exp::make_profile(spec);
    cs = exp::make_cluster_spec(spec);
    s.plan = exp::plan_shards(spec, kShardThreads);
  }
  s.plan_s = seconds_since(t);
  t = Clock::now();
  {
    Span sp("workflow", "Cluster");
    s.cluster = std::make_unique<workflow::Cluster>(
        cs, workflow::Layout{spec.producers, spec.effective_consumers(), 0});
    s.cluster->recorder.set_enabled(false);
    if (spec.background_load_intensity > 0) {
      s.cluster->sim.spawn(s.cluster->fs->background_load(
          spec.background_load_intensity, spec.background_load_seed));
    }
  }
  s.cluster_s = seconds_since(t);
  t = Clock::now();
  {
    Span sp("transports", "make_coupling");
    s.coupling = transports::make_coupling(*spec.method, *s.cluster, s.profile,
                                           spec.params, spec.zipper);
  }
  s.coupling_s = seconds_since(t);
  return s;
}

struct Iteration {
  Setup setup;
  workflow::RunResult seq;
  Metrics seq_metrics;
  double seq_wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t blocks_analyzed = 0;
  std::uint64_t pfs_written = 0, pfs_read = 0;
  exp::ScenarioResult threaded;  // run_scenario at kShardThreads
  double threaded_wall_s = 0;
};

Iteration run_iteration(const exp::ScenarioSpec& spec) {
  Iteration it;
  it.setup = build(spec);
  {
    Span sp("workflow", "run_workflow");
    const auto t = Clock::now();
    it.seq = workflow::run_workflow(*it.setup.cluster, it.setup.profile,
                                    it.setup.coupling.get());
    it.seq_wall_s = seconds_since(t);
  }
  it.events = it.setup.cluster->sim.events_dispatched();
  it.pfs_written = it.setup.cluster->fs->total_bytes_written();
  it.pfs_read = it.setup.cluster->fs->total_bytes_read();
  if (const auto* zc = dynamic_cast<const workflow::ZipperCoupling*>(
          it.setup.coupling.get())) {
    it.blocks_analyzed = zc->stats().blocks_analyzed;
  }
  it.seq_metrics = as_scenario_metrics(it.setup.profile, spec.producers,
                                       spec.effective_consumers(), it.seq);
  // Release the sequential universe before the threaded run builds its own.
  it.setup.coupling.reset();
  it.setup.cluster.reset();

  auto tspec = spec;
  tspec.sim_threads = kShardThreads;
  tspec.shard_metrics = true;
  {
    Span sp(it.setup.plan.sharded() ? "sim.sharded" : "exp",
            "run_scenario(sim_threads=4)");
    const auto t = Clock::now();
    it.threaded = exp::run_scenario(tspec);
    it.threaded_wall_s = seconds_since(t);
  }
  return it;
}

/// Shared runner for both DES workloads. `pinned` is the full-size digest
/// of the first pattern for the default seed (0 = not pinned for this seed).
/// Each round runs one iteration per background-load pattern, on its own
/// thread when there are several: pattern 0 is the spec itself, pattern
/// k > 0 re-seeds the PFS background load from (seed, k).
void run_des(const Options& o, Report& r, const exp::ScenarioSpec& spec,
             std::uint64_t pinned, bool conservation, int patterns = 1) {
  const auto start = Clock::now();
  std::vector<double> setup_s, seq_s, thr_s, plan_s, cluster_s, coupling_s;
  std::vector<double> seq_ns_per_event, peak_mb;
  // Per pattern: wall times of the sequential and the 4-thread call, and the
  // event count, which every later iteration of the pattern must repeat.
  struct PatternRuns {
    std::vector<double> seq_s, thr_s;
    std::uint64_t events = 0;
  };
  std::vector<PatternRuns> by_pattern(patterns);
  Iteration first;  // its counts are reported
  int done = 0;
  std::uint64_t expect = pinned;
  if (o.corrupt_expect) expect = ~pinned;

  // Set-up-only repetitions, so setup_s is taken over many even when only a
  // few full iterations fit in the run: at least 3 for at least 0.25 s before
  // the first round, then at least 2 for at least 0.2 s after each, so the
  // samples span the whole run and not only its first host phase.
  const auto setups = [&](int min_reps, double budget_s) {
    const auto t0 = Clock::now();
    for (int n = 0; n < min_reps || seconds_since(t0) < budget_s; ++n) {
      setup_s.push_back(build(spec).total_s());
    }
  };
  setups(3, 0.25);

  std::vector<exp::ScenarioSpec> specs(patterns, spec);
  for (int k = 1; k < patterns; ++k) {
    specs[k].background_load_seed =
        mix_seed(spec.background_load_seed, static_cast<std::uint64_t>(k));
  }
  // The first side-by-side round pays for the new threads' malloc arenas and
  // first-touch page faults (calls ~1.9 s against ~1.1 s later): it is
  // checked but not timed.
  const int warm_up_rounds = patterns > 1 ? 1 : 0;
  double last_round_s = 0;
  for (int round = 0; round <= warm_up_rounds ||
                      seconds_since(start) + last_round_s <= o.seconds;
       ++round) {
    const auto t = Clock::now();
    reset_peak_rss();
    std::vector<Iteration> its(patterns);
    if (patterns == 1) {
      its[0] = run_iteration(spec);
    } else {
      std::vector<std::thread> threads;
      for (int k = 0; k < patterns; ++k) {
        threads.emplace_back([&its, &specs, k] { its[k] = run_iteration(specs[k]); });
      }
      for (auto& th : threads) th.join();
    }
    peak_mb.push_back(proc_sample().peak_rss_mb);
    for (int pattern = 0; pattern < patterns; ++pattern) {
      Iteration& it = its[pattern];
      r.attempted();
      const std::string tag = spec.label + " iteration " +
                              std::to_string(done) + " (pattern " +
                              std::to_string(pattern) + ")";
      std::fprintf(stderr,
                   "perfbench: %s: %llu events, sequential %.3f s, 4-thread "
                   "%.3f s\n",
                   tag.c_str(), static_cast<unsigned long long>(it.events),
                   it.seq_wall_s, it.threaded_wall_s);

      bool ok = r.check(!it.threaded.crashed && it.threaded.error.empty(),
                        tag + ": run_scenario failed: " + it.threaded.note +
                            it.threaded.error);
      const Metrics threaded = strip_shard_columns(it.threaded.metrics);
      ok = ok && r.check(bitwise_equal(it.seq_metrics, threaded),
                         tag + ": sequential and 4-thread results differ");
      const std::uint64_t d = digest(it.seq_metrics);
      if (done == 0) {
        std::fprintf(stderr, "perfbench: %s digest 0x%016llx\n",
                     spec.label.c_str(), static_cast<unsigned long long>(d));
      }
      if (pattern == 0 && ((expect != 0 && !o.smoke) || o.corrupt_expect)) {
        ok = ok && r.check(d == expect, tag + ": digest differs from the "
                                               "pinned value");
      }
      auto& runs = by_pattern[pattern];
      if (round > 0) {
        ok = ok && r.check(it.events == runs.events,
                           tag + ": event count changed between iterations");
      } else {
        runs.events = it.events;
      }
      if (conservation) {
        const double total = metric_of(it.seq_metrics, "blocks_total");
        const double blocks_per_step = static_cast<double>(
            (it.setup.profile.bytes_per_rank_per_step + spec.zipper.block_bytes -
             1) /
            spec.zipper.block_bytes);
        const double expect_blocks = static_cast<double>(spec.producers) *
                                     it.setup.profile.steps * blocks_per_step;
        ok = ok && r.check(total == expect_blocks,
                           tag + ": blocks_total " + std::to_string(total) +
                               " != producers x steps x blocks/step " +
                               std::to_string(expect_blocks));
        ok = ok && r.check(static_cast<double>(it.blocks_analyzed) == total,
                           tag + ": blocks analyzed != blocks produced");
        const double bytes = metric_of(it.seq_metrics, "bytes_via_network") +
                             metric_of(it.seq_metrics, "bytes_via_pfs");
        const double expect_bytes = static_cast<double>(spec.producers) *
                                    it.setup.profile.steps *
                                    it.setup.profile.bytes_per_rank_per_step;
        ok = ok && r.check(bytes == expect_bytes,
                           tag + ": network + PFS bytes != bytes produced");
      }
      (void)ok;

      if (round >= warm_up_rounds) {
        setup_s.push_back(it.setup.total_s());
        plan_s.push_back(it.setup.plan_s);
        cluster_s.push_back(it.setup.cluster_s);
        coupling_s.push_back(it.setup.coupling_s);
        seq_s.push_back(it.seq_wall_s);
        thr_s.push_back(it.threaded_wall_s);
        runs.seq_s.push_back(it.seq_wall_s);
        runs.thr_s.push_back(it.threaded_wall_s);
        seq_ns_per_event.push_back(it.seq_wall_s / static_cast<double>(it.events) *
                                   1e9);
      }
      if (done++ == 0) first = std::move(it);
    }
    setups(2, 0.2);
    last_round_s = seconds_since(t);
  }

  // Each pattern's call time is the faster quartile of its samples; the run
  // reports the mean over patterns. When the partitioner falls back,
  // the 4-thread request runs the same sequential simulation, so both calls
  // are samples of one quantity and every timed metric takes both.
  const bool fallback = !first.setup.plan.sharded();
  double run_s = 0, threaded_s = 0, events_sum = 0;  // sums over patterns
  std::vector<double> run_ms;
  for (const auto& p : by_pattern) {
    auto run = p.seq_s;
    if (fallback) run.insert(run.end(), p.thr_s.begin(), p.thr_s.end());
    run_s += fast_time(run);
    threaded_s += fast_time(fallback ? run : p.thr_s);
    events_sum += static_cast<double>(p.events);
    for (const double t : run) run_ms.push_back(t * 1e3);
  }
  const double payload_mb = (metric_of(first.seq_metrics, "bytes_via_network") +
                             metric_of(first.seq_metrics, "bytes_via_pfs")) /
                            1e6;
  r.put("setup_s", median(setup_s), "s");
  r.put("throughput_per_s", events_sum / run_s, "1/s");
  r.put("payload_mb_per_s", payload_mb * patterns / threaded_s, "MB/s");
  r.put("latency_p50_ms", run_s / patterns * 1e3, "ms");
  put_latency_tail(r, run_ms);
  r.put("peak_rss_mb", median(peak_mb), "MB");

  if (!o.trace) return;
  const double events = static_cast<double>(first.events);
  const double seq = fast_time(seq_s);
  const double thr = fast_time(thr_s);
  const double blocks = metric_of(first.seq_metrics, "blocks_total");
  r.put("exp.plan_s", median(plan_s), "s");
  r.put("workflow.cluster_build_s", median(cluster_s), "s");
  r.put("transports.coupling_build_s", median(coupling_s), "s");
  r.put("workflow.run_s", seq, "s");
  r.put("des.sharded_wall_s", thr, "s");
  r.put("sim.events", events, "count");
  r.put("sim.ns_per_event", fast_time(seq_ns_per_event), "ns");
  r.put("sim.events_per_block", blocks > 0 ? events / blocks : 0, "count");
  r.put("pfs.bytes_written", static_cast<double>(first.pfs_written), "B");
  r.put("pfs.bytes_read", static_cast<double>(first.pfs_read), "B");
  r.put("core.zipper.blocks_stolen", metric_of(first.seq_metrics, "blocks_stolen"),
        "count");
  r.put("core.sched.consumer_steals",
        metric_of(first.seq_metrics, "consumer_steals"), "count");
  const auto& shd = first.threaded;
  if (fallback) {
    std::fprintf(stderr, "perfbench: %s: partitioner fell back: %s\n",
                 spec.label.c_str(), first.setup.plan.fallback_reason.c_str());
  }
  r.put("exp.partition_fallback", fallback ? 1 : 0, "count");
  r.put("sim.sharded.shards", shd.get("shard_count"), "count");
  r.put("sim.sharded.windows", shd.get("shard_windows"), "count");
  r.put("sim.sharded.messages", shd.get("shard_messages"), "count");
  r.put("sim.sharded.sync_wall_s", shd.get("shard_sync_wall_s"), "s");
  const double speedup = seq / thr;
  r.put("sim.sharded.speedup", speedup, "x");
  // Per worker thread actually used (1 when the partitioner fell back).
  r.put("sim.sharded.efficiency",
        speedup / std::max(1.0, shd.get("shard_threads")), "ratio");
  des_layer_rungs(spec, r);
}

}  // namespace

void run_des_weak_xl(const Options& o, Report& r) {
  run_des(o, r, weak_xl_spec(o), kWeakXlDigest, false);
}

void run_des_spill_steal(const Options& o, Report& r) {
  run_des(o, r, spill_steal_spec(o),
          o.seed == kDefaultSeed ? kSpillStealDigest : 0, true,
          kSpillStealPatterns);
}

}  // namespace perfbench
