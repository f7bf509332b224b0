// The Zipper runtime, discrete-event edition — used for the paper-scale
// experiments (up to 13,056 simulated cores).
//
// Since the coroutine-native unification this is a thin facade: the
// application logic (producer put path, sender resilience ladder, writer
// stealing, receiver/reader/output services, consumer stealing, online
// controller) lives in core/zipper/ZipperBody, instantiated here over the
// virtual-time binding (core/exec/VirtualTimeExecutor + VtEnv). Costs come
// from two places:
//   * the cluster model (fabric ports, PFS OSTs) — contention, congestion;
//   * calibrated per-rank software rates (sender/writer/receiver/reader
//     bytes/s) representing the runtime's packing/copy/protocol work, fitted
//     to the paper's measured transfer stages (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "apps/profiles.hpp"
#include "common/units.hpp"
#include "core/block.hpp"
#include "core/chaos/chaos.hpp"
#include "core/exec/exec.hpp"
#include "core/sched/sched.hpp"
#include "core/zipper/vt_binding.hpp"
#include "mpi/mpi.hpp"
#include "pfs/pfs.hpp"
#include "trace/recorder.hpp"

namespace zipper::core::dsim {

struct SimZipperConfig {
  std::uint64_t block_bytes = common::MiB;
  int producer_buffer_blocks = 32;
  double high_water = 0.5;
  bool enable_steal = true;  // concurrent message+file transfer optimization
  bool preserve = false;

  // Per-rank software-path rates (bytes/s), calibrated to the paper's Fig 12
  // stage times (see EXPERIMENTS.md): a fast producer's transfer stage is
  // bound by the consumer-side receive processing (~110 MB/s per analysis
  // rank serving 2 producers => ~38 s for 2 GiB/rank), while a slow producer
  // sees only its own sender cost (~140 MB/s => ~15 s).
  double sender_bandwidth = 140e6;   // sender-thread pack+send rate
  double writer_bandwidth = 40e6;    // spill packing rate (fig 14 gains)
  double receiver_bandwidth = 110e6; // consumer-side unpack/match rate
  double reader_bandwidth = 200e6;   // consumer-side PFS fetch processing

  // Credit-based flow control: a sender may have at most this many
  // unacknowledged blocks in flight, so consumer-side backpressure reaches
  // the producer (and shows up in its buffer) like real MPI flow control.
  int sender_window = 4;

  int consumer_buffer_blocks = 256;

  /// Scheduling-policy selection (routing, spill rule, block sizing,
  /// consumer-side stealing). Defaults reproduce the paper's schedule
  /// decision-for-decision; `high_water` / `enable_steal` above remain the
  /// spill threshold and on/off switch whichever SpillPolicy runs.
  sched::SchedConfig sched;

  /// Test/diagnostic hook: called (synchronously, in deterministic DES
  /// order) right before consumer `c` analyzes a block — including blocks
  /// it stole from a peer. Null by default.
  std::function<void(int c, const BlockHeader&)> on_analyzed;

  /// Pipeline-chaining hook: called (synchronously, in deterministic DES
  /// order) right after consumer `c` finishes analyzing a block — i.e. after
  /// the analysis delay, the causal point where a downstream stage may pick
  /// the result up. Null by default.
  std::function<void(int c, const BlockHeader&)> on_output;

  /// World rank of producer index 0. The legacy single-coupling layout keeps
  /// the default (producer p IS world rank p); a downstream edge of a
  /// multi-stage pipeline runs its producers on the upstream stage's
  /// consumer ranks, so its coupling instance sets the base accordingly.
  int first_producer_rank = 0;

  /// PFS-name prefix for this instance's spill/preserve files ("z" in the
  /// legacy layout => "zspill_…"/"zpreserve_c…"). Multi-edge pipelines give
  /// each edge its own tag so spilled blocks with equal BlockIds from
  /// different edges cannot collide on disk.
  std::string file_tag = "z";

  /// Chaos injection oracle (core/chaos): consumer-side service times are
  /// scaled by its straggler/fault multipliers, and puts routed to a
  /// consumer inside a fault window take the resilience path below. Null by
  /// default — the schedule is byte-identical when absent.
  std::shared_ptr<const chaos::ChaosEngine> chaos;

  /// Resilience: a put addressed to a faulted consumer times out; the
  /// sender backs off exponentially (starting at put_retry_backoff) and
  /// retries up to max_put_retries times, then declares the consumer slow
  /// and degrades the block to the PFS channel (the PR 3 spill machinery),
  /// so the producer keeps streaming instead of wedging on a dead rank.
  int max_put_retries = 3;
  sim::Time put_retry_backoff = 20 * sim::kMillisecond;

  /// Online re-tuning: when set, the runtime snapshots the streaming
  /// counters every control_interval and applies the returned knob changes
  /// (route / consumer steal / spill channel / block size) live. Presence
  /// of a controller switches to the unpinned done-message protocol so the
  /// route may change mid-run without stranding end-of-stream bookkeeping.
  std::function<chaos::ControlAction(const chaos::ControlSnapshot&)> controller;
  sim::Time control_interval = 250 * sim::kMillisecond;
};

/// Aggregate counters — the unified exec-layer struct (both executors share
/// it; see core/exec/exec.hpp for field meanings).
using SimZipperStats = exec::AggregateStats;

/// One Zipper-coupled workflow instance on a simulated cluster.
class SimZipper {
 public:
  SimZipper(sim::Simulation& sim, mpi::World& world, pfs::ParallelFileSystem& fs,
            trace::Recorder& rec, const apps::WorkloadProfile& profile,
            SimZipperConfig cfg, int num_producers, int num_consumers,
            int first_consumer_rank);
  ~SimZipper();
  SimZipper(const SimZipper&) = delete;
  SimZipper& operator=(const SimZipper&) = delete;

  /// Spawns the sender and writer service coroutines for every producer.
  /// Call once before the producer processes start.
  void spawn_services();

  /// Zipper.write() of one simulation step's output: splits the step's bytes
  /// into fine-grain blocks and pushes them into the producer buffer; stalls
  /// (simulated) while the buffer is full.
  sim::Task producer_put(int p, int step);

  /// A single-block put's awaiter, held in the awaiting frame.
  using PutAwaiter = zbody::ZipperBody<zbody::VtBinding>::PutAwaiter;

  /// Fine-grain variant: pushes a single block of the step (used by
  /// block-granular workloads where production interleaves with compute).
  /// `num_blocks` is the caller's split of the step: with the default
  /// (blocks_per_step()) the step splits into config-sized blocks with the
  /// remainder in the last one; any other count splits the step's bytes
  /// evenly across `num_blocks` blocks.
  PutAwaiter producer_put_block(int p, int step, int block, int num_blocks);

  /// Raw-header put for pipeline chaining: pushes a caller-built header into
  /// producer p's buffer with the same stall accounting as the step-based
  /// puts. The caller owns the BlockId numbering (FIFO per producer).
  PutAwaiter producer_put_raw(int p, BlockHeader h);

  /// Ends producer p's stream: the sender drains, waits for the writer, and
  /// flushes the end-of-stream control message(s).
  sim::Task producer_finalize(int p);

  /// Full consumer process c: receives blocks (network + spilled), analyzes
  /// each as it arrives, persists in Preserve mode; returns when all
  /// upstream producers finished and everything is analyzed/stored.
  sim::Task consumer_run(int c);

  const SimZipperStats& stats() const;
  /// Per-endpoint counters (unified exec::RankStats, same struct the
  /// threaded runtime reports).
  exec::RankStats producer_stats(int p) const;
  exec::RankStats consumer_stats(int c) const;
  int blocks_per_step() const noexcept;

 private:
  std::unique_ptr<zbody::VtEnv> env_;
  std::unique_ptr<zbody::ZipperBody<zbody::VtBinding>> body_;
  mutable SimZipperStats stats_;
};

}  // namespace zipper::core::dsim
