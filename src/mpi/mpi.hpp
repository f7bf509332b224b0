// Mini-MPI: message passing over the simulated fabric.
//
// Models the MPI semantics the paper's workflows depend on:
//   * buffered point-to-point sends with (source, tag) matching and wildcards,
//   * Sendrecv (the LBM halo exchange that Flexpath/Decaf interfere with),
//   * Isend + Waitall (Decaf's interlocking PUT),
//   * dissemination Barrier, binomial Bcast/Reduce, Allreduce, Gather.
//
// Ranks are user coroutines; `World` maps ranks onto fabric hosts (several
// ranks per host share that host's NIC, which is how the model reproduces
// Flexpath's processes-per-node pathology). Payload bytes dominate cost; a
// side-channel `std::any` carries values (e.g., reduction doubles) that tests
// and analyses need. Message envelopes add `kHeaderBytes` of wire overhead.
//
// Matching allocates nothing per rank and nothing per parked receive. Each
// rank keeps two queues:
//   * parked receivers: an intrusive FIFO of the `RecvAwaiter`s themselves
//     (each lives in its coroutine frame and embeds the SchedNode that wakes
//     it), so a delivery unlinks the first matching receiver in park order
//     and wakes it with `schedule_node_now`;
//   * unmatched messages: a vector in arrival order, consumed from a head
//     index, which allocates only when the rank's first unmatched message
//     arrives and gives a burst's buffer back once it drains. A receive
//     takes the first matching message in arrival order.
// Both scans follow MPI's non-overtaking rule: among matches, the oldest
// wins.
#pragma once

#include <any>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "sim/event_queue.hpp"
#include "sim/latch.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace zipper::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
inline constexpr std::uint64_t kHeaderBytes = 64;

struct Envelope {
  int src = kAnySource;
  int tag = kAnyTag;
  std::uint64_t bytes = 0;
  std::any payload;
};

class World {
 public:
  World(sim::Simulation& sim, net::Fabric& fabric, std::vector<int> rank_to_host);

  int size() const noexcept { return static_cast<int>(rank_to_host_.size()); }
  int host_of(int rank) const { return rank_to_host_[static_cast<std::size_t>(rank)]; }
  sim::Simulation& simulation() noexcept { return *sim_; }
  net::Fabric& fabric() noexcept { return *fabric_; }

  /// Shard-aware binding: rank r's wakes, isend service coroutines, and
  /// sendrecv join latches run on `rank_sims[r]` instead of the default sim.
  /// Ranks of one shard only ever message ranks of the same shard (the
  /// partitioner's job), so the per-rank unmatched/parked queues stay
  /// shard-private. Pass size() entries; null entries keep the default.
  void bind_rank_sims(std::vector<sim::Simulation*> rank_sims);

  /// The Simulation rank `r` is bound to (the default sim unless sharded).
  sim::Simulation& sim_of(int rank) {
    if (rank_sim_.empty()) return *sim_;
    sim::Simulation* s = rank_sim_[static_cast<std::size_t>(rank)];
    return s ? *s : *sim_;
  }

  /// Buffered send: completes when the message has fully arrived at the
  /// destination host (it is then receivable whether or not a recv is
  /// posted). No rendezvous: a sender never blocks on the receiver's code.
  sim::Task send(int src_rank, int dst_rank, int tag, std::uint64_t bytes,
                 std::any payload = {},
                 net::TrafficClass cls = net::TrafficClass::kMessage);

  /// Fire-and-forget send; counts `done` down (if provided) on delivery.
  void isend(int src_rank, int dst_rank, int tag, std::uint64_t bytes,
             std::any payload = {}, sim::Latch* done = nullptr,
             net::TrafficClass cls = net::TrafficClass::kMessage);

  /// A posted receive. While suspended it is linked into its rank's parked
  /// list; the delivery that matches it fills `*out` and wakes `node`.
  struct RecvAwaiter {
    World* w;
    int dst, src, tag;
    Envelope* out;
    sim::SchedNode node{};
    RecvAwaiter* next_waiter = nullptr;
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  /// Blocking receive with wildcard support (kAnySource / kAnyTag).
  RecvAwaiter recv(int dst_rank, int src_rank, int tag, Envelope& out) {
    return RecvAwaiter{this, dst_rank, src_rank, tag, &out};
  }

  /// Concurrent send + receive (MPI_Sendrecv).
  sim::Task sendrecv(int rank, int send_to, int send_tag, std::uint64_t send_bytes,
                     int recv_from, int recv_tag, Envelope& out);

  /// Number of matchable but unreceived messages queued at `rank`.
  std::size_t pending_at(int rank) const {
    const RankQueues& q = ranks_[static_cast<std::size_t>(rank)];
    return q.unmatched.size() - q.head;
  }

 private:
  friend struct RecvAwaiter;
  /// Matching state of one rank (see the header comment).
  struct RankQueues {
    sim::IntrusiveFifo<RecvAwaiter> parked;
    std::vector<Envelope> unmatched;  // arrival order, live from `head`
    std::size_t head = 0;
  };
  static bool matches(int want_src, int want_tag, const Envelope& e) {
    return (want_src == kAnySource || want_src == e.src) &&
           (want_tag == kAnyTag || want_tag == e.tag);
  }
  void deliver(int dst_rank, Envelope&& env);
  sim::Task recv_into(int dst_rank, int src, int tag, Envelope& out);

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  std::vector<sim::Simulation*> rank_sim_;  // empty unless sharded
  std::vector<int> rank_to_host_;
  std::vector<RankQueues> ranks_;
};

/// A subgroup of world ranks with collective operations. Members must invoke
/// each collective in the same order (standard MPI contract); tags are
/// sequenced internally so distinct collectives never cross-match.
class Communicator {
 public:
  Communicator(World& world, std::vector<int> world_ranks, int tag_space);

  int size() const noexcept { return static_cast<int>(members_.size()); }
  int world_rank(int comm_rank) const {
    return members_[static_cast<std::size_t>(comm_rank)];
  }
  World& world() noexcept { return *world_; }

  /// Dissemination barrier: ceil(log2 n) rounds of small messages.
  sim::Task barrier(int comm_rank);

  /// Binomial-tree broadcast of `bytes` from `root`.
  sim::Task bcast(int comm_rank, int root, std::uint64_t bytes);

  /// Binomial-tree sum-reduction of a double to `root` (value updated on
  /// root; other ranks' values are consumed).
  sim::Task reduce(int comm_rank, int root, double& value);

  /// reduce + bcast; every rank ends with the global sum.
  sim::Task allreduce(int comm_rank, double& value);

  /// Linear gather of `bytes_each` to `root`.
  sim::Task gather(int comm_rank, int root, std::uint64_t bytes_each);

 private:
  int coll_tag(int comm_rank, int op);

  World* world_;
  std::vector<int> members_;
  int tag_space_;
  std::vector<std::uint32_t> seq_;
};

}  // namespace zipper::mpi
