#include "mpi/mpi.hpp"

#include <utility>

namespace zipper::mpi {

World::World(sim::Simulation& sim, net::Fabric& fabric, std::vector<int> rank_to_host)
    : sim_(&sim),
      fabric_(&fabric),
      rank_to_host_(std::move(rank_to_host)),
      ranks_(rank_to_host_.size()) {}

void World::bind_rank_sims(std::vector<sim::Simulation*> rank_sims) {
  assert(rank_sims.size() == rank_to_host_.size());
  rank_sim_ = std::move(rank_sims);
}

void World::deliver(int dst_rank, Envelope&& env) {
  RankQueues& q = ranks_[static_cast<std::size_t>(dst_rank)];
  RecvAwaiter* r = q.parked.take_first(
      [&env](const RecvAwaiter& a) { return matches(a.src, a.tag, env); });
  if (r) {
    *r->out = std::move(env);
    sim_of(dst_rank).schedule_node_now(&r->node);
    return;
  }
  q.unmatched.push_back(std::move(env));
}

sim::Task World::send(int src_rank, int dst_rank, int tag, std::uint64_t bytes,
                      std::any payload, net::TrafficClass cls) {
  assert(src_rank >= 0 && src_rank < size());
  assert(dst_rank >= 0 && dst_rank < size());
  co_await fabric_->transfer(host_of(src_rank), host_of(dst_rank),
                             bytes + kHeaderBytes, cls);
  deliver(dst_rank, Envelope{src_rank, tag, bytes, std::move(payload)});
}

void World::isend(int src_rank, int dst_rank, int tag, std::uint64_t bytes,
                  std::any payload, sim::Latch* done, net::TrafficClass cls) {
  sim_of(src_rank).spawn([](World& w, int s, int d, int t, std::uint64_t b, std::any p,
                 sim::Latch* l, net::TrafficClass c) -> sim::Task {
    co_await w.send(s, d, t, b, std::move(p), c);
    if (l) l->count_down();
  }(*this, src_rank, dst_rank, tag, bytes, std::move(payload), done, cls));
}

namespace {
// Envelopes a drained unmatched queue keeps allocated (ranks that trade a few
// messages at a time reuse their buffer; bursts give theirs back).
constexpr std::size_t kKeptCapacity = 16;
}  // namespace

bool World::RecvAwaiter::await_ready() {
  RankQueues& q = w->ranks_[static_cast<std::size_t>(dst)];
  auto& msgs = q.unmatched;
  for (std::size_t i = q.head; i < msgs.size(); ++i) {
    if (!matches(src, tag, msgs[i])) continue;
    *out = std::move(msgs[i]);
    if (i == q.head) {
      ++q.head;
    } else {
      msgs.erase(msgs.begin() + static_cast<std::ptrdiff_t>(i));
    }
    // Reclaim the consumed prefix once it is all or most of the vector, so a
    // queue that never drains stays bounded. A drained queue keeps a small
    // buffer for the next message but returns the one a burst grew.
    if (q.head == msgs.size()) {
      if (msgs.capacity() > kKeptCapacity) {
        std::vector<Envelope>().swap(msgs);
      } else {
        msgs.clear();
      }
      q.head = 0;
    } else if (q.head >= 64 && 2 * q.head >= msgs.size()) {
      msgs.erase(msgs.begin(), msgs.begin() + static_cast<std::ptrdiff_t>(q.head));
      q.head = 0;
    }
    return true;
  }
  return false;
}

void World::RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  node.h = h;
  w->ranks_[static_cast<std::size_t>(dst)].parked.push_back(this);
}

sim::Task World::recv_into(int dst_rank, int src, int tag, Envelope& out) {
  co_await recv(dst_rank, src, tag, out);
}

sim::Task World::sendrecv(int rank, int send_to, int send_tag,
                          std::uint64_t send_bytes, int recv_from, int recv_tag,
                          Envelope& out) {
  std::vector<sim::Task> both;
  both.push_back(send(rank, send_to, send_tag, send_bytes));
  both.push_back(recv_into(rank, recv_from, recv_tag, out));
  co_await sim::when_all(sim_of(rank), std::move(both));
}

Communicator::Communicator(World& world, std::vector<int> world_ranks, int tag_space)
    : world_(&world), members_(std::move(world_ranks)), tag_space_(tag_space) {
  seq_.assign(members_.size(), 0);
}

int Communicator::coll_tag(int comm_rank, int op) {
  // Each collective call consumes one sequence number per rank; since all
  // members call collectives in the same order, sequence numbers line up.
  const std::uint32_t s = seq_[static_cast<std::size_t>(comm_rank)]++;
  return tag_space_ + static_cast<int>(((s & 0xFFFFu) << 3) | static_cast<unsigned>(op));
}

sim::Task Communicator::barrier(int comm_rank) {
  const int n = size();
  if (n <= 1) co_return;
  const int tag = coll_tag(comm_rank, 0);
  Envelope e;
  for (int k = 1; k < n; k <<= 1) {
    const int to = (comm_rank + k) % n;
    const int from = (comm_rank - k + n) % n;
    world_->isend(world_rank(comm_rank), world_rank(to), tag, 8);
    co_await world_->recv(world_rank(comm_rank), world_rank(from), tag, e);
  }
}

sim::Task Communicator::bcast(int comm_rank, int root, std::uint64_t bytes) {
  const int n = size();
  if (n <= 1) co_return;
  const int tag = coll_tag(comm_rank, 1);
  // Binomial tree, virtualized so the root is vrank 0 (MPICH structure):
  // climb masks until our set bit is found (receive there), then fan out to
  // children at all lower masks.
  const int vrank = (comm_rank - root + n) % n;
  Envelope e;
  int mask = 1;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      co_await world_->recv(world_rank(comm_rank), kAnySource, tag, e);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      const int child = (vrank + mask + root) % n;
      co_await world_->send(world_rank(comm_rank), world_rank(child), tag, bytes);
    }
    mask >>= 1;
  }
}

sim::Task Communicator::reduce(int comm_rank, int root, double& value) {
  const int n = size();
  if (n <= 1) co_return;
  const int tag = coll_tag(comm_rank, 2);
  const int vrank = (comm_rank - root + n) % n;
  Envelope e;
  int mask = 1;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      const int parent = ((vrank & ~mask) + root) % n;
      co_await world_->send(world_rank(comm_rank), world_rank(parent), tag, 8,
                            std::any{value});
      co_return;
    }
    if (vrank + mask < n) {
      co_await world_->recv(world_rank(comm_rank), kAnySource, tag, e);
      value += std::any_cast<double>(e.payload);
    }
    mask <<= 1;
  }
}

sim::Task Communicator::allreduce(int comm_rank, double& value) {
  // reduce to rank 0, then a value-carrying binomial broadcast back out.
  const int n = size();
  if (n <= 1) co_return;
  co_await reduce(comm_rank, 0, value);
  const int tag = coll_tag(comm_rank, 3);
  const int vrank = comm_rank;  // root is 0
  Envelope e;
  int mask = 1;
  while (mask < n) {
    if ((vrank & mask) != 0) {
      co_await world_->recv(world_rank(comm_rank), kAnySource, tag, e);
      value = std::any_cast<double>(e.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      co_await world_->send(world_rank(comm_rank), world_rank(vrank + mask), tag, 8,
                            std::any{value});
    }
    mask >>= 1;
  }
}

sim::Task Communicator::gather(int comm_rank, int root, std::uint64_t bytes_each) {
  const int n = size();
  if (n <= 1) co_return;
  const int tag = coll_tag(comm_rank, 4);
  if (comm_rank == root) {
    Envelope e;
    for (int i = 0; i < n - 1; ++i) {
      co_await world_->recv(world_rank(comm_rank), kAnySource, tag, e);
    }
  } else {
    co_await world_->send(world_rank(comm_rank), world_rank(root), tag, bytes_each);
  }
}

}  // namespace zipper::mpi
