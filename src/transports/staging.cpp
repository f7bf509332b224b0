#include "transports/staging.hpp"

#include <cassert>

#include "core/policy.hpp"
#include "trace/recorder.hpp"

namespace zipper::transports {

using sim::Task;
using sim::Time;

StagingCoupling::StagingCoupling(workflow::Cluster& cluster,
                                 const apps::WorkloadProfile& profile,
                                 StagingKind kind, bool adios_interface,
                                 TransportParams params)
    : cl_(&cluster), profile_(profile), kind_(kind), adios_(adios_interface),
      params_(params) {
  assert(cluster.layout().servers > 0 &&
         "staging couplings need dedicated server ranks in the layout");
  const int slots = adios_ ? params_.num_slots_adios : params_.num_slots_native;
  slots_ = std::make_unique<SlotTable>(cluster.sim, slots,
                                       cluster.layout().producers,
                                       cluster.layout().consumers);
  lock_server_ = std::make_unique<sim::Resource>(cluster.sim, 0.0,
                                                 params_.lock_service);
  for (int s = 0; s < cluster.layout().servers; ++s) {
    server_memory_.push_back(std::make_unique<sim::Resource>(
        cluster.sim, params_.server_memory_bandwidth));
  }
}

std::string StagingCoupling::name() const {
  std::string base = kind_ == StagingKind::kDataSpaces ? "DataSpaces" : "DIMES";
  return adios_ ? "ADIOS/" + base : "native " + base;
}

sim::Task StagingCoupling::lock_rpc(int client_rank, bool generic_layer) {
  const int server_host = cl_->world->host_of(cl_->server_rank(0));
  const int client_host = cl_->world->host_of(client_rank);
  // The ADIOS uniform interface issues an extra round of generic lock traffic
  // (open/begin-step bookkeeping) per logical native lock operation.
  const int rounds = (adios_ && generic_layer) ? 2 : 1;
  for (int i = 0; i < rounds; ++i) {
    co_await cl_->fabric->transfer(client_host, server_host, 64);
    co_await lock_server_->op();
    co_await cl_->fabric->transfer(server_host, client_host, 64);
  }
}

sim::Task StagingCoupling::producer_step(int p, int step) {
  auto& sim = cl_->sim;
  const int rank = cl_->producer_rank(p);
  const std::uint64_t bytes = profile_.bytes_per_rank_per_step;
  const int S = cl_->layout().servers;
  const int server = p % S;

  // dspaces_lock_on_write: RPC + wait for the slot to be recycled.
  {
    trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kLock);
    const Time t0 = sim.now();
    co_await lock_rpc(rank, /*generic_layer=*/true);
    co_await slots_->writer_acquire(step);
    lock_wait_total_ += sim.now() - t0;
  }
  {
    trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kTransfer);
    const Time t0 = sim.now();
    if (adios_) {
      // The uniform interface stages the payload through an extra buffer.
      co_await sim.delay(static_cast<Time>(
          static_cast<double>(bytes) / params_.adios_copy_bandwidth * 1e9));
    }
    if (kind_ == StagingKind::kDataSpaces) {
      // RDMA put to the staging server: fabric hop + server ingest.
      const int server_host = cl_->world->host_of(cl_->server_rank(server));
      co_await cl_->fabric->transfer(cl_->world->host_of(rank), server_host, bytes);
      co_await server_memory_[static_cast<std::size_t>(server)]->transfer(bytes);
    } else {
      // DIMES: deposit into the local RDMA buffer.
      co_await sim.delay(static_cast<Time>(
          static_cast<double>(bytes) / params_.dimes_local_copy_bandwidth * 1e9));
    }
    put_total_ += sim.now() - t0;
  }
  {
    // Metadata + index registration so readers can locate the data.
    trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kServerQuery);
    co_await lock_rpc(rank);
    co_await lock_rpc(rank);
  }
  {
    trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kLock);
    slots_->writer_release(step);
    co_await lock_rpc(rank, /*generic_layer=*/true);  // unlock_on_write
  }
}

sim::Task StagingCoupling::consumer_run(int c) {
  auto& sim = cl_->sim;
  const int P = cl_->layout().producers;
  const int Q = cl_->layout().consumers;
  const int S = cl_->layout().servers;
  const int rank = cl_->consumer_rank(c);
  const int host = cl_->world->host_of(rank);
  const std::uint64_t bytes = profile_.bytes_per_rank_per_step;

  std::vector<int> owned;
  for (int p = 0; p < P; ++p) {
    if (core::consumer_of(core::BlockId{0, p, 0}, P, Q) == c) owned.push_back(p);
  }

  for (int step = 0; step < profile_.steps; ++step) {
    {
      trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kLock);
      co_await lock_rpc(rank, /*generic_layer=*/true);
      co_await slots_->reader_acquire(step);  // dspaces_lock_on_read
    }
    {
      trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kGet);
      for (int p : owned) {
        // Metadata query to locate the object, a descriptor fetch, then the
        // data pull.
        co_await lock_rpc(rank);
        co_await lock_rpc(rank);
        if (kind_ == StagingKind::kDataSpaces) {
          const int server_host = cl_->world->host_of(cl_->server_rank(p % S));
          co_await server_memory_[static_cast<std::size_t>(p % S)]->transfer(bytes);
          co_await cl_->fabric->transfer(server_host, host, bytes);
        } else {
          // DIMES: RDMA read straight from the producer's node (no producer
          // CPU involvement).
          co_await cl_->fabric->transfer(
              cl_->world->host_of(cl_->producer_rank(p)), host, bytes);
        }
      }
    }
    {
      trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kAnalysis);
      co_await sim.delay(
          profile_.analysis_time(bytes * static_cast<std::uint64_t>(owned.size())));
    }
    {
      trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kLock);
      slots_->reader_release(step);
      co_await lock_rpc(rank, /*generic_layer=*/true);  // unlock_on_read
    }
  }
}

std::map<std::string, double> StagingCoupling::metrics() const {
  return {
      {"lock_wait_s", sim::to_seconds(lock_wait_total_)},
      {"put_s", sim::to_seconds(put_total_)},
      {"num_slots", static_cast<double>(slots_->num_slots())},
  };
}

}  // namespace zipper::transports
