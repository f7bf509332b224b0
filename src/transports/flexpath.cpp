#include "transports/flexpath.hpp"

#include "core/policy.hpp"
#include "trace/recorder.hpp"

namespace zipper::transports {

using sim::Task;
using sim::Time;

namespace {
constexpr int kFetchTag = 5100;
constexpr int kDataTag = 5101;
}  // namespace

// No mutex: the producer and its publisher service run on one Simulation
// and touch the state only between suspensions.
struct FlexpathCoupling::Publisher {
  explicit Publisher(sim::Simulation& s) : cv(s) {}
  int published_step = -1;  // highest step in the event channel
  bool done = false;
  sim::SimCondVar cv;
};

FlexpathCoupling::FlexpathCoupling(workflow::Cluster& cluster,
                                   const apps::WorkloadProfile& profile,
                                   TransportParams params)
    : cl_(&cluster), profile_(profile), params_(params) {
  for (int p = 0; p < cluster.layout().producers; ++p) {
    pubs_.push_back(std::make_unique<Publisher>(cluster.sim));
  }
  for (int h = 0; h < cluster.fabric->config().num_hosts; ++h) {
    socket_stack_.push_back(std::make_unique<sim::Resource>(
        cluster.sim, params_.socket_stack_bandwidth, params_.socket_per_op));
  }
}

FlexpathCoupling::~FlexpathCoupling() = default;

void FlexpathCoupling::spawn_services() {
  for (int p = 0; p < cl_->layout().producers; ++p) {
    cl_->sim.spawn(publisher_service(p));
  }
}

sim::Task FlexpathCoupling::producer_step(int p, int step) {
  // Output epoch (open/write/close): copy into the event channel buffer and
  // signal availability. The publisher service does the actual shipping.
  auto& pub = *pubs_[static_cast<std::size_t>(p)];
  const std::uint64_t bytes = profile_.bytes_per_rank_per_step;
  co_await cl_->sim.delay(static_cast<Time>(
      static_cast<double>(bytes) / params_.flexpath_copy_bandwidth * 1e9));
  pub.published_step = step;
  pub.cv.notify_all();
}

sim::Task FlexpathCoupling::producer_finalize(int p) {
  auto& pub = *pubs_[static_cast<std::size_t>(p)];
  pub.done = true;
  pub.cv.notify_all();
  co_return;
}

sim::Task FlexpathCoupling::publisher_service(int p) {
  auto& pub = *pubs_[static_cast<std::size_t>(p)];
  const int rank = cl_->producer_rank(p);
  const int host = cl_->world->host_of(rank);
  const std::uint64_t bytes = profile_.bytes_per_rank_per_step;
  // Exactly one subscriber consumes each publisher (P >= Q assignment), one
  // fetch per step.
  for (int step = 0; step < profile_.steps; ++step) {
    mpi::Envelope fetch;
    co_await cl_->world->recv(rank, mpi::kAnySource, kFetchTag, fetch);
    // Wait until this step is in the event channel.
    while (pub.published_step < step && !pub.done) co_await pub.cv.wait();
    // Socket path: host-wide socket stack, then the wire.
    co_await socket_stack_[static_cast<std::size_t>(host)]->transfer(bytes);
    co_await cl_->world->send(rank, fetch.src, kDataTag, bytes);
  }
}

sim::Task FlexpathCoupling::consumer_run(int c) {
  auto& sim = cl_->sim;
  const int P = cl_->layout().producers;
  const int Q = cl_->layout().consumers;
  const int rank = cl_->consumer_rank(c);
  const std::uint64_t bytes = profile_.bytes_per_rank_per_step;

  std::vector<int> owned;
  for (int p = 0; p < P; ++p) {
    if (core::consumer_of(core::BlockId{0, p, 0}, P, Q) == c) owned.push_back(p);
  }

  for (int step = 0; step < profile_.steps; ++step) {
    {
      trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kGet);
      // Fetch message to each publisher, then collect the replies.
      for (int p : owned) {
        co_await cl_->world->send(rank, cl_->producer_rank(p), kFetchTag, 64);
      }
      mpi::Envelope e;
      for (std::size_t i = 0; i < owned.size(); ++i) {
        co_await cl_->world->recv(rank, mpi::kAnySource, kDataTag, e);
      }
    }
    {
      trace::ScopedSpan s(cl_->recorder, sim, rank, trace::Cat::kAnalysis);
      co_await sim.delay(
          profile_.analysis_time(bytes * static_cast<std::uint64_t>(owned.size())));
    }
  }
}

}  // namespace zipper::transports
