#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace zipper::net {

Fabric::Fabric(sim::Simulation& sim, const FabricConfig& cfg)
    : Fabric(sim, cfg, std::vector<sim::Simulation*>()) {}

Fabric::Fabric(sim::Simulation& sim, const FabricConfig& cfg,
               const std::vector<sim::Simulation*>& host_sims)
    : sim_(&sim), cfg_(cfg) {
  assert(cfg.num_hosts > 0 && cfg.hosts_per_leaf > 0 && cfg.num_core_switches > 0);
  assert(host_sims.empty() ||
         host_sims.size() == static_cast<std::size_t>(cfg.num_hosts));
  num_leaves_ = (cfg.num_hosts + cfg.hosts_per_leaf - 1) / cfg.hosts_per_leaf;
  flits_per_ns_ = cfg.port_bandwidth / 8.0 / 1e9;  // 8-byte FLITs

  host_sim_.resize(static_cast<std::size_t>(cfg.num_hosts), sim_);
  for (int h = 0; h < cfg.num_hosts; ++h) {
    if (!host_sims.empty() && host_sims[static_cast<std::size_t>(h)]) {
      host_sim_[static_cast<std::size_t>(h)] =
          host_sims[static_cast<std::size_t>(h)];
    }
  }

  for (int h = 0; h < cfg.num_hosts; ++h) {
    sim::Simulation& hs = *host_sim_[static_cast<std::size_t>(h)];
    nic_tx_.emplace_back(hs, cfg.nic_bandwidth, cfg.software_overhead);
    nic_rx_.emplace_back(hs, cfg.nic_bandwidth);
    shm_.emplace_back(hs, cfg.shm_bandwidth, cfg.software_overhead);
  }
  for (int leaf = 0; leaf < num_leaves_; ++leaf) {
    // A leaf's ports bind to a shard only when every host of the leaf lives
    // on that shard; otherwise they stay on the default sim, and the sharded
    // partitioner guarantees no traffic crosses such a leaf.
    sim::Simulation* leaf_sim = nullptr;
    const int first = leaf * cfg.hosts_per_leaf;
    const int last = std::min(first + cfg.hosts_per_leaf, cfg.num_hosts);
    for (int h = first; h < last; ++h) {
      sim::Simulation* hs = host_sim_[static_cast<std::size_t>(h)];
      if (leaf_sim == nullptr) {
        leaf_sim = hs;
      } else if (leaf_sim != hs) {
        leaf_sim = sim_;
        break;
      }
    }
    if (leaf_sim == nullptr) leaf_sim = sim_;
    for (int c = 0; c < cfg.num_core_switches; ++c) {
      up_.emplace_back(*leaf_sim, cfg.port_bandwidth);
      down_.emplace_back(*leaf_sim, cfg.port_bandwidth);
    }
  }
  counters_.resize(cfg.num_hosts);
  core_rr_.assign(cfg.num_hosts, 0);
}

void Fabric::charge_wait(int src_host, sim::Time wait_ns, TrafficClass cls) {
  if (cls != TrafficClass::kMessage || wait_ns <= 0) return;
  counters_[src_host].xmit_wait +=
      static_cast<std::uint64_t>(static_cast<double>(wait_ns) * flits_per_ns_);
}

int Fabric::pick_core(int src_host, int dst_host) {
  // Round-robin per source spreads a flow over all core switches (adaptive
  // multipath), with the destination folded in so two hosts' streams do not
  // stay phase-locked onto the same cores.
  const std::uint32_t k = core_rr_[src_host]++;
  return static_cast<int>((k + static_cast<std::uint32_t>(dst_host)) %
                          static_cast<std::uint32_t>(cfg_.num_core_switches));
}

sim::Task Fabric::transfer(int src_host, int dst_host, std::uint64_t bytes,
                           TrafficClass cls) {
  assert(src_host >= 0 && src_host < cfg_.num_hosts);
  assert(dst_host >= 0 && dst_host < cfg_.num_hosts);

  HostCounters& src_ctr = counters_[src_host];
  HostCounters& dst_ctr = counters_[dst_host];

  // Hop delays run on the shard that owns the source host; in a sharded run
  // the partitioner only routes traffic between hosts of the same shard.
  sim::Simulation& sim = *host_sim_[static_cast<std::size_t>(src_host)];

  if (src_host == dst_host) {
    // Same-host: shared-memory copy engine, no NIC involvement.
    co_await shm_[src_host].transfer(bytes);
    src_ctr.xmit_pkts += 1;
    dst_ctr.rcv_pkts += 1;
    co_return;
  }

  src_ctr.xmit_data += bytes;
  src_ctr.xmit_pkts += 1;

  // The route is NIC TX, then (between leaves) the source leaf's uplink and
  // the destination leaf's downlink through one core, then NIC RX, with a
  // hop latency after every port but the last. One loop walks it, so the
  // frame holds one port awaiter and one delay awaiter, not one per hop.
  // The core is picked when the message reaches the source leaf.
  const int src_leaf = leaf_of(src_host);
  const int dst_leaf = leaf_of(dst_host);
  const int hops = src_leaf != dst_leaf ? 4 : 2;
  int core = 0;
  sim::Resource* port = &nic_tx_[src_host];
  for (int hop = 1;; ++hop) {
    const sim::Time wait = co_await port->transfer(bytes);
    charge_wait(src_host, wait, cls);
    if (hop == hops) break;
    co_await sim.delay(cfg_.hop_latency);
    if (hop == hops - 1) {
      port = &nic_rx_[dst_host];
    } else if (hop == 1) {
      core = pick_core(src_host, dst_host);
      port = &up_[static_cast<std::size_t>(src_leaf * cfg_.num_core_switches + core)];
    } else {
      port = &down_[static_cast<std::size_t>(dst_leaf * cfg_.num_core_switches + core)];
    }
  }

  dst_ctr.rcv_data += bytes;
  dst_ctr.rcv_pkts += 1;
}

std::uint64_t Fabric::total_xmit_wait(int begin, int end) const {
  std::uint64_t sum = 0;
  for (int h = begin; h < end; ++h) sum += counters_[h].xmit_wait;
  return sum;
}

}  // namespace zipper::net
