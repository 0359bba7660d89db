#include "src/net/transport.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace ursa::net {

NodeId Transport::AddNode(const std::string& name, const NetParams& params) {
  auto node = std::make_unique<Node>();
  node->name = name;
  node->params = params;
  for (int n = 0; n < params.nics; ++n) {
    node->egress.push_back(
        std::make_unique<sim::Resource>(sim_, name + "/tx" + std::to_string(n), 1));
    node->ingress.push_back(
        std::make_unique<sim::Resource>(sim_, name + "/rx" + std::to_string(n), 1));
  }
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

bool Transport::LinkBroken(NodeId a, NodeId b) const {
  for (const auto& [x, y] : broken_links_) {
    if ((x == a && y == b) || (x == b && y == a)) {
      return true;
    }
  }
  return false;
}

void Transport::SetNodeDown(NodeId node, bool down) {
  URSA_CHECK_LT(node, nodes_.size());
  nodes_[node]->down = down;
}

bool Transport::IsNodeDown(NodeId node) const {
  URSA_CHECK_LT(node, nodes_.size());
  return nodes_[node]->down;
}

void Transport::SetLinkChaos(NodeId from, NodeId to, const LinkChaosRule& rule) {
  URSA_CHECK_LT(from, nodes_.size());
  URSA_CHECK_LT(to, nodes_.size());
  std::vector<std::optional<LinkChaosRule>>& out = nodes_[from]->chaos_out;
  if (out.size() <= to) {
    out.resize(to + 1);
  }
  out[to] = rule;
}

void Transport::ClearLinkChaos(NodeId from, NodeId to) {
  if (from < nodes_.size() && to < nodes_[from]->chaos_out.size()) {
    nodes_[from]->chaos_out[to].reset();
  }
}

void Transport::ClearAllLinkChaos() {
  for (auto& node : nodes_) {
    node->chaos_out.clear();
  }
}

const LinkChaosRule* Transport::FindLinkChaos(NodeId from, NodeId to) const {
  const std::vector<std::optional<LinkChaosRule>>& out = nodes_[from]->chaos_out;
  return to < out.size() && out[to].has_value() ? &*out[to] : nullptr;
}

void Transport::SetLinkBroken(NodeId a, NodeId b, bool broken) {
  auto match = [&](const std::pair<NodeId, NodeId>& p) {
    return (p.first == a && p.second == b) || (p.first == b && p.second == a);
  };
  if (broken) {
    if (!LinkBroken(a, b)) {
      broken_links_.emplace_back(a, b);
    }
  } else {
    broken_links_.erase(std::remove_if(broken_links_.begin(), broken_links_.end(), match),
                        broken_links_.end());
  }
}

void Transport::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterCallbackCounter("net.messages_delivered", {},
                                    [this]() { return static_cast<double>(messages_delivered_); });
  registry->RegisterCallbackCounter("net.bytes_sent", {}, [this]() {
    uint64_t total = 0;
    for (const auto& node : nodes_) {
      total += node->bytes_out;
    }
    return static_cast<double>(total);
  });
  registry->RegisterCallbackGauge("net.egress_queue_depth", {}, [this]() {
    size_t depth = 0;
    for (const auto& node : nodes_) {
      for (const auto& nic : node->egress) {
        depth += nic->queue_depth();
      }
    }
    return static_cast<double>(depth);
  });
  registry->RegisterCallbackCounter("net.chaos_dropped", {}, [this]() {
    return static_cast<double>(chaos_counters_.dropped);
  });
  registry->RegisterCallbackCounter("net.chaos_duplicated", {}, [this]() {
    return static_cast<double>(chaos_counters_.duplicated);
  });
  registry->RegisterCallbackCounter("net.chaos_delayed", {}, [this]() {
    return static_cast<double>(chaos_counters_.delayed);
  });
  registry->RegisterCallbackGauge("net.ingress_queue_depth", {}, [this]() {
    size_t depth = 0;
    for (const auto& node : nodes_) {
      for (const auto& nic : node->ingress) {
        depth += nic->queue_depth();
      }
    }
    return static_cast<double>(depth);
  });
}

bool Transport::Admit(NodeId from, NodeId to, uint64_t payload_bytes, Route* route) {
  URSA_CHECK_LT(from, nodes_.size());
  URSA_CHECK_LT(to, nodes_.size());
  Node& src = *nodes_[from];
  Node& dst = *nodes_[to];

  if (src.down || dst.down || LinkBroken(from, to)) {
    return false;  // dropped; the sender's timeout machinery notices
  }

  const LinkChaosRule* rule = FindLinkChaos(from, to);
  if (rule != nullptr) {
    if (rule->blocked || (rule->drop_prob > 0 && ChaosRng().Bernoulli(rule->drop_prob))) {
      ++chaos_counters_.dropped;
      return false;  // same silent drop as a broken link
    }
    if (rule->extra_delay > 0 || rule->jitter > 0) {
      route->chaos_delay = rule->extra_delay;
      if (rule->jitter > 0) {
        route->chaos_delay +=
            static_cast<Nanos>(ChaosRng().Uniform(static_cast<uint64_t>(rule->jitter) + 1));
      }
      ++chaos_counters_.delayed;
    }
    route->duplicate = rule->dup_prob > 0 && ChaosRng().Bernoulli(rule->dup_prob);
  }

  route->wire_bytes = payload_bytes + src.params.overhead_bytes;
  src.bytes_out += route->wire_bytes;
  if (route->duplicate && from != to) {
    // The duplicate samples its own delay, so it can arrive before or after
    // the original — both orders occur in real networks.
    ++chaos_counters_.duplicated;
    route->dup_delay = rule->extra_delay;
    if (rule->jitter > 0) {
      route->dup_delay +=
          static_cast<Nanos>(ChaosRng().Uniform(static_cast<uint64_t>(rule->jitter) + 1));
    }
    src.bytes_out += route->wire_bytes;
  }
  return true;
}

void Transport::Dispatch(NodeId from, NodeId to, uint32_t id, const Route& route) {
  if (from == to) {
    // Loopback: no NIC occupancy, just a scheduler hop.
    auto loopback = [this, id]() { Deliver(id); };
    static_assert(InlineFn::kFitsInline<decltype(loopback)>);
    sim_->After(usec(2) + route.chaos_delay, loopback);
    return;
  }
  if (route.duplicate) {
    uint32_t dup = AcquireInFlight(to, route.wire_bytes);
    in_flight_[dup].deliver = in_flight_[id].deliver;  // copies the closure
    Transmit(from, dup, route.dup_delay);
  }
  Transmit(from, id, route.chaos_delay);
}

void Transport::Transmit(NodeId from, uint32_t id, Nanos extra_propagation) {
  InFlight& msg = in_flight_[id];
  const NodeId to = msg.to;
  Node& src = *nodes_[from];
  Node& dst = *nodes_[to];

  Nanos tx_time = TransferTime(msg.wire_bytes, src.params.nic_bw);
  msg.rx_time = TransferTime(msg.wire_bytes, dst.params.nic_bw);
  msg.propagation = src.params.propagation + extra_propagation;

  // LACP-style flow pinning: the (from,to) pair always uses the same NIC
  // index at both endpoints.
  uint64_t flow_hash = (static_cast<uint64_t>(from) * 0x9E3779B1u) ^
                       (static_cast<uint64_t>(to) * 0x85EBCA77u);
  size_t tx_nic = flow_hash % src.egress.size();
  msg.rx_nic = flow_hash % dst.ingress.size();

  auto egress_done = [this, id]() { Propagate(id); };
  static_assert(InlineFn::kFitsInline<decltype(egress_done)>);
  src.egress[tx_nic]->Submit(tx_time, egress_done);
}

void Transport::Propagate(uint32_t id) {
  auto arrived = [this, id]() { Arrive(id); };
  static_assert(InlineFn::kFitsInline<decltype(arrived)>);
  sim_->After(in_flight_[id].propagation, arrived);
}

void Transport::Arrive(uint32_t id) {
  const InFlight& msg = in_flight_[id];
  Node& dst = *nodes_[msg.to];
  if (dst.down) {
    ReleaseInFlight(id);  // destination died while in flight
    return;
  }
  auto ingress_done = [this, id]() { IngressDone(id); };
  static_assert(InlineFn::kFitsInline<decltype(ingress_done)>);
  dst.ingress[msg.rx_nic]->Submit(msg.rx_time, ingress_done);
}

void Transport::IngressDone(uint32_t id) {
  if (nodes_[in_flight_[id].to]->down) {
    ReleaseInFlight(id);
    return;
  }
  Deliver(id);
}

void Transport::Deliver(uint32_t id) {
  InFlight& msg = in_flight_[id];
  nodes_[msg.to]->bytes_in += msg.wire_bytes;
  ++messages_delivered_;
  // The record stays acquired while its closure runs, so messages the
  // closure sends take other records.
  msg.deliver();
  ReleaseInFlight(id);
}

uint32_t Transport::AcquireInFlight(NodeId to, uint64_t wire_bytes) {
  uint32_t id = in_flight_.Acquire();
  InFlight& msg = in_flight_[id];
  msg.to = to;
  msg.wire_bytes = wire_bytes;
  return id;
}

void Transport::ReleaseInFlight(uint32_t id) {
  in_flight_[id].deliver = nullptr;
  in_flight_.Release(id);
}

}  // namespace ursa::net
