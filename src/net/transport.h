// Simulated cluster network.
//
// Each registered node (machine) has `nics` full-duplex links. A message
// occupies one egress link server for its serialization time, propagates for
// a fixed delay, then occupies one ingress link server at the destination —
// a store-and-forward approximation that (a) caps each direction of each
// machine at NIC bandwidth, the constraint that bounds Fig. 12's recovery at
// ~10 Gbps inbound, and (b) pipelines naturally: many messages overlap their
// serialization/propagation stages, which is the in-network parallelism of
// §3.4. A flow (src,dst pair) pins to one NIC at each end (LACP-style
// connection hashing), and messages between two nodes are delivered in FIFO
// order (per-NIC queues preserve per-flow ordering).
//
// Payloads are modelled as active messages: the sender provides a closure to
// run at the destination after the network delay. The protocol content lives
// in the capture; the transport only models bytes and time.
#ifndef URSA_NET_TRANSPORT_H_
#define URSA_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/slot_pool.h"
#include "src/common/units.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"

namespace ursa::net {

using NodeId = uint32_t;

struct NetParams {
  double nic_bw = 1.25e9;        // bytes/s per NIC direction (10 GbE)
  int nics = 2;                  // paper testbed: two 10 GbE NICs per machine
  Nanos propagation = usec(25);  // switch + cable + kernel stack latency
  uint64_t overhead_bytes = 128;  // per-message framing/header overhead
};

// Programmable per-link (directed, from -> to) fault rule for chaos testing.
// Rules compose: a message is first subjected to blocking/probabilistic drop,
// then optional duplication, then extra delay + jitter. Jitter larger than the
// inter-message gap reorders messages on the link (each copy samples its own
// delay, and delayed copies bypass the NIC FIFO of later undelayed ones only
// in the propagation stage, where ordering is not enforced).
struct LinkChaosRule {
  bool blocked = false;    // asymmetric partition: drop everything from -> to
  double drop_prob = 0.0;  // i.i.d. per-message drop probability
  double dup_prob = 0.0;   // i.i.d. per-message duplicate-delivery probability
  Nanos extra_delay = 0;   // fixed extra propagation delay
  Nanos jitter = 0;        // + uniform [0, jitter] per message (reordering)
};

class Transport {
 public:
  explicit Transport(sim::Simulator* sim) : sim_(sim) {}

  NodeId AddNode(const std::string& name, const NetParams& params = NetParams());

  // Sends `payload_bytes` (+ framing overhead) from -> to; `deliver` (an
  // EventFn or any `void()` closure) runs at the destination once the message
  // has fully arrived. Loopback (from == to) skips the NICs and costs a small
  // fixed delay. The closure is built once, in the message's pooled record,
  // and runs there: a dropped message never builds it.
  template <typename F>
  void Send(NodeId from, NodeId to, uint64_t payload_bytes, F&& deliver) {
    Route route;
    if (!Admit(from, to, payload_bytes, &route)) {
      return;
    }
    uint32_t id = AcquireInFlight(to, route.wire_bytes);
    in_flight_[id].deliver.Emplace(std::forward<F>(deliver));
    Dispatch(from, to, id, route);
  }

  // Traced variant: stamps the wire time (send call to delivery, covering
  // egress queue + serialization + propagation + ingress) into `span` under
  // `stage`. A null span degrades to the untraced Send.
  template <typename F>
  void Send(NodeId from, NodeId to, uint64_t payload_bytes, F&& deliver,
            const obs::SpanRef& span, obs::Stage stage) {
    if (span == nullptr) {
      Send(from, to, payload_bytes, std::forward<F>(deliver));
      return;
    }
    Nanos sent = sim_->Now();
    Send(from, to, payload_bytes,
         [this, span, stage, sent, deliver = sim::EventFn(std::forward<F>(deliver))]() {
           span->RecordStage(stage, sim_->Now() - sent);
           deliver();
         });
  }

  // Registers transport-wide metrics (message/byte counters, NIC queue
  // depths) with `registry`. Call once after construction; the registry must
  // outlive this transport.
  void RegisterMetrics(obs::MetricsRegistry* registry);

  // Marks a node unreachable: messages to/from it are silently dropped
  // (their deliver closures never run) — models machine/network failure.
  void SetNodeDown(NodeId node, bool down);
  bool IsNodeDown(NodeId node) const;

  // Cuts (or restores) the directed pair both ways — a network partition
  // between two specific nodes, for the hybrid fault model tests (§4.1).
  void SetLinkBroken(NodeId a, NodeId b, bool broken);

  // ---- Programmable chaos (see DESIGN.md "Fault model & chaos harness") ----

  // Installs (replacing any previous) a directed fault rule on from -> to.
  // The reverse direction is unaffected, which is what makes asymmetric
  // partitions expressible. Rules apply to subsequently sent messages only.
  // Rules sit in a flat per-sender table indexed by destination, so the
  // per-message lookup is two array reads.
  void SetLinkChaos(NodeId from, NodeId to, const LinkChaosRule& rule);
  void ClearLinkChaos(NodeId from, NodeId to);
  void ClearAllLinkChaos();
  const LinkChaosRule* FindLinkChaos(NodeId from, NodeId to) const;

  // All chaos randomness (drop/dup coin flips, jitter) is drawn from this
  // stream so a ChaosPlan seed reproduces the exact fault schedule. The rng
  // is not owned and must outlive the transport; when unset, a fixed-seed
  // internal stream is used (still deterministic).
  void SetChaosRng(Rng* rng) { chaos_rng_ = rng; }

  struct ChaosCounters {
    uint64_t dropped = 0;     // blocked or probabilistically dropped
    uint64_t duplicated = 0;  // extra copies delivered
    uint64_t delayed = 0;     // messages given extra delay/jitter
  };
  const ChaosCounters& chaos_counters() const { return chaos_counters_; }

  uint64_t bytes_in(NodeId node) const { return nodes_[node]->bytes_in; }
  uint64_t bytes_out(NodeId node) const { return nodes_[node]->bytes_out; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  // Messages sent but not yet delivered or dropped in flight (pooled
  // in-flight records in use).
  size_t messages_in_flight() const { return in_flight_.in_use(); }
  size_t num_nodes() const { return nodes_.size(); }

  double nic_bw(NodeId node) const { return nodes_[node]->params.nic_bw; }

 private:
  struct Node {
    std::string name;
    NetParams params;
    // One Resource per NIC direction; a flow (src,dst) hashes to a fixed
    // NIC on both ends, like LACP/ECMP pinning a TCP connection: one flow
    // cannot exceed a single NIC's bandwidth (visible in Fig. 13c's
    // non-striped throughput), while different flows spread across NICs.
    std::vector<std::unique_ptr<sim::Resource>> egress;
    std::vector<std::unique_ptr<sim::Resource>> ingress;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    bool down = false;
    // Chaos rules of links from this node, indexed by destination; grown on
    // demand, an unset entry means no rule.
    std::vector<std::optional<LinkChaosRule>> chaos_out;
  };

  // What Admit decided for one message: its wire size and chaos fate.
  struct Route {
    uint64_t wire_bytes = 0;
    Nanos chaos_delay = 0;
    bool duplicate = false;
    Nanos dup_delay = 0;
  };
  // Drops the message (down node, broken link, chaos drop) or fills `route`
  // and counts its bytes out; returns whether it goes on the wire.
  bool Admit(NodeId from, NodeId to, uint64_t payload_bytes, Route* route);
  // Puts an admitted message (record `id`, closure in place) on the wire,
  // with a chaos duplicate when the route says so.
  void Dispatch(NodeId from, NodeId to, uint32_t id, const Route& route);

  bool LinkBroken(NodeId a, NodeId b) const;
  Rng& ChaosRng() { return chaos_rng_ != nullptr ? *chaos_rng_ : fallback_chaos_rng_; }

  // Per-message state while a message crosses the NICs, pooled so each hop's
  // event captures only (this, id) and stays inside InlineFn's buffer. The
  // record holds the deliver closure from Send to delivery.
  struct InFlight {
    NodeId to = 0;
    uint64_t wire_bytes = 0;
    Nanos rx_time = 0;
    size_t rx_nic = 0;
    Nanos propagation = 0;
    sim::EventFn deliver;
  };

  uint32_t AcquireInFlight(NodeId to, uint64_t wire_bytes);
  void ReleaseInFlight(uint32_t id);

  // The NIC-and-propagation delivery path shared by the original message and
  // chaos duplicates. `extra_propagation` is the chaos delay for this copy.
  void Transmit(NodeId from, uint32_t id, Nanos extra_propagation);
  // Transmit's stages: egress done -> propagation done -> ingress done.
  void Propagate(uint32_t id);
  void Arrive(uint32_t id);
  void IngressDone(uint32_t id);
  // Counts the message in at its destination, runs its deliver closure in
  // place and frees its record.
  void Deliver(uint32_t id);

  sim::Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::pair<NodeId, NodeId>> broken_links_;
  SlotPool<InFlight> in_flight_;
  Rng* chaos_rng_ = nullptr;
  Rng fallback_chaos_rng_{0xC4A05ULL};  // "CHAOS"
  ChaosCounters chaos_counters_;
  uint64_t messages_delivered_ = 0;
};

}  // namespace ursa::net

#endif  // URSA_NET_TRANSPORT_H_
