// Simulated network fabric: named nodes joined by duplex links, each link
// modelled with propagation latency + serialization bandwidth + FIFO
// queueing.  This is the "network as backplane" of the paper: hosts,
// controller blades, switches, disks, high-speed ports and remote sites are
// all nodes on one fabric, and every byte the system moves is charged here.
//
// Payloads do not travel through the fabric — data lives in the block store
// and caches; the fabric computes *when* a transfer of a given size
// completes and then runs the sender's completion.  That keeps the timing
// model honest while letting the storage logic operate on real bytes.
//
// Every message has exactly one outcome, reported through one move-only
// completion `void(bool delivered)`: `true` at the simulated delivery time,
// or `false` at the point the message is dropped (no route at the sender or
// at any later hop, or a down node).  The completion therefore owns the
// caller's continuation outright — payloads and callbacks move into it, and
// the delivered and dropped outcomes share one body.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/engine.h"

namespace nlss::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Latency/bandwidth description of one direction of a link.
struct LinkProfile {
  sim::Tick latency_ns = 1000;     // propagation delay
  double bytes_per_ns = 0.25;      // serialization bandwidth (2 Gb/s default)

  /// Standard profiles used throughout the experiments.
  static LinkProfile FibreChannel1G();
  static LinkProfile FibreChannel2G();
  static LinkProfile GigE();                // IP host attach (NFS/iSCSI)
  static LinkProfile TenGbE();
  static LinkProfile Infiniband4x();        // 10 Gb/s, very low latency
  static LinkProfile Backplane();           // intra-cluster controller mesh
  static LinkProfile Wan(sim::Tick one_way_latency_ns, double gbps);
};

struct LinkStats {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  sim::Tick busy_ns = 0;  // total serialization time
};

class Fabric {
 public:
  explicit Fabric(sim::Engine& engine) : engine_(engine) {}

  /// Add a node; `name` is for diagnostics only.
  NodeId AddNode(std::string name);

  /// Connect two nodes with a duplex link (one profile per direction).
  void Connect(NodeId a, NodeId b, const LinkProfile& profile);
  void Connect(NodeId a, NodeId b, const LinkProfile& ab,
               const LinkProfile& ba);

  /// The one outcome of a message: called exactly once, with `true` at the
  /// simulated delivery time or `false` at the drop point.
  using Completion = sim::Function<void(bool delivered)>;

  /// Send `bytes` from src to dst along the precomputed shortest path.
  /// `done(true)` runs at the simulated delivery time.  If the route is
  /// missing — at the sender (node/link down) or at a later hop — the
  /// message is counted in dropped() and `done(false)` runs right there,
  /// inline.  A null `done` is a fire-and-forget send.  A sampled `ctx`
  /// gets one "net.send" span that ends at delivery or at the drop.
  void Send(NodeId src, NodeId dst, std::uint64_t bytes, Completion done,
            obs::TraceContext ctx = {});

  /// One message of a batched fan-out (see SendBatch).
  struct Outbound {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint64_t bytes = 0;
    Completion done;
    obs::TraceContext ctx;
  };

  /// Send a group of messages.  Observably identical to calling Send once
  /// per element in order — link accounting and event sequence numbers are
  /// assigned message-by-message — but the first-hop (and loopback) events
  /// enter the queue through one Engine::Batch insertion, which is what the
  /// replica/flush fan-outs want.  The vector's callbacks are consumed.
  void SendBatch(std::vector<Outbound> msgs);

  /// Mark a node up/down.  Down nodes route nothing.
  void SetNodeUp(NodeId n, bool up);
  bool IsNodeUp(NodeId n) const { return nodes_[n].up; }

  /// Mark the link between a and b up/down (both directions).
  void SetLinkUp(NodeId a, NodeId b, bool up);

  /// Degrade the link between a and b (both directions): every message
  /// pays `extra_ns` additional latency, and — when `stall_every` > 0 —
  /// every stall_every-th message on each direction additionally stalls
  /// `stall_ns` (a deterministic model of periodic firmware pauses or
  /// congestion bursts; the count is per direction, seeded at 0).  Pass
  /// all-zeros to clear.  Used for degraded-path fault injection.
  void SetLinkDegraded(NodeId a, NodeId b, sim::Tick extra_ns,
                       std::uint32_t stall_every = 0, sim::Tick stall_ns = 0);

  std::size_t NodeCount() const { return nodes_.size(); }
  const std::string& NodeName(NodeId n) const { return nodes_[n].name; }
  std::uint64_t dropped() const { return dropped_; }

  /// Aggregate stats over the directed link a->b; zeros if absent.
  LinkStats StatsFor(NodeId a, NodeId b) const;

  /// Total bytes carried over all links (each hop counted).
  std::uint64_t TotalBytesCarried() const;

  /// Number of hops between two nodes, or SIZE_MAX if unreachable.
  std::size_t HopCount(NodeId src, NodeId dst);

  sim::Engine& engine() { return engine_; }

 private:
  struct Link {
    NodeId to = kInvalidNode;
    LinkProfile profile;
    sim::Tick busy_until = 0;  // FIFO serialization horizon
    bool up = true;
    LinkStats stats;
    // Degradation injection (SetLinkDegraded).
    sim::Tick extra_ns = 0;
    std::uint32_t stall_every = 0;
    sim::Tick stall_ns = 0;
  };
  struct Node {
    std::string name;
    bool up = true;
    std::vector<std::size_t> out;  // indices into links_
  };

  /// BFS next-hop table computation (invalidated by topology changes).
  void EnsureRoutes();
  std::size_t FindLinkIndex(NodeId a, NodeId b) const;
  /// Shared body of Send/SendBatch; `batch` (when non-null) stages the
  /// first-hop event instead of pushing it immediately.
  void SendImpl(NodeId src, NodeId dst, std::uint64_t bytes, Completion done,
                obs::TraceContext ctx, sim::Engine::Batch* batch);

  sim::Engine& engine_;
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  // routes_[src * N + dst] = link index of first hop, or SIZE_MAX.
  std::vector<std::size_t> routes_;
  bool routes_valid_ = false;
  std::uint64_t dropped_ = 0;
};

}  // namespace nlss::net
