// What every workload shares: the per-rep options and result, the traced
// run's foreground/background tracer split, and the per-layer counters read
// from each module's public stats.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "controller/system.h"
#include "harness.h"
#include "host/initiator.h"
#include "meta/client.h"
#include "meta/service.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "tier/manager.h"

namespace perfbench {

namespace controller = nlss::controller;
namespace host = nlss::host;
namespace meta = nlss::meta;
namespace net = nlss::net;
namespace obs = nlss::obs;
namespace qos = nlss::qos;

struct RepOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  /// Self-test: flip one byte of the reference, so the gate must fail.
  bool corrupt_reference = false;
  /// Build the bed and return: an extra sample of the setup time only.
  bool setup_only = false;
};

/// One repetition of a workload: fresh bed, timed run, drain, verify.
struct RepResult {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t attempted = 0;  // foreground ops issued
  std::uint64_t failed = 0;     // foreground ops that reported failure
  MetricList sim;     // simulated end-to-end metrics (exact per seed)
  MetricList layers;  // per-layer metrics
  Gate gate;
};

/// Traced-run observability.  Foreground roots (host, controller and meta
/// ops) land in `fg`; background roots (cache.flush, raid.rebuild,
/// tier.demote, geo.replicate) land in `bg`, so the per-op path breakdown
/// is not polluted by seconds of background simulated time.
struct Tracing {
  explicit Tracing(sim::Engine& engine) : fg(engine), bg(engine) {}
  obs::Hub fg;
  obs::Tracer bg;

  void Attach(controller::StorageSystem& system);
};

/// Module objects the per-layer counters are read from, plus the run's
/// figures the counters are normalized by.
struct LayerSources {
  net::Fabric* fabric = nullptr;
  std::vector<controller::StorageSystem*> systems;
  std::vector<host::Initiator*> initiators;
  std::vector<meta::Client*> meta_clients;
  const meta::MetaService* meta = nullptr;
  std::vector<const qos::Scheduler*> qos;
  std::vector<std::pair<net::NodeId, net::NodeId>> wan;  // gateway pairs
  // Traced run only: foreground and background root tracers.
  const obs::Tracer* fg_tracer = nullptr;
  const obs::Tracer* bg_tracer = nullptr;
  // Set when the run has ended.
  std::uint64_t fg_ops = 0;
  sim::Tick makespan_ns = 0;
  double rebuild_sim_s = 0;
  double async_backlog_peak_mb = 0;
};

/// Additive per-layer counts at one instant.  Per-layer metrics are the
/// difference between a snapshot at run start and one at run end, so bed
/// building and preload never show in them.  (QoS queue-wait percentiles
/// come from the SloTracker, which the workload resets at run start.)
struct LayerCounts {
  host::InitiatorStats host;
  nlss::cache::CacheCluster::Stats cache;
  nlss::tier::Stats tier;
  std::uint64_t raid_compute_bytes = 0;
  std::uint64_t disk_ops = 0;
  std::uint64_t disk_bytes = 0;
  std::vector<sim::Tick> disk_busy;  // per disk
  std::uint64_t net_bytes = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t wan_bytes = 0;
  std::vector<sim::Tick> link_busy;  // per directed node pair
  std::uint64_t meta_resolves = 0;
  std::uint64_t meta_full_hits = 0;
  std::uint64_t meta_steps = 0;
  std::uint64_t meta_invalidations = 0;
};
LayerCounts CountLayers(const LayerSources& src);

/// Host-time phase spans of one rep, reported as per-layer metrics.  The
/// verify span ("phase.verify_s") is set after the counters are read, so
/// verification traffic never shows in them.
struct PhaseTimes {
  double fill_s = 0;     // build the bed: system, hosts, namespace skeleton
  double preload_s = 0;  // generate the seeded inputs, load existing data
  double load_s = 0;     // foreground phases (background work alongside)
  double drain_s = 0;    // explicit drains after the foreground phases
};

/// Host figures of the timed run.
struct RunFigures {
  double run_s = 0;
  ProcUsage usage;
  std::uint64_t events = 0;
};

void AddLayerMetrics(const LayerSources& src, const LayerCounts& before,
                     const LayerCounts& after, const PhaseTimes& phases,
                     const RunFigures& run, MetricList& out);

/// The simulated end-to-end metrics.  `fg_sim_ns` is the simulated time the
/// foreground phases spanned (first issue to last completion, summed).
void AddSimMetrics(std::uint64_t fg_ops, sim::Tick fg_sim_ns,
                   const Latencies& reads, const Latencies& writes,
                   sim::Tick makespan_ns, MetricList& out);

/// Drop every blade's DRAM cache and restore coherence service.
void DropCaches(controller::StorageSystem& system);

/// Dedup-index audit: zero double applies and zero ghost writes.
void CheckExactlyOnce(const controller::StorageSystem& system,
                      const std::string& site, Gate& gate);

/// Read every written extent of `ref` back through `system` (`lanes`
/// extents in flight) and compare it byte for byte.  `offset_of` maps an
/// extent to its volume offset.  Returns the number of mismatches.
std::uint64_t VerifyVolume(controller::StorageSystem& system,
                           net::NodeId node, controller::VolumeId vol,
                           const Reference& ref,
                           const std::function<std::uint64_t(std::uint64_t)>&
                               offset_of,
                           std::uint32_t lanes);

}  // namespace perfbench
