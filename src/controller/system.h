// StorageSystem: one-site assembly of the paper's architecture.
//
// Builds the full stack — disk farms, RAID groups, storage pool, demand-
// mapped volumes, controller blades with coherent pooled cache, fabric
// topology (hosts -> FC switch -> controller mesh) — and exposes host-level
// I/O entry points with pluggable load balancing across blades.
//
//   host ---FC---> [switch] ---FC---> controller blade (cache cluster)
//                                        |  backplane mesh (coherence)
//                                        |  FC feed -> RAID -> disk farm
//
// This is the object examples and benchmarks instantiate; the geo layer
// deploys one per site.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cluster.h"
#include "cache/dedup.h"
#include "disk/disk.h"
#include "net/fabric.h"
#include "obs/hub.h"
#include "qos/admission.h"
#include "qos/scheduler.h"
#include "raid/group.h"
#include "raid/rebuild.h"
#include "sim/engine.h"
#include "tier/manager.h"
#include "virt/chargeback.h"
#include "virt/pool.h"
#include "virt/volume.h"

namespace nlss::meta {
class MetaService;
}  // namespace nlss::meta

namespace nlss::controller {

using VolumeId = std::uint32_t;

enum class Balancing {
  kRoundRobin,     // spread requests over all live blades (the paper's mode)
  kStaticByVolume  // traditional LUN ownership: volume -> fixed blade
};

struct SystemConfig {
  std::string name = "site";
  std::uint32_t controllers = 4;
  std::uint32_t raid_groups = 4;
  std::uint32_t disks_per_group = 5;
  raid::RaidLevel raid_level = raid::RaidLevel::kRaid5;
  std::uint32_t raid_unit_blocks = 16;
  disk::DiskProfile disk_profile;
  std::uint32_t extent_blocks = 256;  // 1 MiB pool extents
  cache::CacheCluster::Config cache;
  // Flash tier between DRAM and disk (E19).  Disabled by default so the
  // untiered stack keeps bit-identical digests.
  tier::Config tier;
  net::LinkProfile host_link = net::LinkProfile::FibreChannel2G();
  net::LinkProfile backplane = net::LinkProfile::Backplane();
  Balancing balancing = Balancing::kRoundRobin;
};

class StorageSystem {
 public:
  StorageSystem(sim::Engine& engine, net::Fabric& fabric, SystemConfig config);
  ~StorageSystem();

  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  // --- Topology -------------------------------------------------------------
  /// Add a host: creates a fabric node linked to the host-side switch.
  net::NodeId AttachHost(const std::string& name);
  net::NodeId switch_node() const { return switch_node_; }
  net::NodeId controller_node(std::uint32_t i) const {
    return controller_nodes_[i];
  }

  // --- Volumes ----------------------------------------------------------------
  VolumeId CreateVolume(const std::string& tenant, std::uint64_t bytes,
                        bool preallocate = false);
  virt::DemandMappedVolume& volume(VolumeId id) { return *volumes_[id]; }
  std::size_t volume_count() const { return volumes_.size(); }

  // --- Host I/O ----------------------------------------------------------------
  using ReadCallback = cache::CacheCluster::ReadCallback;
  using WriteCallback = cache::CacheCluster::WriteCallback;

  /// Cached I/O from `host`, routed to a blade by the balancing policy.
  /// Timing includes the host->blade and blade->host fabric transfers.
  /// Host-driver multipathing (paper §2.1 "powerful device drivers"): a
  /// failed attempt is retried via another blade after a short delay.
  /// `priority` is the cache retention priority (per-file policy, §4).
  /// `tenant` attributes the request for QoS scheduling; kAutoTenant
  /// resolves via the volume binding when a scheduler is attached.
  /// An unsampled `ctx` with an attached obs::Hub starts a new root trace
  /// here; a sampled one (protocol layer started it) gets a child span.
  void Read(net::NodeId host, VolumeId vol, std::uint64_t offset,
            std::uint32_t length, ReadCallback cb, std::uint8_t priority = 0,
            qos::TenantId tenant = qos::kAutoTenant,
            obs::TraceContext ctx = {});
  void Write(net::NodeId host, VolumeId vol, std::uint64_t offset,
             std::span<const std::uint8_t> data, WriteCallback cb,
             qos::TenantId tenant = qos::kAutoTenant,
             obs::TraceContext ctx = {});

  /// Single-attempt host I/O via an explicitly chosen blade: the entry the
  /// host initiator stack (src/host) uses once its multipath layer has
  /// picked a path.  No driver retry loop — path selection, timeout,
  /// backoff, and re-drive all live with the caller.  Timing includes both
  /// host<->blade fabric legs, and the request rides the QoS admission
  /// path like any other host I/O.
  void ReadVia(net::NodeId host, cache::ControllerId via, VolumeId vol,
               std::uint64_t offset, std::uint32_t length, ReadCallback cb,
               std::uint8_t priority = 0,
               qos::TenantId tenant = qos::kAutoTenant,
               obs::TraceContext ctx = {});
  /// Writes entering here carry a WriteId (AllocWriterId + per-writer
  /// monotonic seq): the blades deduplicate on it, so timeout re-drives,
  /// path-down re-drives, hedges, and late acks apply exactly once
  /// server-side.
  void WriteVia(net::NodeId host, cache::ControllerId via, VolumeId vol,
                std::uint64_t offset, std::span<const std::uint8_t> data,
                cache::WriteId wid, WriteCallback cb,
                std::uint8_t priority = 0,
                qos::TenantId tenant = qos::kAutoTenant,
                obs::TraceContext ctx = {});

  /// Controller-local cached I/O (no host fabric legs): the entry the
  /// parallel file system uses once it has picked a blade.  Rides the same
  /// QoS admission path as host I/O; BladeWrite carries the per-request
  /// replication and priority overrides of per-file policies.
  void BladeRead(cache::ControllerId via, VolumeId vol, std::uint64_t offset,
                 std::uint32_t length, std::uint8_t priority,
                 qos::TenantId tenant, ReadCallback cb,
                 obs::TraceContext ctx = {});
  void BladeWrite(cache::ControllerId via, VolumeId vol, std::uint64_t offset,
                  std::span<const std::uint8_t> data,
                  std::uint32_t replication, std::uint8_t priority,
                  qos::TenantId tenant, cache::WriteId wid, WriteCallback cb,
                  obs::TraceContext ctx = {});

  // --- Write idempotency (exactly-once server-side) -------------------------
  /// Allocate a writer id for WriteId stamping (one per initiator / fs).
  std::uint32_t AllocWriterId() { return next_writer_id_++; }
  /// Writer-side abandon: the op was reported failed, so any copy still in
  /// the fabric must not change the data image (ghost-write protection).
  void CancelWrite(const cache::WriteId& wid) { dedup_.Cancel(wid); }
  const cache::WriteDedupIndex& write_dedup() const { return dedup_; }

  /// Expose blade selection for components (streaming, protocols).
  cache::ControllerId PickController(VolumeId vol);

  /// Map a request to its QoS tenant (explicit id, else volume binding).
  /// Public so the host initiator can attribute hedge-budget decisions.
  qos::TenantId ResolveTenant(VolumeId vol, qos::TenantId hint) const;

  // --- QoS (multi-tenant performance isolation) ------------------------------
  /// Attach a tenant-aware admission/scheduling layer.  Existing volumes
  /// whose tenant name matches a registered QoS tenant are bound to it.
  /// Pass nullptr to detach (I/O reverts to FIFO admission).
  void AttachQos(qos::Scheduler* qos);
  qos::Scheduler* qos() const { return admission_.scheduler(); }

  // --- Observability -----------------------------------------------------------
  /// Attach a tracing + metrics hub.  Registers callback gauges bridging
  /// the cache/fabric/QoS stats and starts tracing host I/O (per the hub's
  /// sampling config).  Pass nullptr to detach.
  void AttachObs(obs::Hub* hub);
  obs::Hub* obs_hub() const { return hub_; }

  // --- Metadata (sharded namespace service) ----------------------------------
  /// Attach the sharded metadata service.  The controller owns the shard
  /// map's blade placement: blade failure/revival notifications are
  /// forwarded so shards remap off dead blades.  Pass nullptr to detach.
  void AttachMeta(meta::MetaService* meta) { meta_ = meta; }
  meta::MetaService* meta() const { return meta_; }

  // --- Storage tiering (heat-tracked DRAM -> flash -> disk, E19) -------------
  /// Present when SystemConfig::tier.enabled; null otherwise.
  tier::TierManager* tier() { return tier_.get(); }
  const tier::TierManager* tier() const { return tier_.get(); }

  // --- Failure / maintenance ------------------------------------------------------
  void FailController(std::uint32_t i);
  /// Sudden crash the cluster has not yet noticed (pair with a
  /// HeartbeatMonitor, or call RecoverCluster after FailController).
  void CrashController(std::uint32_t i) { cache_->CrashController(i); }
  void ReviveController(std::uint32_t i);
  void RecoverCluster() { cache_->Recover(); }
  /// Fail disk `d` of group `g`, replace it, and rebuild across blades.
  void FailAndRebuildDisk(std::uint32_t g, std::uint32_t d,
                          std::function<void(bool)> on_done);

  // --- Components --------------------------------------------------------------
  sim::Engine& engine() { return engine_; }
  net::Fabric& fabric() { return fabric_; }
  cache::CacheCluster& cache() { return *cache_; }
  virt::StoragePool& pool() { return *pool_; }
  raid::RaidGroup& group(std::uint32_t g) { return *groups_[g]; }
  std::uint32_t group_count() const {
    return static_cast<std::uint32_t>(groups_.size());
  }
  raid::RebuildEngine& rebuild() { return *rebuild_; }
  virt::ChargeBack& chargeback() { return *chargeback_; }
  const SystemConfig& config() const { return config_; }
  std::uint32_t controller_count() const { return config_.controllers; }

 private:
  /// Every public I/O entry point describes its request as one Io and hands
  /// it to Issue: one span and one latency sample per call, however many
  /// attempts it makes.
  struct Io {
    bool write = false;
    net::NodeId host = net::kInvalidNode;  // kInvalidNode: blade-local
    /// Blade to use; unset: the balancer picks, with driver retries.
    std::optional<cache::ControllerId> via{};
    VolumeId vol = 0;
    std::uint64_t offset = 0;
    std::uint32_t length = 0;  // reads
    util::Bytes payload{};     // writes: the request's only copy
    std::uint32_t replication = 0;
    std::uint8_t priority = 0;
    qos::TenantId tenant = qos::kAutoTenant;
    cache::WriteId wid{};  // invalid: unattributed (driver-retried writes)
  };
  /// Completion of every attempt shape: reads deliver data, writes none.
  using Reply = ReadCallback;

  void Issue(Io io, Reply cb, obs::TraceContext ctx);
  /// Open a public op: count it and start its span (a child of a sampled
  /// `*ctx`, else a new root trace when a hub is attached).  The returned
  /// reply records latency and failure and closes the span before `cb`.
  Reply Enter(bool write, VolumeId vol, obs::TraceContext* ctx, Reply cb);
  /// Host-driver multipathing: attempt on a balancer-picked blade and
  /// re-issue after a short delay while attempts fail and retries remain.
  void Multipath(std::shared_ptr<const Io> io, std::shared_ptr<Reply> done,
                 obs::TraceContext ctx, std::uint32_t retries_left);
  /// One attempt on blade `ctrl`: QoS admission, then the blade work,
  /// behind the host's request and response fabric legs for host I/O.
  void Attempt(std::shared_ptr<const Io> io, cache::ControllerId ctrl,
               Reply reply, obs::TraceContext ctx);
  /// The blade work: a cache read, or the exactly-once write.
  void Serve(const Io& io, cache::ControllerId ctrl, Reply reply,
             obs::TraceContext ctx);
  /// Register the labelled per-tenant QoS series (idempotent; called from
  /// AttachObs and AttachQos so attach order doesn't matter).
  void RegisterQosMetrics();
  sim::Engine& engine_;
  net::Fabric& fabric_;
  SystemConfig config_;

  net::NodeId switch_node_ = net::kInvalidNode;
  std::vector<net::NodeId> controller_nodes_;
  std::vector<std::unique_ptr<disk::DiskFarm>> farms_;
  std::vector<std::unique_ptr<raid::RaidGroup>> groups_;
  std::unique_ptr<virt::StoragePool> pool_;
  std::unique_ptr<cache::CacheCluster> cache_;
  std::unique_ptr<tier::TierManager> tier_;
  std::unique_ptr<raid::RebuildEngine> rebuild_;
  std::unique_ptr<virt::ChargeBack> chargeback_;
  std::vector<std::unique_ptr<virt::DemandMappedVolume>> volumes_;
  std::uint32_t rr_next_ = 0;
  // One cluster-wide dedup index: the coherent backplane that lets any
  // blade serve any page also lets any blade see any in-flight write, so
  // a re-drive landing on a different blade still deduplicates.
  cache::WriteDedupIndex dedup_;
  std::uint32_t next_writer_id_ = 1;
  qos::Admission admission_{engine_};
  obs::Hub* hub_ = nullptr;
  meta::MetaService* meta_ = nullptr;
  // Hot-path instruments (owned by the hub's registry; null when detached).
  obs::Counter* reads_total_ = nullptr;
  obs::Counter* writes_total_ = nullptr;
  obs::Counter* io_failures_total_ = nullptr;
  util::Histogram* read_latency_ns_ = nullptr;
  util::Histogram* write_latency_ns_ = nullptr;
};

}  // namespace nlss::controller
