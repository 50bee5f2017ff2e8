// CacheCluster: the paper's pooled, coherent, distributed write-back cache
// (§2.2, §6.1, §6.3).
//
// Every controller blade contributes a CacheNode to one cluster-wide pool.
// Coherence is directory-based: each page has a *home* controller (hash of
// the page over the live set) whose directory entry serializes conflicting
// operations and tracks the owner (dirty/exclusive holder) and sharers.
//
//   read  miss -> GETS to home -> data forwarded from owner/sharer cache,
//                 or read from the backing store (RAID) by the home.
//   write      -> GETX to home -> current content fetched if partial,
//                 all other holders invalidated, requester becomes owner,
//                 the dirty page is replicated into N-1 peer caches
//                 (paper §6.1 N-way replication) before the write is acked,
//                 then asynchronously flushed to the backing store; the
//                 replicas are unpinned once the flush lands.
//
// Controller failure drops that node's cache; Recover() rebuilds every
// directory shard from the surviving caches and promotes orphaned replicas
// to dirty owners, so committed writes survive up to N-1 failures.
//
// All inter-controller traffic crosses the net::Fabric (the paper's
// "network as backplane"), so bandwidth and latency effects are real.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "cache/backing.h"
#include "cache/dedup.h"
#include "cache/node.h"
#include "cache/tierhook.h"
#include "cache/types.h"
#include "net/fabric.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/resource.h"
#include "util/units.h"

namespace nlss::cache {

class CacheCluster {
 public:
  struct Config {
    std::uint32_t page_bytes = 64 * util::KiB;
    std::uint64_t node_capacity_pages = 1024;
    std::uint32_t replication = 2;      // N-way total copies of dirty data
    sim::Tick local_access_ns = 2000;   // cache-hit service latency
    std::uint32_t ctrl_msg_bytes = 128; // coherence control message size
    double serve_ns_per_byte = 0.2;     // controller data engine (~5 GB/s)
    sim::Tick flush_delay_ns = 0;       // write-back aging before flushing
    // Disk-side Fibre Channel feed per blade (paper: 2 x 2 Gb/s).  All of a
    // controller's backing-store traffic serializes through this resource.
    // 0 disables the FC bandwidth model.
    double fc_ns_per_byte = 0.0;
    // Sequential readahead: on a demand miss, also fetch the next N pages
    // (paper §4 "storage prefetch operations").  0 disables.
    std::uint32_t readahead_pages = 0;
    // Small-write coalescing in the write-back path (E17): when a dirty
    // page is flushed, up to this many adjacent dirty pages of the same
    // volume on the same blade ride the same back-end write, so a stream
    // of small writes costs one large RAID write instead of one per page.
    // <= 1 disables (every page flushes alone).
    std::uint32_t coalesce_pages = 1;
  };

  struct Stats {
    std::uint64_t ops = 0;
    std::uint64_t local_hits = 0;
    std::uint64_t remote_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bytes_served = 0;
    std::uint64_t flushes = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations_received = 0;
    // Back-end (cache -> backing store) write ops actually issued.  With
    // coalescing, several flushed pages share one backing write, so this
    // is the number the E17 small-file-ingest claim is measured on.
    std::uint64_t backing_writes = 0;
    std::uint64_t coalesced_runs = 0;   // backing writes covering > 1 page
    std::uint64_t coalesced_pages = 0;  // pages that rode a multi-page run
  };

  using ReadCallback = std::function<void(bool ok, util::Bytes data)>;
  using WriteCallback = std::function<void(bool ok)>;

  /// `controller_nodes` are fabric nodes of the controller blades (already
  /// connected to each other / to switches by the caller).
  CacheCluster(sim::Engine& engine, net::Fabric& fabric,
               std::vector<net::NodeId> controller_nodes, Config config);

  /// Attach a volume's backing store.  Volume ids are caller-chosen.
  void RegisterVolume(std::uint32_t volume, BackingStore* backing);

  /// Byte-granular cached I/O, entering the cluster at controller `via`.
  /// `priority` is the per-file cache retention priority (paper §4):
  /// higher-priority pages are evicted last.
  void Read(ControllerId via, std::uint32_t volume, std::uint64_t offset,
            std::uint32_t length, ReadCallback cb, std::uint8_t priority = 0,
            obs::TraceContext ctx = {});
  /// `wid` (when valid) stamps the dirtied frames as the representative
  /// (writer, seq) the flush coalescer reports for the pages of a merged
  /// back-end write; invalid = legacy unattributed traffic.
  void Write(ControllerId via, std::uint32_t volume, std::uint64_t offset,
             std::span<const std::uint8_t> data, WriteCallback cb,
             std::uint8_t priority = 0, obs::TraceContext ctx = {},
             WriteId wid = {});

  /// Override the replication factor for a single write (per-file policy
  /// support, paper §4): 1 = no peer copies.
  void WriteWithReplication(ControllerId via, std::uint32_t volume,
                            std::uint64_t offset,
                            std::span<const std::uint8_t> data,
                            std::uint32_t replication, WriteCallback cb,
                            std::uint8_t priority = 0,
                            obs::TraceContext ctx = {}, WriteId wid = {});

  /// Flush every dirty page to backing; cb(true) when clean.
  void FlushAll(WriteCallback cb);

  /// Fail a controller: its cache contents vanish, its fabric node goes
  /// down.  Call Recover() afterwards to restore coherence service.
  void FailController(ControllerId ctrl);

  /// Sudden crash: the blade vanishes from the fabric and loses its cache,
  /// but the cluster has NOT noticed yet (alive stays true; operations
  /// involving it fail via dropped messages).  A failure detector is
  /// expected to observe the silence and call FailController + Recover.
  void CrashController(ControllerId ctrl);

  /// Rebuild directories from surviving caches and promote orphaned
  /// replicas of dead owners to dirty pages (then flush them).
  void Recover();

  /// Root-trace background flush write-backs as "cache.flush" spans.
  /// Pass nullptr to detach.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attach the cluster-wide write idempotency index (owned by the
  /// StorageSystem) so the flush coalescer can audit the representative
  /// write ids of the pages it merges.  Pass nullptr to detach.
  void SetDedupIndex(const WriteDedupIndex* dedup) { dedup_ = dedup; }

  /// Attach the storage-tier placement engine (src/tier): demand misses
  /// consult the flash tier before disk, write-backs and clean evictions
  /// are offered to it, and victim choice turns heat-aware.  Pass nullptr
  /// to detach (default: behavior identical to the untiered build).
  void AttachTier(TierHook* tier) { tier_ = tier; }
  TierHook* tier() const { return tier_; }

  // --- Tier support (called by the tier::TierManager) -----------------------
  /// Raw backing write for the tier's flash->disk demotion pipeline:
  /// charges the blade's FC feed and counts a backing write, but touches
  /// no cache state and is never re-offered to the tier.
  void TierBackingWrite(ControllerId ctrl, const PageKey& key,
                        const util::Bytes& data, BackingStore::WriteCallback cb,
                        obs::TraceContext ctx = {});
  /// Cooling-phase eviction: if `key` at `ctrl` is a clean, idle, primary
  /// frame, move its data into `*out`, erase the frame, and count an
  /// eviction.  Returns false (no state change) otherwise.
  bool StealCleanFrame(ControllerId ctrl, const PageKey& key,
                       util::Bytes* out);

  /// Return a failed controller to service with an empty cache (replaced
  /// or upgraded blade).  Call Recover() afterwards to rebalance homes.
  void ReviveController(ControllerId ctrl);

  // --- Introspection ------------------------------------------------------
  std::size_t controller_count() const { return ctrls_.size(); }
  std::size_t live_count() const { return live_.size(); }
  bool IsAlive(ControllerId c) const { return ctrls_[c]->alive; }
  const Stats& stats(ControllerId c) const { return ctrls_[c]->stats; }
  Stats Totals() const;
  sim::Resource& compute(ControllerId c) { return ctrls_[c]->compute; }
  sim::Resource& fc(ControllerId c) { return ctrls_[c]->fc; }
  std::uint64_t DirtyPages() const;
  std::uint64_t CachedPages() const;
  /// Per-controller bytes served (hot-spot imbalance input).
  std::vector<double> LoadByController() const;
  const Config& config() const { return config_; }
  CacheNode& node(ControllerId c) { return ctrls_[c]->cache; }

 private:
  struct Controller {
    net::NodeId node;
    CacheNode cache;
    sim::Resource compute;
    sim::Resource fc;  // disk-side Fibre Channel bandwidth
    bool alive = true;
    Stats stats;
    Controller(net::NodeId n, std::uint64_t cap, sim::Engine& e)
        : node(n), cache(cap), compute(e), fc(e) {}
  };

  struct DirEntry {
    ControllerId owner = kNoController;
    std::set<ControllerId> sharers;
    bool busy = false;
    std::deque<sim::Callback> waiters;
    sim::Tick owner_since = 0;  // invariant: ownership transfer is monotone
  };

  struct FrameExtra {
    // Cluster-side bookkeeping for dirty frames, keyed (ctrl, page).
    std::vector<ControllerId> replica_sites;
    bool flushing = false;
    std::vector<sim::Callback> flush_waiters;
  };

  ControllerId HomeOf(const PageKey& key) const;
  std::uint32_t PageBlocks(std::uint32_t volume) const;

  /// Fabric send between controllers; `done(delivered)` runs exactly once.
  void Msg(ControllerId from, ControllerId to, std::uint64_t bytes,
           net::Fabric::Completion done, obs::TraceContext ctx = {});

  /// Build one element of a Fabric::SendBatch group (controller ids mapped
  /// to fabric nodes).  Used by the replica fan-outs so a whole group of
  /// controller messages enters the event queue in one batched insertion.
  net::Fabric::Outbound Out(ControllerId from, ControllerId to,
                            std::uint64_t bytes, net::Fabric::Completion done,
                            obs::TraceContext ctx = {});

  /// Completion of an unpin message from `owner` to `site`: once delivered,
  /// erase the replica of `key` that `owner` parked at `site` (if it is
  /// still that owner's replica).
  net::Fabric::Completion UnpinReplica(ControllerId owner, ControllerId site,
                                       const PageKey& key);

  /// Serialize per-page operations through the home directory entry.
  void AcquireEntry(ControllerId home, const PageKey& key, sim::Callback fn);
  void ReleaseEntry(ControllerId home, const PageKey& key);

  /// Make room and insert/overwrite a frame with `data`.
  CacheNode::Frame& InstallFrame(ControllerId ctrl, const PageKey& key,
                                 util::Bytes data);
  void EnsureRoom(ControllerId ctrl);

  // Protocol steps (home side).
  void HandleGetS(ControllerId via, PageKey key, std::uint8_t priority,
                  std::function<void(bool, util::Bytes)> cb,
                  obs::TraceContext ctx = {});
  void HandleGetX(ControllerId via, PageKey key, std::uint32_t offset,
                  util::Bytes data, std::uint32_t replication,
                  std::uint8_t priority, WriteCallback cb,
                  obs::TraceContext ctx = {}, WriteId wid = {});
  /// Deliver current page content to `via` from owner/sharer/backing.
  /// Does NOT register `via` anywhere.  cb(false) on unrecoverable miss.
  void FetchCurrent(ControllerId via, PageKey key,
                    std::function<void(bool, util::Bytes)> cb,
                    obs::TraceContext ctx = {});
  void InvalidateHolders(ControllerId except, PageKey key,
                         std::function<void()> done,
                         obs::TraceContext ctx = {});
  /// Erase a frame at `ctrl` and unpin any replicas it parked on peers.
  void DropFrameWithReplicas(ControllerId ctrl, const PageKey& key);
  void ReplicateDirty(ControllerId owner_ctrl, PageKey key,
                      std::uint32_t replication, std::function<void()> done,
                      obs::TraceContext ctx = {});

  /// Backing I/O issued by controller `ctrl` (charges its FC feed).
  void ReadFromBacking(ControllerId ctrl, PageKey key,
                       BackingStore::ReadCallback cb,
                       obs::TraceContext ctx = {});
  void WriteToBacking(ControllerId ctrl, PageKey key, const util::Bytes& data,
                      BackingStore::WriteCallback cb,
                      obs::TraceContext ctx = {});

  /// Asynchronous write-back of a dirty page.  With coalescing enabled
  /// (Config::coalesce_pages > 1) adjacent dirty pages of the same volume
  /// on the same blade are merged into the same back-end write.
  void FlushPage(ControllerId ctrl, PageKey key,
                 std::function<void(bool)> cb = nullptr);
  /// Contiguous run of flushable pages around `seed` (always contains it),
  /// sorted by page index and capped at Config::coalesce_pages.
  std::vector<PageKey> BuildFlushRun(ControllerId ctrl, const PageKey& seed);
  /// Write one contiguous run of dirty pages back as a single backing
  /// write, then settle each page individually (epoch check, replica
  /// release, waiters, re-flush when re-dirtied mid-flight).
  void FlushRun(ControllerId ctrl, std::vector<PageKey> run,
                std::function<void(bool)> cb);

  /// Page-granular entry points used by Read/Write.
  void ReadPage(ControllerId via, PageKey key,
                std::function<void(bool, util::Bytes)> cb,
                bool demand = true, std::uint8_t priority = 0,
                obs::TraceContext ctx = {});
  /// Kick sequential readahead after a demand miss on `key`.
  void MaybeReadahead(ControllerId via, PageKey key);
  void WritePage(ControllerId via, PageKey key, std::uint32_t offset,
                 util::Bytes data, std::uint32_t replication,
                 std::uint8_t priority, WriteCallback cb,
                 obs::TraceContext ctx = {}, WriteId wid = {});

  FrameExtra& Extra(ControllerId ctrl, const PageKey& key);
  void EraseExtra(ControllerId ctrl, const PageKey& key);

  /// True if any live controller other than `except` holds `key` dirty as
  /// a primary (non-replica) frame.  Invariant probe: the coherence
  /// protocol must never let a page be dirty on two nodes.
  bool DirtyElsewhere(ControllerId except, const PageKey& key) const;

  sim::Engine& engine_;
  net::Fabric& fabric_;
  Config config_;
  std::vector<std::unique_ptr<Controller>> ctrls_;
  std::vector<ControllerId> live_;
  // dir_[home] holds the directory shard for pages homed at `home`.
  std::vector<std::unordered_map<PageKey, DirEntry, PageKeyHash>> dir_;
  std::unordered_map<std::uint32_t, BackingStore*> volumes_;
  // Extra per-frame metadata (replica sites, flush state), keyed per ctrl.
  std::vector<std::unordered_map<PageKey, FrameExtra, PageKeyHash>> extra_;
  // Readahead fetches currently in flight (suppresses duplicates).
  std::unordered_map<PageKey, bool, PageKeyHash> readahead_inflight_;
  obs::Tracer* tracer_ = nullptr;  // roots "cache.flush" background spans
  // Audit-only view of the write idempotency index (null when detached).
  const WriteDedupIndex* dedup_ = nullptr;
  // Storage-tier placement engine (null when detached).
  TierHook* tier_ = nullptr;
};

}  // namespace nlss::cache
