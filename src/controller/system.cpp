#include "controller/system.h"

#include <cassert>

#include "check/invariant.h"
#include "meta/service.h"

namespace nlss::controller {
namespace {

// Host-driver multipathing (paper §2.1 "powerful device drivers"): a failed
// request is retried via another blade after a short delay.
constexpr std::uint32_t kIoRetries = 2;
constexpr sim::Tick kRetryDelayNs = 1 * util::kNsPerMs;

}  // namespace

StorageSystem::StorageSystem(sim::Engine& engine, net::Fabric& fabric,
                             SystemConfig config)
    : engine_(engine), fabric_(fabric), config_(std::move(config)) {
  assert(config_.controllers >= 1);

  // Host-side switch and controller blades; full backplane mesh between
  // blades plus a host-side FC link from the switch to every blade.
  switch_node_ = fabric_.AddNode(config_.name + "-switch");
  for (std::uint32_t i = 0; i < config_.controllers; ++i) {
    const net::NodeId n =
        fabric_.AddNode(config_.name + "-ctrl" + std::to_string(i));
    fabric_.Connect(switch_node_, n, config_.host_link);
    for (const net::NodeId prev : controller_nodes_) {
      fabric_.Connect(prev, n, config_.backplane);
    }
    controller_nodes_.push_back(n);
  }

  // Disk farms and RAID groups (each group on its own shelf).
  for (std::uint32_t g = 0; g < config_.raid_groups; ++g) {
    farms_.push_back(std::make_unique<disk::DiskFarm>(
        engine_, config_.disk_profile, config_.disks_per_group,
        config_.name + "-g" + std::to_string(g) + "-d"));
    std::vector<disk::Disk*> disks;
    for (std::size_t i = 0; i < farms_[g]->size(); ++i) {
      disks.push_back(&farms_[g]->at(i));
    }
    raid::RaidGroup::Config rc;
    rc.level = config_.raid_level;
    rc.unit_blocks = config_.raid_unit_blocks;
    groups_.push_back(
        std::make_unique<raid::RaidGroup>(engine_, std::move(disks), rc));
  }

  std::vector<raid::RaidGroup*> group_ptrs;
  for (const auto& g : groups_) group_ptrs.push_back(g.get());
  pool_ = std::make_unique<virt::StoragePool>(std::move(group_ptrs),
                                              config_.extent_blocks);

  cache_ = std::make_unique<cache::CacheCluster>(engine_, fabric_,
                                                 controller_nodes_,
                                                 config_.cache);
  // The flush coalescer audits the representative write ids of the pages
  // it merges against the idempotency index (ghost-write invariants).
  cache_->SetDedupIndex(&dedup_);
  if (config_.tier.enabled) {
    tier_ = std::make_unique<tier::TierManager>(engine_, *cache_,
                                                config_.tier);
    tier_->SetDedupIndex(&dedup_);
    cache_->AttachTier(tier_.get());
  }
  rebuild_ = std::make_unique<raid::RebuildEngine>(engine_);
  for (std::uint32_t i = 0; i < config_.controllers; ++i) {
    rebuild_->AddWorker(&cache_->compute(i));
  }
  chargeback_ = std::make_unique<virt::ChargeBack>(engine_);
}

StorageSystem::~StorageSystem() = default;

net::NodeId StorageSystem::AttachHost(const std::string& name) {
  const net::NodeId host = fabric_.AddNode(name);
  fabric_.Connect(host, switch_node_, config_.host_link);
  return host;
}

VolumeId StorageSystem::CreateVolume(const std::string& tenant,
                                     std::uint64_t bytes, bool preallocate) {
  const std::uint32_t bs = pool_->block_size();
  const std::uint64_t blocks = (bytes + bs - 1) / bs;
  const VolumeId id = static_cast<VolumeId>(volumes_.size());
  volumes_.push_back(std::make_unique<virt::DemandMappedVolume>(
      engine_, *pool_, blocks, tenant, id));
  if (preallocate) {
    const bool ok = volumes_.back()->Preallocate();
    assert(ok && "pool too small for preallocated volume");
    (void)ok;
  }
  cache_->RegisterVolume(id, volumes_.back().get());
  chargeback_->Track(volumes_.back().get());
  if (qos::Scheduler* q = qos()) {
    const auto t = q->registry().FindByName(tenant);
    if (t.has_value()) q->registry().BindVolume(id, *t);
  }
  return id;
}

cache::ControllerId StorageSystem::PickController(VolumeId vol) {
  switch (config_.balancing) {
    case Balancing::kStaticByVolume: {
      // Traditional LUN ownership; fall over to the next blade if dead.
      for (std::uint32_t k = 0; k < config_.controllers; ++k) {
        const cache::ControllerId c = (vol + k) % config_.controllers;
        if (cache_->IsAlive(c)) return c;
      }
      return 0;
    }
    case Balancing::kRoundRobin:
    default: {
      for (std::uint32_t k = 0; k < config_.controllers; ++k) {
        const cache::ControllerId c =
            (rr_next_ + k) % config_.controllers;
        if (cache_->IsAlive(c)) {
          rr_next_ = (c + 1) % config_.controllers;
          return c;
        }
      }
      return 0;
    }
  }
}

qos::TenantId StorageSystem::ResolveTenant(VolumeId vol,
                                           qos::TenantId hint) const {
  if (hint != qos::kAutoTenant) return hint;
  const qos::Scheduler* q = qos();
  return q == nullptr ? qos::kDefaultTenant : q->registry().ResolveVolume(vol);
}

void StorageSystem::AttachQos(qos::Scheduler* qos) {
  admission_.Attach(qos);
  if (tier_ != nullptr) {
    // Demotion batches ride admission as their own background tenant so
    // tier traffic queues behind foreground classes.
    tier_->AttachQos(qos, qos == nullptr
                              ? qos::kDefaultTenant
                              : qos->registry().Register(
                                    "tier", qos::ServiceClass::kBronze));
  }
  if (qos == nullptr) return;
  // Bind existing volumes by tenant name so auto-resolution works for
  // volumes created before the scheduler was attached.
  for (VolumeId id = 0; id < volumes_.size(); ++id) {
    const auto t = qos->registry().FindByName(volumes_[id]->tenant());
    if (t.has_value()) qos->registry().BindVolume(id, *t);
  }
  RegisterQosMetrics();
}

void StorageSystem::RegisterQosMetrics() {
  if (hub_ == nullptr || qos() == nullptr) return;
  using Stats = qos::SloTracker::TenantStats;
  struct Series {
    const char* name;
    const char* help;
    std::uint64_t Stats::*field;
  };
  static constexpr Series kSeries[] = {
      {"nlss_qos_ops_total", "Ops completed through QoS admission",
       &Stats::ops},
      {"nlss_qos_rejected_total", "Admission-control rejections",
       &Stats::rejected},
      {"nlss_qos_bytes_total", "Bytes completed through QoS admission",
       &Stats::bytes},
      {"nlss_qos_hedges_total", "Hedge-budget grants (TryHedge)",
       &Stats::hedges},
      {"nlss_qos_hedges_shed_total",
       "Hedges denied by budget or admission pressure", &Stats::hedges_shed},
  };
  obs::Registry& m = hub_->metrics();
  // One labelled series per tenant known at attach time, alongside the
  // flat aggregates (a single Prometheus scrape covers the whole
  // multi-tenant story).  Values pull from the SLO tracker at render time.
  for (const qos::Tenant& t : qos()->registry().tenants()) {
    const qos::TenantId id = t.id;
    const obs::Labels labels = {{"tenant", t.name}};
    for (const Series& series : kSeries) {
      m.AddCallback(
          series.name, series.help,
          [this, id, field = series.field] {
            return qos() == nullptr ? 0.0
                                    : double(qos()->slo().stats(id).*field);
          },
          labels);
    }
  }
}

void StorageSystem::AttachObs(obs::Hub* hub) {
  hub_ = hub;
  // Background work (flush write-backs, rebuild jobs) roots its own spans.
  cache_->SetTracer(hub_ == nullptr ? nullptr : &hub_->tracer());
  rebuild_->SetTracer(hub_ == nullptr ? nullptr : &hub_->tracer());
  if (tier_ != nullptr) {
    tier_->SetTracer(hub_ == nullptr ? nullptr : &hub_->tracer());
    tier_->AttachObs(hub_);
  }
  if (hub_ == nullptr) {
    reads_total_ = writes_total_ = io_failures_total_ = nullptr;
    read_latency_ns_ = write_latency_ns_ = nullptr;
    return;
  }
  obs::Registry& m = hub_->metrics();
  reads_total_ = &m.counter("nlss_controller_reads_total",
                            "Host/blade read requests entered");
  writes_total_ = &m.counter("nlss_controller_writes_total",
                             "Host/blade write requests entered");
  io_failures_total_ = &m.counter("nlss_controller_io_failures_total",
                                  "Requests that completed with an error");
  read_latency_ns_ = &m.histogram("nlss_controller_read_latency_ns",
                                  "End-to-end read latency incl. retries");
  write_latency_ns_ = &m.histogram("nlss_controller_write_latency_ns",
                                   "End-to-end write latency incl. retries");
  // Pull-gauges bridging the existing per-module stats structs; values are
  // read at render time so no double bookkeeping happens on the hot path.
  m.AddCallback("nlss_cache_ops_total", "Cache page operations",
                [this] { return double(cache_->Totals().ops); });
  m.AddCallback("nlss_cache_local_hits_total", "Pages served from local cache",
                [this] { return double(cache_->Totals().local_hits); });
  m.AddCallback("nlss_cache_remote_hits_total",
                "Pages forwarded from a peer cache",
                [this] { return double(cache_->Totals().remote_hits); });
  m.AddCallback("nlss_cache_misses_total", "Pages read from backing store",
                [this] { return double(cache_->Totals().misses); });
  m.AddCallback("nlss_cache_bytes_served_total", "Bytes served by the cache",
                [this] { return double(cache_->Totals().bytes_served); });
  m.AddCallback("nlss_cache_flushes_total", "Dirty-page write-backs",
                [this] { return double(cache_->Totals().flushes); });
  m.AddCallback("nlss_cache_evictions_total", "Frames evicted",
                [this] { return double(cache_->Totals().evictions); });
  m.AddCallback("nlss_cache_dirty_pages", "Dirty pages currently cached",
                [this] { return double(cache_->DirtyPages()); });
  m.AddCallback("nlss_cache_cached_pages", "Pages currently cached",
                [this] { return double(cache_->CachedPages()); });
  m.AddCallback("nlss_host_write_dedup_hits_total",
                "Duplicate write arrivals absorbed by the blade-side index",
                [this] { return double(dedup_.stats().dedup_hits); });
  m.AddCallback("nlss_host_ghost_writes_total",
                "Writes dropped at the blade after the writer reported failure",
                [this] { return double(dedup_.stats().ghost_writes); });
  m.AddCallback("nlss_write_dedup_entries",
                "Live entries in the write idempotency index",
                [this] { return double(dedup_.entries()); });
  m.AddCallback("nlss_fabric_bytes_carried_total",
                "Bytes carried by all fabric links",
                [this] { return double(fabric_.TotalBytesCarried()); });
  m.AddCallback("nlss_fabric_dropped_total",
                "Messages dropped (down node/link, no handler)",
                [this] { return double(fabric_.dropped()); });
  m.AddCallback("nlss_qos_ops_total", "Ops completed through QoS admission",
                [this] {
                  if (qos() == nullptr) return 0.0;
                  std::uint64_t n = 0;  // exact: FP sums are order-sensitive
                  for (const auto& [t, s] : qos()->slo().all()) n += s.ops;
                  return double(n);
                });
  m.AddCallback("nlss_qos_rejected_total", "Admission-control rejections",
                [this] {
                  if (qos() == nullptr) return 0.0;
                  std::uint64_t n = 0;
                  for (const auto& [t, s] : qos()->slo().all()) {
                    n += s.rejected;
                  }
                  return double(n);
                });
  RegisterQosMetrics();
}

// --- Host I/O ------------------------------------------------------------------

void StorageSystem::Read(net::NodeId host, VolumeId vol, std::uint64_t offset,
                         std::uint32_t length, ReadCallback cb,
                         std::uint8_t priority, qos::TenantId tenant,
                         obs::TraceContext ctx) {
  Issue({.host = host, .vol = vol, .offset = offset, .length = length,
         .priority = priority, .tenant = tenant},
        std::move(cb), ctx);
}

void StorageSystem::ReadVia(net::NodeId host, cache::ControllerId via,
                            VolumeId vol, std::uint64_t offset,
                            std::uint32_t length, ReadCallback cb,
                            std::uint8_t priority, qos::TenantId tenant,
                            obs::TraceContext ctx) {
  Issue({.host = host, .via = via, .vol = vol, .offset = offset,
         .length = length, .priority = priority, .tenant = tenant},
        std::move(cb), ctx);
}

void StorageSystem::BladeRead(cache::ControllerId via, VolumeId vol,
                              std::uint64_t offset, std::uint32_t length,
                              std::uint8_t priority, qos::TenantId tenant,
                              ReadCallback cb, obs::TraceContext ctx) {
  Issue({.via = via, .vol = vol, .offset = offset, .length = length,
         .priority = priority, .tenant = tenant},
        std::move(cb), ctx);
}

void StorageSystem::Write(net::NodeId host, VolumeId vol, std::uint64_t offset,
                          std::span<const std::uint8_t> data, WriteCallback cb,
                          qos::TenantId tenant, obs::TraceContext ctx) {
  // Driver-retried writes are unattributed ({} write id, no dedup).  Safe
  // by construction: each retry rewrites the identical payload at the
  // identical offset and the loop never overlaps attempts.
  Issue({.write = true, .host = host, .vol = vol, .offset = offset,
         .payload = util::Bytes(data.begin(), data.end()),
         .replication = config_.cache.replication, .tenant = tenant},
        [cb = std::move(cb)](bool ok, util::Bytes) { cb(ok); }, ctx);
}

void StorageSystem::WriteVia(net::NodeId host, cache::ControllerId via,
                             VolumeId vol, std::uint64_t offset,
                             std::span<const std::uint8_t> data,
                             cache::WriteId wid, WriteCallback cb,
                             std::uint8_t priority, qos::TenantId tenant,
                             obs::TraceContext ctx) {
  // The host initiator re-drives and hedges through this entry: every
  // write must be attributed so the blades can deduplicate it.
  NLSS_INVARIANT(kCache, wid.valid(),
                 "WriteVia without a write id (vol %u offset %llu)", vol,
                 static_cast<unsigned long long>(offset));
  Issue({.write = true, .host = host, .via = via, .vol = vol,
         .offset = offset, .payload = util::Bytes(data.begin(), data.end()),
         .replication = config_.cache.replication, .priority = priority,
         .tenant = tenant, .wid = wid},
        [cb = std::move(cb)](bool ok, util::Bytes) { cb(ok); }, ctx);
}

void StorageSystem::BladeWrite(cache::ControllerId via, VolumeId vol,
                               std::uint64_t offset,
                               std::span<const std::uint8_t> data,
                               std::uint32_t replication,
                               std::uint8_t priority, qos::TenantId tenant,
                               cache::WriteId wid, WriteCallback cb,
                               obs::TraceContext ctx) {
  // No bare writes: blade-entry writes must be attributed so retried or
  // duplicated submissions stay exactly-once (tools/nlss_lint enforces
  // the call-site shape; this checks the id is actually populated).
  NLSS_INVARIANT(kCache, wid.valid(),
                 "BladeWrite without a write id (vol %u offset %llu)", vol,
                 static_cast<unsigned long long>(offset));
  Issue({.write = true, .via = via, .vol = vol, .offset = offset,
         .payload = util::Bytes(data.begin(), data.end()),
         .replication = replication, .priority = priority, .tenant = tenant,
         .wid = wid},
        [cb = std::move(cb)](bool ok, util::Bytes) { cb(ok); }, ctx);
}

void StorageSystem::Issue(Io io, Reply cb, obs::TraceContext ctx) {
  Reply done = Enter(io.write, io.vol, &ctx, std::move(cb));
  // Own the request (payload included): dispatch may be deferred past the
  // caller's buffer, and retries re-send it.
  auto shared = std::make_shared<const Io>(std::move(io));
  if (shared->via.has_value()) {
    Attempt(shared, *shared->via, std::move(done), ctx);
  } else {
    Multipath(shared, std::make_shared<Reply>(std::move(done)), ctx,
              kIoRetries);
  }
}

StorageSystem::Reply StorageSystem::Enter(bool write, VolumeId vol,
                                          obs::TraceContext* ctx, Reply cb) {
  if (obs::Counter* total = write ? writes_total_ : reads_total_) {
    total->Increment();
  }
  const char* name = write ? "controller.write" : "controller.read";
  const std::string tenant =
      vol < volumes_.size() ? volumes_[vol]->tenant() : std::string();
  bool root = false;
  if (ctx->sampled()) {
    *ctx = obs::StartSpan(*ctx, obs::Layer::kController, name);
    if (!tenant.empty()) ctx->tracer->SetTenant(*ctx, tenant);
  } else if (hub_ != nullptr) {
    *ctx = hub_->tracer().StartTrace(obs::Layer::kController, name, tenant);
    root = ctx->sampled();
  } else {
    *ctx = {};
  }
  return [this, write, t0 = engine_.now(), ctx = *ctx, root,
          cb = std::move(cb)](bool ok, util::Bytes data) {
    if (util::Histogram* latency =
            write ? write_latency_ns_ : read_latency_ns_) {
      latency->Record(engine_.now() - t0);
      if (!ok) io_failures_total_->Increment();
    }
    if (root) {
      ctx.tracer->EndTrace(ctx, ok);
    } else {
      obs::EndSpan(ctx);
    }
    cb(ok, std::move(data));
  };
}

void StorageSystem::Multipath(std::shared_ptr<const Io> io,
                              std::shared_ptr<Reply> done,
                              obs::TraceContext ctx,
                              std::uint32_t retries_left) {
  Attempt(io, PickController(io->vol),
          [this, io, done, ctx, retries_left](bool ok, util::Bytes data) {
            if (ok || retries_left == 0) {
              (*done)(ok, std::move(data));
              return;
            }
            engine_.Schedule(kRetryDelayNs, [this, io, done, ctx,
                                             retries_left] {
              Multipath(io, done, ctx, retries_left - 1);
            });
          },
          ctx);
}

void StorageSystem::Attempt(std::shared_ptr<const Io> io,
                            cache::ControllerId ctrl, Reply reply,
                            obs::TraceContext ctx) {
  auto shared_reply = std::make_shared<Reply>(std::move(reply));
  const std::uint64_t bytes = io->write ? io->payload.size() : io->length;
  auto issue = [this, io, ctrl, bytes, shared_reply,
                ctx](std::function<void(bool)> done) {
    // The QoS slot (a no-op `done` without a scheduler) is released before
    // the caller hears the outcome.
    auto finish = [shared_reply, done = std::move(done)](bool ok,
                                                         util::Bytes data) {
      done(ok);
      (*shared_reply)(ok, std::move(data));
    };
    if (io->host == net::kInvalidNode) {
      Serve(*io, ctrl, std::move(finish), ctx);
      return;
    }
    // Host I/O: the command (read) or payload (write) travels host ->
    // blade; the data (read) or ack (write) returns blade -> host.
    const net::NodeId blade = controller_nodes_[ctrl];
    fabric_.Send(
        io->host, blade, io->write ? bytes : config_.cache.ctrl_msg_bytes,
        [this, io, ctrl, blade, finish = std::move(finish),
         ctx](bool delivered) mutable {
          if (!delivered) {
            finish(false, {});
            return;
          }
          Serve(
              *io, ctrl,
              [this, io, blade, finish = std::move(finish), ctx](
                  bool ok, util::Bytes data) mutable {
                if (!ok) {
                  finish(false, {});
                  return;
                }
                const std::uint64_t reply_bytes =
                    io->write ? config_.cache.ctrl_msg_bytes : data.size();
                fabric_.Send(
                    blade, io->host, reply_bytes,
                    [finish = std::move(finish),
                     data = std::move(data)](bool delivered) mutable {
                      finish(delivered,
                             delivered ? std::move(data) : util::Bytes{});
                    },
                    ctx);
              },
              ctx);
        },
        ctx);
  };
  // A rejection (backpressure) fails the attempt; the retry policy that
  // spaces re-submissions is the caller's (Multipath or the host initiator).
  admission_.Admit(ctrl, ResolveTenant(io->vol, io->tenant), bytes,
                   std::move(issue), ctx,
                   [shared_reply] { (*shared_reply)(false, {}); });
}

void StorageSystem::Serve(const Io& io, cache::ControllerId ctrl,
                          Reply reply, obs::TraceContext ctx) {
  if (!io.write) {
    cache_->Read(ctrl, io.vol, io.offset, io.length, std::move(reply),
                 io.priority, ctx);
    return;
  }
  // The payload has landed on the blade: consult the cluster-wide
  // idempotency index before touching the data image.  Duplicates it
  // absorbs ride `outcome` too, so every arrival acks (and releases its
  // QoS slot) exactly once.
  auto outcome = [reply = std::move(reply)](bool ok) { reply(ok, {}); };
  if (!dedup_.Begin(io.wid, outcome)) return;
  cache_->WriteWithReplication(
      ctrl, io.vol, io.offset, io.payload, io.replication,
      [this, wid = io.wid, outcome](bool ok) {
        dedup_.Complete(wid, ok);
        outcome(ok);
      },
      io.priority, ctx, io.wid);
}

void StorageSystem::FailController(std::uint32_t i) {
  cache_->FailController(i);
  rebuild_->SetWorkerAlive(static_cast<int>(i), false);
  if (meta_ != nullptr) meta_->OnBladeDown(i);
}

void StorageSystem::ReviveController(std::uint32_t i) {
  cache_->ReviveController(i);
  rebuild_->SetWorkerAlive(static_cast<int>(i), true);
  if (meta_ != nullptr) meta_->OnBladeUp(i);
}

void StorageSystem::FailAndRebuildDisk(std::uint32_t g, std::uint32_t d,
                                       std::function<void(bool)> on_done) {
  groups_[g]->disk(d).Fail();
  groups_[g]->RefreshMemberStates();
  groups_[g]->disk(d).Replace();
  rebuild_->Rebuild(*groups_[g], d, std::move(on_done));
}

}  // namespace nlss::controller
