#include "geo/geo.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "util/join.h"

namespace nlss::geo {

using util::Join;

double DistanceKm(const Location& a, const Location& b) {
  const double dx = a.x_km - b.x_km;
  const double dy = a.y_km - b.y_km;
  return std::sqrt(dx * dx + dy * dy);
}

Site::Site(sim::Engine& engine, net::Fabric& fabric, std::string name,
           controller::SystemConfig config, Location location)
    : name_(std::move(name)), location_(location) {
  config.name = name_;
  system_ = std::make_unique<controller::StorageSystem>(engine, fabric,
                                                        std::move(config));
  fs_ = std::make_unique<fs::FileSystem>(*system_);
  // The WAN gateway hangs off the site switch with a fat local link.
  gateway_ = fabric.AddNode(name_ + "-gw");
  fabric.Connect(gateway_, system_->switch_node(),
                 net::LinkProfile::Backplane());
}

GeoCluster::GeoCluster(sim::Engine& engine, net::Fabric& fabric)
    : GeoCluster(engine, fabric, Config()) {}

GeoCluster::GeoCluster(sim::Engine& engine, net::Fabric& fabric, Config config)
    : engine_(engine), fabric_(fabric), config_(config) {}

SiteId GeoCluster::AddSite(const std::string& name,
                           controller::SystemConfig config,
                           Location location) {
  sites_.push_back(std::make_unique<Site>(engine_, fabric_, name,
                                          std::move(config), location));
  return static_cast<SiteId>(sites_.size() - 1);
}

void GeoCluster::ConnectSites(SiteId a, SiteId b,
                              const net::LinkProfile& wan) {
  fabric_.Connect(sites_[a]->gateway(), sites_[b]->gateway(), wan);
}

void GeoCluster::Ship(SiteId from, SiteId to, std::uint64_t bytes,
                      net::Fabric::Completion done) {
  fabric_.Send(sites_[from]->gateway(), sites_[to]->gateway(), bytes,
               std::move(done));
}

// --- Namespace ---------------------------------------------------------------

fs::Status GeoCluster::Mkdir(const std::string& path) {
  fs::Status last = fs::Status::kOk;
  for (auto& site : sites_) {
    if (!site->alive()) continue;
    const fs::Status st = site->filesystem().Mkdir(path);
    if (st != fs::Status::kOk && st != fs::Status::kExists) last = st;
  }
  return last;
}

void GeoCluster::ChooseReplicas(const std::string& path, GeoFile& f) {
  f.replicas.clear();
  f.replicas.insert(f.home);
  f.sync_target = kNoSite;
  if (!f.policy.geo_replicate || f.policy.geo_sites <= 1) return;

  // Rank other live sites by distance from home, honoring min distance.
  struct Candidate {
    SiteId site;
    double distance;
  };
  std::vector<Candidate> candidates;
  for (SiteId s = 0; s < sites_.size(); ++s) {
    if (s == f.home || !sites_[s]->alive()) continue;
    const double d = DistanceKm(sites_[f.home]->location(),
                                sites_[s]->location());
    if (d < static_cast<double>(f.policy.geo_min_distance_km)) continue;
    candidates.push_back({s, d});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.distance < b.distance;
            });
  for (const auto& c : candidates) {
    if (f.replicas.size() >= f.policy.geo_sites) break;
    f.replicas.insert(c.site);
    if (f.policy.geo_sync && f.sync_target == kNoSite) {
      f.sync_target = c.site;  // nearest replica is the synchronous one
    }
  }
  (void)path;
}

fs::Status GeoCluster::Create(const std::string& path, SiteId home,
                              const fs::FilePolicy& policy) {
  assert(home < sites_.size());
  if (files_.count(path) > 0) return fs::Status::kExists;
  if (!sites_[home]->alive()) return fs::Status::kInvalidArgument;
  // Create the file in every live site's local FS so replicated data and
  // migrated chunks have a landing place.
  for (auto& site : sites_) {
    if (!site->alive()) continue;
    const fs::Status st = site->filesystem().Create(path, policy);
    if (st != fs::Status::kOk && st != fs::Status::kExists) return st;
  }
  GeoFile f;
  f.policy = policy;
  f.home = home;
  ChooseReplicas(path, f);
  files_[path] = std::move(f);
  return fs::Status::kOk;
}

fs::Status GeoCluster::SetPolicy(const std::string& path,
                                 const fs::FilePolicy& policy) {
  auto it = files_.find(path);
  if (it == files_.end()) return fs::Status::kNotFound;
  it->second.policy = policy;
  ChooseReplicas(path, it->second);
  for (auto& site : sites_) {
    if (site->alive()) site->filesystem().SetPolicy(path, policy);
  }
  return fs::Status::kOk;
}

SiteId GeoCluster::HomeOf(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? kNoSite : it->second.home;
}

std::set<SiteId> GeoCluster::ReplicasOf(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? std::set<SiteId>{} : it->second.replicas;
}

// --- Writes ---------------------------------------------------------------------

void GeoCluster::ApplyRemoteWrite(SiteId target, const std::string& path,
                                  std::uint64_t offset,
                                  const util::Bytes& data,
                                  std::function<void(bool)> cb) {
  if (!sites_[target]->alive()) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false); });
    return;
  }
  sites_[target]->filesystem().Write(path, offset, data,
                                     [cb = std::move(cb)](fs::Status st) {
                                       cb(st == fs::Status::kOk);
                                     });
}

void GeoCluster::HomeWriteAndReplicate(const std::string& path,
                                       std::uint64_t offset, util::Bytes data,
                                       WriteCallback cb) {
  GeoFile& f = files_.at(path);
  const SiteId home = f.home;
  auto shared_data = std::make_shared<util::Bytes>(std::move(data));

  sites_[home]->filesystem().Write(
      path, offset, *shared_data,
      [this, path, offset, home, shared_data,
       cb = std::move(cb)](fs::Status st) mutable {
        if (st != fs::Status::kOk) {
          cb(st);
          return;
        }
        GeoFile& f = files_.at(path);
        f.size = std::max(f.size, offset + shared_data->size());

        // Invalidate stale migration caches at non-replica sites.
        const std::uint64_t c0 = offset / config_.migrate_chunk_bytes;
        const std::uint64_t c1 =
            (offset + shared_data->size() - 1) / config_.migrate_chunk_bytes;
        for (auto& [site, chunks] : f.cached_chunks) {
          if (f.replicas.count(site) > 0) continue;
          for (std::uint64_t c = c0; c <= c1; ++c) chunks.erase(c);
        }

        // Replicate per policy: the sync target holds the ack; the rest go
        // through the in-order async queues.
        std::vector<SiteId> sync_targets, async_targets;
        for (const SiteId r : f.replicas) {
          if (r == home || !sites_[r]->alive()) continue;
          if (f.policy.geo_sync && r == f.sync_target) {
            sync_targets.push_back(r);
          } else {
            async_targets.push_back(r);
          }
        }
        for (const SiteId t : async_targets) {
          EnqueueAsync(home, t, AsyncUpdate{path, offset, *shared_data});
        }
        if (sync_targets.empty()) {
          cb(fs::Status::kOk);
          return;
        }
        auto join = std::make_shared<Join>(
            static_cast<int>(sync_targets.size()),
            [cb = std::move(cb)](bool ok) {
              cb(ok ? fs::Status::kOk : fs::Status::kIoError);
            });
        for (const SiteId t : sync_targets) {
          Ship(home, t, shared_data->size(),
               [this, t, path, offset, shared_data, home, join](bool delivered) {
                 if (!delivered) {
                   join->Arrive(false);
                   return;
                 }
                 ApplyRemoteWrite(
                     t, path, offset, *shared_data, [this, t, home, join](bool ok) {
                       if (!ok) {
                         join->Arrive(false);
                         return;
                       }
                       // Ack back over the WAN.
                       Ship(t, home, config_.ctrl_msg_bytes,
                            [join](bool acked) { join->Arrive(acked); });
                     });
               });
        }
      });
}

void GeoCluster::Write(SiteId via, const std::string& path,
                       std::uint64_t offset,
                       std::span<const std::uint8_t> data, WriteCallback cb) {
  auto it = files_.find(path);
  if (it == files_.end() || !it->second.available) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(fs::Status::kNotFound); });
    return;
  }
  GeoFile& f = it->second;
  util::Bytes copy(data.begin(), data.end());
  if (via == f.home) {
    HomeWriteAndReplicate(path, offset, std::move(copy), std::move(cb));
    return;
  }
  // Forward to the home site over the WAN; ack returns the same way.
  const SiteId home = f.home;
  const std::uint64_t bytes = copy.size();
  Ship(via, home, bytes,
       [this, via, home, path, offset, copy = std::move(copy),
        cb = std::move(cb)](bool delivered) mutable {
         if (!delivered) {
           cb(fs::Status::kIoError);
           return;
         }
         HomeWriteAndReplicate(
             path, offset, std::move(copy),
             [this, via, home, cb = std::move(cb)](fs::Status st) mutable {
               Ship(home, via, config_.ctrl_msg_bytes,
                    [cb = std::move(cb), st](bool acked) {
                      cb(acked ? st : fs::Status::kIoError);
                    });
             });
       });
}

// --- Async queues ------------------------------------------------------------------

void GeoCluster::EnqueueAsync(SiteId from, SiteId to, AsyncUpdate update) {
  AsyncQueue& q = async_[{from, to}];
  q.bytes += update.data.size();
  q.q.push_back(std::move(update));
  if (!q.draining) {
    q.draining = true;
    PumpQueue(from, to);
  }
}

void GeoCluster::PumpQueue(SiteId from, SiteId to) {
  AsyncQueue& q = async_[{from, to}];
  if (q.q.empty()) {
    q.draining = false;
    CheckDrained();
    return;
  }
  if (!sites_[from]->alive()) {
    // The source site died: its un-shipped updates are lost (counted by
    // FailSite); stop pumping.
    q.draining = false;
    CheckDrained();
    return;
  }
  // The head stays queued until it is applied at the target: un-shipped
  // AND in-flight updates both count as RPO exposure if the source dies.
  auto update = std::make_shared<AsyncUpdate>(q.q.front());
  // Each shipment attempt is a background root span (layer kGeo) — async
  // replication never rides on the originating write's trace.
  obs::TraceContext ctx;
  if (tracer_ != nullptr) {
    ctx = tracer_->StartTrace(obs::Layer::kGeo, "geo.replicate");
    if (ctx.sampled()) {
      tracer_->Annotate(ctx, "path=" + update->path + " bytes=" +
                                 std::to_string(update->data.size()));
    }
  }
  Ship(from, to, update->data.size(),
       [this, from, to, update, ctx](bool delivered) {
         if (!delivered) {
           if (ctx.sampled()) ctx.tracer->EndTrace(ctx, false);
           // Route down: back off and retry (stops if the source has died).
           engine_.Schedule(10 * util::kNsPerMs,
                            [this, from, to] { PumpQueue(from, to); });
           return;
         }
         ApplyRemoteWrite(to, update->path, update->offset, update->data,
                          [this, from, to, update, ctx](bool) {
                            if (ctx.sampled()) ctx.tracer->EndTrace(ctx, true);
                            AsyncQueue& q2 = async_[{from, to}];
                            if (!q2.q.empty() &&
                                q2.q.front().path == update->path &&
                                q2.q.front().offset == update->offset) {
                              q2.bytes -= q2.q.front().data.size();
                              q2.q.pop_front();
                            }
                            PumpQueue(from, to);
                          });
       });
}

std::uint64_t GeoCluster::PendingAsyncBytes() const {
  std::uint64_t total = 0;
  for (const auto& [key, q] : async_) total += q.bytes;
  return total;
}

std::uint64_t GeoCluster::PendingAsyncBytesFrom(SiteId src) const {
  std::uint64_t total = 0;
  for (const auto& [key, q] : async_) {
    if (key.first == src) total += q.bytes;
  }
  return total;
}

void GeoCluster::CheckDrained() {
  for (const auto& [key, q] : async_) {
    if (!q.q.empty() || q.draining) return;
  }
  auto waiters = std::move(drain_waiters_);
  drain_waiters_.clear();
  for (auto& w : waiters) engine_.Schedule(0, std::move(w));
}

void GeoCluster::DrainAsync(std::function<void()> cb) {
  drain_waiters_.push_back(std::move(cb));
  CheckDrained();
}

// --- Reads -------------------------------------------------------------------------

std::uint64_t GeoCluster::ChunkCount(const GeoFile& f) const {
  return (f.size + config_.migrate_chunk_bytes - 1) /
         config_.migrate_chunk_bytes;
}

void GeoCluster::FetchChunks(SiteId via, const std::string& path,
                             std::vector<std::uint64_t> chunks,
                             std::function<void(bool)> cb) {
  if (chunks.empty()) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(true); });
    return;
  }
  GeoFile& f = files_.at(path);
  const SiteId home = f.home;
  auto join = std::make_shared<Join>(static_cast<int>(chunks.size()),
                                     std::move(cb));
  for (const std::uint64_t c : chunks) {
    const std::uint64_t off =
        c * static_cast<std::uint64_t>(config_.migrate_chunk_bytes);
    const std::uint64_t len = std::min<std::uint64_t>(
        config_.migrate_chunk_bytes, f.size > off ? f.size - off : 0);
    if (len == 0) {
      files_.at(path).cached_chunks[via].insert(c);
      engine_.Schedule(0, [join] { join->Arrive(true); });
      continue;
    }
    // Control hop to home, then the home reads and ships the chunk back.
    Ship(via, home, config_.ctrl_msg_bytes,
         [this, via, home, path, off, len, c, join](bool delivered) {
           if (!delivered) {
             join->Arrive(false);
             return;
           }
           sites_[home]->filesystem().Read(
               path, off, len,
               [this, via, home, path, off, c, join](fs::Status st,
                                                     util::Bytes data) {
                 if (st != fs::Status::kOk) {
                   join->Arrive(false);
                   return;
                 }
                 const std::uint64_t bytes = data.size();
                 Ship(home, via, bytes,
                      [this, via, path, off, c, data = std::move(data),
                       join](bool delivered) {
                        if (!delivered) {
                          join->Arrive(false);
                          return;
                        }
                        // Land the chunk in the local FS copy.
                        sites_[via]->filesystem().Write(
                            path, off, data,
                            [this, via, path, c, join](fs::Status st2) {
                              if (st2 == fs::Status::kOk) {
                                files_.at(path).cached_chunks[via].insert(c);
                              }
                              join->Arrive(st2 == fs::Status::kOk);
                            });
                      });
               });
         });
  }
}

void GeoCluster::MaybePrefetch(SiteId via, const std::string& path) {
  if (!config_.prefetch) return;
  GeoFile& f = files_.at(path);
  const auto& cached = f.cached_chunks[via];
  std::vector<std::uint64_t> missing;
  const std::uint64_t n = ChunkCount(f);
  for (std::uint64_t c = 0; c < n; ++c) {
    if (cached.count(c) == 0) missing.push_back(c);
  }
  if (missing.empty()) return;
  FetchChunks(via, path, std::move(missing), [](bool) {});
}

void GeoCluster::MaybePromote(SiteId via, const std::string& path) {
  if (!config_.auto_promote) return;
  GeoFile& f = files_.at(path);
  if (f.replicas.count(via) > 0) return;
  if (f.reads_by_site[via] < config_.hot_promote_reads) return;
  // Promote: fetch everything, then register as a full replica so future
  // writes keep this copy current.
  std::vector<std::uint64_t> missing;
  const auto& cached = f.cached_chunks[via];
  for (std::uint64_t c = 0; c < ChunkCount(f); ++c) {
    if (cached.count(c) == 0) missing.push_back(c);
  }
  FetchChunks(via, path, std::move(missing), [this, via, path](bool ok) {
    if (!ok) return;
    GeoFile& f = files_.at(path);
    f.replicas.insert(via);
  });
}

void GeoCluster::Read(SiteId via, const std::string& path,
                      std::uint64_t offset, std::uint64_t length,
                      ReadCallback cb) {
  auto it = files_.find(path);
  if (it == files_.end() || !it->second.available) {
    engine_.Schedule(0, [cb = std::move(cb)] {
      cb(fs::Status::kNotFound, {});
    });
    return;
  }
  GeoFile& f = it->second;
  if (!sites_[via]->alive()) {
    engine_.Schedule(0, [cb = std::move(cb)] {
      cb(fs::Status::kIoError, {});
    });
    return;
  }
  ++f.reads_by_site[via];

  // Local service when this site holds a full replica.
  if (f.replicas.count(via) > 0) {
    sites_[via]->filesystem().Read(path, offset, length, std::move(cb));
    return;
  }

  // Otherwise serve from the local migration cache, fetching missing
  // chunks from the home site first (first-touch WAN cost, §7.1).
  if (length == 0 || offset >= f.size) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(fs::Status::kOk, {}); });
    return;
  }
  length = std::min(length, f.size - offset);
  const std::uint64_t c0 = offset / config_.migrate_chunk_bytes;
  const std::uint64_t c1 =
      (offset + length - 1) / config_.migrate_chunk_bytes;
  std::vector<std::uint64_t> missing;
  const auto& cached = f.cached_chunks[via];
  for (std::uint64_t c = c0; c <= c1; ++c) {
    if (cached.count(c) == 0) missing.push_back(c);
  }
  auto shared_cb = std::make_shared<ReadCallback>(std::move(cb));
  FetchChunks(via, path, std::move(missing),
              [this, via, path, offset, length, shared_cb](bool ok) {
                if (!ok) {
                  (*shared_cb)(fs::Status::kIoError, {});
                  return;
                }
                sites_[via]->filesystem().Read(
                    path, offset, length,
                    [shared_cb](fs::Status st, util::Bytes data) {
                      (*shared_cb)(st, std::move(data));
                    });
                // Background: pull the rest of the file and consider
                // promoting this site to a full replica.
                MaybePrefetch(via, path);
                MaybePromote(via, path);
              });
}

// --- Disaster recovery ------------------------------------------------------------

void GeoCluster::FailSite(SiteId s) {
  Site& site = *sites_[s];
  site.set_alive(false);
  // Take the whole site's fabric presence down.
  fabric_.SetNodeUp(site.gateway(), false);
  fabric_.SetNodeUp(site.system().switch_node(), false);
  for (std::uint32_t c = 0; c < site.system().controller_count(); ++c) {
    fabric_.SetNodeUp(site.system().controller_node(c), false);
  }

  // Un-shipped async updates originating at the dead site are gone.
  for (auto& [key, q] : async_) {
    if (key.first != s) continue;
    losses_.lost_async_updates += q.q.size();
    losses_.lost_async_bytes += q.bytes;
    q.q.clear();
    q.bytes = 0;
  }

  // Fail files homed at s over to a surviving replica.
  for (auto& [path, f] : files_) {
    f.replicas.erase(s);
    f.cached_chunks.erase(s);
    if (f.home != s) continue;
    SiteId next = kNoSite;
    double best = 0;
    for (const SiteId r : f.replicas) {
      if (!sites_[r]->alive()) continue;
      const double d =
          DistanceKm(sites_[s]->location(), sites_[r]->location());
      if (next == kNoSite || d < best) {
        next = r;
        best = d;
      }
    }
    if (next == kNoSite) {
      f.available = false;
      ++losses_.unavailable_files;
      continue;
    }
    f.home = next;
    if (f.policy.geo_sync) {
      // Re-pick the sync target among the remaining replicas.
      f.sync_target = kNoSite;
      double nearest = 0;
      for (const SiteId r : f.replicas) {
        if (r == next || !sites_[r]->alive()) continue;
        const double d = DistanceKm(sites_[next]->location(),
                                    sites_[r]->location());
        if (f.sync_target == kNoSite || d < nearest) {
          f.sync_target = r;
          nearest = d;
        }
      }
    }
  }
}

}  // namespace nlss::geo
