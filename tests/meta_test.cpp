// Sharded metadata service (E18): ordered dentry index vs a reference
// model, shard-map routing determinism + rebalance, ordered listing /
// range scans, the host dentry cache's coherence under rename/unlink
// racing a cached resolve, metadata ops under QoS admission, the mgmt
// /meta report, and crash-mid-storm two-run digest determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant.h"
#include "controller/system.h"
#include "host/initiator.h"
#include "meta/btree.h"
#include "meta/client.h"
#include "meta/service.h"
#include "mgmt/admin_http.h"
#include "net/fabric.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "security/auth.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "workload/workload.h"

namespace nlss::meta {
namespace {

/// Deterministic splitmix64 step — seeded key streams for the index model
/// test without touching any global RNG.
std::uint64_t Mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Ordered dentry index vs std::map reference model ------------------------

TEST(DentryIndex, MatchesMapReferenceModel) {
  DentryIndex index;
  std::map<std::string, Dentry> model;
  std::uint64_t rng = 0xE18;

  for (int round = 0; round < 4000; ++round) {
    const std::uint64_t r = Mix(rng);
    const std::string name = "f" + std::to_string(r % 500);
    if ((r >> 32) % 3 == 0) {
      // Erase: both sides must agree on presence.
      EXPECT_EQ(index.Erase(name), model.erase(name) > 0) << name;
    } else {
      Dentry d{/*ino=*/r | 1, /*is_dir=*/(r & 2) != 0};
      const bool inserted = model.emplace(name, d).second;
      EXPECT_EQ(index.Insert(name, d), inserted) << name;
    }
    if (round % 512 == 0) {
      ASSERT_TRUE(index.Validate());
    }
  }

  ASSERT_TRUE(index.Validate());
  ASSERT_EQ(index.size(), model.size());

  // Point lookups agree, including misses.
  for (int i = 0; i < 500; ++i) {
    const std::string name = "f" + std::to_string(i);
    const Dentry* got = index.Find(name);
    const auto it = model.find(name);
    ASSERT_EQ(got != nullptr, it != model.end()) << name;
    if (got != nullptr) {
      EXPECT_EQ(got->ino, it->second.ino);
      EXPECT_EQ(got->is_dir, it->second.is_dir);
    }
  }

  // ForEach visits exactly the model's entries in lexicographic order.
  std::vector<std::string> walked;
  index.ForEach([&](const std::string& n, const Dentry& d) {
    walked.push_back(n);
    EXPECT_EQ(d.ino, model.at(n).ino);
  });
  std::vector<std::string> expect;
  for (const auto& [n, d] : model) expect.push_back(n);
  EXPECT_EQ(walked, expect);

  // Range scans equal the sorted reference slice, at several cursors.
  for (const char* from : {"", "f0", "f25", "f333", "f499", "zzz"}) {
    const auto got = index.Scan(from, 7);
    std::vector<std::string> want;
    for (auto it = model.lower_bound(from);
         it != model.end() && want.size() < 7; ++it) {
      want.push_back(it->first);
    }
    ASSERT_EQ(got.size(), want.size()) << "from=" << from;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i]) << "from=" << from;
    }
  }
  // limit == 0: the whole tail.
  EXPECT_EQ(index.Scan("", 0).size(), model.size());

  // Drain completely; the empty tree must still validate.
  for (const auto& [n, d] : model) EXPECT_TRUE(index.Erase(n));
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.Validate());
}

// --- Shard-map routing -------------------------------------------------------

TEST(ShardMap, RoutingIsDeterministicAcrossInstances) {
  sim::Engine engine_a;
  sim::Engine engine_b;
  ServiceConfig cfg;
  cfg.shards = 8;
  MetaService a(engine_a, cfg);
  MetaService b(engine_b, cfg);
  for (std::uint32_t d = 0; d < 64; ++d) {
    const std::string dir = "/d" + std::to_string(d);
    ASSERT_EQ(a.BootstrapMkdir(dir), Status::kOk);
    ASSERT_EQ(b.BootstrapMkdir(dir), Status::kOk);
  }
  bool spread = false;
  for (DirId id = kRootDir; id <= kRootDir + 64; ++id) {
    ASSERT_EQ(a.ShardOf(id), b.ShardOf(id)) << "dir " << id;
    ASSERT_LT(a.ShardOf(id), cfg.shards);
    if (a.ShardOf(id) != a.ShardOf(kRootDir)) spread = true;
  }
  EXPECT_TRUE(spread) << "the hash must not pile every directory on one shard";
}

TEST(ShardMap, MoveDirectoryRebalancesRoutingAndRecord) {
  sim::Engine engine;
  ServiceConfig cfg;
  cfg.shards = 4;
  MetaService service(engine, cfg);
  ASSERT_EQ(service.BootstrapMkdir("/proj"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/proj/data"), Status::kOk);

  // Find /proj's DirId through a resolve.
  DirId proj = 0;
  service.Resolve("/proj", [&](Status st, Dentry d) {
    ASSERT_EQ(st, Status::kOk);
    ASSERT_TRUE(d.is_dir);
    proj = d.ino;
  });
  engine.Run();
  ASSERT_NE(proj, 0u);

  const ShardId before = service.ShardOf(proj);
  const ShardId target = (before + 1) % cfg.shards;
  EXPECT_EQ(service.MoveDirectory(proj, target), Status::kOk);
  EXPECT_EQ(service.ShardOf(proj), target);
  EXPECT_EQ(service.stats().moved_dirs, 1u);

  // The moved directory still serves lookups from its new shard.
  Status st{};
  service.Resolve("/proj/data", [&](Status s, Dentry) { st = s; });
  engine.Run();
  EXPECT_EQ(st, Status::kOk);
  EXPECT_GT(service.shard(target).ops(), 0u);
}

/// Per-shard directory counts as both reports show them: the admin
/// `/meta` "dirs" fields and the `nlss_meta_shard_dirs` gauges.
struct ShardDirCounts {
  std::vector<std::uint64_t> admin;
  std::vector<std::uint64_t> gauge;
};

ShardDirCounts ReadShardDirCounts(mgmt::AdminHttp& admin,
                                  const std::string& token,
                                  const obs::Hub& hub, std::uint32_t shards) {
  ShardDirCounts out;
  const auto r = admin.Handle("GET /meta HTTP/1.0\r\nAuthorization: " +
                              token + "\r\n\r\n");
  const std::string body(r.body.begin(), r.body.end());
  for (std::size_t at = body.find("\"dirs\":"); at != std::string::npos;
       at = body.find("\"dirs\":", at + 1)) {
    out.admin.push_back(std::stoull(body.substr(at + 7)));
  }
  const std::string text = hub.metrics().PrometheusText();
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::string key =
        "nlss_meta_shard_dirs{shard=\"" + std::to_string(s) + "\"} ";
    const std::size_t at = text.find(key);
    if (at != std::string::npos) {
      out.gauge.push_back(std::stoull(text.substr(at + key.size())));
    }
  }
  return out;
}

TEST(ShardMap, PerShardDirCountsFollowTheNamespace) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig sc;
  sc.disk_profile.capacity_blocks = 16 * 1024;
  controller::StorageSystem system(engine, fabric, sc);
  crypto::KeyStore keys(std::string_view("m"));
  security::AuthService auth(engine, keys);
  security::AuditLog audit(engine);
  mgmt::AlertManager alerts(engine);
  auth.AddUser("root", "pw", {"admin"});
  mgmt::AdminHttp admin(system, auth, alerts, audit);
  const auto token = *auth.Login("root", "pw");
  obs::Hub hub(engine);

  ServiceConfig cfg;
  cfg.shards = 4;
  MetaService service(engine, cfg);
  service.AttachObs(&hub);
  admin.AttachMeta(&service);

  // Both reports agree shard by shard; returns the counts.
  const auto counts = [&]() {
    const ShardDirCounts c =
        ReadShardDirCounts(admin, token, hub, cfg.shards);
    EXPECT_EQ(c.admin.size(), cfg.shards);
    EXPECT_EQ(c.admin, c.gauge);
    return c.admin;
  };
  const auto total = [&]() {
    std::uint64_t sum = 0;
    for (const std::uint64_t n : counts()) sum += n;
    return sum;
  };

  EXPECT_EQ(total(), 1u);  // the root alone
  for (int d = 0; d < 12; ++d) {
    ASSERT_EQ(service.BootstrapMkdir("/d" + std::to_string(d)), Status::kOk);
  }
  ASSERT_EQ(service.BootstrapCreate("/d0/file"), Status::kOk);
  EXPECT_EQ(total(), 13u);  // files are not directories

  Status st = Status::kNotFound;
  service.Mkdir("/d0/sub", [&](Status s) { st = s; });
  engine.Run();
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(total(), 14u);
  service.Rmdir("/d1", [&](Status s) { st = s; });
  engine.Run();
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(total(), 13u);

  // A moved directory counts on its target shard, not its old one.
  DirId d2 = 0;
  service.Resolve("/d2", [&](Status s, Dentry d) {
    ASSERT_EQ(s, Status::kOk);
    d2 = d.ino;
  });
  engine.Run();
  const ShardId source = service.ShardOf(d2);
  const ShardId target = (source + 1) % cfg.shards;
  const std::vector<std::uint64_t> before = counts();
  ASSERT_EQ(service.MoveDirectory(d2, target), Status::kOk);
  std::vector<std::uint64_t> after = counts();
  ASSERT_EQ(after.size(), cfg.shards);
  EXPECT_EQ(after[source], before[source] - 1);
  EXPECT_EQ(after[target], before[target] + 1);
  EXPECT_EQ(total(), 13u);

  // Removing the moved directory drops it from its target shard.
  service.Rmdir("/d2", [&](Status s) { st = s; });
  engine.Run();
  ASSERT_EQ(st, Status::kOk);
  after = counts();
  EXPECT_EQ(after[target], before[target]);
  EXPECT_EQ(total(), 12u);
}

TEST(ShardMap, BladeFailureRemapsPlacementNotRouting) {
  sim::Engine engine;
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.blades = 4;
  MetaService service(engine, cfg);
  ASSERT_EQ(service.BootstrapMkdir("/a"), Status::kOk);

  std::vector<ShardId> routing;
  for (DirId id = kRootDir; id <= kRootDir + 1; ++id) {
    routing.push_back(service.ShardOf(id));
  }
  const std::uint64_t epoch0 = service.map_epoch();

  service.OnBladeDown(1);
  EXPECT_GT(service.map_epoch(), epoch0);
  EXPECT_GT(service.stats().remaps, 0u);
  for (ShardId s = 0; s < cfg.shards; ++s) {
    EXPECT_NE(service.BladeOf(s), 1u) << "shard " << s;
  }
  // Directory -> shard routing is untouched: only placement moved.
  for (DirId id = kRootDir; id <= kRootDir + 1; ++id) {
    EXPECT_EQ(service.ShardOf(id), routing[id - kRootDir]);
  }
  // Ops still complete with the blade down.
  Status st{};
  service.Resolve("/a", [&](Status s, Dentry) { st = s; });
  engine.Run();
  EXPECT_EQ(st, Status::kOk);

  const std::uint64_t epoch1 = service.map_epoch();
  service.OnBladeUp(1);
  EXPECT_GT(service.map_epoch(), epoch1);
  bool blade1_used = false;
  for (ShardId s = 0; s < cfg.shards; ++s) {
    if (service.BladeOf(s) == 1u) blade1_used = true;
  }
  EXPECT_TRUE(blade1_used) << "revived blade must take shards back";
}

// --- Ordered listing ---------------------------------------------------------

TEST(MetaService, ListAndRangeScanMatchSortedReference) {
  sim::Engine engine;
  MetaService service(engine);
  ASSERT_EQ(service.BootstrapMkdir("/dir"), Status::kOk);
  // Insert in a deliberately non-sorted order.
  std::vector<std::string> names;
  std::uint64_t rng = 7;
  for (int i = 0; i < 200; ++i) {
    names.push_back("e" + std::to_string(Mix(rng) % 100000));
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::vector<std::string> shuffled = names;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[Mix(rng) % i]);
  }
  for (const std::string& n : shuffled) {
    ASSERT_EQ(service.BootstrapCreate("/dir/" + n), Status::kOk);
  }

  std::vector<std::string> listed;
  service.List("/dir", [&](Status st, std::vector<std::string> got) {
    ASSERT_EQ(st, Status::kOk);
    listed = std::move(got);
  });
  engine.Run();
  EXPECT_EQ(listed, names) << "List must return B-tree (lexicographic) order";

  const std::string cursor = names[names.size() / 2];
  std::vector<std::string> page;
  service.RangeScan("/dir", cursor, 10,
                    [&](Status st, std::vector<std::pair<std::string, Dentry>>
                            got) {
                      ASSERT_EQ(st, Status::kOk);
                      for (auto& [n, d] : got) page.push_back(n);
                    });
  engine.Run();
  std::vector<std::string> want;
  for (auto it = std::lower_bound(names.begin(), names.end(), cursor);
       it != names.end() && want.size() < 10; ++it) {
    want.push_back(*it);
  }
  EXPECT_EQ(page, want);
}

// --- Host dentry cache coherence ---------------------------------------------

TEST(DentryCache, WarmResolveIsAFullHitServedLocally) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f"), Status::kOk);

  Status st{};
  client.Resolve("/d/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  ASSERT_EQ(st, Status::kOk);
  EXPECT_EQ(client.stats().misses, 1u);
  const sim::Tick cold_end = engine.now();

  st = Status::kNotFound;
  client.Resolve("/d/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  EXPECT_EQ(st, Status::kOk);
  EXPECT_EQ(client.stats().full_hits, 1u);
  EXPECT_EQ(engine.now() - cold_end, client.config().local_hit_ns)
      << "a warm hit must not visit any shard";
  EXPECT_DOUBLE_EQ(client.HitRate(), 0.5);
}

// The coherence race the cache must win: a rename's apply (and its
// synchronous invalidation push) lands at t0 + hop + mutate; a cached
// resolve issued just before that is a full hit whose serve timer fires
// just after — the entry is gone by serve time, so the hit must fall back
// to a fresh walk and return the new truth, never the stale dentry.
TEST(DentryCache, RenameRacingCachedResolveNeverServesStale) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  ASSERT_EQ(service.BootstrapMkdir("/d0"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d0/f"), Status::kOk);

  const std::uint64_t evals0 =
      check::Registry::Instance().evaluations(check::Subsystem::kMeta);
  const std::uint64_t viols0 =
      check::Registry::Instance().violations(check::Subsystem::kMeta);

  Status st{};
  client.Resolve("/d0/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  ASSERT_EQ(st, Status::kOk);

  // "/d0" -> "/t0" is a single-component rename: no walk steps, so the
  // mutation applies exactly hop + mutate after issue.
  const sim::Tick t0 = engine.now() + 1000;
  const sim::Tick apply =
      service.config().hop_ns + service.config().mutate_cost_ns;
  ASSERT_GT(apply, client.config().local_hit_ns)
      << "recipe needs the hit-serve window to fit before the apply";

  bool renamed = false;
  engine.ScheduleAt(t0, [&] {
    service.Rename("/d0", "/t0", [&](Status s) {
      renamed = (s == Status::kOk);
    });
  });
  // Issue the cached resolve so its local-hit timer fires just AFTER the
  // rename applies: hit taken at t0+apply-200, served at t0+apply+200.
  Status raced{};
  bool raced_done = false;
  engine.ScheduleAt(t0 + apply - client.config().local_hit_ns / 2, [&] {
    client.Resolve("/d0/f", [&](Status s, Dentry) {
      raced = s;
      raced_done = true;
    });
  });
  engine.Run();

  ASSERT_TRUE(renamed);
  ASSERT_TRUE(raced_done);
  EXPECT_EQ(raced, Status::kNotFound)
      << "the raced hit must re-walk and see the rename, not serve stale";
  EXPECT_EQ(client.stats().full_hits, 1u) << "the race WAS taken as a hit";
  EXPECT_EQ(client.stats().revalidation_fallbacks, 1u);
  EXPECT_GT(client.stats().dropped_entries, 0u);

  // The new truth resolves, and the old path stays gone.
  Status fresh{};
  client.Resolve("/t0/f", [&](Status s, Dentry) { fresh = s; });
  engine.Run();
  EXPECT_EQ(fresh, Status::kOk);

  if (check::kEnabled) {
    EXPECT_GT(check::Registry::Instance().evaluations(check::Subsystem::kMeta),
              evals0);
    EXPECT_EQ(check::Registry::Instance().violations(check::Subsystem::kMeta),
              viols0);
  }
}

TEST(DentryCache, UnlinkInvalidatesCachedEntry) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f"), Status::kOk);

  Status st{};
  client.Resolve("/d/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  ASSERT_EQ(st, Status::kOk);
  ASSERT_GT(client.cached_entries(), 0u);

  bool unlinked = false;
  service.Unlink("/d/f", [&](Status s) { unlinked = (s == Status::kOk); });
  engine.Run();
  ASSERT_TRUE(unlinked);
  EXPECT_GT(client.stats().dropped_entries, 0u)
      << "the unlink push must drop the cached path";

  st = Status::kOk;
  client.Resolve("/d/f", [&](Status s, Dentry) { st = s; });
  engine.Run();
  EXPECT_EQ(st, Status::kNotFound);

  // Recreate under the same name: the cache must serve the NEW inode.
  Ino fresh_ino = 0;
  service.Create("/d/f", [&](Status s, Ino ino) {
    ASSERT_EQ(s, Status::kOk);
    fresh_ino = ino;
  });
  engine.Run();
  Ino resolved = 0;
  client.Resolve("/d/f", [&](Status s, Dentry d) {
    ASSERT_EQ(s, Status::kOk);
    resolved = d.ino;
  });
  engine.Run();
  EXPECT_EQ(resolved, fresh_ino);
}

TEST(DentryCache, CapacityZeroBypassesAndLruEvicts) {
  sim::Engine engine;
  MetaService service(engine);
  ClientConfig off;
  off.capacity = 0;
  Client bypass(service, "off", off);
  ClientConfig tiny;
  tiny.capacity = 4;
  Client lru(service, "tiny", tiny);
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(service.BootstrapCreate("/d/f" + std::to_string(i)), Status::kOk);
  }

  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 8; ++i) {
      bypass.Resolve("/d/f" + std::to_string(i), [](Status s, Dentry) {
        EXPECT_EQ(s, Status::kOk);
      });
      lru.Resolve("/d/f" + std::to_string(i), [](Status s, Dentry) {
        EXPECT_EQ(s, Status::kOk);
      });
      engine.Run();
    }
  }
  EXPECT_EQ(bypass.cached_entries(), 0u);
  EXPECT_EQ(bypass.stats().full_hits, 0u);
  EXPECT_LE(lru.cached_entries(), tiny.capacity);
  EXPECT_GT(lru.stats().evictions, 0u);
}

// LRU victim identity: the entry evicted is the least recently inserted
// or touched one.  Root-level files cache exactly one entry each.
TEST(DentryCache, LruEvictsTheLeastRecentlyTouchedEntry) {
  sim::Engine engine;
  MetaService service(engine);
  ClientConfig tiny;
  tiny.capacity = 4;
  Client client(service, "c0", tiny);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(service.BootstrapCreate("/f" + std::to_string(i)), Status::kOk);
  }
  const auto resolve = [&](const std::string& path) {
    Status st{};
    client.Resolve(path, [&](Status s, Dentry) { st = s; });
    engine.Run();
    EXPECT_EQ(st, Status::kOk) << path;
  };
  for (int i = 0; i < 4; ++i) resolve("/f" + std::to_string(i));
  ASSERT_EQ(client.cached_entries(), 4u);
  resolve("/f0");  // touch: f1 is now the least recent
  EXPECT_EQ(client.stats().full_hits, 1u);
  resolve("/f4");
  EXPECT_EQ(client.stats().evictions, 1u);
  EXPECT_EQ(client.cached_entries(), 4u);

  resolve("/f0");
  EXPECT_EQ(client.stats().full_hits, 2u) << "f0 was touched: it survives";
  const std::uint64_t misses = client.stats().misses;
  resolve("/f1");
  EXPECT_EQ(client.stats().full_hits, 2u) << "f1 was the victim";
  EXPECT_EQ(client.stats().misses, misses + 1);
}

// Eviction churn moves entries around inside the coherence index; a later
// invalidation must still find exactly the entries that are cached.
TEST(DentryCache, EvictionChurnKeepsInvalidationExact) {
  sim::Engine engine;
  MetaService service(engine);
  ClientConfig three;
  three.capacity = 3;
  Client client(service, "c0", three);
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(service.BootstrapCreate("/f" + std::to_string(i)), Status::kOk);
  }
  for (int i = 0; i < 7; ++i) {
    client.Resolve("/f" + std::to_string(i),
                   [](Status s, Dentry) { EXPECT_EQ(s, Status::kOk); });
    engine.Run();
  }
  ASSERT_EQ(client.stats().evictions, 4u);
  ASSERT_EQ(client.cached_entries(), 3u);

  bool made = false;
  service.Mkdir("/x", [&](Status s) { made = s == Status::kOk; });
  engine.Run();
  ASSERT_TRUE(made);
  EXPECT_EQ(client.stats().dropped_entries, 3u);
  EXPECT_EQ(client.cached_entries(), 0u);
}

// Resolves /d/f0, /d/f1 and /e/g0: five entries (/d, /d/f0, /d/f1, /e,
// /e/g0), every chain through the root.  Everything is bootstrapped before
// the first resolve: a bootstrap invalidates what the client already holds.
void WarmTwoDirectories(MetaService& service, Client& client,
                        sim::Engine& engine) {
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapMkdir("/e"), Status::kOk);
  for (const char* p : {"/d/f0", "/d/f1", "/e/g0"}) {
    ASSERT_EQ(service.BootstrapCreate(p), Status::kOk);
  }
  for (const char* p : {"/d/f0", "/d/f1", "/e/g0"}) {
    Status st{};
    client.Resolve(p, [&](Status s, Dentry) { st = s; });
    engine.Run();
    ASSERT_EQ(st, Status::kOk) << p;
  }
  ASSERT_EQ(client.cached_entries(), 5u);
}

TEST(DentryCache, InvalidationDropsExactlyTheDirectorysDependents) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  WarmTwoDirectories(service, client, engine);

  // A create in /d bumps /d only: /d/f0 and /d/f1 read through it; /d
  // itself (read in the root) and the sibling /e subtree do not.
  bool created = false;
  service.Create("/d/f2", [&](Status s, Ino) { created = s == Status::kOk; });
  engine.Run();
  ASSERT_TRUE(created);
  EXPECT_EQ(client.stats().dropped_entries, 2u);
  EXPECT_EQ(client.cached_entries(), 3u);
  EXPECT_EQ(client.stats().delegation_drops, 0u);

  const ClientStats before = client.stats();
  for (const char* p : {"/d", "/e", "/e/g0"}) {
    client.Resolve(p, [](Status s, Dentry) { EXPECT_EQ(s, Status::kOk); });
    engine.Run();
  }
  EXPECT_EQ(client.stats().full_hits, before.full_hits + 3)
      << "/d, /e and /e/g0 survive the /d invalidation";
  client.Resolve("/d/f0", [](Status s, Dentry) { EXPECT_EQ(s, Status::kOk); });
  engine.Run();
  EXPECT_EQ(client.stats().partial_hits, before.partial_hits + 1)
      << "/d/f0 was dropped; its walk starts at the cached /d";
}

TEST(DentryCache, RootMutationDropsEveryEntryAndTheGrant) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  WarmTwoDirectories(service, client, engine);
  ASSERT_EQ(client.stats().delegation_grants, 1u);

  bool made = false;
  service.Mkdir("/x", [&](Status s) { made = s == Status::kOk; });
  engine.Run();
  ASSERT_TRUE(made);
  EXPECT_EQ(client.cached_entries(), 0u);
  EXPECT_EQ(client.stats().dropped_entries, 5u);
  EXPECT_EQ(client.stats().delegation_drops, 1u);

  Status st{};
  client.Resolve("/e/g0", [&](Status s, Dentry) { st = s; });
  engine.Run();
  EXPECT_EQ(st, Status::kOk);
  EXPECT_EQ(client.stats().delegation_grants, 2u)
      << "the next walk fetches a fresh root copy";
}

// A bootstrap after a client registered must reach that client: a root
// copy delegated before "/f1" existed would otherwise answer its miss
// authoritatively as not-found.
TEST(DentryCache, BootstrapInvalidatesRegisteredClients) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  const auto resolve = [&](const char* path) {
    Status st{};
    client.Resolve(path, [&](Status s, Dentry) { st = s; });
    engine.Run();
    return st;
  };
  ASSERT_EQ(service.BootstrapCreate("/f0"), Status::kOk);
  ASSERT_EQ(resolve("/f0"), Status::kOk);
  const std::uint64_t invalidations = service.stats().invalidations;
  const std::uint64_t mutations = service.stats().mutations;
  ASSERT_EQ(service.BootstrapCreate("/f1"), Status::kOk);
  EXPECT_EQ(resolve("/f1"), Status::kOk);
  EXPECT_EQ(service.stats().invalidations, invalidations + 1)
      << "one push for the root, to the one registered client";
  EXPECT_EQ(service.stats().mutations, mutations)
      << "population is not a counted mutation";
}

// Two same-tick resolves of one uncached path both walk and both insert
// every component; the second insert replaces the first, so the cache
// holds one entry per path.  Capacity 2 is exact: a double count would
// evict.
TEST(DentryCache, ReinsertingACachedPathNeitherDoubleCountsNorLeaks) {
  sim::Engine engine;
  MetaService service(engine);
  ClientConfig two;
  two.capacity = 2;
  Client client(service, "c0", two);
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f"), Status::kOk);

  Status s1{}, s2{};
  client.Resolve("/d/f", [&](Status s, Dentry) { s1 = s; });
  client.Resolve("/d/f", [&](Status s, Dentry) { s2 = s; });
  engine.Run();
  ASSERT_EQ(s1, Status::kOk);
  ASSERT_EQ(s2, Status::kOk);
  EXPECT_EQ(client.stats().misses, 2u) << "both resolves walked";
  EXPECT_EQ(client.cached_entries(), 2u);
  EXPECT_EQ(client.stats().evictions, 0u);

  // One mutation of /d drops /d/f exactly once.
  bool created = false;
  service.Create("/d/g", [&](Status s, Ino) { created = s == Status::kOk; });
  engine.Run();
  ASSERT_TRUE(created);
  EXPECT_EQ(client.stats().dropped_entries, 1u);
  EXPECT_EQ(client.cached_entries(), 1u);
}

// Root delegation (E18a): a client holds a version-stamped full copy of
// "/" and serves every walk's first component — including authoritative
// negatives — locally, instead of serializing all cold walks on the root
// directory's shard.  The copy must drop the instant the root changes.
TEST(DentryCache, RootDelegationServesRootStepsLocally) {
  sim::Engine engine;
  MetaService service(engine);
  Client client(service, "c0");
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f1"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f2"), Status::kOk);

  // Two concurrent cold resolves: the first requests the grant, the
  // second joins the in-flight fetch — exactly one DelegateDirectory.
  Status s1{}, s2{};
  client.Resolve("/d/f1", [&](Status s, Dentry) { s1 = s; });
  client.Resolve("/d/f2", [&](Status s, Dentry) { s2 = s; });
  engine.Run();
  ASSERT_EQ(s1, Status::kOk);
  ASSERT_EQ(s2, Status::kOk);
  EXPECT_EQ(client.stats().delegation_grants, 1u);
  EXPECT_EQ(client.stats().delegation_joins, 1u);
  EXPECT_EQ(client.stats().delegation_hits, 2u)
      << "both walks' root steps must serve from the copy";

  // A name absent from the root copy is an authoritative negative: no
  // shard visit (zero LookupSteps), answered in one local-hit delay.
  const std::uint64_t steps0 = client.stats().steps;
  const sim::Tick t0 = engine.now();
  Status missing{};
  client.Resolve("/nope", [&](Status s, Dentry) { missing = s; });
  engine.Run();
  EXPECT_EQ(missing, Status::kNotFound);
  EXPECT_EQ(client.stats().steps, steps0)
      << "a delegated negative must not visit any shard";
  EXPECT_EQ(engine.now() - t0, client.config().local_hit_ns);

  // Renaming a root entry bumps "/"'s version: the grant drops and the
  // next walk re-fetches a copy that holds the new truth.
  bool renamed = false;
  service.Rename("/d", "/e", [&](Status s) { renamed = (s == Status::kOk); });
  engine.Run();
  ASSERT_TRUE(renamed);
  EXPECT_EQ(client.stats().delegation_drops, 1u);

  Status fresh{}, stale{};
  client.Resolve("/e/f1", [&](Status s, Dentry) { fresh = s; });
  engine.Run();
  client.Resolve("/d/f1", [&](Status s, Dentry) { stale = s; });
  engine.Run();
  EXPECT_EQ(fresh, Status::kOk);
  EXPECT_EQ(stale, Status::kNotFound);
  EXPECT_EQ(client.stats().delegation_grants, 2u);

  // With delegation off, the same walks issue root LookupSteps.
  ClientConfig off;
  off.root_delegation = false;
  Client plain(service, "c1", off);
  Status ps{};
  plain.Resolve("/e/f1", [&](Status s, Dentry) { ps = s; });
  engine.Run();
  EXPECT_EQ(ps, Status::kOk);
  EXPECT_EQ(plain.stats().delegation_grants, 0u);
  EXPECT_EQ(plain.stats().steps, 2u);
}

// --- Metadata under QoS admission --------------------------------------------

TEST(MetaQos, RejectedOpsRetryToCompletion) {
  sim::Engine engine;
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.blades = 2;
  MetaService service(engine, cfg);
  ASSERT_EQ(service.BootstrapMkdir("/ing"), Status::kOk);

  qos::TenantRegistry registry;
  const auto tenant = registry.Register("meta-lab", qos::ServiceClass::kGold);
  qos::ClassSpec spec = registry.spec(qos::ServiceClass::kGold);
  spec.max_queue_depth = 2;  // force admission rejections under the burst
  registry.SetClassSpec(qos::ServiceClass::kGold, spec);
  qos::Scheduler qos(engine, registry, cfg.blades);
  service.AttachQos(&qos, tenant);

  std::uint64_t ok = 0;
  const int kOps = 64;
  for (int i = 0; i < kOps; ++i) {
    service.Create("/ing/c" + std::to_string(i), [&](Status s, Ino) {
      if (s == Status::kOk) ++ok;
    });
  }
  engine.Run();
  EXPECT_EQ(ok, static_cast<std::uint64_t>(kOps))
      << "every rejected op must retry until admitted";
  EXPECT_GT(service.stats().qos_rejects, 0u)
      << "the burst must actually trip admission control";
}

// --- mgmt: GET /meta ---------------------------------------------------------

TEST(MetaMgmt, AdminHttpMetaReport) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::SystemConfig sc;
  sc.disk_profile.capacity_blocks = 16 * 1024;
  sc.cache.replication = 2;
  controller::StorageSystem system(engine, fabric, sc);

  crypto::KeyStore keys(std::string_view("m"));
  security::AuthService auth(engine, keys);
  security::AuditLog audit(engine);
  mgmt::AlertManager alerts(engine);
  auth.AddUser("root", "pw", {"admin"});
  mgmt::AdminHttp admin(system, auth, alerts, audit);
  const auto token = *auth.Login("root", "pw");
  const auto get = [&](const std::string& path) {
    return admin.Handle("GET " + path + " HTTP/1.0\r\nAuthorization: " +
                        token + "\r\n\r\n");
  };

  // Without a meta service attached: 404.
  EXPECT_EQ(get("/meta").status, 404);

  MetaService service(engine);
  Client client(service, "c0");
  admin.AttachMeta(&service);
  ASSERT_EQ(service.BootstrapMkdir("/d"), Status::kOk);
  ASSERT_EQ(service.BootstrapCreate("/d/f"), Status::kOk);
  for (int i = 0; i < 2; ++i) {
    client.Resolve("/d/f", [](Status s, Dentry) { EXPECT_EQ(s, Status::kOk); });
    engine.Run();
  }

  const auto r = get("/meta");
  ASSERT_EQ(r.status, 200);
  const std::string body(r.body.begin(), r.body.end());
  EXPECT_NE(body.find("\"shards\":["), std::string::npos);
  EXPECT_NE(body.find("\"map_epoch\":"), std::string::npos);
  EXPECT_NE(body.find("\"dentry_cache\":{"), std::string::npos);
  EXPECT_NE(body.find("\"hit_rate\":0.5"), std::string::npos)
      << "one miss + one hit must report as 0.5: " << body;
  EXPECT_NE(body.find("\"clients\":1"), std::string::npos);
}

// --- Crash mid-storm: two runs, one digest -----------------------------------

std::uint32_t CrashMidStormDigest(std::uint64_t seed) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  obs::Hub hub(engine);
  controller::SystemConfig sc;
  sc.disk_profile.capacity_blocks = 16 * 1024;
  sc.cache.replication = 2;
  controller::StorageSystem system(engine, fabric, sc);
  system.AttachObs(&hub);

  const workload::FileSet fs{0, 128, 4 * util::KiB};
  const controller::VolumeId vol = system.CreateVolume("lab", fs.TotalBytes());

  ServiceConfig mc;
  mc.shards = 4;
  MetaService service(engine, mc);
  service.AttachObs(&hub);
  workload::PopulateMetaNamespace(service, fs, /*files_per_dir=*/16);

  std::vector<std::unique_ptr<host::Initiator>> owners;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<host::Initiator*> inits;
  for (std::uint32_t h = 0; h < 2; ++h) {
    host::InitiatorConfig hc;
    hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
    hc.seed = seed + h;
    owners.push_back(std::make_unique<host::Initiator>(
        system, "h" + std::to_string(h), hc));
    owners.back()->AttachObs(&hub);
    clients.push_back(
        std::make_unique<Client>(service, "mc" + std::to_string(h)));
    owners.back()->AttachMeta(clients.back().get());
    inits.push_back(owners.back().get());
  }

  // Preload the volume so storm header reads hit valid data.
  {
    util::Bytes buf(64 * util::KiB);
    for (std::uint64_t off = 0; off < fs.TotalBytes(); off += buf.size()) {
      util::FillPattern(buf, off);
      bool ok = false;
      inits[0]->Write(vol, off,
                      std::span<const std::uint8_t>(buf.data(), buf.size()),
                      [&](bool r) { ok = r; });
      engine.Run();
      EXPECT_TRUE(ok);
    }
  }

  // Fail a data blade AND remap the metadata shards mid-storm, recover
  // both while opens are still in flight.
  engine.Schedule(2 * util::kNsPerMs, [&] {
    system.FailController(1);
    service.OnBladeDown(1);
  });
  engine.Schedule(20 * util::kNsPerMs, [&] {
    system.RecoverCluster();
    service.OnBladeUp(1);
  });

  workload::StormSpec spec{fs, 2, 256};
  spec.read_bytes = 4 * util::KiB;
  const workload::Trace trace = workload::MetadataStorm(spec, seed);
  workload::RunnerConfig rc;
  rc.meta_files_per_dir = 16;
  workload::Runner runner(engine, inits, vol, rc, &hub);
  const workload::PhaseResult r = runner.Play(trace);
  EXPECT_EQ(r.ops, trace.ops.size());
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.meta_resolves, r.ops)
      << "every storm open must route through the dentry cache";
  EXPECT_GT(r.meta_hits, 0u);
  return hub.Digest();
}

TEST(MetaDeterminism, CrashMidStormDigestIdentical) {
  const std::uint64_t viols0 =
      check::Registry::Instance().violations(check::Subsystem::kMeta);
  EXPECT_EQ(CrashMidStormDigest(18), CrashMidStormDigest(18));
  EXPECT_EQ(check::Registry::Instance().violations(check::Subsystem::kMeta),
            viols0);
}

}  // namespace
}  // namespace nlss::meta
