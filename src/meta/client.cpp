#include "meta/client.h"

#include "check/invariant.h"
#include "check/race.h"

namespace nlss::meta {

namespace {
std::string JoinPath(const std::vector<std::string>& parts, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out += '/';
    out += parts[i];
  }
  return out;
}
}  // namespace

Client::Client(MetaService& service, std::string name, ClientConfig config)
    : service_(service), name_(std::move(name)), config_(config) {
  service_.RegisterClient(this);
}

Client::~Client() { service_.UnregisterClient(this); }

std::uint64_t Client::RaceKey(DirId dir) const {
  // FNV-1a of the client name: a stable per-client salt with no pointer
  // identity in it (pointer-derived keys would not be run-reproducible).
  std::uint64_t salt = 0xcbf29ce484222325ull;
  for (const char c : name_) {
    salt ^= static_cast<unsigned char>(c);
    salt *= 0x100000001b3ull;
  }
  return check::AccessKey(salt, dir);
}

void Client::Resolve(const std::string& path, MetaService::ResolveCallback cb,
                     obs::TraceContext ctx) {
  ++stats_.resolves;
  // Workloads usually resolve through the cache with no trace of their
  // own; start a kMeta root here so cached hits and client-driven walks
  // both land in per-layer breakdowns.
  if (!ctx.sampled()) {
    if (obs::Hub* hub = service_.hub(); hub != nullptr) {
      ctx = hub->tracer().StartTrace(obs::Layer::kMeta, "meta.client.resolve");
      if (ctx.sampled()) {
        cb = [cb = std::move(cb), ctx](Status st, Dentry d) {
          ctx.tracer->EndTrace(ctx, st == Status::kOk);
          cb(st, d);
        };
      }
    }
  }
  auto parts = std::make_shared<std::vector<std::string>>(
      Namespace::SplitPath(path));
  if (parts->empty()) {
    // The root needs no walk; serve it like a local hit.
    ++stats_.full_hits;
    service_.engine().Schedule(config_.local_hit_ns, [cb = std::move(cb)]() {
      cb(Status::kOk, Dentry{kRootDir, true});
    });
    return;
  }
  if (config_.capacity == 0) {
    ++stats_.misses;
    service_.Resolve(path, std::move(cb), ctx);
    return;
  }
  const std::string key = JoinPath(*parts, parts->size());
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    BeginWalk(parts, std::move(cb), ctx);
    return;
  }
  ++stats_.full_hits;
  TouchLru(key, it->second);
  // The hit is *served* local_hit_ns from now; a mutation can land in the
  // window, so re-validate at fire time and fall back to a walk if the
  // entry was invalidated under us — never serve the stale copy.
  service_.engine().Schedule(
      config_.local_hit_ns,
      [this, key, parts, cb = std::move(cb), ctx]() {
        const auto it2 = cache_.find(key);
        if (it2 == cache_.end()) {
          ++stats_.revalidation_fallbacks;
          BeginWalk(parts, cb, ctx);
          return;
        }
        for (const auto& [dir, ver] : it2->second.chain) {
          NLSS_ACCESS(kMeta, RaceKey(dir), kRead);
          const std::uint64_t now_ver = service_.DirVersion(dir);
          NLSS_INVARIANT(kMeta, now_ver == ver,
                         "stale dentry served for %s: dir %llu at v%llu, "
                         "cached v%llu",
                         key.c_str(), static_cast<unsigned long long>(dir),
                         static_cast<unsigned long long>(now_ver),
                         static_cast<unsigned long long>(ver));
          (void)now_ver;
          (void)ver;
        }
        cb(Status::kOk, it2->second.dentry);
      });
}

void Client::BeginWalk(std::shared_ptr<std::vector<std::string>> parts,
                       MetaService::ResolveCallback cb,
                       obs::TraceContext ctx) {
  std::size_t start = 0;
  DirId dir = kRootDir;
  auto chain = std::make_shared<
      std::vector<std::pair<DirId, std::uint64_t>>>();
  for (std::size_t n = parts->size() - 1; n >= 1; --n) {
    const std::string prefix = JoinPath(*parts, n);
    const auto it = cache_.find(prefix);
    if (it != cache_.end() && it->second.dentry.is_dir) {
#if NLSS_INVARIANTS_ENABLED
      for (const auto& [d, ver] : it->second.chain) {
        NLSS_ACCESS(kMeta, RaceKey(d), kRead);
      }
#endif
      start = n;
      dir = it->second.dentry.ino;
      *chain = it->second.chain;  // ancestor's chain prefixes ours
      TouchLru(prefix, it->second);
      break;
    }
  }
  if (start > 0) {
    ++stats_.partial_hits;
  } else {
    ++stats_.misses;
  }
  WalkFrom(parts, start, dir, chain, std::move(cb), ctx);
}

void Client::WalkFrom(
    std::shared_ptr<std::vector<std::string>> parts, std::size_t next,
    DirId dir,
    std::shared_ptr<std::vector<std::pair<DirId, std::uint64_t>>> chain,
    MetaService::ResolveCallback cb, obs::TraceContext ctx) {
  // E18a hot-root fix: a cold walk's first step always lands on the root
  // directory's shard, so 32 hosts missing on distinct "/dN" paths still
  // serialize there.  Serve that step from a version-stamped root copy
  // instead of a shard visit whenever the delegation grant is usable.
  if (dir == kRootDir && config_.root_delegation && config_.capacity != 0 &&
      !root_grant_broken_ &&
      TryRootDelegation(parts, next, chain, cb, ctx)) {
    return;
  }
  ++stats_.steps;
  service_.LookupStep(
      dir, (*parts)[next],
      [this, parts, next, dir, chain, cb = std::move(cb), ctx](
          Status st, Dentry d, std::uint64_t ver) {
        if (st != Status::kOk) {
          cb(st, {});
          return;
        }
        chain->emplace_back(dir, ver);
        Entry e;
        e.dentry = d;
        e.chain = *chain;
        InsertEntry(JoinPath(*parts, next + 1), std::move(e));
        if (next + 1 == parts->size()) {
          cb(Status::kOk, d);
          return;
        }
        if (!d.is_dir) {
          cb(Status::kNotDirectory, {});
          return;
        }
        WalkFrom(parts, next + 1, d.ino, chain, cb, ctx);
      },
      ctx);
}

bool Client::TryRootDelegation(
    std::shared_ptr<std::vector<std::string>> parts, std::size_t next,
    std::shared_ptr<std::vector<std::pair<DirId, std::uint64_t>>> chain,
    MetaService::ResolveCallback cb, obs::TraceContext ctx) {
  if (root_grant_pending_) {
    // A grant fetch is already in flight; join it instead of issuing a
    // second shard visit, and re-enter the walk once the copy lands.
    ++stats_.delegation_joins;
    root_grant_waiters_.push_back(
        [this, parts, next, chain, cb = std::move(cb), ctx]() {
          WalkFrom(parts, next, kRootDir, chain, cb, ctx);
        });
    return true;
  }
  if (!root_grant_valid_) {
    // No usable copy: fetch one.  The requester becomes the first waiter
    // so it pays exactly one delegation round-trip, same as a LookupStep.
    ++stats_.delegation_grants;
    root_grant_pending_ = true;
    root_grant_waiters_.push_back(
        [this, parts, next, chain, cb = std::move(cb), ctx]() {
          WalkFrom(parts, next, kRootDir, chain, cb, ctx);
        });
    service_.DelegateDirectory(
        kRootDir,
        [this](Status st, std::map<std::string, Dentry> copy,
               std::uint64_t version) {
          root_grant_pending_ = false;
          if (st == Status::kOk) {
            root_copy_ = std::move(copy);
            root_version_ = version;
            root_grant_valid_ = true;
          } else {
            // The root cannot vanish, so this never fires in practice —
            // but if it did, re-entering waiters would re-fetch forever.
            root_grant_broken_ = true;
          }
          std::vector<std::function<void()>> waiters;
          waiters.swap(root_grant_waiters_);
          for (auto& w : waiters) w();
        },
        ctx);
    return true;
  }
  // Usable copy: serve the root step locally after local_hit_ns.  Same
  // hit-to-serve race as a full-path hit: re-validate against the
  // authoritative root version at fire time, never serve a stale copy.
  ++stats_.delegation_hits;
  service_.engine().Schedule(
      config_.local_hit_ns,
      [this, parts, next, chain, cb = std::move(cb), ctx]() {
        if (!root_grant_valid_ ||
            service_.DirVersion(kRootDir) != root_version_) {
          DropRootGrant();
          ++stats_.revalidation_fallbacks;
          WalkFrom(parts, next, kRootDir, chain, cb, ctx);
          return;
        }
        const auto it = root_copy_.find((*parts)[next]);
        if (it == root_copy_.end()) {
          // The copy is complete at root_version_, so a miss in it is an
          // authoritative negative — no shard visit to confirm.
          cb(Status::kNotFound, {});
          return;
        }
        const Dentry d = it->second;
        chain->emplace_back(kRootDir, root_version_);
        Entry e;
        e.dentry = d;
        e.chain = *chain;
        InsertEntry(JoinPath(*parts, next + 1), std::move(e));
        if (next + 1 == parts->size()) {
          cb(Status::kOk, d);
          return;
        }
        if (!d.is_dir) {
          cb(Status::kNotDirectory, {});
          return;
        }
        WalkFrom(parts, next + 1, d.ino, chain, cb, ctx);
      });
  return true;
}

void Client::DropRootGrant() {
  if (!root_grant_valid_) return;
  root_grant_valid_ = false;
  root_copy_.clear();
  root_version_ = 0;
  ++stats_.delegation_drops;
}

void Client::InsertEntry(const std::string& path, Entry entry) {
  if (config_.capacity == 0) return;
  // A walk overlapping a mutation can deliver a result whose prefix went
  // stale before the reply landed; the result itself is a legal lookup
  // race, but caching it would be exactly the stale positive coherence
  // forbids.  Only cache chains that are still current.
  for (const auto& [dir, ver] : entry.chain) {
    if (service_.DirVersion(dir) != ver) return;
  }
  // Validated insert commutes with same-tick peers (distinct paths, stable
  // LRU stamps) but not with an invalidation of any chain directory: that
  // pair settles to the same cache state either way, yet the drop counters
  // — and so the digest — depend on which ran first.
#if NLSS_INVARIANTS_ENABLED
  for (const auto& [dir, ver] : entry.chain) {
    NLSS_ACCESS(kMeta, RaceKey(dir), kCommute);
  }
#endif
  RemoveEntry(path, nullptr);
  entry.lru = ++lru_clock_;
  lru_order_[entry.lru] = path;
  for (const auto& [dir, ver] : entry.chain) by_dir_[dir].insert(path);
  cache_.emplace(path, std::move(entry));
  while (cache_.size() > config_.capacity) {
    const std::string victim = lru_order_.begin()->second;
    RemoveEntry(victim, &stats_.evictions);
  }
}

void Client::RemoveEntry(const std::string& path, std::uint64_t* counter) {
  const auto it = cache_.find(path);
  if (it == cache_.end()) return;
  for (const auto& [dir, ver] : it->second.chain) {
    const auto b = by_dir_.find(dir);
    if (b != by_dir_.end()) {
      b->second.erase(path);
      if (b->second.empty()) by_dir_.erase(b);
    }
  }
  lru_order_.erase(it->second.lru);
  cache_.erase(it);
  if (counter != nullptr) ++(*counter);
}

void Client::TouchLru(const std::string& path, Entry& entry) {
  lru_order_.erase(entry.lru);
  entry.lru = ++lru_clock_;
  lru_order_[entry.lru] = path;
}

void Client::OnDirectoryInvalidate(DirId dir, std::uint64_t /*version*/) {
  NLSS_ACCESS(kMeta, RaceKey(dir), kWrite);
  ++stats_.invalidations;
  // The root copy mirrors "/" in full; any root mutation stales it.  (A
  // pending fetch is left alone — its version stamp is re-validated at
  // every use, so a copy read before the mutation can never be served.)
  if (dir == kRootDir) DropRootGrant();
  const auto it = by_dir_.find(dir);
  if (it == by_dir_.end()) return;
  const std::vector<std::string> paths(it->second.begin(), it->second.end());
  for (const std::string& p : paths) {
    RemoveEntry(p, &stats_.dropped_entries);
  }
}

}  // namespace nlss::meta
