#include "meta/client.h"

#include "check/invariant.h"
#include "check/race.h"

namespace nlss::meta {

struct Client::Walk {
  std::vector<std::string> parts;  // components, root-first
  std::string path;                // normalized: "/" + parts joined by "/"
  std::vector<Link> chain;         // directories read through so far
  MetaService::ResolveCallback cb;
  obs::TraceContext ctx;

  /// The normalized path of the first `n` components.
  std::string_view Prefix(std::size_t n) const {
    std::size_t len = 0;
    for (std::size_t i = 0; i < n; ++i) len += 1 + parts[i].size();
    return std::string_view(path).substr(0, len);
  }
};

namespace {
// FNV-1a of the client name: a stable per-client salt with no pointer
// identity in it (pointer-derived keys would not be run-reproducible).
std::uint64_t NameSalt(const std::string& name) {
  std::uint64_t salt = 0xcbf29ce484222325ull;
  for (const char c : name) {
    salt ^= static_cast<unsigned char>(c);
    salt *= 0x100000001b3ull;
  }
  return salt;
}
}  // namespace

Client::Client(MetaService& service, std::string name, ClientConfig config)
    : service_(service),
      name_(std::move(name)),
      config_(config),
      race_salt_(NameSalt(name_)) {
  service_.RegisterClient(this);
}

Client::~Client() { service_.UnregisterClient(this); }

std::uint64_t Client::RaceKey(DirId dir) const {
  return check::AccessKey(race_salt_, dir);
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
  std::vector<std::string> parts = Namespace::SplitPath(path);
  if (parts.empty()) {
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
  auto w = std::make_shared<Walk>();
  w->parts = std::move(parts);
  for (const std::string& p : w->parts) {
    w->path += '/';
    w->path += p;
  }
  w->cb = std::move(cb);
  w->ctx = ctx;
  const auto it = cache_.find(w->path);
  if (it == cache_.end()) {
    BeginWalk(std::move(w));
    return;
  }
  ++stats_.full_hits;
  Touch(it->second);
  // The hit is *served* local_hit_ns from now; a mutation can land in the
  // window, so re-validate at fire time and fall back to a walk if the
  // entry was invalidated under us — never serve the stale copy.
  service_.engine().Schedule(config_.local_hit_ns, [this, w]() {
    const auto it2 = cache_.find(w->path);
    if (it2 == cache_.end()) {
      ++stats_.revalidation_fallbacks;
      BeginWalk(w);
      return;
    }
#if NLSS_INVARIANTS_ENABLED
    for (const Link& l : it2->second.chain) {
      NLSS_ACCESS(kMeta, RaceKey(l.dir), kRead);
      const std::uint64_t now_ver = service_.DirVersion(l.dir);
      NLSS_INVARIANT(kMeta, now_ver == l.version,
                     "stale dentry served for %s: dir %llu at v%llu, "
                     "cached v%llu",
                     w->path.c_str(), static_cast<unsigned long long>(l.dir),
                     static_cast<unsigned long long>(now_ver),
                     static_cast<unsigned long long>(l.version));
    }
#endif
    w->cb(Status::kOk, it2->second.dentry);
  });
}

void Client::BeginWalk(std::shared_ptr<Walk> w) {
  std::size_t start = 0;
  DirId dir = kRootDir;
  for (std::size_t n = w->parts.size() - 1; n >= 1; --n) {
    const auto it = cache_.find(w->Prefix(n));
    if (it != cache_.end() && it->second.dentry.is_dir) {
#if NLSS_INVARIANTS_ENABLED
      for (const Link& l : it->second.chain) {
        NLSS_ACCESS(kMeta, RaceKey(l.dir), kRead);
      }
#endif
      start = n;
      dir = it->second.dentry.ino;
      w->chain = it->second.chain;  // ancestor's chain prefixes ours
      Touch(it->second);
      break;
    }
  }
  if (start > 0) {
    ++stats_.partial_hits;
  } else {
    ++stats_.misses;
  }
  WalkFrom(std::move(w), start, dir);
}

void Client::WalkFrom(std::shared_ptr<Walk> w, std::size_t next, DirId dir) {
  // E18a hot-root fix: a cold walk's first step always lands on the root
  // directory's shard, so 32 hosts missing on distinct "/dN" paths still
  // serialize there.  Serve that step from a version-stamped root copy
  // instead of a shard visit whenever the delegation grant is usable.
  if (dir == kRootDir && config_.root_delegation && config_.capacity != 0 &&
      !root_grant_broken_ && TryRootDelegation(w, next)) {
    return;
  }
  ++stats_.steps;
  service_.LookupStep(
      dir, w->parts[next],
      [this, w, next, dir](Status st, Dentry d, std::uint64_t ver) {
        if (st != Status::kOk) {
          w->cb(st, {});
          return;
        }
        Learned(w, next, dir, ver, d);
      },
      w->ctx);
}

void Client::Learned(std::shared_ptr<Walk> w, std::size_t next, DirId dir,
                     std::uint64_t version, Dentry d) {
  w->chain.push_back(Link{dir, version, 0});
  InsertEntry(w->Prefix(next + 1), d, w->chain);
  if (next + 1 == w->parts.size()) {
    w->cb(Status::kOk, d);
    return;
  }
  if (!d.is_dir) {
    w->cb(Status::kNotDirectory, {});
    return;
  }
  WalkFrom(std::move(w), next + 1, d.ino);
}

bool Client::TryRootDelegation(std::shared_ptr<Walk> w, std::size_t next) {
  if (root_grant_pending_) {
    // A grant fetch is already in flight; join it instead of issuing a
    // second shard visit, and re-enter the walk once the copy lands.
    ++stats_.delegation_joins;
    root_grant_waiters_.push_back(
        [this, w, next]() { WalkFrom(w, next, kRootDir); });
    return true;
  }
  if (!root_grant_valid_) {
    // No usable copy: fetch one.  The requester becomes the first waiter
    // so it pays exactly one delegation round-trip, same as a LookupStep.
    ++stats_.delegation_grants;
    root_grant_pending_ = true;
    root_grant_waiters_.push_back(
        [this, w, next]() { WalkFrom(w, next, kRootDir); });
    service_.DelegateDirectory(
        kRootDir,
        [this](Status st, MetaService::DirectoryCopy copy,
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
          for (auto& wake : waiters) wake();
        },
        w->ctx);
    return true;
  }
  // Usable copy: serve the root step locally after local_hit_ns.  Same
  // hit-to-serve race as a full-path hit: re-validate against the
  // authoritative root version at fire time, never serve a stale copy.
  ++stats_.delegation_hits;
  service_.engine().Schedule(config_.local_hit_ns, [this, w, next]() {
    if (!root_grant_valid_ ||
        service_.DirVersion(kRootDir) != root_version_) {
      DropRootGrant();
      ++stats_.revalidation_fallbacks;
      WalkFrom(w, next, kRootDir);
      return;
    }
    const auto it = root_copy_.find(w->parts[next]);
    if (it == root_copy_.end()) {
      // The copy is complete at root_version_, so a miss in it is an
      // authoritative negative — no shard visit to confirm.
      w->cb(Status::kNotFound, {});
      return;
    }
    Learned(w, next, kRootDir, root_version_, it->second);
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

void Client::InsertEntry(std::string_view path, Dentry dentry,
                         const std::vector<Link>& chain) {
  if (config_.capacity == 0) return;
  // A walk overlapping a mutation can deliver a result whose prefix went
  // stale before the reply landed; the result itself is a legal lookup
  // race, but caching it would be exactly the stale positive coherence
  // forbids.  Only cache chains that are still current.
  for (const Link& l : chain) {
    if (service_.DirVersion(l.dir) != l.version) return;
  }
  // Validated insert commutes with same-tick peers (distinct paths, stable
  // recency order) but not with an invalidation of any chain directory:
  // that pair settles to the same cache state either way, yet the drop
  // counters — and so the digest — depend on which ran first.
#if NLSS_INVARIANTS_ENABLED
  for (const Link& l : chain) {
    NLSS_ACCESS(kMeta, RaceKey(l.dir), kCommute);
  }
#endif
  if (const auto old = cache_.find(path); old != cache_.end()) {
    RemoveEntry(old->second, nullptr);
  }
  const auto it = cache_.try_emplace(std::string(path)).first;
  Entry& e = it->second;
  e.path = &it->first;
  e.dentry = dentry;
  e.chain = chain;
  for (Link& l : e.chain) {
    std::vector<Entry*>& row = by_dir_[l.dir];
    l.slot = static_cast<std::uint32_t>(row.size());
    row.push_back(&e);
  }
  Touch(e);
  while (cache_.size() > config_.capacity) {
    RemoveEntry(*oldest_, &stats_.evictions);
  }
}

void Client::RemoveEntry(Entry& entry, std::uint64_t* counter) {
  for (const Link& l : entry.chain) {
    // Swap-and-pop: the row's last holder takes this entry's slot.
    const auto row = by_dir_.find(l.dir);
    const auto last = static_cast<std::uint32_t>(row->second.size() - 1);
    Entry* moved = row->second[last];
    row->second[l.slot] = moved;
    for (Link& ml : moved->chain) {
      if (ml.dir == l.dir && ml.slot == last) {
        ml.slot = l.slot;
        break;
      }
    }
    row->second.pop_back();
    if (row->second.empty()) by_dir_.erase(row);
  }
  Detach(entry);
  cache_.erase(cache_.find(*entry.path));
  if (counter != nullptr) ++(*counter);
}

void Client::Detach(Entry& entry) {
  (entry.newer != nullptr ? entry.newer->older : newest_) = entry.older;
  (entry.older != nullptr ? entry.older->newer : oldest_) = entry.newer;
  entry.newer = entry.older = nullptr;
}

void Client::Touch(Entry& entry) {
  if (newest_ == &entry) return;
  if (entry.newer != nullptr) Detach(entry);  // linked: move to the front
  entry.older = newest_;
  (newest_ != nullptr ? newest_->newer : oldest_) = &entry;
  newest_ = &entry;
}

void Client::OnDirectoryInvalidate(DirId dir, std::uint64_t /*version*/) {
  NLSS_ACCESS(kMeta, RaceKey(dir), kWrite);
  ++stats_.invalidations;
  // The root copy mirrors "/" in full; any root mutation stales it.  (A
  // pending fetch is left alone — its version stamp is re-validated at
  // every use, so a copy read before the mutation can never be served.)
  if (dir == kRootDir) DropRootGrant();
  // Each removal pops the row's last holder; the last one erases the row.
  for (auto row = by_dir_.find(dir); row != by_dir_.end();
       row = by_dir_.find(dir)) {
    RemoveEntry(*row->second.back(), &stats_.dropped_entries);
  }
}

}  // namespace nlss::meta
