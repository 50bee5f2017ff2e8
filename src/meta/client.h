// Host-side dentry / path-resolution cache with version-stamped coherence.
//
// Each host::Initiator owns one Client.  A resolve first consults the
// local cache: a full-path hit is served after `local_hit_ns` (no shard
// visit at all — this is what lets a 32-host storm keep hammering "/dN"
// components without serializing on the root directory's shard); a miss
// walks from the deepest cached ancestor, one MetaService::LookupStep per
// remaining component, caching every component it learns.
//
// Coherence: a cached path records the full chain of (directory, version)
// pairs its resolution read through — not just the leaf's parent — because
// renaming a directory invalidates every path beneath it, and those deeper
// paths never touched the renamed entry's own parent twice.  Mutations
// push OnDirectoryInvalidate(dir, version) synchronously at apply time,
// dropping every cached path whose chain includes `dir`.  Because a cache
// hit is *scheduled* (served local_hit_ns later), a mutation can land
// between hit and serve — so the entry is re-validated when the hit timer
// fires and falls back to a fresh walk if it was dropped in the window.
// Net effect: no stale positive entry is ever served, cross-checked by an
// NLSS_INVARIANT(kMeta, ...) against the authoritative directory versions
// on every served hit.
//
// Storage: every resolve, insert, touch and invalidation is O(1) in the
// number of cached entries, and no string is compared beyond one hashed
// lookup per probe.
//  - Entry table: each entry lives once, in a node-stable hash table keyed
//    by the normalized path ("/a/b"); everything else holds entry pointers.
//  - Coherence index: chain directory -> the entries whose chain reads
//    through it.  Every chain link remembers its slot in that directory's
//    row, so indexing and unindexing an entry are swap-and-pop.
//  - Recency list: a doubly linked list threaded through the entries,
//    newest first; a touch moves an entry to the front and LRU eviction
//    takes the back, the least recently inserted or touched entry.
// Hash iteration order never reaches a counter or an event: invalidation
// drops whole rows (removal order changes no state), eviction follows the
// recency list, and lookups are by key.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "meta/service.h"

namespace nlss::meta {

struct ClientConfig {
  /// Max cached entries (deterministic LRU eviction).  0 disables the
  /// cache entirely: every resolve walks the service from the root.
  std::size_t capacity = 4096;
  /// Service time of a full-path cache hit (host-local lookup).
  sim::Tick local_hit_ns = 400;
  /// Root delegation (E18a): hold a version-stamped full copy of "/" and
  /// serve cold walks' first component locally instead of serializing
  /// every walk on the root directory's shard.  The copy is re-validated
  /// against the authoritative root version on every use and dropped on
  /// root invalidation, so it can never serve a stale entry.
  bool root_delegation = true;
};

struct ClientStats {
  std::uint64_t resolves = 0;
  std::uint64_t full_hits = 0;     // whole path served from cache
  std::uint64_t partial_hits = 0;  // walk started from a cached ancestor
  std::uint64_t misses = 0;        // walk started from the root
  std::uint64_t steps = 0;         // LookupSteps issued to the service
  std::uint64_t invalidations = 0;     // OnDirectoryInvalidate deliveries
  std::uint64_t dropped_entries = 0;   // entries removed by invalidation
  std::uint64_t evictions = 0;         // entries removed by LRU pressure
  /// Hits that lost the hit-to-serve race against a mutation and fell
  /// back to a service walk (counted in addition to the full_hit).
  std::uint64_t revalidation_fallbacks = 0;
  // --- Root delegation (E18a) ---------------------------------------------
  std::uint64_t delegation_grants = 0;  // root copies fetched
  std::uint64_t delegation_hits = 0;    // root steps served from the copy
  std::uint64_t delegation_joins = 0;   // walks that joined a grant fetch
  std::uint64_t delegation_drops = 0;   // copies dropped (root changed)
};

class Client {
 public:
  Client(MetaService& service, std::string name, ClientConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Resolve `path` to its dentry, through the cache.
  void Resolve(const std::string& path, MetaService::ResolveCallback cb,
               obs::TraceContext ctx = {});

  /// Coherence push from the service: `dir`'s contents changed (its
  /// version is now `version`; 0 = directory removed).  Drops every
  /// cached path whose resolution read through `dir`.
  void OnDirectoryInvalidate(DirId dir, std::uint64_t version);

  const std::string& name() const { return name_; }
  const ClientStats& stats() const { return stats_; }
  const ClientConfig& config() const { return config_; }
  std::size_t cached_entries() const { return cache_.size(); }
  /// Fraction of resolves served entirely from cache.
  double HitRate() const {
    return stats_.resolves == 0
               ? 0.0
               : static_cast<double>(stats_.full_hits) /
                     static_cast<double>(stats_.resolves);
  }

 private:
  /// One (directory, version) pair a resolution read through.  `slot` is
  /// the owning entry's position in by_dir_[dir] while it is cached.
  struct Link {
    DirId dir = 0;
    std::uint64_t version = 0;
    std::uint32_t slot = 0;
  };
  struct Entry {
    const std::string* path = nullptr;  // its key in cache_
    Dentry dentry;
    /// Every directory the resolution read through, root-first;
    /// chain.back().dir is the leaf's parent directory.
    std::vector<Link> chain;
    Entry* newer = nullptr;  // recency list neighbours
    Entry* older = nullptr;
  };
  /// One resolve's state, shared by its hit timer and every walk step.
  struct Walk;
  /// Transparent string hash: probes take std::string_view prefixes of a
  /// walk's normalized path without building a key string.  Deliberately
  /// not noexcept: libstdc++ then stores each node's hash code, so a probe
  /// compares codes before strings and a rehash never re-hashes a key.
  struct PathHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Start a service walk: from the deepest cached ancestor when one
  /// exists, from the root otherwise.
  void BeginWalk(std::shared_ptr<Walk> w);
  /// Walk components [next, end) from `dir`; w->chain holds the chain so
  /// far.
  void WalkFrom(std::shared_ptr<Walk> w, std::size_t next, DirId dir);
  /// Record the step that resolved component `next` (read in `dir` at
  /// `version`), then finish the walk or continue it below `d`.
  void Learned(std::shared_ptr<Walk> w, std::size_t next, DirId dir,
               std::uint64_t version, Dentry d);
  /// Serve a root-directory step from the delegation copy (fetching or
  /// joining a grant first when needed).  Returns false when delegation is
  /// off/unavailable and the caller should issue a plain LookupStep.
  bool TryRootDelegation(std::shared_ptr<Walk> w, std::size_t next);
  void DropRootGrant();
  void InsertEntry(std::string_view path, Dentry dentry,
                   const std::vector<Link>& chain);
  void RemoveEntry(Entry& entry, std::uint64_t* counter);
  void Touch(Entry& entry);
  void Detach(Entry& entry);  // off the recency list
  /// Race-detector key for this client's cached state about `dir`: each
  /// host cache is independent state, so the key is salted per client
  /// (deterministically, from the client's name).
  std::uint64_t RaceKey(DirId dir) const;

  MetaService& service_;
  std::string name_;
  ClientConfig config_;
  const std::uint64_t race_salt_;  // RaceKey's per-client salt
  std::unordered_map<std::string, Entry, PathHash, std::equal_to<>> cache_;
  // Chain directory -> the entries whose chain reads through it.
  std::unordered_map<DirId, std::vector<Entry*>> by_dir_;
  Entry* newest_ = nullptr;  // recency list front
  Entry* oldest_ = nullptr;  // recency list back: the next LRU victim
  // Root delegation state: a full, version-stamped copy of "/".
  bool root_grant_valid_ = false;
  bool root_grant_pending_ = false;
  bool root_grant_broken_ = false;  // fetch failed: stop re-trying forever
  MetaService::DirectoryCopy root_copy_;
  std::uint64_t root_version_ = 0;
  std::vector<std::function<void()>> root_grant_waiters_;
  ClientStats stats_;
};

}  // namespace nlss::meta
