// The namespace core: one directory table, one inode allocator, one path
// walk and one set of mutation rules (mkdir/create/unlink/rmdir/rename).
//
// It is synchronous and knows nothing of time, shards or coherence.  Its
// two users apply the same rules at different speeds: meta::MetaService
// runs each rule inside a DES-timed shard visit and pushes the resulting
// version bumps to host dentry caches; fs::FileSystem runs them inline
// (controller-local metadata) and keeps only per-file attributes keyed by
// the inode numbers allocated here.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "meta/btree.h"

namespace nlss::meta {

/// Directories' inode number is their DirId.
using DirId = Ino;
inline constexpr DirId kRootDir = 1;

enum class Status : std::uint8_t {
  kOk,
  kNotFound,
  kExists,
  kNotDirectory,
  kIsDirectory,
  kNotEmpty,
  kInvalidArgument,
};
const char* StatusName(Status s);

/// A directory: ordered dentry index + a version stamp bumped on every
/// entry mutation.  The version is the coherence token host dentry caches
/// validate against — a cached entry is valid iff its recorded parent
/// version still matches.
struct Directory {
  DirId id = 0;
  DirId parent = 0;
  std::uint64_t version = 1;
  DentryIndex entries;
};

/// What a successful rule did, for callers that keep state derived from
/// the namespace: the inode it created or removed, the directories whose
/// entries changed (in order; 0 = unused slot) and a directory it deleted.
struct Change {
  Ino ino = 0;
  std::array<DirId, 2> touched{};
  DirId removed_dir = 0;
};

class Namespace {
 public:
  /// A mutation rule applied at an already-resolved parent and leaf.
  using Rule = Status (Namespace::*)(DirId parent, const std::string& leaf,
                                     Change* change);

  Namespace();

  /// "/a//b/" -> {"a", "b"}; "/" -> {}.
  static std::vector<std::string> SplitPath(const std::string& path);

  const Directory* Find(DirId dir) const;
  /// Authoritative version of a directory (0 when it does not exist).
  std::uint64_t Version(DirId dir) const;
  /// Bump `dir`'s version (it must exist); returns the new version.
  std::uint64_t BumpVersion(DirId dir);
  const std::map<DirId, Directory>& dirs() const { return dirs_; }

  // --- The path walk ---------------------------------------------------------
  /// One step: `name` in `dir`.  kNotFound when either is missing.  When
  /// `version` is given it receives `dir`'s version (0 if `dir` is gone).
  Status Lookup(DirId dir, const std::string& name, Dentry* out,
                std::uint64_t* version = nullptr) const;
  /// Walk the first `n` components of `parts` from the root; every one must
  /// be a directory (kNotDirectory otherwise).
  Status Walk(const std::vector<std::string>& parts, std::size_t n,
              DirId* dir) const;
  /// Whole-path resolve; "/" is the root directory.
  Status Resolve(const std::string& path, Dentry* out) const;

  // --- The mutation rules ----------------------------------------------------
  Status Mkdir(DirId parent, const std::string& leaf, Change* change);
  Status Create(DirId parent, const std::string& leaf, Change* change);
  Status Unlink(DirId parent, const std::string& leaf, Change* change);
  Status Rmdir(DirId parent, const std::string& leaf, Change* change);
  /// Renaming an entry onto itself is a no-op kOk; moving a directory into
  /// its own subtree is kInvalidArgument.
  Status Rename(DirId from_parent, const std::string& from_leaf,
                DirId to_parent, const std::string& to_leaf, Change* change);

  /// Resolve `path` to its parent and leaf, then apply `rule` there ("/"
  /// has no leaf: kInvalidArgument).
  Status ApplyAt(const std::string& path, Rule rule, Change* change);
  Status RenamePath(const std::string& from, const std::string& to,
                    Change* change);

 private:
  Directory* FindMutable(DirId dir);
  Status Insert(DirId parent, const std::string& leaf, bool is_dir,
                Change* change);

  std::map<DirId, Directory> dirs_;  // ordered: deterministic iteration
  Ino next_ino_ = kRootDir + 1;
};

}  // namespace nlss::meta
