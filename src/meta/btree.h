// Ordered dentry index: an in-memory B-tree over directory entries.
//
// Directories in the original seed were flat hash-ish maps; a metadata
// storm wants ordered listing, cheap range scans ("give me the next 1000
// entries after X" for paginated readdir), and cache-friendly nodes.  This
// is a ScaleStore-BTree-inspired ordered index specialised for dentries:
// string keys, small fixed-fanout nodes, split-on-insert, and
// collapse-empty-nodes-on-erase (directory churn is insert/erase heavy but
// rarely leaves a node exactly half-full for long, so classic borrow/merge
// rebalancing buys little here — Validate() checks ordering and uniform
// depth, not minimum occupancy).
//
// Separator invariant (looser than the textbook, simpler to maintain, and
// exactly as correct): for an inner node, keys[i] with i >= 1 satisfies
//   max(subtree i-1) < keys[i] <= min(subtree i)
// keys[0] is only a routing hint (descents clamp to child 0), so erasing a
// subtree minimum never has to rewrite ancestors.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace nlss::meta {

/// Inode number in the sharded namespace (directories' ino is their DirId).
using Ino = std::uint64_t;

struct Dentry {
  Ino ino = 0;
  bool is_dir = false;
};

class DentryIndex {
 public:
  DentryIndex();
  ~DentryIndex();
  DentryIndex(DentryIndex&&) noexcept;
  DentryIndex& operator=(DentryIndex&&) noexcept;
  DentryIndex(const DentryIndex&) = delete;
  DentryIndex& operator=(const DentryIndex&) = delete;

  /// Insert `name` -> `dentry`; false (and no change) when the name exists.
  bool Insert(const std::string& name, const Dentry& dentry);
  /// Remove `name`; false when absent.
  bool Erase(const std::string& name);
  const Dentry* Find(const std::string& name) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// In-order visit of every entry (lexicographic by name).
  void ForEach(
      const std::function<void(const std::string&, const Dentry&)>& fn) const;

  /// Ordered range scan: up to `limit` entries with name >= `from`
  /// (lexicographic).  limit == 0 means no bound.
  std::vector<std::pair<std::string, Dentry>> Scan(const std::string& from,
                                                   std::size_t limit) const;

  /// Structural check for tests: sorted keys, separator invariant, uniform
  /// leaf depth, size consistency.
  bool Validate() const;

 private:
  struct Node;
  /// Result of a recursive insert: the right sibling produced by a split
  /// (null when no split happened at this level).
  struct SplitResult {
    std::unique_ptr<Node> right;
    std::string right_min;
    bool inserted = false;
  };

  SplitResult InsertRec(Node* node, const std::string& name,
                        const Dentry& dentry);
  /// Returns true when the entry was erased; `*now_empty` reports whether
  /// `node` emptied out (caller unlinks it).
  bool EraseRec(Node* node, const std::string& name, bool* now_empty);

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace nlss::meta
