#include "meta/namespace.h"

#include <utility>

#include "check/invariant.h"

namespace nlss::meta {

const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not_found";
    case Status::kExists: return "exists";
    case Status::kNotDirectory: return "not_directory";
    case Status::kIsDirectory: return "is_directory";
    case Status::kNotEmpty: return "not_empty";
    case Status::kInvalidArgument: return "invalid_argument";
  }
  return "?";
}

Namespace::Namespace() { dirs_[kRootDir].id = kRootDir; }

std::vector<std::string> Namespace::SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (const char c : path) {
    if (c == '/') {
      if (!cur.empty()) parts.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) parts.push_back(std::move(cur));
  return parts;
}

const Directory* Namespace::Find(DirId dir) const {
  const auto it = dirs_.find(dir);
  return it == dirs_.end() ? nullptr : &it->second;
}

Directory* Namespace::FindMutable(DirId dir) {
  const auto it = dirs_.find(dir);
  return it == dirs_.end() ? nullptr : &it->second;
}

std::uint64_t Namespace::Version(DirId dir) const {
  const Directory* d = Find(dir);
  return d == nullptr ? 0 : d->version;
}

std::uint64_t Namespace::BumpVersion(DirId dir) {
  Directory& d = dirs_.at(dir);
  NLSS_INVARIANT(kMeta, d.version != ~std::uint64_t{0},
                 "directory %llu version would wrap",
                 static_cast<unsigned long long>(dir));
  return ++d.version;
}

// --- The path walk -----------------------------------------------------------

Status Namespace::Lookup(DirId dir, const std::string& name, Dentry* out,
                         std::uint64_t* version) const {
  const Directory* d = Find(dir);
  if (version != nullptr) *version = d == nullptr ? 0 : d->version;
  if (d == nullptr) return Status::kNotFound;
  const Dentry* e = d->entries.Find(name);
  if (e == nullptr) return Status::kNotFound;
  *out = *e;
  return Status::kOk;
}

Status Namespace::Walk(const std::vector<std::string>& parts, std::size_t n,
                       DirId* dir) const {
  DirId cur = kRootDir;
  for (std::size_t i = 0; i < n; ++i) {
    Dentry d;
    const Status st = Lookup(cur, parts[i], &d);
    if (st != Status::kOk) return st;
    if (!d.is_dir) return Status::kNotDirectory;
    cur = d.ino;
  }
  *dir = cur;
  return Status::kOk;
}

Status Namespace::Resolve(const std::string& path, Dentry* out) const {
  const std::vector<std::string> parts = SplitPath(path);
  if (parts.empty()) {
    *out = Dentry{kRootDir, true};
    return Status::kOk;
  }
  DirId parent = kRootDir;
  const Status st = Walk(parts, parts.size() - 1, &parent);
  return st == Status::kOk ? Lookup(parent, parts.back(), out) : st;
}

// --- The mutation rules ------------------------------------------------------

Status Namespace::Insert(DirId parent, const std::string& leaf, bool is_dir,
                         Change* change) {
  Directory* p = FindMutable(parent);
  if (p == nullptr) return Status::kNotFound;
  if (p->entries.Find(leaf) != nullptr) return Status::kExists;
  const Ino ino = next_ino_++;
  p->entries.Insert(leaf, Dentry{ino, is_dir});
  if (is_dir) {
    Directory& d = dirs_[ino];
    d.id = ino;
    d.parent = parent;
  }
  *change = Change{ino, {parent, 0}, 0};
  return Status::kOk;
}

Status Namespace::Mkdir(DirId parent, const std::string& leaf,
                        Change* change) {
  return Insert(parent, leaf, /*is_dir=*/true, change);
}

Status Namespace::Create(DirId parent, const std::string& leaf,
                         Change* change) {
  return Insert(parent, leaf, /*is_dir=*/false, change);
}

Status Namespace::Unlink(DirId parent, const std::string& leaf,
                         Change* change) {
  Directory* p = FindMutable(parent);
  if (p == nullptr) return Status::kNotFound;
  const Dentry* e = p->entries.Find(leaf);
  if (e == nullptr) return Status::kNotFound;
  if (e->is_dir) return Status::kIsDirectory;
  *change = Change{e->ino, {parent, 0}, 0};
  p->entries.Erase(leaf);
  return Status::kOk;
}

Status Namespace::Rmdir(DirId parent, const std::string& leaf,
                        Change* change) {
  Directory* p = FindMutable(parent);
  if (p == nullptr) return Status::kNotFound;
  const Dentry* e = p->entries.Find(leaf);
  if (e == nullptr) return Status::kNotFound;
  if (!e->is_dir) return Status::kNotDirectory;
  const DirId victim = e->ino;
  const Directory* v = Find(victim);
  if (v != nullptr && !v->entries.empty()) return Status::kNotEmpty;
  p->entries.Erase(leaf);
  dirs_.erase(victim);
  *change = Change{victim, {parent, 0}, victim};
  return Status::kOk;
}

Status Namespace::Rename(DirId from_parent, const std::string& from_leaf,
                         DirId to_parent, const std::string& to_leaf,
                         Change* change) {
  Directory* fp = FindMutable(from_parent);
  Directory* tp = FindMutable(to_parent);
  if (fp == nullptr || tp == nullptr) return Status::kNotFound;
  const Dentry* e = fp->entries.Find(from_leaf);
  if (e == nullptr) return Status::kNotFound;
  if (from_parent == to_parent && from_leaf == to_leaf) {
    *change = Change{e->ino, {}, 0};  // no-op: nothing touched
    return Status::kOk;
  }
  if (tp->entries.Find(to_leaf) != nullptr) return Status::kExists;
  const Dentry moved = *e;
  if (moved.is_dir) {
    // A directory moved under itself would leave its subtree a cycle
    // unreachable from the root.
    for (const Directory* a = tp; a != nullptr; a = Find(a->parent)) {
      if (a->id == moved.ino) return Status::kInvalidArgument;
    }
  }
  fp->entries.Erase(from_leaf);
  tp->entries.Insert(to_leaf, moved);
  if (moved.is_dir) {
    if (Directory* md = FindMutable(moved.ino)) md->parent = to_parent;
  }
  *change =
      Change{moved.ino, {from_parent, tp != fp ? to_parent : DirId{0}}, 0};
  return Status::kOk;
}

Status Namespace::ApplyAt(const std::string& path, Rule rule,
                          Change* change) {
  const std::vector<std::string> parts = SplitPath(path);
  if (parts.empty()) return Status::kInvalidArgument;
  DirId parent = kRootDir;
  const Status st = Walk(parts, parts.size() - 1, &parent);
  if (st != Status::kOk) return st;
  Change unused;
  return (this->*rule)(parent, parts.back(),
                       change == nullptr ? &unused : change);
}

Status Namespace::RenamePath(const std::string& from, const std::string& to,
                             Change* change) {
  const std::vector<std::string> src = SplitPath(from);
  const std::vector<std::string> dst = SplitPath(to);
  if (src.empty() || dst.empty()) return Status::kInvalidArgument;
  DirId from_parent = kRootDir;
  DirId to_parent = kRootDir;
  Status st = Walk(src, src.size() - 1, &from_parent);
  if (st == Status::kOk) st = Walk(dst, dst.size() - 1, &to_parent);
  if (st != Status::kOk) return st;
  Change unused;
  return Rename(from_parent, src.back(), to_parent, dst.back(),
                change == nullptr ? &unused : change);
}

}  // namespace nlss::meta
