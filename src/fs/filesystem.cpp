#include "fs/filesystem.h"

#include <algorithm>
#include <memory>

#include "util/bytes.h"
#include "util/join.h"

namespace nlss::fs {

using util::Join;

namespace {

Status FromMeta(meta::Status st) { return static_cast<Status>(st); }
static_assert(static_cast<int>(Status::kOk) ==
                  static_cast<int>(meta::Status::kOk) &&
              static_cast<int>(Status::kInvalidArgument) ==
                  static_cast<int>(meta::Status::kInvalidArgument));

/// Data ops (Write/Read/Truncate) need a regular file at `inode`.
Status FileOnly(const Inode* inode) {
  return inode == nullptr                 ? Status::kNotFound
         : inode->type != FileType::kFile ? Status::kIsDirectory
                                          : Status::kOk;
}

}  // namespace

FileSystem::FileSystem(controller::StorageSystem& system, Config config)
    : system_(system), config_(config), writes_(system.AllocWriterId()) {
  volume_ = system_.CreateVolume(config_.tenant, config_.volume_bytes);
  max_chunks_ = config_.volume_bytes / config_.chunk_bytes;
  Inode& root = inodes_[meta::kRootDir];
  root.ino = meta::kRootDir;
  root.type = FileType::kDirectory;
}

Status FileSystem::Mkdir(const std::string& path) {
  meta::Change change;
  const meta::Status st =
      ns_.ApplyAt(path, &meta::Namespace::Mkdir, &change);
  if (st == meta::Status::kOk) {
    Inode& dir = inodes_[change.ino];
    dir.ino = change.ino;
    dir.type = FileType::kDirectory;
  }
  return FromMeta(st);
}

Status FileSystem::Create(const std::string& path, const FilePolicy& policy) {
  meta::Change change;
  const meta::Status st =
      ns_.ApplyAt(path, &meta::Namespace::Create, &change);
  if (st == meta::Status::kOk) {
    Inode& file = inodes_[change.ino];
    file.ino = change.ino;
    file.policy = policy;
  }
  return FromMeta(st);
}

Status FileSystem::Unlink(const std::string& path) {
  meta::Change change;
  const meta::Status st =
      ns_.ApplyAt(path, &meta::Namespace::Unlink, &change);
  if (st == meta::Status::kOk) {
    // Release the file's chunks (physical space returns to the pool).
    for (const std::uint64_t chunk : inodes_.at(change.ino).chunks) {
      FreeChunk(chunk);
    }
    inodes_.erase(change.ino);
  }
  return FromMeta(st);
}

Status FileSystem::Rmdir(const std::string& path) {
  meta::Change change;
  const meta::Status st =
      ns_.ApplyAt(path, &meta::Namespace::Rmdir, &change);
  if (st == meta::Status::kOk) inodes_.erase(change.ino);
  return FromMeta(st);
}

Status FileSystem::Rename(const std::string& from, const std::string& to) {
  return FromMeta(ns_.RenamePath(from, to, nullptr));
}

bool FileSystem::Exists(const std::string& path) const {
  return Stat(path) != nullptr;
}

const Inode* FileSystem::Stat(const std::string& path) const {
  meta::Dentry d;
  if (ns_.Resolve(path, &d) != meta::Status::kOk) return nullptr;
  return &inodes_.at(d.ino);
}

Inode* FileSystem::Lookup(const std::string& path) {
  return const_cast<Inode*>(Stat(path));
}

std::vector<std::string> FileSystem::List(const std::string& path) const {
  std::vector<std::string> out;
  meta::Dentry d;
  if (ns_.Resolve(path, &d) != meta::Status::kOk || !d.is_dir) return out;
  const meta::Directory& dir = *ns_.Find(d.ino);
  out.reserve(dir.entries.size());
  dir.entries.ForEach([&out](const std::string& name, const meta::Dentry&) {
    out.push_back(name);
  });
  return out;
}

Status FileSystem::SetPolicy(const std::string& path,
                             const FilePolicy& policy) {
  Inode* inode = Lookup(path);
  if (inode == nullptr) return Status::kNotFound;
  inode->policy = policy;
  return Status::kOk;
}

std::uint64_t FileSystem::AllocateChunk() {
  if (!free_chunks_.empty()) {
    const std::uint64_t c = free_chunks_.back();
    free_chunks_.pop_back();
    return c;
  }
  if (next_chunk_ >= max_chunks_) return ~0ull;
  return next_chunk_++;
}

void FileSystem::FreeChunk(std::uint64_t chunk) {
  free_chunks_.push_back(chunk);
  // Return the physical extents beneath the chunk to the pool.
  const std::uint32_t bs = system_.pool().block_size();
  system_.volume(volume_).Trim(ChunkBase(chunk) / bs,
                               config_.chunk_bytes / bs, [](bool) {});
}

Status FileSystem::EnsureChunks(Inode& inode, std::uint64_t end_offset) {
  const std::uint64_t needed =
      (end_offset + config_.chunk_bytes - 1) / config_.chunk_bytes;
  while (inode.chunks.size() < needed) {
    if (config_.quota_bytes > 0 &&
        UsedBytes() + config_.chunk_bytes > config_.quota_bytes) {
      return Status::kNoSpace;  // hard quota (paper §3 automated admin)
    }
    const std::uint64_t c = AllocateChunk();
    if (c == ~0ull) return Status::kNoSpace;
    inode.chunks.push_back(c);
  }
  return Status::kOk;
}

std::vector<FileSystem::Piece> FileSystem::Split(const Inode& inode,
                                                 std::uint64_t offset,
                                                 std::uint64_t length) const {
  const std::uint32_t cb_bytes = config_.chunk_bytes;
  std::vector<Piece> pieces;
  std::uint64_t cur = offset;
  std::size_t buf = 0;
  std::uint64_t left = length;
  while (left > 0) {
    const std::uint64_t ci = cur / cb_bytes;
    const std::uint32_t in_chunk = static_cast<std::uint32_t>(cur % cb_bytes);
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, cb_bytes - in_chunk));
    pieces.push_back(Piece{ChunkBase(inode.chunks[ci]) + in_chunk, buf, n});
    cur += n;
    buf += n;
    left -= n;
  }
  return pieces;
}

void FileSystem::Write(const std::string& path, std::uint64_t offset,
                       std::span<const std::uint8_t> data, WriteCallback cb,
                       obs::TraceContext ctx) {
  Inode* inode = Lookup(path);
  Status st = FileOnly(inode);
  if (st == Status::kOk) st = EnsureChunks(*inode, offset + data.size());
  if (st != Status::kOk) {
    system_.engine().Schedule(0, [cb = std::move(cb), st] { cb(st); });
    return;
  }
  inode->size = std::max(inode->size, offset + data.size());

  // Each chunk piece rides the cache cluster with the file's replication
  // policy, entering at a balanced blade.
  const std::vector<Piece> pieces = Split(*inode, offset, data.size());
  const std::uint32_t replication = inode->policy.cache_replication;
  const std::uint8_t priority = inode->policy.cache_priority;
  const qos::TenantId tenant = inode->policy.qos_tenant;
  auto join = std::make_shared<Join>(
      static_cast<int>(pieces.size()),
      [cb = std::move(cb)](bool ok) {
        cb(ok ? Status::kOk : Status::kIoError);
      });
  for (const Piece& p : pieces) {
    const cache::ControllerId via = system_.PickController(volume_);
    const cache::WriteId wid = writes_.Next();
    system_.BladeWrite(
        via, volume_, p.vol_offset,
        std::span<const std::uint8_t>(data.data() + p.buf, p.len),
        replication, priority, tenant, wid,
        [this, join, wid](bool ok) {
          writes_.Settle(wid.seq);
          join->Arrive(ok);
        },
        ctx);
  }
}

void FileSystem::Read(const std::string& path, std::uint64_t offset,
                      std::uint64_t length, ReadCallback cb,
                      obs::TraceContext ctx) {
  const Inode* inode = Stat(path);
  const Status st = FileOnly(inode);
  if (st != Status::kOk || offset >= inode->size || length == 0) {
    system_.engine().Schedule(0, [cb = std::move(cb), st] { cb(st, {}); });
    return;
  }
  length = std::min(length, inode->size - offset);

  auto result = std::make_shared<util::Bytes>(length, 0);
  const std::vector<Piece> pieces = Split(*inode, offset, length);
  auto join = std::make_shared<Join>(
      static_cast<int>(pieces.size()),
      [result, cb = std::move(cb)](bool ok) {
        cb(ok ? Status::kOk : Status::kIoError,
           ok ? std::move(*result) : util::Bytes{});
      });
  for (const Piece& p : pieces) {
    const cache::ControllerId via = system_.PickController(volume_);
    system_.BladeRead(
        via, volume_, p.vol_offset, p.len, inode->policy.cache_priority,
        inode->policy.qos_tenant,
        [result, p, join](bool ok, util::Bytes data) {
          if (ok) {
            std::copy(data.begin(), data.end(),
                      result->begin() + static_cast<std::ptrdiff_t>(p.buf));
          }
          join->Arrive(ok);
        },
        ctx);
  }
}

void FileSystem::Truncate(const std::string& path, std::uint64_t new_size,
                          WriteCallback cb) {
  Inode* inode = Lookup(path);
  const Status st = FileOnly(inode);
  if (st != Status::kOk) {
    system_.engine().Schedule(0, [cb = std::move(cb), st] { cb(st); });
    return;
  }
  if (new_size < inode->size) {
    const std::uint64_t keep =
        (new_size + config_.chunk_bytes - 1) / config_.chunk_bytes;
    while (inode->chunks.size() > keep) {
      FreeChunk(inode->chunks.back());
      inode->chunks.pop_back();
    }
  }
  // Extension allocates nothing: chunks come lazily with the next write.
  inode->size = new_size;
  system_.engine().Schedule(0, [cb = std::move(cb)] { cb(Status::kOk); });
}

// --- Introspection ------------------------------------------------------------

std::uint64_t FileSystem::TotalFiles() const {
  std::uint64_t n = 0;
  for (const auto& [ino, node] : inodes_) {
    if (node.type == FileType::kFile) ++n;
  }
  return n;
}

std::uint64_t FileSystem::AllocatedChunks() const {
  std::uint64_t n = 0;
  for (const auto& [ino, node] : inodes_) n += node.chunks.size();
  return n;
}

}  // namespace nlss::fs
