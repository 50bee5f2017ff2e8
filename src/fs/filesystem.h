// Parallel file system integrated on the controller blades (paper §4).
//
// The namespace is the meta::Namespace core — the same directory table and
// mutation rules the sharded metadata service applies — run inline:
// namespace ops are controller-local and synchronous, taking no simulated
// time.  This layer adds per-file attributes keyed by the core's inode
// numbers (type, size, backing chunks, FilePolicy) and the data path: file
// data lives in chunks allocated from a demand-mapped volume and is accessed
// through the coherent cache cluster, so any blade can serve any file.
//
// The paper's "extended metadata" is the FilePolicy: per-file (not
// per-volume) knobs for cache retention, write-back fault tolerance
// (N-way cache replication) and geographic replication mode/extent.  The
// data path here bills every I/O to the policy's QoS tenant with its cache
// priority, and writes with its cache replication; the geo layer (src/geo)
// applies the geo fields to the files it creates.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "controller/system.h"
#include "meta/namespace.h"
#include "qos/tenant.h"
#include "util/bytes.h"

namespace nlss::fs {

using InodeNum = meta::Ino;

/// The first seven values are meta::Status's, in order: namespace answers
/// pass through unchanged.
enum class Status {
  kOk,
  kNotFound,
  kExists,
  kNotDirectory,
  kIsDirectory,
  kNotEmpty,
  kInvalidArgument,
  kNoSpace,
  kIoError,
};

/// Per-file extended metadata (paper §4).
struct FilePolicy {
  std::uint8_t cache_priority = 0;      // higher = retained longer (advisory)
  std::uint32_t cache_replication = 2;  // N-way write-back fault tolerance
  bool geo_replicate = false;           // replicate across sites at all?
  bool geo_sync = false;                // synchronous vs asynchronous
  std::uint32_t geo_sites = 2;          // copies across sites (incl. home)
  std::uint64_t geo_min_distance_km = 0;
  // QoS tenant this file's I/O is billed to (kAutoTenant = resolve from
  // the FS volume's tenant binding).  Lets one namespace serve several
  // labs with per-file service classes.
  qos::TenantId qos_tenant = qos::kAutoTenant;
};

enum class FileType : std::uint8_t { kFile, kDirectory };

struct Inode {
  InodeNum ino = 0;
  FileType type = FileType::kFile;
  std::uint64_t size = 0;
  FilePolicy policy;
  std::vector<std::uint64_t> chunks;  // volume chunk indices
};

class FileSystem {
 public:
  struct Config {
    std::uint64_t volume_bytes = 4ull * util::GiB;  // thin: costs nothing
    std::uint32_t chunk_bytes = 1 * util::MiB;      // file allocation granule
    std::string tenant = "fs";
    std::uint64_t quota_bytes = 0;  // 0 = unlimited; else hard FS quota
  };

  /// Creates the FS backing volume on the given system.
  explicit FileSystem(controller::StorageSystem& system)
      : FileSystem(system, Config()) {}
  FileSystem(controller::StorageSystem& system, Config config);

  // --- Namespace (metadata ops are controller-local, hence synchronous) ----
  Status Mkdir(const std::string& path);
  Status Create(const std::string& path, const FilePolicy& policy = {});
  Status Unlink(const std::string& path);
  Status Rmdir(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  bool Exists(const std::string& path) const;
  const Inode* Stat(const std::string& path) const;
  std::vector<std::string> List(const std::string& path) const;

  /// Paper §4: behaviors are "dynamically set on a file by file basis".
  Status SetPolicy(const std::string& path, const FilePolicy& policy);

  // --- Data ------------------------------------------------------------------
  using ReadCallback = std::function<void(Status, util::Bytes)>;
  using WriteCallback = std::function<void(Status)>;

  /// Write (extending the file as needed).  Replication factor comes from
  /// the file's policy.
  void Write(const std::string& path, std::uint64_t offset,
             std::span<const std::uint8_t> data, WriteCallback cb,
             obs::TraceContext ctx = {});
  void Read(const std::string& path, std::uint64_t offset,
            std::uint64_t length, ReadCallback cb,
            obs::TraceContext ctx = {});
  void Truncate(const std::string& path, std::uint64_t new_size,
                WriteCallback cb);

  // --- Quota (automated resource administration, paper §3) -----------------
  /// Change the hard quota; shrinking below current usage is allowed — it
  /// just blocks further growth.
  void SetQuota(std::uint64_t bytes) { config_.quota_bytes = bytes; }
  std::uint64_t QuotaBytes() const { return config_.quota_bytes; }
  std::uint64_t UsedBytes() const {
    return AllocatedChunks() * config_.chunk_bytes;
  }

  // --- Introspection --------------------------------------------------------------
  std::uint64_t TotalFiles() const;
  std::uint64_t AllocatedChunks() const;
  controller::VolumeId volume_id() const { return volume_; }
  const Config& config() const { return config_; }
  controller::StorageSystem& system() { return system_; }

 private:
  /// One chunk-contained slice of a file byte range: its volume offset and
  /// its offset in the caller's buffer.
  struct Piece {
    std::uint64_t vol_offset;
    std::size_t buf;
    std::uint32_t len;
  };

  Inode* Lookup(const std::string& path);
  /// Split [offset, offset + length) of `inode` at chunk boundaries.
  std::vector<Piece> Split(const Inode& inode, std::uint64_t offset,
                           std::uint64_t length) const;

  std::uint64_t AllocateChunk();
  void FreeChunk(std::uint64_t chunk);
  /// Ensure the file has chunks covering [0, end_offset).
  Status EnsureChunks(Inode& inode, std::uint64_t end_offset);
  std::uint64_t ChunkBase(std::uint64_t chunk) const {
    return chunk * config_.chunk_bytes;
  }

  controller::StorageSystem& system_;
  Config config_;
  controller::VolumeId volume_;
  meta::Namespace ns_;
  std::map<InodeNum, Inode> inodes_;  // keyed by ns_'s inode numbers
  std::uint64_t next_chunk_ = 0;
  std::vector<std::uint64_t> free_chunks_;
  std::uint64_t max_chunks_;
  /// Write ids for BladeWrite.  Each is stamped with the settled cursor
  /// when issued and settles when its BladeWrite completes (one attempt,
  /// so completion means fully resolved).
  cache::WriteSequencer writes_;
};

}  // namespace nlss::fs
