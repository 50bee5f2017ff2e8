#include "virt/volume.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "util/join.h"

namespace nlss::virt {

using util::Join;

DemandMappedVolume::DemandMappedVolume(sim::Engine& engine, StoragePool& pool,
                                       std::uint64_t virtual_blocks,
                                       std::string tenant,
                                       std::uint64_t volume_id)
    : engine_(engine),
      pool_(pool),
      virtual_blocks_(virtual_blocks),
      tenant_(std::move(tenant)),
      volume_id_(volume_id) {
  map_.resize(ExtentCount());
}

DemandMappedVolume::~DemandMappedVolume() {
  // Return all extents (current map + snapshots) to the pool.
  for (auto& [id, snap] : snapshots_) {
    for (auto& e : snap) {
      if (e) Unref(*e);
    }
  }
  for (auto& e : map_) {
    if (e) Unref(*e);
  }
}

std::uint64_t DemandMappedVolume::ExtentCount() const {
  const std::uint32_t eb = pool_.extent_blocks();
  return (virtual_blocks_ + eb - 1) / eb;
}

void DemandMappedVolume::Unref(const PhysExtent& e) {
  auto it = refs_.find(RefKey(e));
  assert(it != refs_.end() && it->second > 0);
  if (--it->second == 0) {
    refs_.erase(it);
    pool_.Free(e);
  }
}

std::uint32_t DemandMappedVolume::RefCount(const PhysExtent& e) const {
  auto it = refs_.find(RefKey(e));
  return it == refs_.end() ? 0 : it->second;
}

void DemandMappedVolume::LockExtent(std::uint64_t vext,
                                    std::function<void()> grant) {
  auto [it, inserted] = extent_locks_.try_emplace(vext);
  if (inserted) {
    engine_.Schedule(0, std::move(grant));
  } else {
    it->second.push_back(std::move(grant));
  }
}

void DemandMappedVolume::UnlockExtent(std::uint64_t vext) {
  auto it = extent_locks_.find(vext);
  assert(it != extent_locks_.end());
  if (it->second.empty()) {
    extent_locks_.erase(it);
  } else {
    auto next = std::move(it->second.front());
    it->second.pop_front();
    engine_.Schedule(0, std::move(next));
  }
}

void DemandMappedVolume::ReadVia(const ExtentMap& map, std::uint64_t block,
                                 std::uint32_t count, ReadCallback cb,
                                 obs::TraceContext ctx) {
  assert(block + count <= virtual_blocks_);
  const std::uint32_t eb = pool_.extent_blocks();
  const std::uint32_t bs = block_size();
  auto result = std::make_shared<util::Bytes>(
      static_cast<std::size_t>(count) * bs, 0);

  const std::vector<util::PagePiece> pieces =
      util::SplitPages(block, count, eb);
  auto join = std::make_shared<Join>(
      static_cast<int>(pieces.size()),
      [result, cb = std::move(cb)](bool ok) {
        cb(ok, ok ? std::move(*result) : util::Bytes{});
      });
  for (const util::PagePiece& p : pieces) {
    const auto& phys = map[p.page];
    if (!phys) {
      // Unmapped: reads as zeros (the buffer is pre-zeroed).
      engine_.Schedule(0, [join] { join->Arrive(true); });
      continue;
    }
    pool_.ReadBlocks(
        *phys, p.in_page, p.len,
        [result, out = p.at * bs, join](bool ok, util::Bytes data) {
          if (ok) {
            std::memcpy(result->data() + out, data.data(), data.size());
          }
          join->Arrive(ok);
        },
        ctx);
  }
}

void DemandMappedVolume::ReadBlocks(std::uint64_t block, std::uint32_t count,
                                    ReadCallback cb, obs::TraceContext ctx) {
  ReadVia(map_, block, count, std::move(cb), ctx);
}

void DemandMappedVolume::ReadSnapshotBlocks(SnapshotId id, std::uint64_t block,
                                            std::uint32_t count,
                                            ReadCallback cb) {
  auto it = snapshots_.find(id);
  assert(it != snapshots_.end());
  ReadVia(it->second, block, count, std::move(cb));
}

void DemandMappedVolume::WriteWithinExtent(std::uint64_t vext,
                                           std::uint32_t offset_blocks,
                                           std::span<const std::uint8_t> data,
                                           WriteCallback cb,
                                           obs::TraceContext ctx) {
  const std::uint32_t eb = pool_.extent_blocks();
  const std::uint32_t bs = block_size();
  auto finish = [this, vext, cb = std::move(cb)](bool ok) {
    UnlockExtent(vext);
    cb(ok);
  };

  auto& slot = map_[vext];
  const bool needs_alloc = !slot.has_value();
  const bool needs_cow = slot.has_value() && RefCount(*slot) > 1;

  if (!needs_alloc && !needs_cow) {
    pool_.WriteBlocks(*slot, offset_blocks, data, std::move(finish), ctx);
    return;
  }

  const auto fresh = pool_.Allocate();
  if (!fresh) {
    // Out of physical space: the paper's DMSD would alert and expand; we
    // fail the write.
    engine_.Schedule(0, [finish = std::move(finish)]() mutable {
      finish(false);
    });
    return;
  }

  if (needs_alloc) {
    // First touch: initialize the whole extent (zeros merged with the new
    // data) so stale pool content never leaks into the volume.
    util::Bytes init(pool_.extent_bytes(), 0);
    std::memcpy(init.data() + static_cast<std::size_t>(offset_blocks) * bs,
                data.data(), data.size());
    slot = *fresh;
    Ref(*fresh);
    ++mapped_extents_;
    pool_.WriteBlocks(*fresh, 0, init, std::move(finish), ctx);
    return;
  }

  // Copy-on-write: read the shared extent, merge, write the private copy.
  const PhysExtent old = *slot;
  ++cow_copies_;
  util::Bytes patch(data.begin(), data.end());
  pool_.ReadBlocks(
      old, 0, eb,
      [this, vext, old, fresh = *fresh, offset_blocks, bs, ctx,
       patch = std::move(patch),
       finish = std::move(finish)](bool ok, util::Bytes content) mutable {
        if (!ok) {
          finish(false);
          return;
        }
        std::memcpy(content.data() +
                        static_cast<std::size_t>(offset_blocks) * bs,
                    patch.data(), patch.size());
        pool_.WriteBlocks(
            fresh, 0, content,
            [this, vext, old, fresh, finish = std::move(finish)](bool ok2) mutable {
              if (ok2) {
                map_[vext] = fresh;
                Ref(fresh);
                Unref(old);
              } else {
                pool_.Free(fresh);
              }
              finish(ok2);
            },
            ctx);
      },
      ctx);
}

void DemandMappedVolume::WriteBlocks(std::uint64_t block,
                                     std::span<const std::uint8_t> data,
                                     WriteCallback cb, obs::TraceContext ctx) {
  assert(data.size() % block_size() == 0);
  const std::uint32_t count =
      static_cast<std::uint32_t>(data.size() / block_size());
  assert(block + count <= virtual_blocks_);
  const std::uint32_t eb = pool_.extent_blocks();
  const std::uint32_t bs = block_size();

  // Copy once; simulated I/O outlives the caller's buffer.
  auto src = std::make_shared<util::Bytes>(data.begin(), data.end());

  struct Piece {
    std::uint64_t vext;
    std::uint32_t off;
    std::uint32_t n;
    std::size_t src_off;
  };
  std::vector<Piece> pieces;
  std::uint64_t cur = block;
  std::uint32_t left = count;
  std::size_t soff = 0;
  while (left > 0) {
    const std::uint64_t vext = cur / eb;
    const std::uint32_t off = static_cast<std::uint32_t>(cur % eb);
    const std::uint32_t n = std::min(left, eb - off);
    pieces.push_back(Piece{vext, off, n, soff});
    cur += n;
    left -= n;
    soff += static_cast<std::size_t>(n) * bs;
  }
  auto join = std::make_shared<Join>(static_cast<int>(pieces.size()),
                                     [src, cb = std::move(cb)](bool ok) {
                                       cb(ok);
                                     });
  for (const Piece& p : pieces) {
    LockExtent(p.vext, [this, p, src, bs, join, ctx] {
      WriteWithinExtent(
          p.vext, p.off,
          std::span<const std::uint8_t>(src->data() + p.src_off,
                                        static_cast<std::size_t>(p.n) * bs),
          [join](bool ok) { join->Arrive(ok); }, ctx);
    });
  }
}

void DemandMappedVolume::Trim(std::uint64_t block, std::uint64_t count,
                              WriteCallback cb) {
  assert(block + count <= virtual_blocks_);
  const std::uint32_t eb = pool_.extent_blocks();
  const std::uint32_t bs = block_size();

  struct Action {
    std::uint64_t vext;
    bool full;
    std::uint32_t off;
    std::uint32_t n;
  };
  std::vector<Action> actions;
  std::uint64_t cur = block;
  std::uint64_t left = count;
  while (left > 0) {
    const std::uint64_t vext = cur / eb;
    const std::uint32_t off = static_cast<std::uint32_t>(cur % eb);
    const std::uint32_t n =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(left, eb - off));
    actions.push_back(Action{vext, off == 0 && n == eb, off, n});
    cur += n;
    left -= n;
  }
  auto join = std::make_shared<Join>(static_cast<int>(actions.size()),
                                     std::move(cb));
  for (const Action& a : actions) {
    LockExtent(a.vext, [this, a, bs, join] {
      auto& slot = map_[a.vext];
      if (!slot) {
        UnlockExtent(a.vext);
        join->Arrive(true);
        return;
      }
      if (a.full) {
        Unref(*slot);
        slot.reset();
        --mapped_extents_;
        UnlockExtent(a.vext);
        join->Arrive(true);
        return;
      }
      // Partial trim: zero the range (keeps the extent mapped); shared
      // extents get a COW first via the normal write path.
      const util::Bytes zeros(static_cast<std::size_t>(a.n) * bs, 0);
      WriteWithinExtent(a.vext, a.off, zeros,
                        [join](bool ok) { join->Arrive(ok); });
    });
  }
}

bool DemandMappedVolume::Preallocate() {
  if (pool_.FreeExtents() + mapped_extents_ < ExtentCount()) return false;
  for (auto& slot : map_) {
    if (slot) continue;
    const auto fresh = pool_.Allocate();
    if (!fresh) return false;  // raced; should not happen single-threaded
    slot = *fresh;
    Ref(*fresh);
    ++mapped_extents_;
  }
  return true;
}

void DemandMappedVolume::Resize(std::uint64_t new_virtual_blocks) {
  assert(new_virtual_blocks >= virtual_blocks_);
  virtual_blocks_ = new_virtual_blocks;
  map_.resize(ExtentCount());
}

SnapshotId DemandMappedVolume::CreateSnapshot() {
  const SnapshotId id = next_snapshot_++;
  ExtentMap copy = map_;
  for (const auto& e : copy) {
    if (e) Ref(*e);
  }
  snapshots_.emplace(id, std::move(copy));
  return id;
}

void DemandMappedVolume::DeleteSnapshot(SnapshotId id) {
  auto it = snapshots_.find(id);
  assert(it != snapshots_.end());
  for (const auto& e : it->second) {
    if (e) Unref(*e);
  }
  snapshots_.erase(it);
}

}  // namespace nlss::virt
