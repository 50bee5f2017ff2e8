#include "raid/group.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "raid/gf256.h"
#include "util/join.h"

namespace nlss::raid {

using util::Join;

RaidGroup::RaidGroup(sim::Engine& engine, std::vector<disk::Disk*> disks,
                     const Config& config)
    : engine_(engine),
      disks_(std::move(disks)),
      layout_(config.level, static_cast<std::uint32_t>(disks_.size()),
              config.unit_blocks),
      config_(config),
      block_size_(disks_.empty() ? 4096 : disks_[0]->profile().block_size),
      members_(disks_.size(), MemberState::kLive) {
  assert(!disks_.empty());
  for ([[maybe_unused]] const auto* d : disks_) {
    assert(d->profile().block_size == block_size_);
  }
}

std::uint64_t RaidGroup::DataCapacityBlocks() const {
  return layout_.DataCapacityBlocks(disks_[0]->profile().capacity_blocks);
}

std::uint64_t RaidGroup::StripeCount() const {
  return disks_[0]->profile().capacity_blocks / layout_.unit_blocks();
}

void RaidGroup::RefreshMemberStates() {
  for (std::size_t i = 0; i < disks_.size(); ++i) {
    if (disks_[i]->failed() && members_[i] != MemberState::kFailed) {
      members_[i] = MemberState::kFailed;
    }
  }
}

unsigned RaidGroup::UnreadableCount() const {
  unsigned n = 0;
  for (const auto m : members_) {
    if (m != MemberState::kLive) ++n;
  }
  return n;
}

void RaidGroup::BeginRebuild(std::uint32_t disk_index) {
  assert(members_[disk_index] == MemberState::kFailed);
  assert(!disks_[disk_index]->failed() && "Replace() the disk first");
  members_[disk_index] = MemberState::kRebuilding;
}

void RaidGroup::FinishRebuild(std::uint32_t disk_index) {
  assert(members_[disk_index] == MemberState::kRebuilding);
  members_[disk_index] = MemberState::kLive;
}

// --- Stripe locks ---------------------------------------------------------

void RaidGroup::LockStripe(std::uint64_t stripe, std::function<void()> grant) {
  auto [it, inserted] = stripe_locks_.try_emplace(stripe);
  if (inserted) {
    // Uncontended: run the grant on the event loop to keep call depth flat.
    engine_.Schedule(0, std::move(grant));
  } else {
    it->second.push_back(std::move(grant));
  }
}

void RaidGroup::UnlockStripe(std::uint64_t stripe) {
  auto it = stripe_locks_.find(stripe);
  assert(it != stripe_locks_.end());
  if (it->second.empty()) {
    stripe_locks_.erase(it);
  } else {
    auto next = std::move(it->second.front());
    it->second.pop_front();
    engine_.Schedule(0, std::move(next));
  }
}

void RaidGroup::Compute(std::uint64_t bytes, std::function<void()> next) {
  compute_bytes_ += bytes;
  if (config_.compute == nullptr) {
    engine_.Schedule(0, std::move(next));
    return;
  }
  const sim::Tick done =
      config_.compute->AcquireBytes(bytes, config_.parity_ns_per_byte);
  engine_.ScheduleAt(done, std::move(next));
}

// --- Parity math -----------------------------------------------------------

void RaidGroup::ComputeParity(const std::vector<util::Bytes>& data,
                              util::Bytes& p, util::Bytes& q) const {
  const std::uint32_t ub = unit_bytes();
  p.assign(ub, 0);
  for (const auto& unit : data) XorInto(p, unit);
  if (layout_.level() == RaidLevel::kRaid6) {
    q.assign(ub, 0);
    for (std::uint32_t u = 0; u < data.size(); ++u) {
      GfMulInto(q, data[u], Gf256::Exp(u));
    }
  }
}

bool RaidGroup::Reconstruct(std::uint64_t stripe,
                            std::vector<util::Bytes>& raw,
                            std::vector<util::Bytes>& data_out) {
  const std::uint32_t du = layout_.DataUnitsPerStripe();
  const std::uint32_t ub = unit_bytes();
  data_out.assign(du, {});
  util::Bytes* p = nullptr;
  util::Bytes* q = nullptr;
  std::vector<std::uint32_t> missing;

  for (std::uint32_t d = 0; d < layout_.width(); ++d) {
    const UnitRole role = layout_.RoleOf(stripe, d);
    if (role.kind == UnitRole::kData) {
      if (!raw[d].empty()) {
        data_out[role.data_index] = std::move(raw[d]);
      } else {
        missing.push_back(role.data_index);
      }
    } else if (role.kind == UnitRole::kParityP) {
      if (!raw[d].empty()) p = &raw[d];
    } else {
      if (!raw[d].empty()) q = &raw[d];
    }
  }

  if (missing.empty()) return true;

  // S = xor of surviving data; T = sum of g^u * surviving data.
  auto xor_of_surviving = [&]() {
    util::Bytes s(ub, 0);
    for (std::uint32_t u = 0; u < du; ++u) {
      if (!data_out[u].empty()) XorInto(s, data_out[u]);
    }
    return s;
  };
  auto rs_of_surviving = [&]() {
    util::Bytes t(ub, 0);
    for (std::uint32_t u = 0; u < du; ++u) {
      if (!data_out[u].empty()) GfMulInto(t, data_out[u], Gf256::Exp(u));
    }
    return t;
  };

  if (missing.size() == 1) {
    const std::uint32_t u = missing[0];
    if (p != nullptr) {
      util::Bytes d = *p;
      XorInto(d, xor_of_surviving());
      data_out[u] = std::move(d);
      return true;
    }
    if (q != nullptr && layout_.level() == RaidLevel::kRaid6) {
      util::Bytes d = *q;
      XorInto(d, rs_of_surviving());
      GfScale(d, Gf256::Inv(Gf256::Exp(u)));
      data_out[u] = std::move(d);
      return true;
    }
    return false;
  }

  if (missing.size() == 2 && layout_.level() == RaidLevel::kRaid6 &&
      p != nullptr && q != nullptr) {
    const std::uint32_t u1 = missing[0];
    const std::uint32_t u2 = missing[1];
    util::Bytes a = *p;  // A = P ^ S = D1 ^ D2
    XorInto(a, xor_of_surviving());
    util::Bytes b = *q;  // B = Q ^ T = g^u1 D1 ^ g^u2 D2
    XorInto(b, rs_of_surviving());
    // D1 = (g^u2 * A ^ B) / (g^u1 ^ g^u2)
    util::Bytes d1 = b;
    GfMulInto(d1, a, Gf256::Exp(u2));
    const std::uint8_t denom =
        static_cast<std::uint8_t>(Gf256::Exp(u1) ^ Gf256::Exp(u2));
    GfScale(d1, Gf256::Inv(denom));
    util::Bytes d2 = a;
    XorInto(d2, d1);
    data_out[u1] = std::move(d1);
    data_out[u2] = std::move(d2);
    return true;
  }

  return false;
}

// --- Fetch -----------------------------------------------------------------

void RaidGroup::FetchAllData(std::uint64_t stripe, FetchCallback cb,
                             obs::TraceContext ctx) {
  RefreshMemberStates();
  const std::uint32_t du = layout_.DataUnitsPerStripe();
  const std::uint32_t width = layout_.width();
  const std::uint64_t lba = layout_.StripeLba(stripe);
  const std::uint32_t ublocks = layout_.unit_blocks();

  if (layout_.level() == RaidLevel::kRaid1) {
    // Read the whole unit from one live mirror, rotating by stripe.
    for (std::uint32_t k = 0; k < width; ++k) {
      const std::uint32_t m = (static_cast<std::uint32_t>(stripe) + k) % width;
      if (!Readable(m)) continue;
      disks_[m]->Read(
          lba, ublocks,
          [cb = std::move(cb)](bool ok, util::Bytes data) {
            StripeData sd;
            sd.ok = ok;
            if (ok) sd.units.push_back(std::move(data));
            cb(std::move(sd));
          },
          ctx);
      return;
    }
    engine_.Schedule(0, [cb = std::move(cb)] { cb(StripeData{}); });
    return;
  }

  // Decide whether any data-role member is unreadable.
  bool degraded = false;
  for (std::uint32_t u = 0; u < du; ++u) {
    if (!Readable(layout_.DiskForData(stripe, u))) {
      degraded = true;
      break;
    }
  }

  if (layout_.level() == RaidLevel::kRaid0 && degraded) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(StripeData{}); });
    return;
  }

  struct FetchState {
    std::vector<util::Bytes> raw;  // per disk; empty if not read/failed
    FetchCallback cb;
  };
  auto state = std::make_shared<FetchState>();
  state->raw.assign(width, {});
  state->cb = std::move(cb);

  // Healthy: read just the data units.  Degraded: read every readable
  // member (parity included) and reconstruct.
  std::vector<std::uint32_t> targets;
  if (!degraded) {
    for (std::uint32_t u = 0; u < du; ++u) {
      targets.push_back(layout_.DiskForData(stripe, u));
    }
  } else {
    for (std::uint32_t d = 0; d < width; ++d) {
      if (Readable(d)) targets.push_back(d);
    }
  }

  auto finish = [this, stripe, state, degraded, ctx](bool ok) {
    StripeData sd;
    // Even if some reads failed mid-flight, attempt reconstruction from
    // what arrived.
    std::vector<util::Bytes> data;
    if (Reconstruct(stripe, state->raw, data)) {
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(data.size()) * unit_bytes();
      sd.ok = true;
      sd.units = std::move(data);
      Compute(degraded ? bytes : 0, [state, sd = std::move(sd)]() mutable {
        state->cb(std::move(sd));
      });
      return;
    }
    if (!ok && !degraded) {
      // A member died mid-flight on the healthy path; retry once — the
      // refreshed member states route the retry through reconstruction.
      FetchAllData(stripe, std::move(state->cb), ctx);
      return;
    }
    state->cb(StripeData{});
  };
  auto join = std::make_shared<Join>(static_cast<int>(targets.size()),
                                     std::move(finish));
  for (const std::uint32_t d : targets) {
    disks_[d]->Read(
        lba, ublocks,
        [state, join, d](bool ok, util::Bytes data) {
          if (ok) state->raw[d] = std::move(data);
          join->Arrive(ok);
        },
        ctx);
  }
}

// --- Reads -----------------------------------------------------------------

void RaidGroup::StripeRead(std::uint64_t stripe, std::uint32_t first_block,
                           std::uint32_t block_count, std::uint8_t* out,
                           std::function<void(bool)> done,
                           obs::TraceContext ctx) {
  RefreshMemberStates();
  const std::uint32_t ublocks = layout_.unit_blocks();
  const std::uint32_t bs = block_size_;
  const std::uint64_t lba0 = layout_.StripeLba(stripe);

  // Fallback path used when a member is unreadable (or a read fails
  // mid-flight): fetch all data, slice the requested range.
  auto degraded_read = [this, stripe, first_block, block_count, out, ctx,
                        done](auto&&) mutable {
    FetchAllData(
        stripe,
        [this, first_block, block_count, out,
         done = std::move(done)](StripeData sd) mutable {
          if (!sd.ok) {
            done(false);
            return;
          }
          const std::uint32_t ub = layout_.unit_blocks();
          for (std::uint32_t i = 0; i < block_count; ++i) {
            const std::uint32_t blk = first_block + i;
            const std::uint32_t u = blk / ub;
            const std::uint32_t off = blk % ub;
            std::memcpy(out + static_cast<std::size_t>(i) * block_size_,
                        sd.units[u].data() +
                            static_cast<std::size_t>(off) * block_size_,
                        block_size_);
          }
          done(true);
        },
        ctx);
  };

  if (layout_.level() == RaidLevel::kRaid1) {
    for (std::uint32_t k = 0; k < layout_.width(); ++k) {
      const std::uint32_t m =
          (static_cast<std::uint32_t>(stripe) + k) % layout_.width();
      if (!Readable(m)) continue;
      disks_[m]->Read(
          lba0 + first_block, block_count,
          [out, bs, block_count, done = std::move(done), degraded_read](
              bool ok, util::Bytes data) mutable {
            if (!ok) {
              degraded_read(0);
              return;
            }
            std::memcpy(out, data.data(),
                        static_cast<std::size_t>(block_count) * bs);
            done(true);
          },
          ctx);
      return;
    }
    done(false);
    return;
  }

  // Check whether all touched units are on readable disks.
  const std::uint32_t u_first = first_block / ublocks;
  const std::uint32_t u_last = (first_block + block_count - 1) / ublocks;
  bool healthy = true;
  for (std::uint32_t u = u_first; u <= u_last; ++u) {
    if (!Readable(layout_.DiskForData(stripe, u))) {
      healthy = false;
      break;
    }
  }
  if (!healthy) {
    degraded_read(0);
    return;
  }

  // Healthy fast path: one disk read per touched unit sub-range.
  struct ReadState {
    bool any_failed = false;
  };
  auto state = std::make_shared<ReadState>();
  auto finish = [state, done = std::move(done), degraded_read](bool ok) mutable {
    if (ok && !state->any_failed) {
      done(true);
    } else {
      // A member died mid-operation; retry once via reconstruction.
      degraded_read(0);
    }
  };
  auto join =
      std::make_shared<Join>(static_cast<int>(u_last - u_first + 1),
                             std::move(finish));
  for (std::uint32_t u = u_first; u <= u_last; ++u) {
    const std::uint32_t a = std::max(first_block, u * ublocks) - u * ublocks;
    const std::uint32_t b =
        std::min(first_block + block_count, (u + 1) * ublocks) - u * ublocks;
    const std::uint32_t d = layout_.DiskForData(stripe, u);
    std::uint8_t* dst =
        out + (static_cast<std::size_t>(u) * ublocks + a - first_block) * bs;
    disks_[d]->Read(
        lba0 + a, b - a,
        [state, join, dst, bs](bool ok, util::Bytes data) {
          if (ok) {
            std::memcpy(dst, data.data(), data.size());
          } else {
            state->any_failed = true;
          }
          join->Arrive(true);  // degraded retry handled in finish
        },
        ctx);
  }
}

void RaidGroup::ReadBlocks(std::uint64_t block, std::uint32_t count,
                           ReadCallback cb, obs::TraceContext ctx) {
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kRaid, "raid.read");
  assert(count > 0);
  assert(block + count <= DataCapacityBlocks());
  const std::uint32_t dbs = layout_.DataBlocksPerStripe();
  auto buffer = std::make_shared<util::Bytes>(
      static_cast<std::size_t>(count) * block_size_, 0);

  // Split into per-stripe sub-operations.
  struct Piece {
    std::uint64_t stripe;
    std::uint32_t first;  // data-block offset within stripe
    std::uint32_t count;
    std::size_t out_offset;  // bytes into the result buffer
  };
  std::vector<Piece> pieces;
  std::uint64_t blk = block;
  std::uint32_t left = count;
  std::size_t out_off = 0;
  while (left > 0) {
    const std::uint64_t stripe = blk / dbs;
    const std::uint32_t first = static_cast<std::uint32_t>(blk % dbs);
    const std::uint32_t n = std::min(left, dbs - first);
    pieces.push_back(Piece{stripe, first, n, out_off});
    blk += n;
    left -= n;
    out_off += static_cast<std::size_t>(n) * block_size_;
  }

  auto join = std::make_shared<Join>(
      static_cast<int>(pieces.size()),
      [buffer, span, cb = std::move(cb)](bool ok) {
        obs::EndSpan(span);
        cb(ok, ok ? std::move(*buffer) : util::Bytes{});
      });
  for (const Piece& p : pieces) {
    LockStripe(p.stripe, [this, p, buffer, join, span] {
      StripeRead(
          p.stripe, p.first, p.count, buffer->data() + p.out_offset,
          [this, p, join](bool ok) {
            UnlockStripe(p.stripe);
            join->Arrive(ok);
          },
          span);
    });
  }
}

// --- Writes ----------------------------------------------------------------

void RaidGroup::StripeWriteRaid01(std::uint64_t stripe,
                                  std::uint32_t first_block,
                                  std::uint32_t block_count,
                                  const std::uint8_t* src,
                                  std::function<void(bool)> done,
                                  obs::TraceContext ctx) {
  const std::uint64_t lba0 = layout_.StripeLba(stripe);
  const std::uint32_t bs = block_size_;

  if (layout_.level() == RaidLevel::kRaid1) {
    std::vector<std::uint32_t> targets;
    for (std::uint32_t m = 0; m < layout_.width(); ++m) {
      if (Writable(m)) targets.push_back(m);
    }
    if (targets.empty()) {
      done(false);
      return;
    }
    auto join = std::make_shared<Join>(
        static_cast<int>(targets.size()),
        [this, done = std::move(done)](bool) {
          RefreshMemberStates();
          // RAID-1 data survives while at least one mirror is writable.
          done(UnreadableCount() < layout_.width());
        });
    const std::span<const std::uint8_t> data(
        src, static_cast<std::size_t>(block_count) * bs);
    for (const std::uint32_t m : targets) {
      disks_[m]->Write(
          lba0 + first_block, data, [join](bool ok) { join->Arrive(ok); },
          ctx);
    }
    return;
  }

  // RAID-0: write through to the touched units; any failure is fatal.
  const std::uint32_t ublocks = layout_.unit_blocks();
  const std::uint32_t u_first = first_block / ublocks;
  const std::uint32_t u_last = (first_block + block_count - 1) / ublocks;
  auto join = std::make_shared<Join>(static_cast<int>(u_last - u_first + 1),
                                     std::move(done));
  for (std::uint32_t u = u_first; u <= u_last; ++u) {
    const std::uint32_t a = std::max(first_block, u * ublocks) - u * ublocks;
    const std::uint32_t b =
        std::min(first_block + block_count, (u + 1) * ublocks) - u * ublocks;
    const std::uint32_t d = layout_.DiskForData(stripe, u);
    if (!Writable(d)) {
      join->Arrive(false);
      continue;
    }
    const std::uint8_t* p =
        src + (static_cast<std::size_t>(u) * ublocks + a - first_block) * bs;
    disks_[d]->Write(
        lba0 + a,
        std::span<const std::uint8_t>(p, static_cast<std::size_t>(b - a) * bs),
        [join](bool ok) { join->Arrive(ok); }, ctx);
  }
}

void RaidGroup::StripeWriteParity(std::uint64_t stripe,
                                  std::uint32_t first_block,
                                  std::uint32_t block_count,
                                  const std::uint8_t* src,
                                  std::function<void(bool)> done,
                                  obs::TraceContext ctx) {
  const std::uint32_t du = layout_.DataUnitsPerStripe();
  const std::uint32_t dbs = layout_.DataBlocksPerStripe();
  const std::uint32_t ub = unit_bytes();
  const std::uint32_t ublocks = layout_.unit_blocks();
  const std::uint32_t bs = block_size_;
  const std::uint64_t lba0 = layout_.StripeLba(stripe);

  // The write-back phase common to the full-stripe and partial paths.
  auto write_phase = [this, stripe, first_block, block_count, lba0, du,
                      ublocks, ctx, done = std::move(done)](
                         std::vector<util::Bytes> data) mutable {
    if (data.empty()) {
      done(false);
      return;
    }
    util::Bytes p, q;
    ComputeParity(data, p, q);
    const std::uint64_t parity_bytes =
        static_cast<std::uint64_t>(data.size()) * unit_bytes();
    Compute(parity_bytes, [this, stripe, first_block, block_count, lba0, du,
                           ublocks, ctx, data = std::move(data),
                           p = std::move(p), q = std::move(q),
                           done = std::move(done)]() mutable {
      const std::uint32_t u_first = first_block / ublocks;
      const std::uint32_t u_last = (first_block + block_count - 1) / ublocks;

      struct Target {
        std::uint32_t disk;
        const util::Bytes* content;
      };
      std::vector<Target> targets;
      for (std::uint32_t u = u_first; u <= u_last && u < du; ++u) {
        const std::uint32_t d = layout_.DiskForData(stripe, u);
        if (Writable(d)) targets.push_back({d, &data[u]});
      }
      const std::uint32_t pd = layout_.PDisk(stripe);
      if (Writable(pd)) targets.push_back({pd, &p});
      if (layout_.level() == RaidLevel::kRaid6) {
        const std::uint32_t qd = layout_.QDisk(stripe);
        if (Writable(qd)) targets.push_back({qd, &q});
      }
      if (targets.empty()) {
        done(false);
        return;
      }
      // Keep the buffers alive until all writes are issued+copied: the Disk
      // copies data synchronously inside Write(), so moving them into the
      // join closure is sufficient.
      auto join = std::make_shared<Join>(
          static_cast<int>(targets.size()),
          [this, done = std::move(done), data = std::move(data)](bool) mutable {
            RefreshMemberStates();
            done(Operational());
          });
      for (const Target& t : targets) {
        disks_[t.disk]->Write(
            lba0, *t.content, [join](bool ok) { join->Arrive(ok); }, ctx);
      }
    });
  };

  if (first_block == 0 && block_count == dbs) {
    // Full-stripe write: parity from new data, no reads.
    std::vector<util::Bytes> data(du);
    for (std::uint32_t u = 0; u < du; ++u) {
      data[u].assign(src + static_cast<std::size_t>(u) * ub,
                     src + static_cast<std::size_t>(u + 1) * ub);
    }
    write_phase(std::move(data));
    return;
  }

  // Partial write: fetch-merge-recompute (reconstruct-write).
  FetchAllData(
      stripe,
      [this, first_block, block_count, src, bs, ublocks,
       write_phase = std::move(write_phase)](StripeData sd) mutable {
        if (!sd.ok) {
          // Cannot reconstruct the stripe's current contents: the group has
          // lost data; fail the write.
          write_phase({});  // no targets -> reports failure
          return;
        }
        for (std::uint32_t i = 0; i < block_count; ++i) {
          const std::uint32_t blk = first_block + i;
          const std::uint32_t u = blk / ublocks;
          const std::uint32_t off = blk % ublocks;
          std::memcpy(sd.units[u].data() + static_cast<std::size_t>(off) * bs,
                      src + static_cast<std::size_t>(i) * bs, bs);
        }
        write_phase(std::move(sd.units));
      },
      ctx);
}

void RaidGroup::StripeWrite(std::uint64_t stripe, std::uint32_t first_block,
                            std::uint32_t block_count, const std::uint8_t* src,
                            std::function<void(bool)> done,
                            obs::TraceContext ctx) {
  RefreshMemberStates();
  if (layout_.level() == RaidLevel::kRaid0 ||
      layout_.level() == RaidLevel::kRaid1) {
    StripeWriteRaid01(stripe, first_block, block_count, src, std::move(done),
                      ctx);
  } else {
    StripeWriteParity(stripe, first_block, block_count, src, std::move(done),
                      ctx);
  }
}

void RaidGroup::WriteBlocks(std::uint64_t block,
                            std::span<const std::uint8_t> data,
                            WriteCallback cb, obs::TraceContext ctx) {
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kRaid, "raid.write");
  assert(!data.empty());
  assert(data.size() % block_size_ == 0);
  const std::uint32_t count = static_cast<std::uint32_t>(data.size() / block_size_);
  assert(block + count <= DataCapacityBlocks());
  const std::uint32_t dbs = layout_.DataBlocksPerStripe();

  // Copy once: the caller's buffer may not outlive the simulated I/O.
  auto src = std::make_shared<util::Bytes>(data.begin(), data.end());

  struct Piece {
    std::uint64_t stripe;
    std::uint32_t first;
    std::uint32_t count;
    std::size_t src_offset;
  };
  std::vector<Piece> pieces;
  std::uint64_t blk = block;
  std::uint32_t left = count;
  std::size_t off = 0;
  while (left > 0) {
    const std::uint64_t stripe = blk / dbs;
    const std::uint32_t first = static_cast<std::uint32_t>(blk % dbs);
    const std::uint32_t n = std::min(left, dbs - first);
    pieces.push_back(Piece{stripe, first, n, off});
    blk += n;
    left -= n;
    off += static_cast<std::size_t>(n) * block_size_;
  }

  auto join = std::make_shared<Join>(
      static_cast<int>(pieces.size()), [src, span, cb = std::move(cb)](bool ok) {
        obs::EndSpan(span);
        cb(ok);
      });
  for (const Piece& p : pieces) {
    LockStripe(p.stripe, [this, p, src, join, span] {
      StripeWrite(
          p.stripe, p.first, p.count, src->data() + p.src_offset,
          [this, p, join](bool ok) {
            UnlockStripe(p.stripe);
            join->Arrive(ok);
          },
          span);
    });
  }
}

// --- Rebuild ---------------------------------------------------------------

void RaidGroup::RebuildStripe(std::uint64_t stripe, std::uint32_t disk_index,
                              WriteCallback cb) {
  assert(members_[disk_index] == MemberState::kRebuilding);
  LockStripe(stripe, [this, stripe, disk_index, cb = std::move(cb)]() mutable {
    FetchAllData(stripe, [this, stripe, disk_index, cb = std::move(cb)](
                             StripeData sd) mutable {
      if (!sd.ok) {
        UnlockStripe(stripe);
        cb(false);
        return;
      }
      const UnitRole role = layout_.RoleOf(stripe, disk_index);
      util::Bytes content;
      std::uint64_t extra_compute = 0;
      switch (role.kind) {
        case UnitRole::kData:
          content = std::move(sd.units[role.data_index]);
          break;
        case UnitRole::kParityP: {
          util::Bytes q;
          std::vector<util::Bytes> data = std::move(sd.units);
          util::Bytes p;
          ComputeParity(data, p, q);
          content = std::move(p);
          extra_compute = static_cast<std::uint64_t>(data.size()) * unit_bytes();
          break;
        }
        case UnitRole::kParityQ: {
          util::Bytes p;
          std::vector<util::Bytes> data = std::move(sd.units);
          util::Bytes q;
          ComputeParity(data, p, q);
          content = std::move(q);
          extra_compute = static_cast<std::uint64_t>(data.size()) * unit_bytes();
          break;
        }
      }
      Compute(extra_compute, [this, stripe, disk_index,
                              content = std::move(content),
                              cb = std::move(cb)]() mutable {
        disks_[disk_index]->Write(
            layout_.StripeLba(stripe), content,
            [this, stripe, cb = std::move(cb)](bool ok) {
              UnlockStripe(stripe);
              cb(ok);
            });
      });
    });
  });
}

}  // namespace nlss::raid
