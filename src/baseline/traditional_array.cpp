#include "baseline/traditional_array.h"

#include <cassert>
#include <cstring>
#include <memory>

#include "util/join.h"

namespace nlss::baseline {

using util::Join;

TraditionalArray::TraditionalArray(sim::Engine& engine, net::Fabric& fabric,
                                   Config config)
    : engine_(engine), fabric_(fabric), config_(config) {
  switch_node_ = fabric_.AddNode("array-switch");
  for (std::uint32_t c = 0; c < config_.controllers; ++c) {
    const net::NodeId n = fabric_.AddNode("array-ctrl" + std::to_string(c));
    fabric_.Connect(switch_node_, n, config_.host_link);
    ctrls_.push_back(std::make_unique<Controller>(n, engine_));
  }
  // Partner interconnect for dirty mirroring.
  for (std::uint32_t c = 0; c + 1 < config_.controllers; ++c) {
    fabric_.Connect(ctrls_[c]->node, ctrls_[c + 1]->node,
                    net::LinkProfile::Backplane());
  }
}

net::NodeId TraditionalArray::AttachHost(const std::string& name) {
  const net::NodeId host = fabric_.AddNode(name);
  fabric_.Connect(host, switch_node_, config_.host_link);
  return host;
}

std::uint32_t TraditionalArray::AddLun(cache::BackingStore* backing) {
  luns_.push_back(backing);
  const std::uint32_t lun = static_cast<std::uint32_t>(luns_.size() - 1);
  owner_.push_back(lun % config_.controllers);
  return lun;
}

std::uint32_t TraditionalArray::OwnerOf(std::uint32_t lun) const {
  return owner_[lun];
}

void TraditionalArray::Touch(Controller& ctrl, std::uint64_t key) {
  auto it = ctrl.lru_pos.find(key);
  if (it != ctrl.lru_pos.end()) {
    ctrl.lru.erase(it->second);
  }
  ctrl.lru.push_back(key);
  ctrl.lru_pos[key] = std::prev(ctrl.lru.end());
}

void TraditionalArray::EvictIfNeeded(std::uint32_t c) {
  Controller& ctrl = *ctrls_[c];
  while (ctrl.cache.size() > config_.cache_pages_per_controller &&
         !ctrl.lru.empty()) {
    // Evict the LRU clean page; dirty pages get a write-back kick and a
    // temporary overcommit, like a real array under pressure.
    bool evicted = false;
    for (auto it = ctrl.lru.begin(); it != ctrl.lru.end(); ++it) {
      const std::uint64_t key = *it;
      Page& p = ctrl.cache[key];
      if (p.dirty) continue;
      ctrl.cache.erase(key);
      ctrl.lru_pos.erase(key);
      ctrl.lru.erase(it);
      evicted = true;
      break;
    }
    if (!evicted) {
      const std::uint64_t key = ctrl.lru.front();
      const std::uint32_t lun = static_cast<std::uint32_t>(key >> 40);
      const std::uint64_t page = key & ((1ULL << 40) - 1);
      FlushKey(c, lun, page, [](bool) {});
      break;
    }
  }
}

void TraditionalArray::FlushKey(std::uint32_t c, std::uint32_t lun,
                                std::uint64_t page, WriteCallback cb) {
  Controller& ctrl = *ctrls_[c];
  const std::uint64_t key = Key(lun, page);
  auto it = ctrl.cache.find(key);
  if (it == ctrl.cache.end() || !it->second.dirty) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(true); });
    return;
  }
  const std::uint32_t bs = luns_[lun]->block_size();
  const std::uint64_t block =
      page * (config_.page_bytes / bs);
  util::Bytes snapshot = it->second.data;
  luns_[lun]->WriteBlocks(
      block, snapshot,
      [this, c, lun, page, key, cb = std::move(cb)](bool ok) mutable {
        Controller& ctrl = *ctrls_[c];
        auto it = ctrl.cache.find(key);
        if (ok && it != ctrl.cache.end()) {
          it->second.dirty = false;
          // Release the partner's mirror copy.
          const std::uint32_t p = partner(c);
          if (p != c) {
            fabric_.Send(ctrl.node, ctrls_[p]->node, 64,
                         [this, p, key](bool delivered) {
                           if (delivered) ctrls_[p]->partner_mirror.erase(key);
                         });
          }
        }
        cb(ok);
      });
}

void TraditionalArray::ReadPage(std::uint32_t c, std::uint32_t lun,
                                std::uint64_t page,
                                std::function<void(bool, util::Bytes)> cb) {
  Controller& ctrl = *ctrls_[c];
  const std::uint64_t key = Key(lun, page);
  auto it = ctrl.cache.find(key);
  if (it != ctrl.cache.end()) {
    ++hits_;
    ctrl.bytes_served += config_.page_bytes;
    Touch(ctrl, key);
    util::Bytes copy = it->second.data;
    const sim::Tick done = ctrl.compute.AcquireBytes(
        config_.page_bytes, config_.serve_ns_per_byte);
    engine_.ScheduleAt(std::max(done, engine_.now() + config_.local_access_ns),
                       [cb = std::move(cb), copy = std::move(copy)]() mutable {
                         cb(true, std::move(copy));
                       });
    return;
  }
  ++misses_;
  const std::uint32_t bs = luns_[lun]->block_size();
  const std::uint32_t pb = config_.page_bytes / bs;
  const std::uint64_t block = page * pb;
  if (block >= luns_[lun]->CapacityBlocks()) {
    engine_.Schedule(0, [this, cb = std::move(cb)]() mutable {
      cb(true, util::Bytes(config_.page_bytes, 0));
    });
    return;
  }
  const std::uint32_t count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      pb, luns_[lun]->CapacityBlocks() - block));
  luns_[lun]->ReadBlocks(
      block, count,
      [this, c, lun, page, key, cb = std::move(cb)](bool ok,
                                                    util::Bytes data) mutable {
        if (!ok) {
          cb(false, {});
          return;
        }
        if (data.size() < config_.page_bytes) {
          data.resize(config_.page_bytes, 0);
        }
        Controller& ctrl = *ctrls_[c];
        ctrl.bytes_served += config_.page_bytes;
        ctrl.cache[key] = Page{data, false};
        Touch(ctrl, key);
        EvictIfNeeded(c);
        (void)lun;
        (void)page;
        const sim::Tick done = ctrl.compute.AcquireBytes(
            config_.page_bytes, config_.serve_ns_per_byte);
        engine_.ScheduleAt(done, [cb = std::move(cb),
                                  data = std::move(data)]() mutable {
          cb(true, std::move(data));
        });
      });
}

void TraditionalArray::WritePage(std::uint32_t c, std::uint32_t lun,
                                 std::uint64_t page, std::uint32_t off,
                                 util::Bytes data, WriteCallback cb) {
  Controller& ctrl = *ctrls_[c];
  const std::uint64_t key = Key(lun, page);
  // Evaluate before `data` is moved into the continuation.
  const bool full = off == 0 && data.size() == config_.page_bytes;
  auto apply = [this, c, lun, page, key, off,
                data = std::move(data),
                cb = std::move(cb)](bool ok, util::Bytes base) mutable {
    if (!ok) {
      cb(false);
      return;
    }
    Controller& ctrl = *ctrls_[c];
    std::memcpy(base.data() + off, data.data(), data.size());
    ctrl.cache[key] = Page{base, true};
    Touch(ctrl, key);
    EvictIfNeeded(c);
    ctrl.bytes_served += data.size();
    const sim::Tick done =
        ctrl.compute.AcquireBytes(data.size(), config_.serve_ns_per_byte);
    // Mirror the dirty page to the partner before acking (active-passive).
    const std::uint32_t p = partner(c);
    engine_.ScheduleAt(done, [this, c, p, key, base = std::move(base), lun,
                              page, cb = std::move(cb)]() mutable {
      if (p == c || !ctrls_[p]->alive) {
        cb(true);
        FlushKey(c, lun, page, [](bool) {});
        return;
      }
      fabric_.Send(ctrls_[c]->node, ctrls_[p]->node, config_.page_bytes,
                   [this, c, p, key, lun, page, base = std::move(base),
                    cb = std::move(cb)](bool delivered) mutable {
                     if (!delivered) {
                       cb(false);
                       return;
                     }
                     ctrls_[p]->partner_mirror[key] = std::move(base);
                     cb(true);
                     FlushKey(c, lun, page, [](bool) {});
                   });
    });
  };

  auto it = ctrl.cache.find(key);
  if (it != ctrl.cache.end()) {
    apply(true, it->second.data);
  } else if (full) {
    apply(true, util::Bytes(config_.page_bytes, 0));
  } else {
    ReadPage(c, lun, page, [apply = std::move(apply)](
                               bool ok, util::Bytes base) mutable {
      apply(ok, std::move(base));
    });
  }
}

void TraditionalArray::Read(net::NodeId host, std::uint32_t lun,
                            std::uint64_t offset, std::uint32_t length,
                            ReadCallback cb) {
  const std::uint32_t c = owner_[lun];
  if (!ctrls_[c]->alive) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false, {}); });
    return;
  }
  auto result = std::make_shared<util::Bytes>(length, 0);
  fabric_.Send(host, ctrls_[c]->node, 128, [this, c, lun, host, offset, result,
                                            length, cb = std::move(cb)](
                                               bool delivered) mutable {
    if (!delivered) {
      cb(false, {});
      return;
    }
    const std::vector<util::PagePiece> pieces =
        util::SplitPages(offset, length, config_.page_bytes);
    auto join = std::make_shared<Join>(
        static_cast<int>(pieces.size()),
        [this, c, host, result, length, cb = std::move(cb)](bool ok) mutable {
          if (!ok) {
            cb(false, {});
            return;
          }
          fabric_.Send(ctrls_[c]->node, host, length,
                       [result, cb = std::move(cb)](bool delivered) {
                         cb(delivered,
                            delivered ? std::move(*result) : util::Bytes{});
                       });
        });
    for (const util::PagePiece& p : pieces) {
      ReadPage(c, lun, p.page,
               [p, result, join](bool ok, util::Bytes page_data) {
                 if (ok) {
                   std::memcpy(result->data() + p.at,
                               page_data.data() + p.in_page, p.len);
                 }
                 join->Arrive(ok);
               });
    }
  });
}

void TraditionalArray::Write(net::NodeId host, std::uint32_t lun,
                             std::uint64_t offset,
                             std::span<const std::uint8_t> data,
                             WriteCallback cb) {
  const std::uint32_t c = owner_[lun];
  if (!ctrls_[c]->alive) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(false); });
    return;
  }
  util::Bytes src(data.begin(), data.end());
  fabric_.Send(host, ctrls_[c]->node, data.size(), [this, c, lun, offset,
                                                    src = std::move(src),
                                                    cb = std::move(cb)](
                                                       bool delivered) mutable {
    if (!delivered) {
      cb(false);
      return;
    }
    const std::vector<util::PagePiece> pieces =
        util::SplitPages(offset, src.size(), config_.page_bytes);
    auto join =
        std::make_shared<Join>(static_cast<int>(pieces.size()), std::move(cb));
    for (const util::PagePiece& p : pieces) {
      const auto begin = src.begin() + static_cast<std::ptrdiff_t>(p.at);
      WritePage(c, lun, p.page, p.in_page, util::Bytes(begin, begin + p.len),
                [join](bool ok) { join->Arrive(ok); });
    }
  });
}

void TraditionalArray::FailController(std::uint32_t c) {
  Controller& dead = *ctrls_[c];
  dead.alive = false;
  fabric_.SetNodeUp(dead.node, false);
  const std::uint32_t p = partner(c);
  // Reassign LUNs to the partner.
  for (std::uint32_t lun = 0; lun < owner_.size(); ++lun) {
    if (owner_[lun] == c && p != c && ctrls_[p]->alive) {
      owner_[lun] = p;
    }
  }
  dead.cache.clear();
  dead.lru.clear();
  dead.lru_pos.clear();
  // The partner recovers the mirrored dirty pages into its own cache and
  // flushes them.
  if (p != c && ctrls_[p]->alive) {
    Controller& part = *ctrls_[p];
    for (auto& [key, data] : part.partner_mirror) {
      part.cache[key] = Page{std::move(data), true};
      Touch(part, key);
      const std::uint32_t lun = static_cast<std::uint32_t>(key >> 40);
      const std::uint64_t page = key & ((1ULL << 40) - 1);
      FlushKey(p, lun, page, [](bool) {});
    }
    part.partner_mirror.clear();
  }
}

void TraditionalArray::FlushAll(WriteCallback cb) {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>> dirty;
  for (std::uint32_t c = 0; c < ctrls_.size(); ++c) {
    if (!ctrls_[c]->alive) continue;
    for (const auto& [key, page] : ctrls_[c]->cache) {
      if (page.dirty) {
        dirty.emplace_back(c, static_cast<std::uint32_t>(key >> 40),
                           key & ((1ULL << 40) - 1));
      }
    }
  }
  if (dirty.empty()) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(true); });
    return;
  }
  auto join = std::make_shared<Join>(static_cast<int>(dirty.size()),
                                     std::move(cb));
  for (const auto& [c, lun, page] : dirty) {
    FlushKey(c, lun, page, [join](bool ok) { join->Arrive(ok); });
  }
}

std::vector<double> TraditionalArray::LoadByController() const {
  std::vector<double> loads;
  for (const auto& c : ctrls_) {
    loads.push_back(static_cast<double>(c->bytes_served));
  }
  return loads;
}

}  // namespace nlss::baseline
