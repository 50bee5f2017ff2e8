#include "controller/highspeed.h"

#include <algorithm>
#include <cassert>

namespace nlss::controller {

HighSpeedPort::HighSpeedPort(StorageSystem& system,
                             std::vector<cache::ControllerId> blades,
                             Config config)
    : system_(system), blades_(std::move(blades)), config_(config) {
  assert(!blades_.empty());
  net::Fabric& fabric = system_.fabric();
  port_node_ = fabric.AddNode("hs-port");
  client_node_ = fabric.AddNode("hs-client");
  for (const cache::ControllerId b : blades_) {
    fabric.Connect(system_.controller_node(b), port_node_,
                   config_.blade_to_port);
  }
  fabric.Connect(port_node_, client_node_, config_.egress);
}

std::uint32_t HighSpeedPort::SegBytes(const StreamState& s,
                                      std::uint64_t seq) const {
  const std::uint64_t begin = seq * config_.segment_bytes;
  const std::uint64_t end =
      std::min<std::uint64_t>(begin + config_.segment_bytes, s.length);
  return static_cast<std::uint32_t>(end - begin);
}

void HighSpeedPort::Stream(VolumeId vol, std::uint64_t offset,
                           std::uint64_t length,
                           std::function<void(StreamResult)> done) {
  auto s = std::make_shared<StreamState>();
  s->vol = vol;
  s->offset = offset;
  s->length = length;
  s->total_segments =
      (length + config_.segment_bytes - 1) / config_.segment_bytes;
  s->start = system_.engine().now();
  s->done = std::move(done);
  if (s->total_segments == 0) {
    system_.engine().Schedule(0, [this, s] { MaybeFinish(s); });
    return;
  }
  IssueMore(s);
}

void HighSpeedPort::IssueMore(const std::shared_ptr<StreamState>& s) {
  const std::uint64_t window =
      static_cast<std::uint64_t>(blades_.size()) * config_.window_per_blade;
  while (!s->failed && s->next_to_issue < s->total_segments &&
         s->outstanding < window) {
    const std::uint64_t seq = s->next_to_issue++;
    ++s->outstanding;
    IssueSegment(s, seq, blades_[seq % blades_.size()], 0);
  }
}

void HighSpeedPort::IssueSegment(const std::shared_ptr<StreamState>& s,
                                 std::uint64_t seq, cache::ControllerId blade,
                                 std::uint32_t attempt) {
  const std::uint32_t bytes = SegBytes(*s, seq);
  const std::uint64_t seg_off =
      s->offset + seq * static_cast<std::uint64_t>(config_.segment_bytes);
  // On blade failure, rotate the segment to the next live blade: the
  // stream rides through maintenance and controller loss (paper §6.3).
  auto retry = [this, s, seq, attempt](cache::ControllerId failed_blade) {
    if (attempt + 1 >= static_cast<std::uint32_t>(blades_.size()) + 1) {
      s->failed = true;
      --s->outstanding;
      MaybeFinish(s);
      return;
    }
    cache::ControllerId next = failed_blade;
    for (std::size_t k = 1; k <= blades_.size(); ++k) {
      const cache::ControllerId candidate =
          blades_[(std::find(blades_.begin(), blades_.end(), failed_blade) -
                   blades_.begin() + k) %
                  blades_.size()];
      if (system_.cache().IsAlive(candidate)) {
        next = candidate;
        break;
      }
    }
    IssueSegment(s, seq, next, attempt + 1);
  };
  // The blade reads its segment through the coherent cache (charging its
  // compute + FC feed), then ships it to the shared port.
  system_.cache().Read(
      blade, s->vol, seg_off, bytes,
      [this, s, seq, blade, bytes, retry](bool ok, util::Bytes) {
        if (!ok) {
          retry(blade);
          return;
        }
        system_.fabric().Send(
            system_.controller_node(blade), port_node_, bytes,
            [this, s, seq, bytes, retry, blade](bool delivered) {
              if (delivered) {
                SegmentAtPort(s, seq, bytes);
              } else {
                retry(blade);
              }
            });
      });
}

void HighSpeedPort::SegmentAtPort(const std::shared_ptr<StreamState>& s,
                                  std::uint64_t seq, std::uint64_t bytes) {
  s->arrived[seq] = bytes;
  PumpEgress(s);
}

void HighSpeedPort::PumpEgress(const std::shared_ptr<StreamState>& s) {
  // Emit consecutive ready segments over the egress link, in order.
  while (true) {
    auto it = s->arrived.find(s->next_to_deliver);
    if (it == s->arrived.end()) return;
    const std::uint64_t bytes = it->second;
    s->arrived.erase(it);
    ++s->next_to_deliver;
    system_.fabric().Send(port_node_, client_node_, bytes,
                          [this, s, bytes](bool delivered) {
                            --s->outstanding;
                            if (delivered) {
                              s->delivered_bytes += bytes;
                              IssueMore(s);
                            } else {
                              s->failed = true;
                            }
                            MaybeFinish(s);
                          });
  }
}

void HighSpeedPort::MaybeFinish(const std::shared_ptr<StreamState>& s) {
  if (s->done == nullptr) return;
  const bool complete =
      s->next_to_deliver == s->total_segments && s->outstanding == 0;
  const bool aborted = s->failed && s->outstanding == 0;
  if (!complete && !aborted) return;
  StreamResult r;
  r.ok = !s->failed;
  r.bytes = s->delivered_bytes;
  r.elapsed_ns = system_.engine().now() - s->start;
  auto done = std::move(s->done);
  s->done = nullptr;
  done(r);
}

}  // namespace nlss::controller
