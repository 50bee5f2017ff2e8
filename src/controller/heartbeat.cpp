#include "controller/heartbeat.h"

namespace nlss::controller {

HeartbeatMonitor::HeartbeatMonitor(StorageSystem& system, Config config)
    : system_(system), config_(config) {
  misses_.assign(system_.controller_count(), 0);
}

cache::ControllerId HeartbeatMonitor::MonitorBlade() const {
  for (std::uint32_t c = 0; c < system_.controller_count(); ++c) {
    if (system_.cache().IsAlive(c)) return c;
  }
  return 0;
}

void HeartbeatMonitor::Start() {
  if (running_) return;
  running_ = true;
  Tick();
}

void HeartbeatMonitor::Tick() {
  if (!running_) return;
  const cache::ControllerId monitor = MonitorBlade();
  for (std::uint32_t c = 0; c < system_.controller_count(); ++c) {
    if (c == monitor || !system_.cache().IsAlive(c)) continue;
    // Probe + ack round trip; a drop in either direction counts a miss.
    system_.fabric().Send(
        system_.controller_node(monitor), system_.controller_node(c), 64,
        [this, monitor, c](bool delivered) {
          if (!delivered) {
            ++misses_[c];
            return;
          }
          system_.fabric().Send(system_.controller_node(c),
                                system_.controller_node(monitor), 64,
                                [this, c](bool acked) {
                                  misses_[c] = acked ? 0 : misses_[c] + 1;
                                });
        });
  }
  system_.engine().Schedule(config_.interval_ns, [this, monitor] {
    if (!running_) return;
    // Evaluate after the probes had a full interval to complete.
    for (std::uint32_t c = 0; c < system_.controller_count(); ++c) {
      if (c == monitor || !system_.cache().IsAlive(c)) continue;
      if (misses_[c] >= config_.miss_threshold) {
        ++detections_;
        misses_[c] = 0;
        system_.FailController(c);
        system_.RecoverCluster();
      }
    }
    Tick();
  });
}

}  // namespace nlss::controller
