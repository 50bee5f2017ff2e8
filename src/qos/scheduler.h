// Tenant-aware I/O scheduler and admission controller.
//
// One Scheduler sits between the host-facing entry points and the
// controller blades (controller::StorageSystem::AttachQos).  Each blade
// gets a bounded WFQ of admitted requests plus a dispatch-concurrency
// limit; each tenant gets a token bucket (rate cap) and a per-blade
// queue-depth cap.  The flow of a request:
//
//   Submit ──admission──> FairQueue ──tokens+WFQ order──> launch(...)
//      │         │                                            │
//      │         └─ reject (bounded queue / depth cap):       └─ done(ok):
//      │            caller fails the op; the host multipath      next WFQ
//      │            retry provides the backpressure delay        dispatch
//
// Callers enter through qos::Admission (admission.h), which decides what a
// rejection means for them.
//
// All waiting is DES-scheduled on sim::Engine (a single wake-up event is
// planted at the earliest token-eligibility tick when every queued head is
// throttled), so runs remain bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "qos/slo.h"
#include "qos/tenant.h"
#include "qos/token_bucket.h"
#include "qos/wfq.h"
#include "sim/engine.h"

namespace nlss::qos {

class Scheduler {
 public:
  struct Config {
    /// Requests dispatched downstream concurrently, per blade.  Small
    /// values give the WFQ control over ordering; large values approach
    /// FIFO passthrough.
    std::uint32_t max_in_service_per_blade = 2;
    /// Bounded per-blade queue (admission control).
    std::uint32_t max_queue_per_blade = 256;
  };

  Scheduler(sim::Engine& engine, TenantRegistry& registry,
            std::uint32_t blades)
      : Scheduler(engine, registry, blades, Config()) {}
  Scheduler(sim::Engine& engine, TenantRegistry& registry,
            std::uint32_t blades, Config config);

  /// Dispatch thunk: invoked when the request wins dispatch; must call
  /// `done(ok)` exactly once when the downstream I/O completes.
  using Launch = std::function<void(std::function<void(bool)> done)>;

  /// Admit a request of `cost_bytes` for `tenant` bound to `blade`.
  /// Returns false (and drops `launch`) when admission control rejects it:
  /// the blade queue is full or the tenant is over its queue-depth cap.
  /// A sampled `ctx` gets a "qos.queue" span covering admission-to-dispatch
  /// (the queue-wait component of the trace breakdown).
  bool Submit(std::uint32_t blade, TenantId tenant, std::uint64_t cost_bytes,
              Launch launch, obs::TraceContext ctx = {});

  /// Hedge-budget gate: may `tenant` spend one speculative duplicate
  /// attempt against `blade` right now?  Charges the tenant's hedge
  /// token bucket (ClassSpec::hedge_rate_per_sec / hedge_burst) on grant.
  /// Hedges are shed first under admission pressure: when the blade's
  /// queue is half full (firm requests already waiting), every hedge is
  /// denied regardless of budget.  The attempt itself still rides the
  /// normal Submit admission path.
  bool TryHedge(std::uint32_t blade, TenantId tenant);

  TenantRegistry& registry() { return registry_; }
  const TenantRegistry& registry() const { return registry_; }
  SloTracker& slo() { return slo_; }
  const SloTracker& slo() const { return slo_; }
  const Config& config() const { return config_; }
  std::uint32_t blades() const {
    return static_cast<std::uint32_t>(blades_.size());
  }

  std::size_t QueueDepth(std::uint32_t blade) const {
    return blades_[blade].queue.size();
  }
  std::uint32_t InService(std::uint32_t blade) const {
    return blades_[blade].in_service;
  }

 private:
  struct Blade {
    FairQueue queue;
    std::uint32_t in_service = 0;
    bool wakeup_pending = false;
    sim::Tick wakeup_at = 0;
  };

  void TryDispatch(std::uint32_t blade);
  void ScheduleWakeup(std::uint32_t blade, sim::Tick at);
  TokenBucket& BucketFor(TenantId t);
  TokenBucket& HedgeBucketFor(TenantId t);

  sim::Engine& engine_;
  TenantRegistry& registry_;
  Config config_;
  std::vector<Blade> blades_;
  std::map<TenantId, TokenBucket> buckets_;
  /// Hedge budgets: tokens are hedge attempts (cost 1), not bytes.
  std::map<TenantId, TokenBucket> hedge_buckets_;
  SloTracker slo_;
};

}  // namespace nlss::qos
