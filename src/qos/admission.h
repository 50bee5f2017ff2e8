// The one QoS admission path.
//
// Everything that rides the per-blade scheduler enters here: controller
// host and blade I/O attempts, metadata shard visits, and tier demotion
// batches.  With no scheduler attached a request runs at once (its `done`
// is a no-op); otherwise it is submitted to blade `blade % blades()`, and
// a request that admission control rejects follows one of two policies:
//
//   Admit            foreground: the attempt fails at +0 ns and the
//                    caller's retry policy supplies the backpressure delay
//   AdmitEventually  background: counted, then re-submitted after
//                    kResubmitDelayNs until admitted
#pragma once

#include <cstdint>
#include <functional>

#include "obs/trace.h"
#include "qos/scheduler.h"
#include "sim/callback.h"
#include "sim/engine.h"
#include "util/units.h"

namespace nlss::qos {

/// Deterministic delay before a rejected background request tries again.
inline constexpr sim::Tick kResubmitDelayNs = 500 * util::kNsPerUs;

class Admission {
 public:
  explicit Admission(sim::Engine& engine) : engine_(engine) {}

  /// Attach a scheduler (nullptr detaches).  `tenant` is the identity
  /// background requests (AdmitEventually) are charged to.
  void Attach(Scheduler* scheduler, TenantId tenant = kDefaultTenant) {
    scheduler_ = scheduler;
    tenant_ = tenant;
  }
  Scheduler* scheduler() const { return scheduler_; }

  /// Foreground admission: a rejection runs `rejected` at +0 ns.
  void Admit(std::uint32_t blade, TenantId tenant, std::uint64_t cost_bytes,
             Scheduler::Launch launch, obs::TraceContext ctx,
             sim::Callback rejected);

  /// Background admission as the attached tenant: a rejection bumps
  /// `*rejects` and re-submits after kResubmitDelayNs.  `blade()` and the
  /// attachment are re-read at every attempt, so a re-submission follows
  /// the current placement.
  void AdmitEventually(std::function<std::uint32_t()> blade,
                       std::uint64_t cost_bytes, Scheduler::Launch launch,
                       obs::TraceContext ctx, std::uint64_t* rejects);

 private:
  /// Run or submit `launch`; false when admission control rejected it.
  bool Offer(std::uint32_t blade, TenantId tenant, std::uint64_t cost_bytes,
             Scheduler::Launch launch, obs::TraceContext ctx);

  sim::Engine& engine_;
  Scheduler* scheduler_ = nullptr;
  TenantId tenant_ = kDefaultTenant;
};

}  // namespace nlss::qos
