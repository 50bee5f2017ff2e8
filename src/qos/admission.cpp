#include "qos/admission.h"

#include <utility>

namespace nlss::qos {

bool Admission::Offer(std::uint32_t blade, TenantId tenant,
                      std::uint64_t cost_bytes, Scheduler::Launch launch,
                      obs::TraceContext ctx) {
  if (scheduler_ == nullptr) {
    launch([](bool) {});
    return true;
  }
  return scheduler_->Submit(blade % scheduler_->blades(), tenant, cost_bytes,
                            std::move(launch), ctx);
}

void Admission::Admit(std::uint32_t blade, TenantId tenant,
                      std::uint64_t cost_bytes, Scheduler::Launch launch,
                      obs::TraceContext ctx, sim::Callback rejected) {
  if (!Offer(blade, tenant, cost_bytes, std::move(launch), ctx)) {
    engine_.Schedule(0, std::move(rejected));
  }
}

void Admission::AdmitEventually(std::function<std::uint32_t()> blade,
                                std::uint64_t cost_bytes,
                                Scheduler::Launch launch,
                                obs::TraceContext ctx,
                                std::uint64_t* rejects) {
  // Offer a copy: a rejected submission drops it, and the retry needs it.
  if (Offer(blade(), tenant_, cost_bytes, launch, ctx)) return;
  ++*rejects;
  engine_.Schedule(kResubmitDelayNs, [this, blade = std::move(blade),
                                      cost_bytes, launch = std::move(launch),
                                      ctx, rejects]() mutable {
    AdmitEventually(std::move(blade), cost_bytes, std::move(launch), ctx,
                    rejects);
  });
}

}  // namespace nlss::qos
