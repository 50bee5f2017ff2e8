#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/keystore.h"
#include "fs/filesystem.h"
#include "proto/block_target.h"
#include "qos/scheduler.h"
#include "qos/slo.h"
#include "qos/tenant.h"
#include "qos/token_bucket.h"
#include "qos/wfq.h"
#include "security/audit.h"
#include "security/auth.h"
#include "security/control.h"
#include "security/lun_mask.h"
#include "sim/engine.h"
#include "util/units.h"

namespace nlss::qos {
namespace {

// --- Token bucket ----------------------------------------------------------

TEST(TokenBucketTest, RefillTimingIsExact) {
  sim::Engine engine;
  TokenBucket bucket(1000, 500);  // 1000 B/s, 500 B burst; starts full

  EXPECT_TRUE(bucket.TryTake(500, engine.now()));
  EXPECT_FALSE(bucket.TryTake(1, engine.now()));

  // 1 byte at 1000 B/s = exactly 1 ms.
  EXPECT_EQ(bucket.EligibleAt(1, engine.now()), 1 * util::kNsPerMs);
  EXPECT_FALSE(bucket.TryTake(1, 1 * util::kNsPerMs - 1));
  EXPECT_TRUE(bucket.TryTake(1, 1 * util::kNsPerMs));

  // Sub-token remainders accumulate: after spending the byte, the next
  // byte is again exactly 1 ms out.
  EXPECT_EQ(bucket.EligibleAt(1, 1 * util::kNsPerMs), 2 * util::kNsPerMs);
}

TEST(TokenBucketTest, BucketCapsAtBurstAndUncappedAlwaysPasses) {
  TokenBucket bucket(1000, 500);
  // Idle for 10 s: balance saturates at the burst, not 10000.
  EXPECT_EQ(bucket.BalanceAt(10 * util::kNsPerSec), 500);

  TokenBucket uncapped(0, 0);
  EXPECT_TRUE(uncapped.TryTake(1ull << 40, 0));
}

TEST(TokenBucketTest, OversizedOpChargedInFullViaDebt) {
  TokenBucket bucket(1000, 500);
  // A 2000-byte op needs only a full (500) bucket to go, but is charged
  // all 2000 bytes: balance goes to -1500, enforcing the long-run rate.
  EXPECT_TRUE(bucket.TryTake(2000, 0));
  EXPECT_EQ(bucket.BalanceAt(0), -1500);
  // Paying off the debt plus a full refill takes (1500+500)/1000 s = 2 s.
  EXPECT_EQ(bucket.EligibleAt(500, 0), 2 * util::kNsPerSec);
}

// --- WFQ ordering ------------------------------------------------------------

TEST(FairQueueTest, UnequalWeightsShareByWeight) {
  FairQueue q;
  const TenantId a = 1, b = 2;
  // 6 ops each, equal cost; weight 2 vs 1.
  for (int i = 0; i < 6; ++i) {
    q.Push(QueuedOp{a, 100, 0, nullptr, 0, 0}, 2);
    q.Push(QueuedOp{b, 100, 0, nullptr, 0, 0}, 1);
  }
  auto always = [](TenantId, std::uint64_t) { return true; };
  std::vector<TenantId> order;
  int a_in_first_six = 0;
  for (int i = 0; i < 12; ++i) {
    auto op = q.PopEligible(always);
    ASSERT_TRUE(op.has_value());
    order.push_back(op->tenant);
    if (i < 6 && op->tenant == a) ++a_in_first_six;
  }
  EXPECT_TRUE(q.empty());
  // Over the backlogged prefix, A is dispatched ~2x as often as B.
  EXPECT_EQ(a_in_first_six, 4);
  // Deterministic: equal start tags break ties by tenant id.
  EXPECT_EQ(order.front(), a);
}

TEST(FairQueueTest, ThrottledFlowDoesNotBlockOthers) {
  FairQueue q;
  q.Push(QueuedOp{1, 100, 0, nullptr, 0, 0}, 1);
  q.Push(QueuedOp{2, 100, 0, nullptr, 0, 0}, 1);
  // Tenant 1 is token-starved: eligible() rejects it.
  auto op = q.PopEligible(
      [](TenantId t, std::uint64_t) { return t != 1; });
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->tenant, 2u);
  EXPECT_EQ(q.TenantDepth(1), 1u);
}

// --- Scheduler: DES-scheduled refill ---------------------------------------

TEST(SchedulerTest, ThrottledDispatchWakesAtExactRefillTick) {
  sim::Engine engine;
  TenantRegistry registry;
  const TenantId bronze = registry.Register("bronze-lab", ServiceClass::kBronze);
  ClassSpec spec = registry.spec(ServiceClass::kBronze);
  spec.rate_bytes_per_sec = 1000;
  spec.burst_bytes = 500;
  registry.SetClassSpec(ServiceClass::kBronze, spec);

  Scheduler qos(engine, registry, 1);
  std::vector<sim::Tick> dispatched;
  auto issue = [&] {
    ASSERT_TRUE(qos.Submit(0, bronze, 500, [&](std::function<void(bool)> done) {
      dispatched.push_back(engine.now());
      done(true);
    }));
  };
  issue();  // burst: immediate
  issue();  // waits a full 500-byte refill = 0.5 s
  issue();  // another 0.5 s behind that
  engine.Run();
  ASSERT_EQ(dispatched.size(), 3u);
  EXPECT_EQ(dispatched[0], 0u);
  EXPECT_EQ(dispatched[1], util::kNsPerSec / 2);
  EXPECT_EQ(dispatched[2], util::kNsPerSec);
}

// --- Scheduler: admission control / backpressure -----------------------------

TEST(SchedulerTest, BoundedBladeQueueRejects) {
  sim::Engine engine;
  TenantRegistry registry;
  const TenantId t = registry.Register("lab", ServiceClass::kGold);
  Scheduler::Config cfg;
  cfg.max_in_service_per_blade = 1;
  cfg.max_queue_per_blade = 3;
  Scheduler qos(engine, registry, 2, cfg);

  // Park one op in service (its done is held), then fill the queue.
  std::function<void(bool)> parked_done;
  ASSERT_TRUE(qos.Submit(0, t, 100, [&](std::function<void(bool)> done) {
    parked_done = std::move(done);
  }));
  engine.Run();
  ASSERT_TRUE(parked_done);

  int launched = 0;
  auto launch = [&](std::function<void(bool)> done) {
    ++launched;
    done(true);
  };
  EXPECT_TRUE(qos.Submit(0, t, 100, launch));
  EXPECT_TRUE(qos.Submit(0, t, 100, launch));
  EXPECT_TRUE(qos.Submit(0, t, 100, launch));
  EXPECT_FALSE(qos.Submit(0, t, 100, launch));  // queue bound hit
  EXPECT_EQ(qos.slo().stats(t).rejected, 1u);
  // Other blades are unaffected.
  EXPECT_TRUE(qos.Submit(1, t, 100, launch));

  // Completing the parked op drains the queue in order.
  parked_done(true);
  engine.Run();
  EXPECT_EQ(launched, 4);
  EXPECT_EQ(qos.QueueDepth(0), 0u);
}

TEST(SchedulerTest, PerTenantDepthCapIsolatesTenants) {
  sim::Engine engine;
  TenantRegistry registry;
  const TenantId hog = registry.Register("hog", ServiceClass::kBronze);
  const TenantId vip = registry.Register("vip", ServiceClass::kGold);
  ClassSpec spec = registry.spec(ServiceClass::kBronze);
  spec.max_queue_depth = 2;
  registry.SetClassSpec(ServiceClass::kBronze, spec);
  Scheduler::Config cfg;
  cfg.max_in_service_per_blade = 1;
  cfg.max_queue_per_blade = 100;
  Scheduler qos(engine, registry, 1, cfg);

  std::function<void(bool)> parked_done;
  ASSERT_TRUE(qos.Submit(0, vip, 1, [&](std::function<void(bool)> done) {
    parked_done = std::move(done);
  }));
  auto noop = [](std::function<void(bool)> done) { done(true); };
  EXPECT_TRUE(qos.Submit(0, hog, 1, noop));
  EXPECT_TRUE(qos.Submit(0, hog, 1, noop));
  // The hog is over its own cap...
  EXPECT_FALSE(qos.Submit(0, hog, 1, noop));
  EXPECT_EQ(qos.slo().stats(hog).rejected, 1u);
  // ...but the gold tenant still gets in (blade queue has room).
  EXPECT_TRUE(qos.Submit(0, vip, 1, noop));
  parked_done(true);
  engine.Run();
}

// --- Scheduler: weight share end to end ------------------------------------

TEST(SchedulerTest, BackloggedTenantsShareByConfiguredWeights) {
  sim::Engine engine;
  TenantRegistry registry;
  const TenantId a = registry.Register("a", ServiceClass::kGold);    // w=8
  const TenantId b = registry.Register("b", ServiceClass::kBronze);  // w=1
  Scheduler::Config cfg;
  cfg.max_in_service_per_blade = 1;
  cfg.max_queue_per_blade = 1000;
  Scheduler qos(engine, registry, 1, cfg);

  // Closed loops: each tenant keeps 8 equal-cost ops queued; service takes
  // a fixed 1 us downstream.
  std::uint64_t done_a = 0, done_b = 0;
  std::function<void(TenantId)> submit = [&](TenantId t) {
    EXPECT_TRUE(qos.Submit(0, t, 1000, [&, t](std::function<void(bool)> done) {
      engine.Schedule(1 * util::kNsPerUs, [&, t, done] {
        (t == a ? done_a : done_b) += 1;
        done(true);
        if (engine.now() < 10 * util::kNsPerMs) submit(t);
      });
    })) << "closed-loop submit rejected despite deep queue";
  };
  for (int i = 0; i < 8; ++i) {
    submit(a);
    submit(b);
  }
  engine.Run();
  ASSERT_GT(done_b, 0u);
  const double ratio = static_cast<double>(done_a) / done_b;
  EXPECT_NEAR(ratio, 8.0, 8.0 * 0.10);  // within 10% of the 8:1 weights
}

// --- Tenant resolution: session login and FilePolicy -------------------------

class QosStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    controller::SystemConfig config;
    config.disk_profile.capacity_blocks = 16 * 1024;
    fabric_ = std::make_unique<net::Fabric>(engine_);
    system_ = std::make_unique<controller::StorageSystem>(engine_, *fabric_,
                                                          config);
    auth_ = std::make_unique<security::AuthService>(engine_, keys_);
    audit_ = std::make_unique<security::AuditLog>(engine_);
    auth_->AddUser("alice", "pw", {"reader", "writer"});
    host_ = system_->AttachHost("client");

    gold_ = registry_.Register("oltp-lab", ServiceClass::kGold);
    bronze_ = registry_.Register("scan-lab", ServiceClass::kBronze);
    registry_.BindUser("alice", gold_);
    qos_ = std::make_unique<Scheduler>(engine_, registry_,
                                       system_->controller_count());
    system_->AttachQos(qos_.get());
  }

  sim::Engine engine_;
  crypto::KeyStore keys_{std::string_view("pw-master")};
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<controller::StorageSystem> system_;
  std::unique_ptr<security::AuthService> auth_;
  std::unique_ptr<security::AuditLog> audit_;
  net::NodeId host_ = net::kInvalidNode;
  TenantRegistry registry_;
  std::unique_ptr<Scheduler> qos_;
  TenantId gold_ = kDefaultTenant;
  TenantId bronze_ = kDefaultTenant;
};

TEST_F(QosStackTest, BlockSessionLoginCarriesTenantToSlo) {
  security::LunMasking mask;
  security::CommandPolicy policy;
  proto::BlockTarget target(*system_, *auth_, mask, policy, *audit_);
  target.AttachQos(&registry_);
  const auto vol = system_->CreateVolume("t", 16 * util::MiB);
  mask.Allow("host-a", vol);

  const auto session = target.Login(host_, "host-a", "alice", "pw");
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(target.SessionTenant(*session), gold_);

  util::Bytes data(4096, 0xAB);
  proto::BlockStatus ws = proto::BlockStatus::kIoError;
  target.Write(*session, vol, 0, data, [&](proto::BlockStatus s) { ws = s; });
  engine_.Run();
  EXPECT_EQ(ws, proto::BlockStatus::kOk);

  proto::BlockStatus rs = proto::BlockStatus::kIoError;
  target.Read(*session, vol, 0, 1,
              [&](proto::BlockStatus s, util::Bytes, std::uint32_t) {
                rs = s;
              });
  engine_.Run();
  EXPECT_EQ(rs, proto::BlockStatus::kOk);

  // Both ops were attributed to alice's tenant, not the default.
  EXPECT_EQ(qos_->slo().stats(gold_).ops, 2u);
  EXPECT_EQ(qos_->slo().stats(kDefaultTenant).ops, 0u);
}

TEST_F(QosStackTest, FilePolicyRoutesFsIoToTenant) {
  fs::FileSystem fsys(*system_);
  fs::FilePolicy policy;
  policy.qos_tenant = bronze_;
  ASSERT_EQ(fsys.Create("/scan.dat", policy), fs::Status::kOk);

  util::Bytes data(64 * util::KiB, 0x5C);
  fs::Status ws = fs::Status::kIoError;
  fsys.Write("/scan.dat", 0, data, [&](fs::Status s) { ws = s; });
  engine_.Run();
  EXPECT_EQ(ws, fs::Status::kOk);

  fs::Status rs = fs::Status::kIoError;
  fsys.Read("/scan.dat", 0, data.size(), [&](fs::Status s, util::Bytes) {
    rs = s;
  });
  engine_.Run();
  EXPECT_EQ(rs, fs::Status::kOk);

  const auto& stats = qos_->slo().stats(bronze_);
  EXPECT_GE(stats.ops, 2u);
  EXPECT_GT(stats.bytes, 0u);
}

}  // namespace
}  // namespace nlss::qos
