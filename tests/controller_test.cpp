#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "controller/highspeed.h"
#include "controller/system.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "sim/engine.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/stats.h"

namespace nlss::controller {
namespace {

class SystemTest : public ::testing::Test {
 protected:
  void Build(SystemConfig config = {}) {
    // Small disks keep rebuild-related tests fast.
    config.disk_profile.capacity_blocks = 16 * 1024;  // 64 MiB per disk
    fabric_ = std::make_unique<net::Fabric>(engine_);
    system_ = std::make_unique<StorageSystem>(engine_, *fabric_, config);
    host_ = system_->AttachHost("host0");
  }

  bool Write(VolumeId vol, std::uint64_t off, const util::Bytes& data) {
    bool ok = false, fired = false;
    system_->Write(host_, vol, off, data, [&](bool r) {
      ok = r;
      fired = true;
    });
    engine_.Run();
    EXPECT_TRUE(fired);
    return ok;
  }

  std::pair<bool, util::Bytes> Read(VolumeId vol, std::uint64_t off,
                                    std::uint32_t len) {
    bool ok = false;
    util::Bytes out;
    system_->Read(host_, vol, off, len, [&](bool r, util::Bytes d) {
      ok = r;
      out = std::move(d);
    });
    engine_.Run();
    return {ok, std::move(out)};
  }

  util::Bytes Pattern(std::size_t n, std::uint64_t seed) {
    util::Bytes b(n);
    util::FillPattern(b, seed);
    return b;
  }

  /// One call of a public I/O entry point; `done(ok)` fires on completion.
  struct EntryCall {
    const char* name;
    bool write;
    bool retried;  // balancer-picked blade behind the driver retry loop
    std::function<void(obs::TraceContext, std::function<void(bool)>)> issue;
  };

  /// All six public I/O entry points, each on one 4 KiB page of `vol`.
  std::vector<EntryCall> EntryCalls(VolumeId vol) {
    constexpr std::uint32_t kLen = 4 * util::KiB;
    const auto data = std::make_shared<const util::Bytes>(Pattern(kLen, 9));
    const std::uint32_t writer = system_->AllocWriterId();
    auto seq = std::make_shared<std::uint64_t>(0);
    auto wid = [writer, seq] {
      ++*seq;
      return cache::WriteId{writer, *seq, *seq};
    };
    const std::uint32_t replication = system_->config().cache.replication;
    using Done = std::function<void(bool)>;
    auto on_read = [](Done done) {
      return [done](bool ok, util::Bytes) { done(ok); };
    };
    return {
        {"Read", false, true,
         [=, this](obs::TraceContext ctx, Done done) {
           system_->Read(host_, vol, 0, kLen, on_read(done), 0,
                         qos::kAutoTenant, ctx);
         }},
        {"ReadVia", false, false,
         [=, this](obs::TraceContext ctx, Done done) {
           system_->ReadVia(host_, 1, vol, 0, kLen, on_read(done), 0,
                            qos::kAutoTenant, ctx);
         }},
        {"BladeRead", false, false,
         [=, this](obs::TraceContext ctx, Done done) {
           system_->BladeRead(2, vol, 0, kLen, 0, qos::kAutoTenant,
                              on_read(done), ctx);
         }},
        {"Write", true, true,
         [=, this](obs::TraceContext ctx, Done done) {
           system_->Write(host_, vol, 0, *data, done, qos::kAutoTenant, ctx);
         }},
        {"WriteVia", true, false,
         [=, this](obs::TraceContext ctx, Done done) {
           system_->WriteVia(host_, 1, vol, 0, *data, wid(), done, 0,
                             qos::kAutoTenant, ctx);
         }},
        {"BladeWrite", true, false,
         [=, this](obs::TraceContext ctx, Done done) {
           system_->BladeWrite(2, vol, 0, *data, replication, 0,
                               qos::kAutoTenant, wid(), done, ctx);
         }},
    };
  }

  sim::Engine engine_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<StorageSystem> system_;
  net::NodeId host_ = net::kInvalidNode;
};

TEST_F(SystemTest, EndToEndRoundtrip) {
  Build();
  const VolumeId vol = system_->CreateVolume("physics", 64 * util::MiB);
  const auto data = Pattern(1 * util::MiB, 1);
  ASSERT_TRUE(Write(vol, 12345, data));
  auto [ok, got] = Read(vol, 12345, 1 * util::MiB);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(SystemTest, MultipleVolumesIsolated) {
  Build();
  const VolumeId a = system_->CreateVolume("physics", 16 * util::MiB);
  const VolumeId b = system_->CreateVolume("biology", 16 * util::MiB);
  ASSERT_TRUE(Write(a, 0, Pattern(100000, 1)));
  ASSERT_TRUE(Write(b, 0, Pattern(100000, 2)));
  auto [ok_a, got_a] = Read(a, 0, 100000);
  auto [ok_b, got_b] = Read(b, 0, 100000);
  ASSERT_TRUE(ok_a && ok_b);
  EXPECT_TRUE(util::CheckPattern(got_a, 1));
  EXPECT_TRUE(util::CheckPattern(got_b, 2));
}

TEST_F(SystemTest, RoundRobinSpreadsLoad) {
  SystemConfig config;
  config.controllers = 4;
  Build(config);
  const VolumeId vol = system_->CreateVolume("t", 64 * util::MiB);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(Write(vol, i * 64 * util::KiB, Pattern(64 * util::KiB, i)));
  }
  std::uint64_t min_ops = ~0ull, max_ops = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    const auto ops = system_->cache().stats(c).ops;
    min_ops = std::min(min_ops, ops);
    max_ops = std::max(max_ops, ops);
  }
  EXPECT_GT(min_ops, 0u);
  EXPECT_LE(max_ops, min_ops + 12) << "round robin must spread entry load";
}

TEST_F(SystemTest, StaticBalancingConcentratesLoad) {
  SystemConfig config;
  config.controllers = 4;
  config.balancing = Balancing::kStaticByVolume;
  Build(config);
  const VolumeId vol = system_->CreateVolume("t", 64 * util::MiB);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(Write(vol, i * 64 * util::KiB, Pattern(64 * util::KiB, i)));
  }
  // All entry ops land on the volume's owner blade.
  int with_ops = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    if (system_->cache().stats(c).ops > 0) ++with_ops;
  }
  EXPECT_EQ(with_ops, 1);
}

TEST_F(SystemTest, SurvivesControllerFailure) {
  SystemConfig config;
  config.controllers = 4;
  config.cache.replication = 2;
  Build(config);
  const VolumeId vol = system_->CreateVolume("t", 32 * util::MiB);
  const auto data = Pattern(256 * util::KiB, 5);
  ASSERT_TRUE(Write(vol, 0, data));
  system_->FailController(1);
  system_->RecoverCluster();
  auto [ok, got] = Read(vol, 0, 256 * util::KiB);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(SystemTest, DiskFailureTransparentAndRebuilds) {
  Build();
  const VolumeId vol = system_->CreateVolume("t", 32 * util::MiB);
  const auto data = Pattern(2 * util::MiB, 7);
  ASSERT_TRUE(Write(vol, 0, data));

  bool rebuilt = false;
  system_->FailAndRebuildDisk(0, 2, [&](bool ok) { rebuilt = ok; });
  // Reads continue during the rebuild.
  auto [ok, got] = Read(vol, 0, 2 * util::MiB);
  ASSERT_TRUE(ok);
  EXPECT_EQ(got, data);
  engine_.Run();
  EXPECT_TRUE(rebuilt);
}

TEST_F(SystemTest, WritePolicyReplicationOverride) {
  SystemConfig config;
  config.cache.replication = 2;
  config.cache.flush_delay_ns = 500 * util::kNsPerMs;
  Build(config);
  const VolumeId vol = system_->CreateVolume("t", 32 * util::MiB);
  // Critical file: 3-way, through the per-request override the file
  // system's per-file policies use.
  bool ok = false;
  const cache::WriteId wid{system_->AllocWriterId(), 1, 1};
  system_->BladeWrite(system_->PickController(vol), vol, 0,
                      Pattern(64 * util::KiB, 1), 3, /*priority=*/0,
                      qos::kAutoTenant, wid, [&](bool r) { ok = r; });
  // Run past the ack but not past the delayed write-back flush.
  engine_.RunFor(100 * util::kNsPerMs);
  ASSERT_TRUE(ok);
  std::size_t replicas = 0;
  for (std::uint32_t c = 0; c < system_->controller_count(); ++c) {
    system_->cache().node(c).ForEach(
        [&](const cache::PageKey&, const cache::CacheNode::Frame& f) {
          if (f.is_replica) ++replicas;
        });
  }
  EXPECT_EQ(replicas, 2u);
}

// Every public entry point is one op to the metrics and the tracer: one
// counter tick, one latency sample, and a span that closes when the call
// completes, whether it roots its own trace or is a child span.
TEST_F(SystemTest, EveryEntryPointIsOneObservedOp) {
  Build();
  obs::Tracer::Config tc;
  tc.keep_recent = 4096;  // background flush traces must not evict ours
  obs::Hub hub(engine_, tc);
  system_->AttachObs(&hub);
  const VolumeId vol = system_->CreateVolume("t", 8 * util::MiB);
  obs::Registry& m = hub.metrics();
  const obs::Counter& reads = m.counter("nlss_controller_reads_total", "");
  const obs::Counter& writes = m.counter("nlss_controller_writes_total", "");
  const obs::Counter& failures =
      m.counter("nlss_controller_io_failures_total", "");
  const util::Histogram& read_ns =
      m.histogram("nlss_controller_read_latency_ns", "");
  const util::Histogram& write_ns =
      m.histogram("nlss_controller_write_latency_ns", "");
  obs::Tracer& tracer = hub.tracer();

  for (const EntryCall& call : EntryCalls(vol)) {
    const std::string span = call.write ? "controller.write"
                                        : "controller.read";
    for (const bool parented : {false, true}) {
      SCOPED_TRACE(std::string(call.name) +
                   (parented ? " under a caller's trace" : " as a root"));
      const std::uint64_t r0 = reads.value(), w0 = writes.value();
      const std::uint64_t f0 = failures.value();
      const std::uint64_t rl0 = read_ns.count(), wl0 = write_ns.count();
      obs::TraceContext parent;
      if (parented) parent = tracer.StartTrace(obs::Layer::kHost, "caller");
      const sim::Tick start = engine_.now();
      int fired = 0;
      bool ok = false;
      sim::Tick at = 0;
      call.issue(parent, [&](bool r) {
        ++fired;
        ok = r;
        at = engine_.now();
      });
      engine_.Run();
      ASSERT_EQ(fired, 1);
      EXPECT_TRUE(ok);
      EXPECT_EQ(reads.value() - r0, call.write ? 0u : 1u);
      EXPECT_EQ(writes.value() - w0, call.write ? 1u : 0u);
      EXPECT_EQ(read_ns.count() - rl0, call.write ? 0u : 1u);
      EXPECT_EQ(write_ns.count() - wl0, call.write ? 1u : 0u);
      EXPECT_EQ(failures.value(), f0);

      // End the caller's trace later than the call completed: a span the
      // controller left open would be closed then, at the later tick.
      if (parented) {
        engine_.RunFor(util::kNsPerMs);
        tracer.EndTrace(parent, true);
      }
      EXPECT_EQ(tracer.active(), 0u) << "a trace was left open";
      int spans = 0;
      for (const obs::FinishedTrace& t : tracer.recent()) {
        for (const obs::Span& s : t.spans) {
          if (s.name == span && s.start == start) {
            ++spans;
            EXPECT_EQ(s.end, at);
            EXPECT_EQ(s.parent == 0, !parented);
          }
        }
      }
      EXPECT_EQ(spans, 1);
    }
  }
}

// A QoS rejection at a controller entry fails the attempt at +0 ns; only
// the driver-retried entries (Read, Write) try again, 1 + 2 attempts 1 ms
// apart, and each call is still one op with one failure.
TEST_F(SystemTest, QosRejectionFailsEachEntryAttempt) {
  Build();
  obs::Hub hub(engine_);
  system_->AttachObs(&hub);
  const VolumeId vol = system_->CreateVolume("t", 8 * util::MiB);
  qos::TenantRegistry registry;
  qos::Scheduler::Config qc;
  qc.max_queue_per_blade = 0;  // admission control rejects every request
  qos::Scheduler qos(engine_, registry, system_->controller_count(), qc);
  system_->AttachQos(&qos);
  const auto rejected = [&qos] {
    std::uint64_t n = 0;
    for (const auto& [t, s] : qos.slo().all()) n += s.rejected;
    return n;
  };
  obs::Registry& m = hub.metrics();
  const obs::Counter& reads = m.counter("nlss_controller_reads_total", "");
  const obs::Counter& writes = m.counter("nlss_controller_writes_total", "");
  const obs::Counter& failures =
      m.counter("nlss_controller_io_failures_total", "");
  const util::Histogram& read_ns =
      m.histogram("nlss_controller_read_latency_ns", "");
  const util::Histogram& write_ns =
      m.histogram("nlss_controller_write_latency_ns", "");

  for (const EntryCall& call : EntryCalls(vol)) {
    SCOPED_TRACE(call.name);
    const std::uint64_t ops0 = reads.value() + writes.value();
    const std::uint64_t lat0 = read_ns.count() + write_ns.count();
    const std::uint64_t f0 = failures.value();
    const std::uint64_t rejected0 = rejected();
    const sim::Tick start = engine_.now();
    int fired = 0;
    bool ok = true;
    sim::Tick at = 0;
    call.issue({}, [&](bool r) {
      ++fired;
      ok = r;
      at = engine_.now();
    });
    engine_.Run();
    ASSERT_EQ(fired, 1);
    EXPECT_FALSE(ok);
    const std::uint64_t attempts = call.retried ? 3 : 1;
    EXPECT_EQ(rejected() - rejected0, attempts);
    EXPECT_EQ(at - start, (attempts - 1) * util::kNsPerMs);
    EXPECT_EQ(reads.value() + writes.value() - ops0, 1u);
    EXPECT_EQ(read_ns.count() + write_ns.count() - lat0, 1u);
    EXPECT_EQ(failures.value() - f0, 1u);
  }
  EXPECT_EQ(hub.tracer().active(), 0u);
}

TEST_F(SystemTest, ChargebackIntegration) {
  Build();
  const VolumeId vol = system_->CreateVolume("physics", 64 * util::MiB);
  (void)vol;
  system_->chargeback().Sample();
  ASSERT_TRUE(Write(vol, 0, Pattern(4 * util::MiB, 1)));
  bool flushed = false;
  system_->cache().FlushAll([&](bool) { flushed = true; });
  engine_.Run();
  ASSERT_TRUE(flushed);
  engine_.RunFor(util::kNsPerSec);
  system_->chargeback().Sample();
  EXPECT_GT(system_->chargeback().ByteSeconds("physics"), 0.0);
}

TEST_F(SystemTest, HighSpeedPortStreamsInOrderAtFullRate) {
  SystemConfig config;
  config.controllers = 4;
  config.cache.node_capacity_pages = 4096;
  Build(config);
  const VolumeId vol = system_->CreateVolume("media", 128 * util::MiB);
  // Preload 32 MiB so the stream reads from cache (tests the port path,
  // not the disks).
  const std::uint64_t len = 32 * util::MiB;
  for (std::uint64_t off = 0; off < len; off += 4 * util::MiB) {
    ASSERT_TRUE(Write(vol, off, Pattern(4 * util::MiB, off)));
  }

  HighSpeedPort::Config pc;
  HighSpeedPort port(*system_, {0, 1, 2, 3}, pc);
  HighSpeedPort::StreamResult result;
  bool fired = false;
  port.Stream(vol, 0, len, [&](HighSpeedPort::StreamResult r) {
    result = r;
    fired = true;
  });
  engine_.Run();
  ASSERT_TRUE(fired);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.bytes, len);
  // Egress is 10 GbE; with 4 cached blades the stream should come close.
  EXPECT_GT(result.Gbps(), 7.0);
  EXPECT_LE(result.Gbps(), 10.5);
}

TEST_F(SystemTest, HighSpeedPortSingleBladeIsSlower) {
  SystemConfig config;
  config.controllers = 4;
  config.cache.node_capacity_pages = 4096;
  // Enable the FC feed model: ~4 Gb/s per blade.
  config.cache.fc_ns_per_byte = 1.0 / util::GbpsToBytesPerNs(4.0);
  Build(config);
  const VolumeId vol = system_->CreateVolume("media", 64 * util::MiB);
  const std::uint64_t len = 8 * util::MiB;
  ASSERT_TRUE(Write(vol, 0, Pattern(len, 3)));
  bool flushed = false;
  system_->cache().FlushAll([&](bool) { flushed = true; });
  engine_.Run();
  ASSERT_TRUE(flushed);

  auto run_stream = [&](std::vector<cache::ControllerId> blades) {
    HighSpeedPort port(*system_, blades, {});
    HighSpeedPort::StreamResult result;
    port.Stream(vol, 0, len, [&](HighSpeedPort::StreamResult r) {
      result = r;
    });
    engine_.Run();
    return result;
  };
  // Note: after the first stream the data is cache-resident, so use cold
  // volumes per measurement would be ideal; here relative ordering of a
  // cached stream through 1 vs 4 blades still shows the compute/FC limits.
  const auto r4 = run_stream({0, 1, 2, 3});
  const auto r1 = run_stream({0});
  ASSERT_TRUE(r4.ok);
  ASSERT_TRUE(r1.ok);
  EXPECT_GT(r4.Gbps(), r1.Gbps()) << "striping over blades must be faster";
}

TEST_F(SystemTest, RandomizedEndToEnd) {
  SystemConfig config;
  config.controllers = 3;
  Build(config);
  const std::uint64_t size = 16 * util::MiB;
  const VolumeId vol = system_->CreateVolume("t", size);
  util::Rng rng(4242);
  util::Bytes model(size, 0);
  for (int op = 0; op < 60; ++op) {
    const std::uint64_t off = rng.Below(size - 1);
    const std::uint32_t len = static_cast<std::uint32_t>(
        rng.Range(1, std::min<std::uint64_t>(size - off, 300000)));
    if (rng.Chance(0.5)) {
      util::Bytes data(len);
      util::FillPattern(data, rng.Next());
      ASSERT_TRUE(Write(vol, off, data));
      std::copy(data.begin(), data.end(),
                model.begin() + static_cast<std::ptrdiff_t>(off));
    } else {
      auto [ok, got] = Read(vol, off, len);
      ASSERT_TRUE(ok);
      ASSERT_TRUE(std::equal(got.begin(), got.end(),
                             model.begin() + static_cast<std::ptrdiff_t>(off)))
          << "mismatch at op " << op;
    }
  }
}

}  // namespace
}  // namespace nlss::controller
