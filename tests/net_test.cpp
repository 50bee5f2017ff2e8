#include <gtest/gtest.h>

#include <algorithm>

#include "net/fabric.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "util/units.h"

namespace nlss::net {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  sim::Engine engine;
  Fabric fabric{engine};
};

TEST_F(FabricTest, DirectDeliveryTiming) {
  const NodeId a = fabric.AddNode("a");
  const NodeId b = fabric.AddNode("b");
  // 1 byte/ns, 1000 ns latency.
  fabric.Connect(a, b, LinkProfile{.latency_ns = 1000, .bytes_per_ns = 1.0});
  sim::Tick delivered = 0;
  fabric.Send(a, b, 5000, [&](bool) { delivered = engine.now(); });
  engine.Run();
  // serialization 5000 ns + latency 1000 ns.
  EXPECT_EQ(delivered, 6000u);
}

TEST_F(FabricTest, FifoSerializationContention) {
  const NodeId a = fabric.AddNode("a");
  const NodeId b = fabric.AddNode("b");
  fabric.Connect(a, b, LinkProfile{.latency_ns = 0, .bytes_per_ns = 1.0});
  std::vector<sim::Tick> t(2);
  fabric.Send(a, b, 1000, [&](bool) { t[0] = engine.now(); });
  fabric.Send(a, b, 1000, [&](bool) { t[1] = engine.now(); });
  engine.Run();
  EXPECT_EQ(t[0], 1000u);
  EXPECT_EQ(t[1], 2000u) << "second message must queue behind the first";
}

TEST_F(FabricTest, ReverseDirectionIndependent) {
  const NodeId a = fabric.AddNode("a");
  const NodeId b = fabric.AddNode("b");
  fabric.Connect(a, b, LinkProfile{.latency_ns = 0, .bytes_per_ns = 1.0});
  std::vector<sim::Tick> t(2);
  fabric.Send(a, b, 1000, [&](bool) { t[0] = engine.now(); });
  fabric.Send(b, a, 1000, [&](bool) { t[1] = engine.now(); });
  engine.Run();
  EXPECT_EQ(t[0], 1000u);
  EXPECT_EQ(t[1], 1000u) << "duplex link: directions do not contend";
}

TEST_F(FabricTest, MultiHopThroughSwitch) {
  const NodeId host = fabric.AddNode("host");
  const NodeId sw = fabric.AddNode("switch");
  const NodeId ctrl = fabric.AddNode("controller");
  const LinkProfile p{.latency_ns = 100, .bytes_per_ns = 1.0};
  fabric.Connect(host, sw, p);
  fabric.Connect(sw, ctrl, p);
  sim::Tick delivered = 0;
  fabric.Send(host, ctrl, 1000, [&](bool) { delivered = engine.now(); });
  engine.Run();
  // Two hops of (1000 ser + 100 lat) each, store-and-forward.
  EXPECT_EQ(delivered, 2200u);
  EXPECT_EQ(fabric.HopCount(host, ctrl), 2u);
}

TEST_F(FabricTest, LoopbackIsFree) {
  const NodeId a = fabric.AddNode("a");
  bool delivered = false;
  fabric.Send(a, a, 1 << 20, [&](bool ok) { delivered = ok; });
  engine.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(engine.now(), 0u);
}

TEST_F(FabricTest, NoRouteDrops) {
  const NodeId a = fabric.AddNode("a");
  const NodeId b = fabric.AddNode("b");
  (void)b;
  bool delivered = false, dropped = false;
  fabric.Send(a, b, 100, [&](bool ok) { (ok ? delivered : dropped) = true; });
  engine.Run();
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(dropped);
  EXPECT_EQ(fabric.dropped(), 1u);
}

TEST_F(FabricTest, DownNodeDropsAndRecovers) {
  const NodeId a = fabric.AddNode("a");
  const NodeId b = fabric.AddNode("b");
  fabric.Connect(a, b, LinkProfile{});
  fabric.SetNodeUp(b, false);
  int drops = 0, ok = 0;
  fabric.Send(a, b, 100, [&](bool delivered) { ++(delivered ? ok : drops); });
  engine.Run();
  EXPECT_EQ(drops, 1);
  fabric.SetNodeUp(b, true);
  fabric.Send(a, b, 100, [&](bool delivered) { ++(delivered ? ok : drops); });
  engine.Run();
  EXPECT_EQ(ok, 1);
}

// a - sw - b, where sw - b goes down while the message is on the first hop:
// the message leaves a, then finds no route at sw.
class MidFlightDropTest : public FabricTest {
 protected:
  const NodeId a = fabric.AddNode("a");
  const NodeId sw = fabric.AddNode("sw");
  const NodeId b = fabric.AddNode("b");
  static constexpr sim::Tick kHopArrival = 1100;  // 100 B at 1 B/ns + 1 us

  void SetUp() override {
    const LinkProfile p{.latency_ns = 1000, .bytes_per_ns = 1.0};
    fabric.Connect(a, sw, p);
    fabric.Connect(sw, b, p);
    engine.Schedule(500, [this] { fabric.SetLinkUp(sw, b, false); });
  }
};

TEST_F(MidFlightDropTest, CompletesOnceWithFalseAtTheHop) {
  int calls = 0;
  bool outcome = true;
  sim::Tick at = 0;
  fabric.Send(a, b, 100, [&](bool delivered) {
    ++calls;
    outcome = delivered;
    at = engine.now();
  });
  engine.Run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(outcome);
  EXPECT_EQ(at, kHopArrival);
  EXPECT_EQ(fabric.dropped(), 1u);
  EXPECT_EQ(fabric.StatsFor(a, sw).messages, 1u) << "the first hop was taken";
}

TEST_F(MidFlightDropTest, SampledSpanEndsAtTheDrop) {
  obs::Tracer tracer(engine);
  const obs::TraceContext root = tracer.StartTrace(obs::Layer::kHost, "op");
  fabric.Send(a, b, 100, nullptr, root);
  engine.Schedule(5000, [] {});
  engine.Run();
  tracer.EndTrace(root, false);
  ASSERT_EQ(tracer.recent().size(), 1u);
  const std::vector<obs::Span>& spans = tracer.recent().back().spans;
  const auto net = std::find_if(spans.begin(), spans.end(), [](const obs::Span& s) {
    return s.name == "net.send";
  });
  ASSERT_NE(net, spans.end());
  EXPECT_EQ(net->start, 0u);
  EXPECT_EQ(net->end, kHopArrival) << "not clamped at the trace end (5000)";
}

TEST_F(FabricTest, NullCompletionDropIsCounted) {
  const NodeId a = fabric.AddNode("a");
  const NodeId b = fabric.AddNode("b");
  fabric.Send(a, b, 100, nullptr);
  engine.Run();
  EXPECT_EQ(fabric.dropped(), 1u);
}

TEST_F(FabricTest, ReroutesAroundDownLink) {
  // a - b - d and a - c - d; kill a-b, traffic survives via c.
  const NodeId a = fabric.AddNode("a");
  const NodeId b = fabric.AddNode("b");
  const NodeId c = fabric.AddNode("c");
  const NodeId d = fabric.AddNode("d");
  const LinkProfile p{.latency_ns = 10, .bytes_per_ns = 1.0};
  fabric.Connect(a, b, p);
  fabric.Connect(b, d, p);
  fabric.Connect(a, c, p);
  fabric.Connect(c, d, p);
  fabric.SetLinkUp(a, b, false);
  bool delivered = false;
  fabric.Send(a, d, 10, [&](bool ok) { delivered = ok; });
  engine.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(fabric.StatsFor(a, c).messages, 1u);
  EXPECT_EQ(fabric.StatsFor(a, b).messages, 0u);
}

TEST_F(FabricTest, StatsAccumulate) {
  const NodeId a = fabric.AddNode("a");
  const NodeId b = fabric.AddNode("b");
  fabric.Connect(a, b, LinkProfile{.latency_ns = 0, .bytes_per_ns = 1.0});
  fabric.Send(a, b, 500, [](bool) {});
  fabric.Send(a, b, 700, [](bool) {});
  engine.Run();
  const LinkStats s = fabric.StatsFor(a, b);
  EXPECT_EQ(s.messages, 2u);
  EXPECT_EQ(s.bytes, 1200u);
  EXPECT_EQ(s.busy_ns, 1200u);
  EXPECT_EQ(fabric.TotalBytesCarried(), 1200u);
}

TEST_F(FabricTest, BandwidthMatchesProfile) {
  // Saturate a 10 GbE link for 1 ms and verify delivered throughput.
  const NodeId a = fabric.AddNode("a");
  const NodeId b = fabric.AddNode("b");
  fabric.Connect(a, b, LinkProfile::TenGbE());
  std::uint64_t bytes_delivered = 0;
  const std::uint64_t msg = 64 * util::KiB;
  for (int i = 0; i < 100; ++i) {
    fabric.Send(a, b, msg, [&](bool ok) { bytes_delivered += ok ? msg : 0; });
  }
  engine.Run();
  const double gbps = util::ThroughputGbps(bytes_delivered, engine.now());
  EXPECT_GT(gbps, 9.0);
  EXPECT_LT(gbps, 10.5);
}

TEST_F(FabricTest, SharedLinkHalvesThroughput) {
  // Two senders share one bottleneck link into a sink.
  const NodeId s1 = fabric.AddNode("s1");
  const NodeId s2 = fabric.AddNode("s2");
  const NodeId sw = fabric.AddNode("sw");
  const NodeId sink = fabric.AddNode("sink");
  const LinkProfile fast{.latency_ns = 0, .bytes_per_ns = 10.0};
  const LinkProfile bottleneck{.latency_ns = 0, .bytes_per_ns = 1.0};
  fabric.Connect(s1, sw, fast);
  fabric.Connect(s2, sw, fast);
  fabric.Connect(sw, sink, bottleneck);
  sim::Tick t1 = 0, t2 = 0;
  fabric.Send(s1, sink, 10000, [&](bool) { t1 = engine.now(); });
  fabric.Send(s2, sink, 10000, [&](bool) { t2 = engine.now(); });
  engine.Run();
  // Combined 20000 bytes at 1 B/ns on the shared hop: last finishes ~21000.
  EXPECT_GE(std::max(t1, t2), 20000u);
}

}  // namespace
}  // namespace nlss::net
