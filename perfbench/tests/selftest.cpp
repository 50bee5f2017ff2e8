// Self-test of the benchmark's own machinery: the byte-exact reference
// model, the interpolated latency quantiles, the closed-loop replay and the
// metric list.  Exits 0 when every check holds; prints each failure.
//
//   .bench_build/perfbench_selftest
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace {

namespace sim = nlss::sim;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void ReferenceModel() {
  using perfbench::PatternSeed;
  using perfbench::Reference;
  constexpr std::uint32_t kExtent = 4096;
  Reference ref(4, kExtent);
  Expect(!ref.written(0), "fresh extent is unwritten");
  nlss::util::Bytes data(kExtent);
  Expect(!ref.Matches(0, data), "unwritten extent matches nothing");

  const std::uint64_t preload = PatternSeed(7, 0, 1);
  const std::uint64_t later = PatternSeed(7, 1, 1);
  Expect(preload != later, "preload and later writes use different seeds");
  Expect(PatternSeed(7, 1, 1) != PatternSeed(8, 1, 1),
         "workload seeds give different patterns");
  Expect(PatternSeed(7, 1, 1) != PatternSeed(7, 1, 2),
         "extents give different patterns");

  ref.Fill(data, preload);
  ref.Record(1, preload);
  Expect(ref.Matches(1, data), "recorded bytes match");
  Expect(ref.Matches(1, std::span(data).subspan(100, 300), 100),
         "a sub-range matches at its offset");
  Expect(!ref.Matches(1, std::span(data).subspan(100, 300), 101),
         "a sub-range does not match at another offset");
  Expect(!ref.Matches(1, std::span(data).subspan(4000, 200), 4000),
         "a sub-range past the extent end never matches");

  // A lost write: the extent still holds the preload bytes.
  ref.Record(1, later);
  Expect(!ref.Matches(1, data), "stale preload bytes fail after a write");
  ref.Fill(data, later);
  Expect(ref.Matches(1, data), "the later write matches");

  // Any single flipped byte is caught, in the data or in the reference.
  data[1234] ^= 1;
  Expect(!ref.Matches(1, data), "a flipped data byte fails");
  data[1234] ^= 1;
  ref.Record(2, later);
  ref.CorruptOneByte(1, 77);
  Expect(!ref.Matches(1, data), "a corrupted reference byte fails the gate");
  Expect(ref.Matches(2, data), "other extents are unaffected");
}

void Quantiles() {
  perfbench::Latencies one;
  one.Add(5000);
  Expect(one.QuantileUs(0.5) == 5.0, "single sample is every quantile");

  // 1..100 us, one sample each: the CDF is linear between samples.
  perfbench::Latencies line;
  for (int i = 1; i <= 100; ++i) line.Add(static_cast<sim::Tick>(i) * 1000);
  Expect(line.QuantileUs(0.5) == 50.0, "median of 1..100 us");
  Expect(line.QuantileUs(0.99) == 99.0, "p99 of 1..100 us");
  Expect(line.QuantileUs(1.0) == 100.0, "max");

  // Repeated values: the quantile moves with the mix under the atom
  // instead of sticking to it.
  perfbench::Latencies a, b;
  for (int i = 0; i < 40; ++i) a.Add(1000);
  for (int i = 0; i < 60; ++i) a.Add(2000);
  for (int i = 0; i < 45; ++i) b.Add(1000);
  for (int i = 0; i < 55; ++i) b.Add(2000);
  const double qa = a.QuantileUs(0.5), qb = b.QuantileUs(0.5);
  Expect(qa > 1.0 && qa < 2.0 && qb > 1.0 && qb < 2.0,
         "median inside the atom's interval");
  Expect(qb < qa, "more fast ops lower the median");
}

void ClosedLoop() {
  sim::Engine engine;
  const std::vector<std::uint64_t> ops = {3, 0, 2};
  std::vector<int> outstanding(3, 0);
  int max_outstanding = 0;
  std::uint64_t issued = 0;
  const sim::Tick last = perfbench::RunClosedLoop(
      engine, ops,
      [&](std::uint32_t c, std::uint64_t, perfbench::OpDone done) {
        ++issued;
        max_outstanding = std::max(max_outstanding, ++outstanding[c]);
        engine.Schedule(10 + c, [&, c, done] {
          --outstanding[c];
          done();
        });
      },
      {0, 0, 5});
  Expect(issued == 5, "every op issued once");
  Expect(max_outstanding == 1, "one op outstanding per client");
  // Client 0 finishes at 3 x 10; the delayed client at 5 + 2 x 12 = 29.
  Expect(last == 30, "returns the time of the last completion");
}

void Metrics() {
  perfbench::MetricList m;
  m.Add("a", 1, "s");
  m.Set("a", 2);
  Expect(m.Find("a") != nullptr && m.Find("a")->value == 2, "Set overwrites");
  Expect(m.Find("b") == nullptr, "missing metric");
  Expect(perfbench::MetricList::Ratio(1, 0) == 0, "empty base gives 0");
  Expect(perfbench::DigestOf({1.0, 2.0}) != perfbench::DigestOf({2.0, 1.0}),
         "digest is order sensitive");
  perfbench::Gate g;
  g.Check(true, "x");
  g.Check(false, "first");
  g.Check(false, "second");
  Expect(!g.ok() && g.failures() == 2 && g.first_failure() == "first",
         "gate keeps the first failure");
}

}  // namespace

int main() {
  ReferenceModel();
  Quantiles();
  ClosedLoop();
  Metrics();
  if (failures == 0) std::printf("perfbench_selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
