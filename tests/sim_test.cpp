#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <random>
#include <vector>

#include "sim/engine.h"
#include "sim/event_pool.h"
#include "sim/ladder_queue.h"
#include "sim/resource.h"

namespace nlss::sim {
namespace {

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.Schedule(300, [&] { order.push_back(3); });
  e.Schedule(100, [&] { order.push_back(1); });
  e.Schedule(200, [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 300u);
}

TEST(Engine, FifoAmongSameTick) {
  Engine e;
  // This test asserts the default FIFO tie-break itself, so it must hold
  // even when the environment requests a perturbed schedule.
  e.SetPerturbation(0);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.Schedule(50, [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, PerturbationPermutesSameTickOnly) {
  // A perturbed schedule may reorder same-tick events, but never across
  // ticks, and the same seed always yields the same permutation.
  auto run = [](std::uint64_t seed) {
    Engine e;
    e.SetPerturbation(seed);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      e.Schedule(50, [&order, i] { order.push_back(i); });
    }
    for (int i = 16; i < 20; ++i) {
      e.Schedule(99, [&order, i] { order.push_back(i); });
    }
    e.Run();
    return order;
  };
  const auto fifo = run(0);
  const auto a = run(1);
  const auto b = run(2);
  EXPECT_EQ(run(1), a);  // same seed, same permutation
  EXPECT_NE(a, fifo);    // seed 1 permutes the 16-way tie
  EXPECT_NE(a, b);       // distinct seeds, distinct permutations
  for (const auto& order : {fifo, a, b}) {
    ASSERT_EQ(order.size(), 20u);
    // Tick-50 events all run before tick-99 events.
    for (int i = 0; i < 16; ++i) EXPECT_LT(order[i], 16);
    // Every event runs exactly once.
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
  }
}

TEST(Engine, PerturbationPreservesCausalOrder) {
  // A child scheduled at delay 0 can never run before its parent, no
  // matter the perturbation seed: it is inserted only while the parent
  // executes.  Chains of delay-0 continuations keep their internal order.
  for (const std::uint64_t seed : {0ull, 1ull, 7ull, 12345ull}) {
    Engine e;
    e.SetPerturbation(seed);
    std::vector<int> order;
    for (int chain = 0; chain < 4; ++chain) {
      e.Schedule(10, [&e, &order, chain] {
        order.push_back(chain * 10);
        e.Schedule(0, [&e, &order, chain] {
          order.push_back(chain * 10 + 1);
          e.Schedule(0, [&order, chain] { order.push_back(chain * 10 + 2); });
        });
      });
    }
    e.Run();
    ASSERT_EQ(order.size(), 12u);
    std::vector<std::size_t> pos(40, 0);
    for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    for (int chain = 0; chain < 4; ++chain) {
      EXPECT_LT(pos[chain * 10], pos[chain * 10 + 1]) << "seed " << seed;
      EXPECT_LT(pos[chain * 10 + 1], pos[chain * 10 + 2]) << "seed " << seed;
    }
  }
}

TEST(Engine, NestedScheduling) {
  Engine e;
  std::vector<Tick> times;
  e.Schedule(10, [&] {
    times.push_back(e.now());
    e.Schedule(5, [&] { times.push_back(e.now()); });
  });
  e.Run();
  EXPECT_EQ(times, (std::vector<Tick>{10, 15}));
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  int ran = 0;
  e.Schedule(100, [&] { ++ran; });
  e.Schedule(200, [&] { ++ran; });
  e.Schedule(300, [&] { ++ran; });
  EXPECT_EQ(e.RunUntil(250), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.now(), 250u);
  e.Run();
  EXPECT_EQ(ran, 3);
}

TEST(Engine, RunForIsRelative) {
  Engine e;
  int ran = 0;
  e.Schedule(100, [&] { ++ran; });
  e.RunFor(50);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(e.now(), 50u);
  e.RunFor(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, StepLimitsExecution) {
  Engine e;
  int ran = 0;
  for (int i = 0; i < 5; ++i) e.Schedule(10 * (i + 1), [&] { ++ran; });
  EXPECT_EQ(e.Step(2), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.PendingEvents(), 3u);
}

TEST(Engine, StopBreaksRun) {
  Engine e;
  int ran = 0;
  e.Schedule(10, [&] {
    ++ran;
    e.Stop();
  });
  e.Schedule(20, [&] { ++ran; });
  e.Run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.PendingEvents(), 1u);
}

TEST(Engine, ScheduleAtAbsolute) {
  Engine e;
  Tick fired = 0;
  e.ScheduleAt(777, [&] { fired = e.now(); });
  e.Run();
  EXPECT_EQ(fired, 777u);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 42; ++i) e.Schedule(i, [] {});
  e.Run();
  EXPECT_EQ(e.executed_events(), 42u);
}

TEST(Engine, StopInsideStepHaltsBatchAndResets) {
  Engine e;
  int ran = 0;
  e.Schedule(10, [&] {
    ++ran;
    e.Stop();
  });
  e.Schedule(20, [&] { ++ran; });
  e.Schedule(30, [&] { ++ran; });
  // Stop() fired by the first event must end the batch even though the
  // budget allows more.
  EXPECT_EQ(e.Step(3), 1u);
  EXPECT_EQ(ran, 1);
  // A stale Stop() must not leak into the next call: Step clears it on
  // entry, like Run/RunUntil.
  EXPECT_EQ(e.Step(5), 2u);
  EXPECT_EQ(ran, 3);
  EXPECT_TRUE(e.Empty());
}

TEST(Engine, ArenaReusesNodesAcrossDrainRefill) {
  Engine e;
  auto churn = [&e] {
    for (int i = 0; i < 3000; ++i) {
      e.Schedule(static_cast<Tick>(i % 97), [] {});
    }
    e.Run();
  };
  churn();
  const Engine::ArenaStats first = e.arena_stats();
  EXPECT_GT(first.slabs, 0u);
  for (int round = 0; round < 5; ++round) churn();
  const Engine::ArenaStats later = e.arena_stats();
  // Drain/refill cycles of the same depth run entirely off the free list:
  // the arena never grows, and after a drain every node is back on it.
  EXPECT_EQ(later.slabs, first.slabs);
  EXPECT_EQ(later.capacity, first.capacity);
  EXPECT_EQ(later.free_events, later.capacity);
}

TEST(Engine, ScheduleBatchMatchesSequentialOrder) {
  // A Batch assigns sequence numbers at Add time, so a batched fan-out is
  // observably identical to the equivalent Schedule loop — including under
  // a perturbed same-tick permutation.
  for (const std::uint64_t seed : {0ull, 2ull}) {
    auto run = [seed](bool batched) {
      Engine e;
      e.SetPerturbation(seed);
      std::vector<int> order;
      e.Schedule(50, [&order] { order.push_back(-1); });
      std::vector<Engine::Callback> group;
      for (int i = 0; i < 12; ++i) {
        group.emplace_back([&order, i] { order.push_back(i); });
      }
      if (batched) {
        e.ScheduleBatch(50, group);
      } else {
        for (auto& cb : group) e.Schedule(50, std::move(cb));
      }
      e.Schedule(50, [&order] { order.push_back(-2); });
      e.Run();
      return order;
    };
    EXPECT_EQ(run(true), run(false)) << "seed " << seed;
  }
}

TEST(LadderQueue, MatchesReferenceHeapOrder) {
  // Differential check against a reference binary heap on randomized
  // schedules, under FIFO priorities and two perturbation-style priority
  // mixes, with same-tick parent->child pushes during the pop phase.
  struct Key {
    Tick when;
    std::uint64_t pri;
    std::uint64_t seq;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.pri > b.pri;
    }
  };
  auto mix = [](std::uint64_t seed, std::uint64_t seq) {
    std::uint64_t x = seq + seed * 0x9E3779B97F4A7C15ULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  };
  for (const std::uint64_t seed : {0ull, 1ull, 2ull}) {
    std::mt19937_64 rng(42 + seed);
    EventPool pool;
    LadderQueue lq;
    std::priority_queue<Key, std::vector<Key>, Later> ref;
    std::uint64_t seq = 0;
    Tick now = 0;
    auto push = [&](Tick when) {
      const std::uint64_t s = seq++;
      const std::uint64_t pri = seed == 0 ? s : mix(seed, s);
      Event* e = pool.Alloc();
      e->when = when;
      e->seq = s;
      e->pri = pri;
      lq.Push(e);
      ref.push(Key{when, pri, s});
    };
    for (int step = 0; step < 4000; ++step) {
      const int n_push = static_cast<int>(rng() % 4);
      for (int i = 0; i < n_push; ++i) {
        Tick delay = 0;
        switch (rng() % 4) {
          case 0: delay = 0; break;
          case 1: delay = rng() % 100; break;
          case 2: delay = rng() % 100000; break;
          default: delay = rng() % 100000000; break;
        }
        push(now + delay);
      }
      const int n_pop = static_cast<int>(rng() % 4);
      for (int i = 0; i < n_pop && !ref.empty(); ++i) {
        const Key want = ref.top();
        ref.pop();
        Tick got_when = 0;
        Event* got = lq.PopMin(&got_when);
        ASSERT_NE(got, nullptr);
        ASSERT_EQ(got->when, want.when) << "seed " << seed;
        ASSERT_EQ(got->pri, want.pri) << "seed " << seed;
        ASSERT_EQ(got_when, want.when);
        now = got_when;
        pool.Free(got);
        // Same-tick child: a later-seq event at the tick just reached,
        // inserted while the queue is mid-drain at that tick.
        if (rng() % 5 == 0) push(now);
      }
    }
    while (!ref.empty()) {
      const Key want = ref.top();
      ref.pop();
      Event* got = lq.PopMin();
      ASSERT_NE(got, nullptr);
      ASSERT_EQ(got->when, want.when) << "seed " << seed;
      ASSERT_EQ(got->pri, want.pri) << "seed " << seed;
      pool.Free(got);
    }
    EXPECT_TRUE(lq.Empty()) << "seed " << seed;
  }
}

TEST(Resource, UtilizationCountsOnlyServedTime) {
  Engine e;
  Resource r(e);
  e.Schedule(100, [&] { r.Acquire(500); });  // busy through tick 600
  e.RunUntil(200);
  // Only [100, 200) of the 500 ns backlog has been served; a naive
  // busy_total / now here would report 250%.
  EXPECT_DOUBLE_EQ(r.Utilization(), 0.5);
  e.RunUntil(600);
  EXPECT_DOUBLE_EQ(r.Utilization(), 500.0 / 600.0);
  e.RunUntil(1000);
  EXPECT_DOUBLE_EQ(r.Utilization(), 0.5);
  EXPECT_LE(r.Utilization(), 1.0);
}

TEST(Resource, ResetRollsBackUnservedBacklog) {
  Engine e;
  Resource r(e);
  e.Schedule(100, [&] { r.Acquire(500); });
  e.RunUntil(200);
  r.Reset();  // component failed: [200, 600) will never be served
  EXPECT_EQ(r.busy_until(), 200u);
  EXPECT_EQ(r.busy_total(), 100u);
  e.RunUntil(400);
  EXPECT_DOUBLE_EQ(r.Utilization(), 0.25);
  // New work after the reset accounts normally.
  r.Acquire(100);
  e.RunUntil(500);
  EXPECT_DOUBLE_EQ(r.Utilization(), 200.0 / 500.0);
}

TEST(EngineDeathTest, GarbagePerturbEnvAborts) {
  // NLSS_PERTURB=oops silently meaning "plain FIFO" would let CI believe
  // it is perturbation-testing while it is not.
  setenv("NLSS_PERTURB", "12oops", 1);
  EXPECT_DEATH({ Engine e; }, "not an unsigned integer");
  setenv("NLSS_PERTURB", "7", 1);
  {
    Engine e;
    EXPECT_EQ(e.perturbation(), 7u);
  }
  unsetenv("NLSS_PERTURB");
}

TEST(Callback, CommonCapturesStayInline) {
  struct Fits {
    std::uint64_t a[6];  // exactly kInlineBytes
  };
  Callback fits = [c = Fits{}] { (void)c; };
  EXPECT_TRUE(fits.is_inline());
  struct Spills {
    std::uint64_t a[7];
  };
  Callback spills = [c = Spills{}] { (void)c; };
  EXPECT_FALSE(spills.is_inline());
  // Empty std::function converts to an empty Callback, preserving `if (cb)`.
  std::function<void()> none;
  Callback empty = std::move(none);
  EXPECT_FALSE(static_cast<bool>(empty));

  // The fabric's `void(bool delivered)` completion obeys the same rules.
  using Completion = Function<void(bool)>;
  Completion fits_done = [c = Fits{}](bool) { (void)c; };
  EXPECT_TRUE(fits_done.is_inline());
  Completion spills_done = [c = Spills{}](bool) { (void)c; };
  EXPECT_FALSE(spills_done.is_inline());
  std::function<void(bool)> no_done;
  Completion empty_done = std::move(no_done);
  EXPECT_FALSE(static_cast<bool>(empty_done));
  bool seen = false;
  Completion records = [&seen](bool delivered) { seen = delivered; };
  records(true);
  EXPECT_TRUE(seen);
}

TEST(Engine, DeterministicInterleaving) {
  // Two identical runs produce identical event interleavings.
  auto run = [] {
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      e.Schedule(static_cast<Tick>((i * 37) % 50), [&order, i] {
        order.push_back(i);
      });
    }
    e.Run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace nlss::sim
