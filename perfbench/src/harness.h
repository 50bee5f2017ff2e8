// Benchmark-side scaffolding shared by the four workloads: host-time spans,
// exact simulated-latency populations, the compact byte-exact reference
// model, the closed-loop replay, and the metric list printed as JSON.
//
// Everything here lives outside the simulator.  Host (wall-clock) time is
// only ever measured around calls into the program and reported as host
// metrics; it never feeds a simulated result.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "util/bytes.h"

namespace perfbench {

namespace sim = nlss::sim;
namespace util = nlss::util;

// nlss-lint: allow(wallclock) — host time of the benchmark's own calls.
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b);

// --- Spans -------------------------------------------------------------------

/// The benchmark's own spans (host time): name, start, end and parent,
/// held in memory and written out as JSON when the run ends.
class SpanLog {
 public:
  SpanLog();

  int Begin(const std::string& name, int parent = -1);
  /// Ends span `id` and returns its duration in seconds.
  double End(int id);
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = -1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- Process resources -------------------------------------------------------

struct ProcUsage {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t minor_faults = 0;
};
ProcUsage ReadProcUsage();
ProcUsage operator-(const ProcUsage& a, const ProcUsage& b);
double PeakRssMb();

// --- Simulated latency -------------------------------------------------------

/// One population of simulated op latencies, kept exactly (no histogram
/// buckets).
class Latencies {
 public:
  void Add(sim::Tick ns) { samples_.push_back(ns); }
  std::size_t count() const { return samples_.size(); }
  /// Quantile q in [0,1], in microseconds, read off the interpolated
  /// empirical CDF: the k samples equal to a value v are taken as spread
  /// evenly over (previous distinct value, v].  Simulated latencies repeat
  /// exactly (a cache hit always costs the same), so a plain order
  /// statistic sticks to one such value while the mix of ops under it
  /// shifts; the interpolated CDF moves with the mix.  Requires count() > 0.
  double QuantileUs(double q) const;

 private:
  std::vector<sim::Tick> samples_;
};

// --- Reference model ---------------------------------------------------------

/// Pattern seed of one write: distinct per (workload seed, generation,
/// extent).  Generation 0 is reserved for preload data, so a lost later
/// write reads back the preload pattern and fails the comparison.
std::uint64_t PatternSeed(std::uint64_t workload_seed, std::uint64_t generation,
                          std::uint64_t extent);

/// Compact byte-exact reference: for every fixed-size extent, the pattern
/// seed of the last write acknowledged there (not a byte image, so the
/// benchmark's own memory stays small next to the program's).
class Reference {
 public:
  Reference(std::uint64_t extents, std::uint32_t extent_bytes);

  std::uint32_t extent_bytes() const { return extent_bytes_; }
  std::uint64_t extents() const { return seeds_.size(); }
  bool written(std::uint64_t extent) const { return written_[extent]; }

  /// Fill `out` with the bytes written at `extent` under `seed`.
  void Fill(std::span<std::uint8_t> out, std::uint64_t seed) const;
  /// Record an acknowledged write of `seed` at `extent`.
  void Record(std::uint64_t extent, std::uint64_t seed);
  /// True iff `data` is exactly bytes [offset, offset + size) of the
  /// last-recorded write of `extent`.
  bool Matches(std::uint64_t extent, std::span<const std::uint8_t> data,
               std::uint32_t offset = 0) const;

  /// Self-test hook: flip one expected byte of `extent`, so a correct
  /// readback of it must fail the comparison.
  void CorruptOneByte(std::uint64_t extent, std::uint32_t byte);

 private:
  std::uint32_t extent_bytes_;
  std::vector<std::uint64_t> seeds_;
  std::vector<bool> written_;
  std::uint64_t corrupt_extent_ = ~0ULL;
  std::uint32_t corrupt_byte_ = 0;
};

// --- Closed-loop replay ------------------------------------------------------

/// Closed loop: every client keeps exactly one op outstanding.  `issue`
/// starts op `index` of `client` and must call `done` exactly once; the
/// client's next op is issued from inside `done`.  Runs the engine until
/// every op of every client has completed and all follow-on events drained;
/// returns the simulated time at which the last op completed.  Client c
/// issues its first op `start_delay[c]` after the call (none when empty).
using OpDone = std::function<void()>;
using IssueFn =
    std::function<void(std::uint32_t client, std::uint64_t index, OpDone done)>;
sim::Tick RunClosedLoop(sim::Engine& engine,
                        const std::vector<std::uint64_t>& ops_per_client,
                        const IssueFn& issue,
                        const std::vector<sim::Tick>& start_delay = {});

// --- Gate --------------------------------------------------------------------

/// Correctness gate: the first failed check is kept as the reason.
class Gate {
 public:
  void Check(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }
  const std::string& first_failure() const { return first_; }

 private:
  std::uint64_t failures_ = 0;
  std::string first_;
};

// --- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// `num / den`, or 0 when the base is empty (the base is reported too).
  static double Ratio(double num, double den) {
    return den == 0 ? 0 : num / den;
  }
  const std::vector<Metric>& items() const { return items_; }
  const Metric* Find(const std::string& name) const;
  /// Overwrite the value of a metric already added.
  void Set(const std::string& name, double value);

 private:
  std::vector<Metric> items_;
};

/// Fold a list of values into a 64-bit FNV-1a digest (bit patterns).
std::uint64_t DigestOf(const std::vector<double>& values);

}  // namespace perfbench
