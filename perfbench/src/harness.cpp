#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Spans -------------------------------------------------------------------

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::Begin(const std::string& name, int parent) {
  spans_.push_back(
      Span{name, parent, SecondsBetween(origin_, Clock::now()), -1});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::End(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = SecondsBetween(origin_, Clock::now());
  return s.end_s - s.start_s;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.parent, s.start_s, s.end_s,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

// --- Process resources -------------------------------------------------------

namespace {
double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}
}  // namespace

ProcUsage ReadProcUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ProcUsage{TimevalSeconds(ru.ru_utime), TimevalSeconds(ru.ru_stime),
                   static_cast<std::uint64_t>(ru.ru_minflt)};
}

ProcUsage operator-(const ProcUsage& a, const ProcUsage& b) {
  return ProcUsage{a.user_s - b.user_s, a.sys_s - b.sys_s,
                   a.minor_faults - b.minor_faults};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Simulated latency -------------------------------------------------------

double Latencies::QuantileUs(double q) const {
  std::vector<sim::Tick> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double target =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size());
  // Walk the distinct values; the CDF rises linearly from the previous
  // distinct value to this one across the run of equal samples.
  double below = 0;  // samples strictly below the current value
  double prev = static_cast<double>(sorted.front());
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    const double v = static_cast<double>(sorted[i]);
    const double run = static_cast<double>(j - i);
    if (below + run >= target) {
      const double frac = (target - below) / run;
      return (prev + (v - prev) * frac) / 1000.0;
    }
    below += run;
    prev = v;
    i = j;
  }
  return static_cast<double>(sorted.back()) / 1000.0;
}

// --- Reference model ---------------------------------------------------------

std::uint64_t PatternSeed(std::uint64_t workload_seed, std::uint64_t generation,
                          std::uint64_t extent) {
  // splitmix64 finalizer over the three coordinates.
  std::uint64_t z = workload_seed * 0x9E3779B97F4A7C15ULL ^
                    (generation + 1) * 0xBF58476D1CE4E5B9ULL ^
                    (extent + 1) * 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Reference::Reference(std::uint64_t extents, std::uint32_t extent_bytes)
    : extent_bytes_(extent_bytes), seeds_(extents, 0), written_(extents) {}

void Reference::Fill(std::span<std::uint8_t> out, std::uint64_t seed) const {
  nlss::util::FillPattern(out, seed);
}

void Reference::Record(std::uint64_t extent, std::uint64_t seed) {
  seeds_[extent] = seed;
  written_[extent] = true;
}

bool Reference::Matches(std::uint64_t extent,
                        std::span<const std::uint8_t> data,
                        std::uint32_t offset) const {
  if (!written_[extent] || offset > extent_bytes_ ||
      data.size() > extent_bytes_ - offset) {
    return false;
  }
  nlss::util::Bytes expected(extent_bytes_);
  Fill(expected, seeds_[extent]);
  if (extent == corrupt_extent_) expected[corrupt_byte_] ^= 0x5A;
  return std::memcmp(expected.data() + offset, data.data(), data.size()) == 0;
}

void Reference::CorruptOneByte(std::uint64_t extent, std::uint32_t byte) {
  corrupt_extent_ = extent;
  corrupt_byte_ = byte % extent_bytes_;
}

// --- Closed-loop replay ------------------------------------------------------

sim::Tick RunClosedLoop(sim::Engine& engine,
                        const std::vector<std::uint64_t>& ops_per_client,
                        const IssueFn& issue,
                        const std::vector<sim::Tick>& start_delay) {
  std::vector<std::uint64_t> next(ops_per_client.size(), 0);
  sim::Tick last_done = engine.now();
  // The pump lives on this frame through engine.Run(), so the completion
  // callbacks may capture it by reference.
  std::function<void(std::uint32_t)> pump = [&](std::uint32_t c) {
    if (next[c] >= ops_per_client[c]) return;
    const std::uint64_t index = next[c]++;
    issue(c, index, [&, c] {
      last_done = engine.now();
      pump(c);
    });
  };
  for (std::uint32_t c = 0; c < ops_per_client.size(); ++c) {
    if (c < start_delay.size() && start_delay[c] > 0) {
      engine.Schedule(start_delay[c], [&pump, c] { pump(c); });
    } else {
      pump(c);
    }
  }
  engine.Run();
  return last_done;
}

// --- Gate --------------------------------------------------------------------

void Gate::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (failures_ == 0) first_ = what;
  ++failures_;
}

// --- Metrics -----------------------------------------------------------------

void MetricList::Add(const std::string& name, double value,
                     const std::string& unit) {
  items_.push_back(Metric{name, value, unit});
}

const Metric* MetricList::Find(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void MetricList::Set(const std::string& name, double value) {
  for (Metric& m : items_) {
    if (m.name == name) m.value = value;
  }
}

std::uint64_t DigestOf(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace perfbench
