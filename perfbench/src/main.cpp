// perfbench: times the simulator end to end and per layer on one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>] [--corrupt-reference]
//
// Repeats the workload (fresh bed each time) until --seconds of host time
// have passed, then prints one JSON line: medians of the host-time metrics
// and the simulated metrics, which must repeat exactly in every
// repetition.  The first repetition warms the process up (heap growth,
// first-touch page faults) and is checked but not timed; the peak RSS is
// read right after it, so it is one repetition's footprint in a fresh
// process, independent of how many repetitions fit in --seconds.  --trace 1
// alternates traced and untraced repetitions after it and reports the
// per-layer metrics of the traced ones plus the tracing overhead.
// --corrupt-reference flips one byte of the reference model, so the
// correctness gate must report the run incorrect.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  RepResult (*run)(const RepOptions&, SpanLog&, int);
};

constexpr Workload kWorkloads[] = {
    {"checkpoint_rebuild", RunCheckpointRebuild},
    {"meta_storm", RunMetaStorm},
    {"tiered_mixed", RunTieredMixed},
    {"geo_replicate", RunGeoReplicate},
};

// A run must end well inside 180 s: no repetition starts that could not
// finish by then.
constexpr double kHardLimitS = 150.0;
// Where setup is short next to a run, too few repetitions fit to give its
// median a steady base: set up alone (no run) until there are this many
// samples, within a small time budget.
constexpr std::size_t kMinSetupSamples = 9;
constexpr double kSetupOnlyBudgetS = 3.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_reference = false;
  std::string spans;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>] "
               "[--corrupt-reference]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t ParseU64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') Usage("not a whole number");
  return v;
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      a.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage("flag without a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = ParseU64(value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(ParseU64(value));
    } else if (flag == "--trace") {
      const std::uint64_t t = ParseU64(value);
      if (t > 1) Usage("--trace takes 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_workload) Usage("--workload is required");
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Everything simulated in a rep: must be bit-identical across reps of one
/// seed, traced or not.
std::uint64_t SimDigest(const RepResult& r) {
  std::vector<double> values;
  for (const Metric& m : r.sim.items()) values.push_back(m.value);
  const Metric* events = r.layers.Find("sim.events");
  values.push_back(events == nullptr ? -1 : events->value);
  values.push_back(static_cast<double>(r.attempted));
  values.push_back(static_cast<double>(r.failed));
  return DigestOf(values);
}

void PrintMetric(std::string& out, const std::string& name, double value,
                 const std::string& unit) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  if (!out.empty()) out += ", ";
  out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
         "\"}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown workload");

  SpanLog log;
  std::vector<RepResult> warmup, untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::string why;
  const auto start = Clock::now();
  double longest_rep = 0;
  double peak_rss_mb = 0;
  const std::size_t min_reps = args.trace ? 3 : 4;
  for (std::size_t rep = 0;; ++rep) {
    const double elapsed = SecondsBetween(start, Clock::now());
    if (rep >= min_reps &&
        (elapsed >= args.seconds || elapsed + longest_rep > kHardLimitS)) {
      break;
    }
    RepOptions opt;
    opt.seed = args.seed;
    opt.traced = args.trace && rep % 2 == 1;
    const bool warm = rep == 0;
    opt.corrupt_reference = args.corrupt_reference;
    const auto rep_start = Clock::now();
    const char* kind =
        warm ? "rep.warmup." : opt.traced ? "rep.traced." : "rep.";
    const int span = log.Begin(kind + std::to_string(rep));
    RepResult r = workload->run(opt, log, span);
    log.End(span);
    longest_rep =
        std::max(longest_rep, SecondsBetween(rep_start, Clock::now()));
    if (warm) peak_rss_mb = PeakRssMb();
    attempted += r.attempted;
    failed += r.failed;
    if (!r.gate.ok() && correct) {
      correct = false;
      why = r.gate.first_failure();
    }
    std::fprintf(stderr, "perfbench: %s seed %llu rep %zu%s: setup %.3f s, "
                 "run %.3f s, gate %s\n",
                 workload->name, static_cast<unsigned long long>(args.seed),
                 rep, warm ? " (warm-up)" : opt.traced ? " (traced)" : "",
                 r.setup_s, r.run_s,
                 r.gate.ok() ? "ok" : r.gate.first_failure().c_str());
    (warm ? warmup : opt.traced ? traced : untraced).push_back(std::move(r));
  }

  std::vector<double> setup_samples;
  double longest_setup = 0;
  for (const RepResult& r : untraced) {
    setup_samples.push_back(r.setup_s);
    longest_setup = std::max(longest_setup, r.setup_s);
  }
  const auto setup_only_start = Clock::now();
  while (!args.trace && setup_samples.size() < kMinSetupSamples &&
         SecondsBetween(setup_only_start, Clock::now()) + 2 * longest_setup <
             kSetupOnlyBudgetS) {
    RepOptions opt;
    opt.seed = args.seed;
    opt.setup_only = true;
    const int span =
        log.Begin("setup_only." + std::to_string(setup_samples.size()));
    setup_samples.push_back(workload->run(opt, log, span).setup_s);
    log.End(span);
  }

  // Simulated results repeat exactly across reps, traced or not.
  const std::uint64_t digest = SimDigest(warmup.front());
  for (const auto* reps : {&untraced, &traced}) {
    for (const RepResult& r : *reps) {
      if (SimDigest(r) != digest && correct) {
        correct = false;
        why = "simulated results differ between repetitions of one seed";
      }
    }
  }
  if (attempted == 0 && correct) {
    correct = false;
    why = "no operations attempted";
  }
  if (!why.empty()) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", why.c_str());
  }

  if (!args.spans.empty() && !log.WriteJson(args.spans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
  }

  std::string metrics;
  const auto median_of = [](const std::vector<RepResult>& reps, auto get) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(get(r));
    return Median(v);
  };
  if (!args.trace) {
    PrintMetric(metrics, "setup_s", Median(setup_samples), "s");
    PrintMetric(metrics, "run_s",
                median_of(untraced, [](const RepResult& r) { return r.run_s; }),
                "s");
    PrintMetric(metrics, "peak_rss_mb", peak_rss_mb, "MB");
    for (const Metric& m : untraced.front().sim.items()) {
      PrintMetric(metrics, m.name, m.value, m.unit);
    }
  } else {
    for (const Metric& m : traced.front().layers.items()) {
      const double value = median_of(traced, [&](const RepResult& r) {
        const Metric* x = r.layers.Find(m.name);
        return x == nullptr ? 0.0 : x->value;
      });
      PrintMetric(metrics, m.name, value, m.unit);
    }
    const auto run_s = [](const RepResult& r) { return r.run_s; };
    PrintMetric(metrics, "trace.overhead_frac",
                median_of(traced, run_s) / median_of(untraced, run_s) - 1,
                "frac");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
