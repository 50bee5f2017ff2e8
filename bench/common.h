// Shared scaffolding for the experiment benchmarks (E1..E12): system
// builders, closed-loop workload drivers, and result helpers.  Each bench
// binary prints the table(s) EXPERIMENTS.md records.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "controller/system.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace nlss::bench {

/// Command-line arguments shared by the bench binaries:
///   --seed=<n>   reseed the workload RNGs (default 7)
///   --json       emit machine-readable results alongside the tables
///   --hosts=<n>  scale knob: number of hosts/processes
///   --ops=<n>    scale knob: ops per host/stream
///   --files=<n>  scale knob: file-set size
///   --shards=<n> scale knob: metadata shard count
///   --flash-mb=<n> scale knob: per-blade flash tier capacity in MiB (E19)
///   --zipf=<t>   workload knob: Zipf skew theta for the trace-shaped
///                workloads (E17/E19)
///   --perturb=<n> determinism knob: permute same-tick event order with
///                seed n (0 = FIFO).  Equivalent to NLSS_PERTURB=<n>; the
///                bench's own same-seed digest gates then prove the run
///                is reproducible under a perturbed schedule, so perf
///                runs double as determinism checks (E1/E17/E19).
/// The scale knobs let CI run the trace-shaped workloads (E17) and the
/// scaling sweeps (E1/E13) at a reduced size without editing the bench;
/// each bench applies only the knobs that make sense for it.  A bench
/// states its defaults once, as the `defaults` it passes to Parse; a
/// scale/workload flag overrides its default, and a zero value keeps it.
/// Unknown flags abort with usage, so a typo can't silently run the
/// default experiment.
struct Args {
  std::uint64_t seed = 7;
  bool json = false;
  std::uint64_t hosts = 0;
  std::uint64_t ops = 0;
  std::uint64_t files = 0;
  std::uint64_t shards = 0;
  std::uint64_t flash_mb = 0;
  double zipf = 0.0;
  std::uint64_t perturb = 0;

  static Args Parse(int argc, char** argv) {
    return Parse(argc, argv, Args{});
  }
  static Args Parse(int argc, char** argv, Args defaults) {
    Args args = defaults;
    const auto parse_u64 = [](const std::string& arg, std::size_t prefix) {
      char* end = nullptr;
      const std::uint64_t v =
          std::strtoull(arg.c_str() + prefix, &end, 10);
      if (end == nullptr || *end != '\0') {
        std::fprintf(stderr, "invalid flag value: %s\n", arg.c_str());
        std::exit(2);
      }
      return v;
    };
    // A scale knob's zero value keeps the bench default.
    const auto knob = [&](const std::string& arg, std::size_t prefix,
                          std::uint64_t* field) {
      if (const std::uint64_t v = parse_u64(arg, prefix); v != 0) *field = v;
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        args.json = true;
      } else if (arg.rfind("--seed=", 0) == 0) {
        args.seed = parse_u64(arg, 7);
      } else if (arg.rfind("--hosts=", 0) == 0) {
        knob(arg, 8, &args.hosts);
      } else if (arg.rfind("--ops=", 0) == 0) {
        knob(arg, 6, &args.ops);
      } else if (arg.rfind("--files=", 0) == 0) {
        knob(arg, 8, &args.files);
      } else if (arg.rfind("--shards=", 0) == 0) {
        knob(arg, 9, &args.shards);
      } else if (arg.rfind("--flash-mb=", 0) == 0) {
        knob(arg, 11, &args.flash_mb);
      } else if (arg.rfind("--zipf=", 0) == 0) {
        char* end = nullptr;
        const double zipf = std::strtod(arg.c_str() + 7, &end);
        if (end == nullptr || *end != '\0' || zipf < 0.0) {
          std::fprintf(stderr, "invalid flag value: %s\n", arg.c_str());
          std::exit(2);
        }
        if (zipf != 0.0) args.zipf = zipf;
      } else if (arg.rfind("--perturb=", 0) == 0) {
        args.perturb = parse_u64(arg, 10);
        // Engines read NLSS_PERTURB at construction; exporting it here —
        // before any bed exists — wires the knob into every engine the
        // bench builds, including ones constructed in member-init lists
        // where a later SetPerturbation call would miss setup events.
        setenv("NLSS_PERTURB", std::to_string(args.perturb).c_str(), 1);
      } else {
        std::fprintf(stderr,
                     "usage: %s [--seed=<n>] [--json] [--hosts=<n>] "
                     "[--ops=<n>] [--files=<n>] [--shards=<n>] "
                     "[--flash-mb=<n>] [--zipf=<t>] [--perturb=<n>]\n",
                     argv[0]);
        std::exit(2);
      }
    }
    return args;
  }
};

/// A single-site system + fabric bundle with sensible experiment defaults.
struct TestBed {
  sim::Engine engine;
  std::unique_ptr<net::Fabric> fabric;
  std::unique_ptr<controller::StorageSystem> system;
  std::vector<net::NodeId> hosts;

  explicit TestBed(controller::SystemConfig config, std::size_t n_hosts = 1) {
    fabric = std::make_unique<net::Fabric>(engine);
    system = std::make_unique<controller::StorageSystem>(engine, *fabric,
                                                         config);
    for (std::size_t h = 0; h < n_hosts; ++h) {
      hosts.push_back(system->AttachHost("host" + std::to_string(h)));
    }
  }
};

/// Write `bytes` of patterned data to a volume and flush it to disk.
inline void Preload(TestBed& bed, controller::VolumeId vol,
                    std::uint64_t bytes, std::uint64_t chunk = 8 * util::MiB) {
  util::Bytes buf(std::min<std::uint64_t>(bytes, chunk));
  for (std::uint64_t off = 0; off < bytes; off += buf.size()) {
    util::FillPattern(buf, off);
    bool ok = false;
    bed.system->Write(bed.hosts[0], vol, off, buf, [&](bool r) { ok = r; });
    bed.engine.Run();
    if (!ok) {
      std::fprintf(stderr, "preload write failed at %llu\n",
                   (unsigned long long)off);
      std::abort();
    }
  }
  bool flushed = false;
  bed.system->cache().FlushAll([&](bool) { flushed = true; });
  bed.engine.Run();
  (void)flushed;
}

/// Drop all (clean) cached pages so subsequent reads hit the disks.
inline void DropCaches(TestBed& bed) {
  for (std::uint32_t c = 0; c < bed.system->controller_count(); ++c) {
    bed.system->cache().node(c).Clear();
  }
  bed.system->cache().Recover();
}

/// Sequentially read the whole range once to warm caches (large reads, one
/// outstanding per host, spread across hosts round-robin).
inline void WarmRead(TestBed& bed, controller::VolumeId vol,
                     std::uint64_t bytes, std::uint32_t chunk = util::MiB) {
  for (std::uint64_t off = 0; off < bytes; off += chunk) {
    bed.system->Read(bed.hosts[(off / chunk) % bed.hosts.size()], vol, off,
                     chunk, [](bool, util::Bytes) {});
    bed.engine.Run();
  }
}

/// Closed-loop workload driver: each of `streams` logical clients keeps one
/// request outstanding until `until_ns`; `next_op` issues an op and must
/// invoke the continuation on completion.
class ClosedLoop {
 public:
  using Issue = std::function<void(std::size_t stream,
                                   std::function<void(bool, std::uint64_t)>)>;

  /// Returns (total bytes completed, op latency histogram).
  static std::pair<std::uint64_t, util::Histogram> Run(
      sim::Engine& engine, std::size_t streams, sim::Tick until_ns,
      const Issue& issue) {
    std::uint64_t bytes = 0;
    util::Histogram latency;
    std::function<void(std::size_t)> pump = [&](std::size_t s) {
      if (engine.now() >= until_ns) return;
      const sim::Tick start = engine.now();
      issue(s, [&, s, start](bool ok, std::uint64_t op_bytes) {
        if (ok) {
          bytes += op_bytes;
          latency.Record(engine.now() - start);
        }
        pump(s);
      });
    };
    for (std::size_t s = 0; s < streams; ++s) pump(s);
    engine.RunUntil(until_ns);
    // Let in-flight ops land (they stop re-issuing past the deadline).
    engine.Run();
    return {bytes, std::move(latency)};
  }
};

inline void PrintHeader(const char* id, const char* title,
                        const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

}  // namespace nlss::bench
