// E19: workload-adaptive storage tiering — a per-blade NVMe flash tier
// between the DRAM cache and the disk back end, populated by heat-tracked
// admission (hot disk reads) and cooling-phase spills (warm DRAM
// evictions), drained by batched demotion through the exactly-once
// write-back path.
//
// The experiment replays the E17 shared-library broadcast (Zipf hot set)
// with a working set >= 3x the aggregate DRAM cache, tier off vs tier on:
//
//   off  every DRAM miss pays a mechanical disk read (~ms): the tail of
//        the Zipf distribution never gets cheaper
//   on   the first pass stages the working set into flash (admission +
//        spills); the measured pass serves DRAM misses from flash (~us)
//
// Requirements: >= 2x aggregate read throughput with the tier on, zero
// kTier invariant violations, zero double applies through a dirty-churn
// phase (writes over the hot set, drained by flash demotion), and a
// bit-identical observability digest across two same-seed runs.
//
// Scale knobs: --hosts, --ops (reads per host), --files (working-set
// files), --flash-mb (per-blade flash capacity), --zipf (hot-set skew).
#include "bench/common.h"

#include <memory>

#include "check/invariant.h"
#include "host/initiator.h"
#include "obs/hub.h"
#include "workload/workload.h"

namespace nlss::bench {
namespace {

constexpr std::uint32_t kFileBytes = 64 * util::KiB;  // == cache page
constexpr std::uint32_t kControllers = 4;
// 4 nodes x 256 pages x 64 KiB = 64 MiB aggregate DRAM.
constexpr std::uint32_t kDramPagesPerNode = 256;
constexpr std::uint32_t kDefHosts = 6;
constexpr std::uint32_t kDefReads = 600;
// 4096 x 64 KiB = 256 MiB working set = 4x aggregate DRAM (>= 3x required).
constexpr std::uint32_t kDefFiles = 4096;
constexpr std::uint64_t kDefFlashMb = 64;  // per blade: 4 x 64 MiB total
constexpr std::uint32_t kDefChurnWrites = 400;

struct Scale {
  std::uint32_t hosts = kDefHosts;
  std::uint32_t reads = kDefReads;
  std::uint32_t files = kDefFiles;
  std::uint64_t flash_mb = kDefFlashMb;
  double zipf = 0.9;
};

controller::SystemConfig SysConfig(const char* name, bool tiered,
                                   std::uint64_t flash_mb) {
  controller::SystemConfig config;
  config.name = name;
  config.controllers = kControllers;
  config.raid_groups = 4;
  config.cache.node_capacity_pages = kDramPagesPerNode;
  if (tiered) {
    config.tier.enabled = true;
    config.tier.flash_capacity_pages =
        flash_mb * util::MiB / config.cache.page_bytes;
  }
  return config;
}

/// System + hub + host fleet, preloaded and cache-dropped (same recipe as
/// the E17 bed, plus the tier toggle).
struct Bed {
  sim::Engine engine;
  net::Fabric fabric{engine};
  controller::StorageSystem system;
  obs::Hub hub{engine};
  std::vector<std::unique_ptr<host::Initiator>> owners;
  std::vector<host::Initiator*> inits;
  controller::VolumeId vol;

  Bed(const char* name, bool tiered, const Scale& scale, std::uint64_t seed,
      std::uint64_t vol_bytes)
      : system(engine, fabric, SysConfig(name, tiered, scale.flash_mb)),
        vol(system.CreateVolume(name, vol_bytes)) {
    system.AttachObs(&hub);
    for (std::uint32_t h = 0; h < scale.hosts; ++h) {
      host::InitiatorConfig hc;
      hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
      hc.seed = seed + h;
      owners.push_back(std::make_unique<host::Initiator>(
          system, "h" + std::to_string(h), hc));
      owners.back()->AttachObs(&hub);
      inits.push_back(owners.back().get());
    }
    host::InitiatorConfig lc;
    lc.seed = seed + scale.hosts;
    host::Initiator loader(system, "loader", lc);
    util::Bytes buf(2 * util::MiB);
    for (std::uint64_t off = 0; off < vol_bytes; off += buf.size()) {
      const std::uint64_t n =
          std::min<std::uint64_t>(buf.size(), vol_bytes - off);
      util::FillPattern(buf, off);
      bool ok = false;
      loader.Write(vol, off, std::span<const std::uint8_t>(buf.data(), n),
                   [&](bool r) { ok = r; });
      engine.Run();
      if (!ok) std::abort();
    }
    bool flushed = false;
    system.cache().FlushAll([&](bool) { flushed = true; });
    engine.Run();
    for (std::uint32_t c = 0; c < system.controller_count(); ++c) {
      system.cache().node(c).Clear();
    }
    system.cache().Recover();
    engine.Run();
    (void)flushed;
  }
};

/// Dirty churn: every host rewrites whole files drawn from the same Zipf
/// hot set — the write half of the adaptive story (absorb in flash,
/// demote in batches, never double-apply, never lose a page).
workload::Trace MakeChurn(const workload::FileSet& fs, const Scale& scale,
                          std::uint64_t seed) {
  workload::Trace t;
  t.shape = workload::Shape::kSharedLibBroadcast;
  t.files = fs;
  t.hosts = scale.hosts;
  const util::ZipfGenerator zipf(fs.count, scale.zipf);
  for (std::uint32_t h = 0; h < scale.hosts; ++h) {
    util::Rng rng(seed ^ (0x517cc1b727220a95ULL * (h + 1)));
    for (std::uint32_t i = 0; i < kDefChurnWrites; ++i) {
      workload::TraceOp op;
      op.at = 0;
      op.host = h;
      op.kind = workload::TraceOp::Kind::kWrite;
      op.file = static_cast<std::uint32_t>(zipf.Next(rng));
      op.offset = 0;
      op.length = fs.file_bytes;
      t.ops.push_back(op);
    }
  }
  return t;
}

struct RunResult {
  // Measured (warm) broadcast pass.
  std::uint64_t ops = 0;
  double mbps = 0;
  double p99_us = 0;
  double elapsed_ms = 0;
  // Churn phase.
  std::uint64_t churn_ok = 0;
  std::uint64_t churn_failed = 0;
  std::uint64_t double_applies = 0;
  std::uint64_t ghost_writes = 0;
  // Tier counters at end of run (zero when the tier is off).
  tier::Stats tier;
  std::uint64_t flash_pages = 0;
  std::uint64_t flash_dirty = 0;
  std::uint32_t digest = 0;
};

RunResult Run(const char* name, bool tiered, const Scale& scale,
              std::uint64_t seed) {
  workload::FileSet fs{0, scale.files, kFileBytes};
  Bed bed(name, tiered, scale, seed, fs.TotalBytes());

  workload::BroadcastSpec spec;
  spec.files = fs;
  spec.hosts = scale.hosts;
  spec.reads_per_host = scale.reads;
  spec.zipf_theta = scale.zipf;
  const workload::Trace trace = workload::SharedLibBroadcast(spec, seed);

  workload::Runner runner(bed.engine, bed.inits, bed.vol, {}, &bed.hub);
  // Pass 1 (adaptive warm-up): DRAM misses go to disk; the heat tracker
  // admits the hot tail into flash, DRAM evictions spill warm pages.
  runner.Play(trace);
  // Pass 2 (measured): steady state — misses served from whatever tier
  // the working set settled into.
  const workload::PhaseResult warm = runner.Play(trace);

  RunResult out;
  out.ops = warm.ok;
  out.elapsed_ms = static_cast<double>(warm.elapsed) / 1e6;
  out.mbps = warm.elapsed == 0
                 ? 0.0
                 : util::ThroughputMBps(warm.bytes, warm.elapsed);
  out.p99_us = static_cast<double>(warm.latency.Percentile(0.99)) / 1000.0;

  // Pass 3 (dirty churn): rewrite the hot set, then drain everything —
  // DRAM flushes absorb into flash, flash demotes to disk.
  const workload::PhaseResult churn =
      runner.Play(MakeChurn(fs, scale, seed));
  bool drained = false;
  bed.system.cache().FlushAll([&](bool ok) { drained = ok; });
  bed.engine.Run();
  if (!drained) std::abort();

  out.churn_ok = churn.ok;
  out.churn_failed = churn.failed;
  out.double_applies = bed.system.write_dedup().stats().double_applies;
  out.ghost_writes = bed.system.write_dedup().stats().ghost_writes;
  if (bed.system.tier() != nullptr) {
    out.tier = bed.system.tier()->stats();
    out.flash_pages = bed.system.tier()->TotalFlashPages();
    for (std::uint32_t c = 0; c < kControllers; ++c) {
      out.flash_dirty += bed.system.tier()->FlashDirtyPages(c);
    }
  }
  out.digest = bed.hub.Digest();
  return out;
}

}  // namespace
}  // namespace nlss::bench

int main(int argc, char** argv) {
  using namespace nlss;
  using namespace nlss::bench;
  const Args args = Args::Parse(argc, argv,
                                {.hosts = kDefHosts,
                                 .ops = kDefReads,
                                 .files = kDefFiles,
                                 .flash_mb = kDefFlashMb,
                                 .zipf = 0.9});
  Scale scale;
  scale.hosts = static_cast<std::uint32_t>(args.hosts);
  scale.reads = static_cast<std::uint32_t>(args.ops);
  scale.files = static_cast<std::uint32_t>(args.files);
  scale.flash_mb = args.flash_mb;
  scale.zipf = args.zipf;

  PrintHeader("E19", "Workload-adaptive storage tiering",
              "a heat-tracked flash tier between DRAM and disk captures "
              "the working set the cache cannot hold, turning the Zipf "
              "tail's mechanical reads into microsecond flash reads");

  const double dram_mb =
      static_cast<double>(kControllers) * kDramPagesPerNode * kFileBytes /
      static_cast<double>(util::MiB);
  const double ws_mb = static_cast<double>(scale.files) * kFileBytes /
                       static_cast<double>(util::MiB);
  std::printf("\nworking set %.0f MiB over %.0f MiB aggregate DRAM (%.1fx; "
              ">= 3x required), flash %llu MiB/blade, zipf %.2f\n",
              ws_mb, dram_mb, ws_mb / dram_mb,
              (unsigned long long)scale.flash_mb, scale.zipf);

  const std::uint64_t viol0 =
      check::Registry::Instance().violations(check::Subsystem::kTier);

  const RunResult base = Run("e19-base", false, scale, args.seed);
  const RunResult tierd = Run("e19-tier", true, scale, args.seed);

  util::Table ta({"mode", "ops", "MB/s", "p99 us", "elapsed ms"});
  ta.AddRow({"DRAM + disk", util::Table::Cell(base.ops),
             util::Table::Cell(base.mbps, 1), util::Table::Cell(base.p99_us, 1),
             util::Table::Cell(base.elapsed_ms, 1)});
  ta.AddRow({"DRAM + flash + disk", util::Table::Cell(tierd.ops),
             util::Table::Cell(tierd.mbps, 1),
             util::Table::Cell(tierd.p99_us, 1),
             util::Table::Cell(tierd.elapsed_ms, 1)});
  ta.Print("E19 Zipf broadcast, measured (second) pass:");

  util::Table tb({"counter", "value"});
  tb.AddRow({"flash hits", util::Table::Cell(tierd.tier.flash_hits)});
  tb.AddRow({"flash misses", util::Table::Cell(tierd.tier.flash_misses)});
  tb.AddRow({"spills (evict->flash)", util::Table::Cell(tierd.tier.spills)});
  tb.AddRow({"admits (disk->flash)", util::Table::Cell(tierd.tier.admits)});
  tb.AddRow({"writeback absorbs", util::Table::Cell(tierd.tier.writeback_absorbs)});
  tb.AddRow({"promotions (flash->DRAM)", util::Table::Cell(tierd.tier.promotions)});
  tb.AddRow({"demotions (flash->disk)", util::Table::Cell(tierd.tier.demotions)});
  tb.AddRow({"stale demotes", util::Table::Cell(tierd.tier.stale_demotes)});
  tb.AddRow({"joins (in-flight)", util::Table::Cell(tierd.tier.joins)});
  tb.AddRow({"flash pages (end)", util::Table::Cell(tierd.flash_pages)});
  tb.Print("tier pipeline (tier-on run):");

  const double speedup = base.mbps == 0 ? 0.0 : tierd.mbps / base.mbps;
  const double hit_rate =
      tierd.tier.flash_hits + tierd.tier.flash_misses == 0
          ? 0.0
          : static_cast<double>(tierd.tier.flash_hits) /
                static_cast<double>(tierd.tier.flash_hits +
                                    tierd.tier.flash_misses);
  const bool speed_ok = speedup >= 2.0 && tierd.tier.flash_hits > 0;
  std::printf("\naggregate throughput: %.1f -> %.1f MB/s = %.1fx (>= 2x "
              "required), flash hit rate %.1f%%: %s\n",
              base.mbps, tierd.mbps, speedup, hit_rate * 100.0,
              speed_ok ? "PASS" : "FAIL");

  const std::uint64_t viols =
      check::Registry::Instance().violations(check::Subsystem::kTier) - viol0;
  const bool safety_ok = tierd.churn_failed == 0 && tierd.double_applies == 0 &&
                         tierd.ghost_writes == 0 && tierd.flash_dirty == 0 &&
                         viols == 0;
  std::printf("churn: %llu writes, %llu failed; %llu double applies, "
              "%llu ghost writes, %llu dirty flash pages after drain, "
              "%llu kTier violations (all 0 required): %s\n",
              (unsigned long long)tierd.churn_ok,
              (unsigned long long)tierd.churn_failed,
              (unsigned long long)tierd.double_applies,
              (unsigned long long)tierd.ghost_writes,
              (unsigned long long)tierd.flash_dirty,
              (unsigned long long)viols, safety_ok ? "PASS" : "FAIL");

  const RunResult rerun = Run("e19-tier", true, scale, args.seed);
  const bool digest_ok = rerun.digest == tierd.digest;
  std::printf("same-seed digest match (tier-on, full run twice): %s\n",
              digest_ok ? "PASS" : "FAIL");

  if (args.json) {
    std::printf(
        "\nJSON: {\"experiment\":\"e19\",\"seed\":%llu,\"perturb\":%llu,"
        "\"hosts\":%u,\"files\":%u,\"flash_mb\":%llu,\"zipf\":%.2f,"
        "\"working_set_x_dram\":%.1f,"
        "\"base_mbps\":%.1f,\"tier_mbps\":%.1f,\"speedup\":%.2f,"
        "\"flash_hit_rate\":%.3f,"
        "\"tier\":{\"flash_hits\":%llu,\"spills\":%llu,\"admits\":%llu,"
        "\"absorbs\":%llu,\"promotions\":%llu,\"demotions\":%llu,"
        "\"stale_demotes\":%llu,\"joins\":%llu},"
        "\"double_applies\":%llu,\"ghost_writes\":%llu,"
        "\"ktier_violations\":%llu,\"digest_match\":%s}\n",
        (unsigned long long)args.seed, (unsigned long long)args.perturb,
        scale.hosts, scale.files,
        (unsigned long long)scale.flash_mb, scale.zipf, ws_mb / dram_mb,
        base.mbps, tierd.mbps, speedup, hit_rate,
        (unsigned long long)tierd.tier.flash_hits,
        (unsigned long long)tierd.tier.spills,
        (unsigned long long)tierd.tier.admits,
        (unsigned long long)tierd.tier.writeback_absorbs,
        (unsigned long long)tierd.tier.promotions,
        (unsigned long long)tierd.tier.demotions,
        (unsigned long long)tierd.tier.stale_demotes,
        (unsigned long long)tierd.tier.joins,
        (unsigned long long)tierd.double_applies,
        (unsigned long long)tierd.ghost_writes, (unsigned long long)viols,
        digest_ok ? "true" : "false");
  }
  return speed_ok && safety_ok && digest_ok ? 0 : 1;
}
