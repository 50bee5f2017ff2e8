// E17: trace-shaped workloads — the four traffic shapes a national-lab
// shared pool actually sees, generated deterministically and replayed
// through the full host initiator stack, plus the two countermeasures
// this PR adds:
//
//   a) metadata storm     batched multi-file prefetch (open-burst
//                         detector) cuts per-open latency: N tiny reads
//                         become one large staged read
//   b) small-file ingest  small-write coalescing in the cache write-back
//                         path merges adjacent dirty pages into large
//                         back-end writes (>= 3x fewer backing ops)
//   c) shared-lib broadcast   pooled multipath hosts vs partitioned
//                         (pin_path) hosts over one Zipf hot set
//   d) checkpoint burst   synchronized large sequential writes, pooled vs
//                         partitioned, riding the coalesced flush path
//
// Exactly-once stays intact throughout: every host write carries a
// WriteId, the coalescer preserves the representative (writer, seq) of
// each merged page, and the bench requires zero double applies and zero
// ghost writes.  Every shape is run twice at the same seed and must
// produce a bit-identical observability digest.
//
// Scale knobs: --hosts (processes), --ops (ops per host), --files
// (file-set size) let CI shrink the shapes without editing the bench.
#include "bench/common.h"

#include <memory>

#include "host/initiator.h"
#include "meta/client.h"
#include "obs/hub.h"
#include "workload/workload.h"

namespace nlss::bench {
namespace {

constexpr std::uint32_t kFileBytes = 64 * util::KiB;  // == cache page
// Metadata-storm files are genuinely small (a header read IS the file):
// that is what makes batching pay — 64 files fit in one 256 KiB read, so
// the batch amortizes the per-op round trip instead of multiplying bytes.
constexpr std::uint32_t kSmallFileBytes = 4 * util::KiB;
constexpr std::uint32_t kControllers = 4;

// Bench-default shape sizes (overridable via --hosts/--ops/--files).
constexpr std::uint32_t kDefHosts = 6;
constexpr std::uint32_t kDefStormOpens = 3000;
constexpr std::uint32_t kDefIngestWrites = 1500;
constexpr std::uint32_t kDefBroadcastReads = 600;
constexpr std::uint32_t kDefFiles = 1024;
constexpr std::uint32_t kCheckpointBytesPerHost = 8 * util::MiB;

struct Scale {
  std::uint32_t hosts = kDefHosts;
  std::uint32_t ops = 0;    // per-shape default applied at use
  std::uint32_t files = kDefFiles;
  /// --shards: > 0 routes every storm open through the sharded metadata
  /// service (that many shards) before the data read; 0 = data path only.
  std::uint32_t shards = 0;
  /// --zipf: skew of the broadcast hot set (0 = spec default, 0.9).
  double zipf = 0.0;
};

// Namespace layout when metadata is enabled: 16 files per directory.
constexpr std::uint32_t kStormFilesPerDir = 16;

controller::SystemConfig SysConfig(const char* name,
                                   std::uint32_t coalesce_pages) {
  controller::SystemConfig config;
  config.name = name;
  config.controllers = kControllers;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 64 * 1024;
  // Write-back aging so an ingest stream dirties a span of adjacent pages
  // before the flusher runs — the coalescer's raw material.  A 4 KiB
  // append stream fills a 64 KiB page every ~5 ms, so 40 ms of aging
  // leaves a ~8-page dirty span for the coalescer to merge.
  config.cache.flush_delay_ns = 40 * util::kNsPerMs;
  config.cache.node_capacity_pages = 2048;
  config.cache.coalesce_pages = coalesce_pages;
  return config;
}

host::InitiatorConfig HostConfig(std::uint64_t seed, std::uint32_t h,
                                 bool partitioned) {
  host::InitiatorConfig hc;
  hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
  hc.seed = seed + h;
  if (partitioned) {
    // The partitioned baseline: each host is statically wired to one
    // controller, no failover, no speculation across blades.
    hc.pin_path = static_cast<int>(h % kControllers);
    hc.hedged_reads = false;
    hc.hedged_writes = false;
  }
  return hc;
}

/// One system + hub + host fleet, preloaded and cache-dropped so every
/// shape starts from the same cold, allocated state.
struct Bed {
  sim::Engine engine;
  net::Fabric fabric{engine};
  controller::StorageSystem system;
  obs::Hub hub{engine};
  std::vector<std::unique_ptr<host::Initiator>> owners;
  std::vector<host::Initiator*> inits;
  controller::VolumeId vol;

  Bed(const char* name, std::uint32_t coalesce_pages, std::uint32_t hosts,
      std::uint64_t vol_bytes, std::uint64_t seed, bool partitioned)
      : system(engine, fabric, SysConfig(name, coalesce_pages)),
        vol(system.CreateVolume(name, vol_bytes)) {
    system.AttachObs(&hub);
    for (std::uint32_t h = 0; h < hosts; ++h) {
      owners.push_back(std::make_unique<host::Initiator>(
          system, "h" + std::to_string(h), HostConfig(seed, h, partitioned)));
      owners.back()->AttachObs(&hub);
      inits.push_back(owners.back().get());
    }
    // Preload through a dedicated UNPINNED loader so extents exist and
    // contents are patterned even when the bench fleet is partitioned — a
    // pinned host funnels a multi-MiB write down one path, where fabric
    // serialization alone can blow the per-attempt retry timeout.
    host::Initiator loader(system, "loader", HostConfig(seed, hosts, false));
    util::Bytes buf(2 * util::MiB);
    for (std::uint64_t off = 0; off < vol_bytes; off += buf.size()) {
      const std::uint64_t n = std::min<std::uint64_t>(buf.size(),
                                                      vol_bytes - off);
      util::FillPattern(buf, off);
      bool ok = false;
      loader.Write(vol, off,
                   std::span<const std::uint8_t>(buf.data(), n),
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

// --- E17a: metadata storm (batched prefetch on/off) -------------------------

struct StormResult {
  std::uint64_t opens = 0;
  double mean_open_us = 0;
  double p99_open_us = 0;
  double elapsed_ms = 0;
  workload::OpenBurstPrefetcher::Stats prefetch;
  std::uint64_t meta_resolves = 0;
  double meta_hit_rate = 0;
  std::uint32_t digest = 0;
};

StormResult RunStorm(std::uint64_t seed, const Scale& scale, bool prefetch) {
  workload::FileSet fs{0, scale.files, kSmallFileBytes};
  Bed bed("e17a", 1, scale.hosts, fs.TotalBytes(), seed, false);

  // --shards > 0: every open first resolves its path through the sharded
  // metadata service via a per-host dentry cache (declared before the
  // clients so they unregister before the service dies).
  std::unique_ptr<meta::MetaService> meta_service;
  std::vector<std::unique_ptr<meta::Client>> meta_clients;
  workload::RunnerConfig rc;
  rc.prefetch.enabled = prefetch;
  if (scale.shards > 0) {
    meta::ServiceConfig mc;
    mc.shards = scale.shards;
    mc.blades = kControllers;
    meta_service = std::make_unique<meta::MetaService>(bed.engine, mc);
    meta_service->AttachObs(&bed.hub);
    workload::PopulateMetaNamespace(*meta_service, fs, kStormFilesPerDir);
    for (std::uint32_t h = 0; h < scale.hosts; ++h) {
      meta_clients.push_back(std::make_unique<meta::Client>(
          *meta_service, "mc" + std::to_string(h)));
      bed.inits[h]->AttachMeta(meta_clients.back().get());
    }
    rc.meta_files_per_dir = kStormFilesPerDir;
  }

  workload::StormSpec spec;
  spec.files = fs;
  spec.hosts = scale.hosts;
  spec.opens_per_host = scale.ops != 0 ? scale.ops : kDefStormOpens;
  const workload::Trace trace = workload::MetadataStorm(spec, seed);

  workload::Runner runner(bed.engine, bed.inits, bed.vol, rc, &bed.hub);
  const workload::PhaseResult r = runner.Play(trace);

  StormResult out;
  out.meta_resolves = r.meta_resolves;
  out.meta_hit_rate =
      r.meta_resolves == 0
          ? 0.0
          : static_cast<double>(r.meta_hits) /
                static_cast<double>(r.meta_resolves);
  out.opens = r.open_latency.count();
  out.mean_open_us = r.open_latency.Mean() / 1000.0;
  out.p99_open_us =
      static_cast<double>(r.open_latency.Percentile(0.99)) / 1000.0;
  out.elapsed_ms = static_cast<double>(r.elapsed) / 1e6;
  out.prefetch = r.prefetch;
  out.digest = bed.hub.Digest();
  return out;
}

// --- E17b: small-file ingest (coalescing on/off) ----------------------------

struct IngestResult {
  std::uint64_t writes = 0;
  double elapsed_ms = 0;
  std::uint64_t backing_writes = 0;
  std::uint64_t coalesced_runs = 0;
  std::uint64_t coalesced_pages = 0;
  std::uint64_t double_applies = 0;
  std::uint64_t ghost_writes = 0;
  std::uint32_t digest = 0;
};

IngestResult RunIngest(std::uint64_t seed, const Scale& scale,
                       std::uint32_t coalesce_pages) {
  const std::uint32_t writes_per_host =
      scale.ops != 0 ? scale.ops : kDefIngestWrites;
  // Partition coverage: enough files that each host's append stream fits
  // its own contiguous span.
  const std::uint32_t write_bytes = 4 * util::KiB;
  const std::uint32_t files_per_host =
      (writes_per_host * write_bytes + kFileBytes - 1) / kFileBytes;
  workload::FileSet fs{0, scale.hosts * files_per_host, kFileBytes};
  // Ingest nodes have blade affinity (pinned): a host's sequential append
  // stream then dirties adjacent pages on ONE blade, which is the span the
  // flush coalescer can merge.  Both modes run the same pinned fleet, so
  // the comparison isolates the coalescer.
  Bed bed("e17b", coalesce_pages, scale.hosts, fs.TotalBytes(), seed, true);

  workload::IngestSpec spec;
  spec.files = fs;
  spec.hosts = scale.hosts;
  spec.writes_per_host = writes_per_host;
  spec.write_bytes = write_bytes;
  const workload::Trace trace = workload::SmallFileIngest(spec, seed);

  const std::uint64_t backing0 = bed.system.cache().Totals().backing_writes;
  workload::Runner runner(bed.engine, bed.inits, bed.vol, {}, &bed.hub);
  const workload::PhaseResult r = runner.Play(trace);
  // Settle the write-back path completely so both modes account every
  // dirty page before backing writes are compared.
  bool flushed = false;
  bed.system.cache().FlushAll([&](bool) { flushed = true; });
  bed.engine.Run();
  (void)flushed;

  const cache::CacheCluster::Stats totals = bed.system.cache().Totals();
  const auto& ds = bed.system.write_dedup().stats();
  IngestResult out;
  out.writes = r.ok;
  out.elapsed_ms = static_cast<double>(r.elapsed) / 1e6;
  out.backing_writes = totals.backing_writes - backing0;
  out.coalesced_runs = totals.coalesced_runs;
  out.coalesced_pages = totals.coalesced_pages;
  out.double_applies = ds.double_applies;
  out.ghost_writes = ds.ghost_writes;
  out.digest = bed.hub.Digest();
  return out;
}

// --- E17c/d: broadcast + checkpoint, pooled vs partitioned ------------------

struct PhaseSummary {
  std::uint64_t ops = 0;
  double mbps = 0;
  double p99_us = 0;
  double elapsed_ms = 0;
  std::uint32_t digest = 0;
  obs::Breakdown layers;  // per-layer critical-path aggregate
};

PhaseSummary Summarize(const workload::PhaseResult& r, const Bed& bed) {
  PhaseSummary out;
  out.ops = r.ok;
  out.elapsed_ms = static_cast<double>(r.elapsed) / 1e6;
  out.mbps = r.elapsed == 0 ? 0.0
                            : util::ThroughputMBps(r.bytes, r.elapsed);
  out.p99_us = static_cast<double>(r.latency.Percentile(0.99)) / 1000.0;
  out.digest = bed.hub.Digest();
  out.layers = bed.hub.tracer().aggregate();
  return out;
}

PhaseSummary RunBroadcast(std::uint64_t seed, const Scale& scale,
                          bool partitioned) {
  workload::FileSet fs{0, scale.files, kFileBytes};
  Bed bed("e17c", 1, scale.hosts, fs.TotalBytes(), seed, partitioned);

  workload::BroadcastSpec spec;
  spec.files = fs;
  spec.hosts = scale.hosts;
  spec.reads_per_host = scale.ops != 0 ? scale.ops : kDefBroadcastReads;
  if (scale.zipf != 0.0) spec.zipf_theta = scale.zipf;
  const workload::Trace trace = workload::SharedLibBroadcast(spec, seed);

  workload::Runner runner(bed.engine, bed.inits, bed.vol, {}, &bed.hub);
  return Summarize(runner.Play(trace), bed);
}

PhaseSummary RunCheckpoint(std::uint64_t seed, const Scale& scale,
                           bool partitioned) {
  workload::FileSet fs{0, scale.hosts, kCheckpointBytesPerHost};
  Bed bed("e17d", 8, scale.hosts, fs.TotalBytes(), seed, partitioned);

  workload::BurstSpec spec;
  spec.files = fs;
  spec.hosts = scale.hosts;
  const workload::Trace trace = workload::CheckpointBurst(spec, seed);

  workload::Runner runner(bed.engine, bed.inits, bed.vol, {}, &bed.hub);
  const workload::PhaseResult r = runner.Play(trace);
  bool flushed = false;
  bed.system.cache().FlushAll([&](bool) { flushed = true; });
  bed.engine.Run();
  (void)flushed;
  return Summarize(r, bed);
}

}  // namespace
}  // namespace nlss::bench

int main(int argc, char** argv) {
  using namespace nlss;
  using namespace nlss::bench;
  const Args args =
      Args::Parse(argc, argv, {.hosts = kDefHosts, .files = kDefFiles});
  Scale scale;
  scale.hosts = static_cast<std::uint32_t>(args.hosts);
  scale.ops = static_cast<std::uint32_t>(args.ops);  // 0 = per-shape default
  scale.files = static_cast<std::uint32_t>(args.files);
  scale.shards = static_cast<std::uint32_t>(args.shards);  // 0 = no metadata
  scale.zipf = args.zipf;  // 0 = spec default

  PrintHeader("E17", "Trace-shaped workloads + countermeasures",
              "the pool's real traffic is storms, small files, broadcasts "
              "and checkpoint bursts; batched prefetch and small-write "
              "coalescing turn the pathological shapes into the large "
              "transfers the back end wants");

  // --- a) metadata storm ----------------------------------------------------
  const StormResult storm_serial = RunStorm(args.seed, scale, false);
  const StormResult storm_batched = RunStorm(args.seed, scale, true);
  util::Table ta({"mode", "opens", "mean open us", "p99 open us",
                  "elapsed ms", "batched reads", "staged hits"});
  ta.AddRow({"serial opens", util::Table::Cell(storm_serial.opens),
             util::Table::Cell(storm_serial.mean_open_us, 1),
             util::Table::Cell(storm_serial.p99_open_us, 1),
             util::Table::Cell(storm_serial.elapsed_ms, 1),
             util::Table::Cell(storm_serial.prefetch.batched_reads),
             util::Table::Cell(storm_serial.prefetch.hits)});
  ta.AddRow({"batched prefetch", util::Table::Cell(storm_batched.opens),
             util::Table::Cell(storm_batched.mean_open_us, 1),
             util::Table::Cell(storm_batched.p99_open_us, 1),
             util::Table::Cell(storm_batched.elapsed_ms, 1),
             util::Table::Cell(storm_batched.prefetch.batched_reads),
             util::Table::Cell(storm_batched.prefetch.hits)});
  ta.Print("E17a metadata storm (" + std::to_string(scale.hosts) +
           " hosts x " +
           std::to_string(scale.ops != 0 ? scale.ops : kDefStormOpens) +
           " opens over " + std::to_string(scale.files) + " files):");
  if (scale.shards > 0) {
    std::printf("\nmetadata service: %u shards, %llu resolves, "
                "dentry-cache hit rate %.1f%% (batched mode)\n",
                scale.shards,
                (unsigned long long)storm_batched.meta_resolves,
                storm_batched.meta_hit_rate * 100.0);
  }
  const double open_cut =
      storm_batched.mean_open_us == 0
          ? 0.0
          : storm_serial.mean_open_us / storm_batched.mean_open_us;
  const bool storm_ok = open_cut >= 1.5 &&
                        storm_batched.prefetch.batched_reads > 0 &&
                        storm_batched.prefetch.hits > 0;
  std::printf("\nmean open latency cut: %.1fx (>= 1.5x required), "
              "%llu opens staged by %llu batched reads: %s\n",
              open_cut,
              (unsigned long long)storm_batched.prefetch.hits,
              (unsigned long long)storm_batched.prefetch.batched_reads,
              storm_ok ? "PASS" : "FAIL");

  // --- b) small-file ingest -------------------------------------------------
  const IngestResult ingest_plain = RunIngest(args.seed, scale, 1);
  const IngestResult ingest_coal = RunIngest(args.seed, scale, 8);
  util::Table tb({"mode", "writes", "elapsed ms", "backing writes",
                  "coalesced runs", "pages in runs"});
  tb.AddRow({"per-page flush", util::Table::Cell(ingest_plain.writes),
             util::Table::Cell(ingest_plain.elapsed_ms, 1),
             util::Table::Cell(ingest_plain.backing_writes),
             util::Table::Cell(ingest_plain.coalesced_runs),
             util::Table::Cell(ingest_plain.coalesced_pages)});
  tb.AddRow({"coalesced (8 pages)", util::Table::Cell(ingest_coal.writes),
             util::Table::Cell(ingest_coal.elapsed_ms, 1),
             util::Table::Cell(ingest_coal.backing_writes),
             util::Table::Cell(ingest_coal.coalesced_runs),
             util::Table::Cell(ingest_coal.coalesced_pages)});
  tb.Print("E17b small-file ingest (4 KiB appends, write-back aged 40 ms):");
  const double write_cut =
      ingest_coal.backing_writes == 0
          ? 0.0
          : static_cast<double>(ingest_plain.backing_writes) /
                static_cast<double>(ingest_coal.backing_writes);
  const bool ingest_ok = write_cut >= 3.0 && ingest_coal.coalesced_runs > 0;
  const bool exactly_once_ok =
      ingest_plain.double_applies == 0 && ingest_plain.ghost_writes == 0 &&
      ingest_coal.double_applies == 0 && ingest_coal.ghost_writes == 0;
  std::printf("\nback-end write ops cut: %.1fx (>= 3x required): %s\n",
              write_cut, ingest_ok ? "PASS" : "FAIL");
  std::printf("exactly-once under coalescing: %llu double applies, "
              "%llu ghost writes (0 required): %s\n",
              (unsigned long long)ingest_coal.double_applies,
              (unsigned long long)ingest_coal.ghost_writes,
              exactly_once_ok ? "PASS" : "FAIL");

  // --- c) shared-library broadcast ------------------------------------------
  const PhaseSummary bc_pooled = RunBroadcast(args.seed, scale, false);
  const PhaseSummary bc_part = RunBroadcast(args.seed, scale, true);
  // --- d) checkpoint burst --------------------------------------------------
  const PhaseSummary ck_pooled = RunCheckpoint(args.seed, scale, false);
  const PhaseSummary ck_part = RunCheckpoint(args.seed, scale, true);
  util::Table tc({"shape", "hosts", "ops", "MB/s", "p99 us", "elapsed ms"});
  auto crow = [&](const char* name, const char* mode, const PhaseSummary& s) {
    tc.AddRow({std::string(name) + ", " + mode,
               util::Table::Cell(static_cast<std::uint64_t>(scale.hosts)),
               util::Table::Cell(s.ops), util::Table::Cell(s.mbps, 1),
               util::Table::Cell(s.p99_us, 1),
               util::Table::Cell(s.elapsed_ms, 1)});
  };
  crow("broadcast", "pooled", bc_pooled);
  crow("broadcast", "partitioned", bc_part);
  crow("checkpoint", "pooled", ck_pooled);
  crow("checkpoint", "partitioned", ck_part);
  tc.Print("E17c/d Zipf broadcast + synchronized checkpoint, pooled "
           "multipath vs pinned single-path hosts:");
  std::printf("\nExpected shape: pooled hosts spread the hot set and the "
              "burst over\nevery blade; pinned hosts serialize behind "
              "their one controller.\n");

  // --- determinism: every shape, same seed, bit-identical digest ------------
  const bool digest_ok =
      RunStorm(args.seed, scale, true).digest == storm_batched.digest &&
      RunIngest(args.seed, scale, 8).digest == ingest_coal.digest &&
      RunBroadcast(args.seed, scale, false).digest == bc_pooled.digest &&
      RunCheckpoint(args.seed, scale, false).digest == ck_pooled.digest;
  std::printf("\nsame-seed digest match (all four shapes): %s\n",
              digest_ok ? "PASS" : "FAIL");

  if (args.json) {
    const obs::Breakdown& lay = ck_pooled.layers;
    std::printf(
        "\nJSON: {\"experiment\":\"e17\",\"seed\":%llu,\"perturb\":%llu,"
        "\"hosts\":%u,\"files\":%u,"
        "\"storm\":{\"mean_open_us_serial\":%.1f,"
        "\"mean_open_us_batched\":%.1f,\"open_cut\":%.2f,"
        "\"batched_reads\":%llu,\"staged_hits\":%llu},"
        "\"ingest\":{\"backing_writes_plain\":%llu,"
        "\"backing_writes_coalesced\":%llu,\"write_cut\":%.2f,"
        "\"coalesced_runs\":%llu,\"double_applies\":%llu,"
        "\"ghost_writes\":%llu},"
        "\"broadcast\":{\"pooled_mbps\":%.1f,\"partitioned_mbps\":%.1f},"
        "\"checkpoint\":{\"pooled_mbps\":%.1f,\"partitioned_mbps\":%.1f,"
        "\"layers_ns\":{\"host\":%llu,\"controller\":%llu,\"qos\":%llu,"
        "\"cache\":%llu,\"net\":%llu,\"raid\":%llu,\"disk\":%llu}},"
        "\"digest_match\":%s}\n",
        (unsigned long long)args.seed, (unsigned long long)args.perturb,
        scale.hosts, scale.files,
        storm_serial.mean_open_us, storm_batched.mean_open_us, open_cut,
        (unsigned long long)storm_batched.prefetch.batched_reads,
        (unsigned long long)storm_batched.prefetch.hits,
        (unsigned long long)ingest_plain.backing_writes,
        (unsigned long long)ingest_coal.backing_writes, write_cut,
        (unsigned long long)ingest_coal.coalesced_runs,
        (unsigned long long)ingest_coal.double_applies,
        (unsigned long long)ingest_coal.ghost_writes, bc_pooled.mbps,
        bc_part.mbps, ck_pooled.mbps, ck_part.mbps,
        (unsigned long long)lay.of(obs::Layer::kHost),
        (unsigned long long)lay.of(obs::Layer::kController),
        (unsigned long long)lay.of(obs::Layer::kQos),
        (unsigned long long)lay.of(obs::Layer::kCache),
        (unsigned long long)lay.of(obs::Layer::kNet),
        (unsigned long long)lay.of(obs::Layer::kRaid),
        (unsigned long long)lay.of(obs::Layer::kDisk),
        digest_ok ? "true" : "false");
  }
  return storm_ok && ingest_ok && exactly_once_ok && digest_ok ? 0 : 1;
}
