// E18: metadata scale-out — the sharded namespace service (src/meta)
// under the E17 metadata-storm generator.
//
//   a) shard sweep        the per-job-scratch storm (every host resolving
//                         its own slice of a shared namespace, all cold)
//                         against 1..16 directory-granular shards; a
//                         single shard serializes every lookup behind one
//                         service queue, sharding spreads directories by
//                         hash.  Requires >= 4x metadata ops/sec from
//                         1 -> 16 shards.
//   b) dentry-cache + coherence   the python-import storm (shared order)
//                         twice: the warm pass must be served from the
//                         host dentry caches (hit rate reported).  A
//                         rename burst then churns the namespace and the
//                         storm replays against the renamed-back tree:
//                         every cached entry whose resolution chain went
//                         through a bumped directory is dropped, no stale
//                         positive is ever served (NLSS_INVARIANT(kMeta)
//                         violations must be zero), and every re-resolve
//                         lands on the new truth.
//   c) metadata-led ingest  per-host create bursts through the service
//                         (QoS-classed like data ops) followed by the
//                         small-file ingest writes riding the exactly-
//                         once write path: zero double applies, zero
//                         ghost writes.
//   d) determinism        every phase re-run at the same seed must
//                         produce a bit-identical observability digest.
//
// Scale knobs: --hosts (storm processes), --ops (opens/creates per host),
// --files (shared-order file count), --shards (sweep top end).
#include "bench/common.h"

#include <memory>

#include "check/invariant.h"
#include "host/initiator.h"
#include "meta/client.h"
#include "obs/hub.h"
#include "qos/scheduler.h"
#include "workload/workload.h"

namespace nlss::bench {
namespace {

constexpr std::uint32_t kControllers = 4;
constexpr std::uint32_t kSmallFileBytes = 4 * util::KiB;
// Shared-order (coherence) namespace: ~64 directories, so the rename
// burst always finds its victims and every host's dentry cache holds the
// whole directory level after warmup.
constexpr std::uint32_t kCohDirs = 64;

// Bench defaults (overridable via the scale knobs).  The sweep's speedup
// ceiling is demand-limited at roughly hosts/5 (one outstanding resolve
// per host, ~7.5 us round trip vs the 1.5 us lookup service time a single
// shard serializes behind), so 32 hosts leave the required 4x plenty of
// headroom.
constexpr std::uint32_t kDefHosts = 32;
constexpr std::uint32_t kDefOpens = 1000;
constexpr std::uint32_t kDefShards = 16;
constexpr std::uint32_t kDefCohFiles = 2000;
constexpr std::uint32_t kDefIngestHosts = 8;
constexpr std::uint32_t kDefIngestOps = 600;
constexpr std::uint32_t kCohShards = 4;
constexpr std::uint32_t kIngestShards = 8;
constexpr std::uint32_t kRenameDirs = 32;

controller::SystemConfig SysConfig(const char* name) {
  controller::SystemConfig config;
  config.name = name;
  config.controllers = kControllers;
  config.raid_groups = 4;
  config.disk_profile.capacity_blocks = 64 * 1024;
  config.cache.coalesce_pages = 8;
  return config;
}

/// System + hub + host fleet + sharded metadata service + one dentry
/// cache per host.  `preload` patterns the volume for phases that touch
/// data; the resolve-only phases skip it.
struct MetaBed {
  sim::Engine engine;
  net::Fabric fabric{engine};
  controller::StorageSystem system;
  obs::Hub hub{engine};
  std::vector<std::unique_ptr<host::Initiator>> owners;
  std::vector<host::Initiator*> inits;
  controller::VolumeId vol;
  std::unique_ptr<meta::MetaService> meta;
  std::vector<std::unique_ptr<meta::Client>> clients;

  MetaBed(const char* name, std::uint32_t hosts, std::uint64_t vol_bytes,
          std::uint64_t seed, std::uint32_t shards, bool preload)
      : system(engine, fabric, SysConfig(name)),
        vol(system.CreateVolume(name, vol_bytes)) {
    system.AttachObs(&hub);
    for (std::uint32_t h = 0; h < hosts; ++h) {
      host::InitiatorConfig hc;
      hc.policy = host::InitiatorConfig::Policy::kRoundRobin;
      hc.seed = seed + h;
      owners.push_back(std::make_unique<host::Initiator>(
          system, "h" + std::to_string(h), hc));
      owners.back()->AttachObs(&hub);
      inits.push_back(owners.back().get());
    }
    meta::ServiceConfig mc;
    mc.shards = shards;
    mc.blades = kControllers;
    meta = std::make_unique<meta::MetaService>(engine, mc);
    meta->AttachObs(&hub);
    for (std::uint32_t h = 0; h < hosts; ++h) {
      clients.push_back(std::make_unique<meta::Client>(
          *meta, "mc" + std::to_string(h)));
      inits[h]->AttachMeta(clients.back().get());
    }
    if (preload) {
      host::InitiatorConfig lc;
      lc.seed = seed + hosts;
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
      (void)flushed;
    }
  }
};

// --- E18a: shard sweep -------------------------------------------------------

struct SweepPoint {
  std::uint32_t shards = 0;
  std::uint64_t resolves = 0;
  std::uint64_t failed = 0;
  double elapsed_ms = 0;
  double kops = 0;  // metadata ops/sec, thousands
  double hit_rate = 0;
  obs::Breakdown layers;
  std::uint32_t digest = 0;
};

SweepPoint RunSweep(std::uint64_t seed, std::uint32_t hosts,
                    std::uint32_t opens, std::uint32_t shards) {
  // Partitioned storm: host h opens its own slice (one scratch directory
  // per host under the contiguous layout), so every full-path lookup is
  // cold and the load lands on the shards, not the caches.  One shard
  // serializes all hosts' slices; sixteen spread them by directory hash.
  workload::FileSet fs{0, hosts * opens, kSmallFileBytes};
  MetaBed bed("e18a", hosts, 8 * util::MiB, seed, shards, false);
  workload::PopulateMetaNamespace(*bed.meta, fs, opens);

  workload::StormSpec spec;
  spec.files = fs;
  spec.hosts = hosts;
  spec.opens_per_host = opens;
  spec.read_bytes = 0;  // pure metadata opens: no data read
  spec.open_gap_ns = 0;  // closed-loop saturation, not an open-rate test
  spec.host_stagger_ns = 1 * util::kNsPerUs;
  spec.partition_files = true;
  const workload::Trace trace = workload::MetadataStorm(spec, seed);

  workload::RunnerConfig rc;
  rc.meta_files_per_dir = opens;
  workload::Runner runner(bed.engine, bed.inits, bed.vol, rc, &bed.hub);
  const workload::PhaseResult r = runner.Play(trace);

  SweepPoint p;
  p.shards = shards;
  p.resolves = r.meta_resolves;
  p.failed = r.failed;
  p.elapsed_ms = static_cast<double>(r.elapsed) / 1e6;
  p.kops = r.elapsed == 0 ? 0.0
                          : static_cast<double>(r.ok) * 1e6 /
                                static_cast<double>(r.elapsed);
  p.hit_rate = r.meta_resolves == 0
                   ? 0.0
                   : static_cast<double>(r.meta_hits) /
                         static_cast<double>(r.meta_resolves);
  p.layers = bed.hub.tracer().aggregate();
  p.digest = bed.hub.Digest();
  return p;
}

// --- E18b: dentry cache + coherence ------------------------------------------

struct CoherenceResult {
  std::uint64_t rename_targets = 0;
  std::uint64_t cold_resolves = 0;
  double cold_hit_rate = 0;
  double warm_hit_rate = 0;
  std::uint64_t renames = 0;
  std::uint64_t invalidations = 0;    // service pushes
  std::uint64_t dropped_entries = 0;  // cache entries invalidated out
  std::uint64_t churn_resolves = 0;
  std::uint64_t churn_failed = 0;
  double churn_hit_rate = 0;
  std::uint32_t digest = 0;
};

CoherenceResult RunCoherence(std::uint64_t seed, std::uint32_t hosts,
                             std::uint32_t files) {
  const std::uint32_t files_per_dir = std::max(1u, files / kCohDirs);
  workload::FileSet fs{0, files, kSmallFileBytes};
  MetaBed bed("e18b", hosts, 8 * util::MiB, seed, kCohShards, false);
  workload::PopulateMetaNamespace(*bed.meta, fs, files_per_dir);

  workload::StormSpec spec;
  spec.files = fs;
  spec.hosts = hosts;
  spec.opens_per_host = files;  // shared order: every host opens every file
  spec.read_bytes = 0;
  spec.open_gap_ns = 0;
  spec.host_stagger_ns = 1 * util::kNsPerUs;
  const workload::Trace trace = workload::MetadataStorm(spec, seed);

  workload::RunnerConfig rc;
  rc.meta_files_per_dir = files_per_dir;
  workload::Runner runner(bed.engine, bed.inits, bed.vol, rc, &bed.hub);

  CoherenceResult out;
  const auto hit_rate = [](const workload::PhaseResult& r) {
    return r.meta_resolves == 0
               ? 0.0
               : static_cast<double>(r.meta_hits) /
                     static_cast<double>(r.meta_resolves);
  };
  // Pass 1 (cold): fills every host's dentry cache.
  const workload::PhaseResult cold = runner.Play(trace);
  out.cold_resolves = cold.meta_resolves;
  out.cold_hit_rate = hit_rate(cold);
  // Pass 2 (warm, unchanged namespace): the python-import steady state —
  // this is the dentry-cache hit rate the mgmt /meta endpoint reports.
  const workload::PhaseResult warm = runner.Play(trace);
  out.warm_hit_rate = hit_rate(warm);

  // Rename burst: take the first kRenameDirs top-level directories away
  // and put them back.  Every rename bumps the root directory version, so
  // each client's whole cache (every chain goes through the root) must be
  // invalidated — the coarse cost of chain-granular coherence, and exactly
  // what makes a stale positive impossible.
  const std::uint64_t inval0 = bed.meta->stats().invalidations;
  const std::uint64_t dropped0 = bed.meta->SumClientStat(
      [](const meta::Client& c) { return c.stats().dropped_entries; });
  std::uint64_t renames_ok = 0;
  const std::uint32_t dirs = (files + files_per_dir - 1) / files_per_dir;
  const std::uint32_t rename_dirs = std::min(kRenameDirs, dirs);
  out.rename_targets = rename_dirs;
  for (std::uint32_t d = 0; d < rename_dirs; ++d) {
    const std::string from = "/d" + std::to_string(d);
    const std::string tmp = "/t" + std::to_string(d);
    bed.meta->Rename(from, tmp, [&, from, tmp](meta::Status st) {
      if (st != meta::Status::kOk) return;
      bed.meta->Rename(tmp, from, [&](meta::Status st2) {
        if (st2 == meta::Status::kOk) ++renames_ok;
      });
    });
  }
  bed.engine.Run();
  out.renames = renames_ok;
  out.invalidations = bed.meta->stats().invalidations - inval0;
  out.dropped_entries =
      bed.meta->SumClientStat([](const meta::Client& c) {
        return c.stats().dropped_entries;
      }) -
      dropped0;

  // Pass 3 (after churn): the tree is back to the same shape, but every
  // cached chain is stale — resolves must re-walk and land on the new
  // truth (zero failures; kMeta invariants police stale serves).
  const workload::PhaseResult churn = runner.Play(trace);
  out.churn_resolves = churn.meta_resolves;
  out.churn_failed = churn.failed;
  out.churn_hit_rate = hit_rate(churn);
  out.digest = bed.hub.Digest();
  return out;
}

// --- E18c: metadata-led ingest -----------------------------------------------

struct IngestResult {
  std::uint64_t creates = 0;
  std::uint64_t create_failures = 0;
  double create_kops = 0;
  std::uint64_t qos_rejects = 0;
  std::uint64_t writes_ok = 0;
  std::uint64_t writes_failed = 0;
  std::uint64_t double_applies = 0;
  std::uint64_t ghost_writes = 0;
  std::uint32_t digest = 0;
};

IngestResult RunIngest(std::uint64_t seed, std::uint32_t hosts,
                       std::uint32_t per_host) {
  const std::uint32_t write_bytes = 4 * util::KiB;
  const std::uint32_t kFilePages = 64 * util::KiB;
  const std::uint32_t files_per_host =
      (per_host * write_bytes + kFilePages - 1) / kFilePages;
  workload::FileSet fs{0, hosts * files_per_host, kFilePages};
  MetaBed bed("e18c", hosts, fs.TotalBytes(), seed, kIngestShards, true);

  // Metadata ops are QoS-classed like data ops: the create burst flows
  // through WFQ admission on the controller blades.
  qos::TenantRegistry registry;
  const qos::TenantId tenant =
      registry.Register("meta-lab", qos::ServiceClass::kGold);
  qos::Scheduler qos(bed.engine, registry, kControllers);
  bed.meta->AttachQos(&qos, tenant);

  for (std::uint32_t h = 0; h < hosts; ++h) {
    if (bed.meta->BootstrapMkdir("/ing" + std::to_string(h)) !=
        meta::Status::kOk) {
      std::abort();  // fresh namespace: population must not fail
    }
  }

  // Closed-loop create burst: each host populates its ingest directory
  // through the sharded service, one outstanding create per host.
  IngestResult out;
  const sim::Tick create_start = bed.engine.now();
  std::function<void(std::uint32_t, std::uint32_t)> create_next =
      [&](std::uint32_t h, std::uint32_t i) {
        if (i >= per_host) return;
        bed.meta->Create(
            "/ing" + std::to_string(h) + "/c" + std::to_string(i),
            [&, h, i](meta::Status st, meta::Ino) {
              if (st == meta::Status::kOk) {
                ++out.creates;
              } else {
                ++out.create_failures;
              }
              create_next(h, i + 1);
            });
      };
  for (std::uint32_t h = 0; h < hosts; ++h) create_next(h, 0);
  bed.engine.Run();
  const sim::Tick create_ns = bed.engine.now() - create_start;
  out.create_kops = create_ns == 0 ? 0.0
                                   : static_cast<double>(out.creates) * 1e6 /
                                         static_cast<double>(create_ns);
  out.qos_rejects = bed.meta->stats().qos_rejects;

  // The data half: small-file ingest writes riding the exactly-once write
  // path (WriteIds + blade-side dedup) while the namespace stays sharded.
  workload::IngestSpec spec;
  spec.files = fs;
  spec.hosts = hosts;
  spec.writes_per_host = per_host;
  spec.write_bytes = write_bytes;
  const workload::Trace trace = workload::SmallFileIngest(spec, seed);
  workload::Runner runner(bed.engine, bed.inits, bed.vol, {}, &bed.hub);
  const workload::PhaseResult r = runner.Play(trace);
  bool flushed = false;
  bed.system.cache().FlushAll([&](bool) { flushed = true; });
  bed.engine.Run();
  (void)flushed;

  out.writes_ok = r.ok;
  out.writes_failed = r.failed;
  out.double_applies = bed.system.write_dedup().stats().double_applies;
  out.ghost_writes = bed.system.write_dedup().stats().ghost_writes;
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
                                 .ops = kDefOpens,
                                 .files = kDefCohFiles,
                                 .shards = kDefShards});
  // --ops also scales the ingest, whose own default is kDefIngestOps.
  const auto ingest_ops = static_cast<std::uint32_t>(
      Args::Parse(argc, argv, {.ops = kDefIngestOps}).ops);
  const auto hosts = static_cast<std::uint32_t>(args.hosts);
  const auto opens = static_cast<std::uint32_t>(args.ops);
  const auto coh_files = static_cast<std::uint32_t>(args.files);
  const auto max_shards = static_cast<std::uint32_t>(args.shards);

  PrintHeader("E18", "Metadata scale-out (sharded namespace service)",
              "a single metadata server serializes the lab's open storms; "
              "directory-granular sharding scales metadata ops/sec with "
              "the shard count while host dentry caches stay coherent "
              "through rename churn");

  // --- a) shard sweep ---------------------------------------------------------
  std::vector<SweepPoint> sweep;
  for (std::uint32_t s = 1; s <= max_shards; s *= 2) {
    sweep.push_back(RunSweep(args.seed, hosts, opens, s));
  }
  util::Table ta({"shards", "resolves", "elapsed ms", "meta kops/s",
                  "speedup", "cache hit %"});
  for (const SweepPoint& p : sweep) {
    ta.AddRow({util::Table::Cell(static_cast<std::uint64_t>(p.shards)),
               util::Table::Cell(p.resolves),
               util::Table::Cell(p.elapsed_ms, 1),
               util::Table::Cell(p.kops, 1),
               util::Table::Cell(p.kops / sweep.front().kops, 2),
               util::Table::Cell(p.hit_rate * 100.0, 1)});
  }
  ta.Print("E18a metadata ops/sec vs shard count (" +
           std::to_string(hosts) + " hosts x " + std::to_string(opens) +
           " cold opens, one scratch dir per host):");
  const SweepPoint& top = sweep.back();
  const double scaling = top.kops / sweep.front().kops;
  std::uint64_t sweep_failed = 0;
  for (const SweepPoint& p : sweep) sweep_failed += p.failed;
  const bool scaling_ok =
      scaling >= 4.0 && top.shards >= 16 && sweep_failed == 0;
  std::printf("\nscaling 1 -> %u shards: %.1fx (>= 4x required at 16 "
              "shards), %llu failed resolves: %s\n",
              top.shards, scaling, (unsigned long long)sweep_failed,
              scaling_ok ? "PASS"
              : top.shards < 16
                  ? "SKIP (sweep capped below 16 shards)"
                  : "FAIL");
  std::printf("per-layer critical path at %u shards: meta %llu us, "
              "host %llu us, other %llu us\n",
              top.shards,
              (unsigned long long)(top.layers.of(obs::Layer::kMeta) / 1000),
              (unsigned long long)(top.layers.of(obs::Layer::kHost) / 1000),
              (unsigned long long)((top.layers.SelfSum() -
                                    top.layers.of(obs::Layer::kMeta) -
                                    top.layers.of(obs::Layer::kHost)) /
                                   1000));

  // --- b) dentry cache + coherence -------------------------------------------
  const CoherenceResult coh = RunCoherence(args.seed, hosts, coh_files);
  util::Table tb({"pass", "resolves", "cache hit %", "failed"});
  tb.AddRow({"cold fill", util::Table::Cell(coh.cold_resolves),
             util::Table::Cell(coh.cold_hit_rate * 100.0, 1),
             util::Table::Cell(static_cast<std::uint64_t>(0))});
  tb.AddRow({"warm (steady state)", util::Table::Cell(coh.cold_resolves),
             util::Table::Cell(coh.warm_hit_rate * 100.0, 1),
             util::Table::Cell(static_cast<std::uint64_t>(0))});
  tb.AddRow({"after rename churn", util::Table::Cell(coh.churn_resolves),
             util::Table::Cell(coh.churn_hit_rate * 100.0, 1),
             util::Table::Cell(coh.churn_failed)});
  tb.Print("E18b host dentry cache across the shared-order storm (" +
           std::to_string(hosts) + " hosts x " + std::to_string(coh_files) +
           " files, " + std::to_string(kRenameDirs) + " dirs renamed "
           "away and back between warm and churn passes):");
  const std::uint64_t meta_violations =
      check::Registry::Instance().violations(check::Subsystem::kMeta);
  const std::uint64_t meta_evals =
      check::Registry::Instance().evaluations(check::Subsystem::kMeta);
  const bool coherence_ok = coh.warm_hit_rate >= 0.5 &&
                            coh.renames == coh.rename_targets &&
                            coh.renames > 0 &&
                            coh.invalidations > 0 && coh.churn_failed == 0 &&
                            meta_violations == 0;
  std::printf("\nwarm hit rate %.1f%% (>= 50%% required); rename churn: "
              "%llu renames -> %llu invalidation pushes, %llu cached "
              "entries dropped, 0 stale serves (%llu kMeta invariant "
              "evals, %llu violations): %s\n",
              coh.warm_hit_rate * 100.0, (unsigned long long)coh.renames,
              (unsigned long long)coh.invalidations,
              (unsigned long long)coh.dropped_entries,
              (unsigned long long)meta_evals,
              (unsigned long long)meta_violations,
              coherence_ok ? "PASS" : "FAIL");

  // --- c) metadata-led ingest -------------------------------------------------
  const IngestResult ing = RunIngest(args.seed, kDefIngestHosts, ingest_ops);
  const bool ingest_ok = ing.create_failures == 0 && ing.writes_failed == 0 &&
                         ing.double_applies == 0 && ing.ghost_writes == 0;
  std::printf("\nE18c metadata-led ingest (%u hosts, QoS-classed creates): "
              "%llu creates at %.1f kops/s (%llu admission rejects "
              "retried), %llu writes, %llu double applies + %llu ghost "
              "writes (0 required): %s\n",
              kDefIngestHosts, (unsigned long long)ing.creates,
              ing.create_kops, (unsigned long long)ing.qos_rejects,
              (unsigned long long)ing.writes_ok,
              (unsigned long long)ing.double_applies,
              (unsigned long long)ing.ghost_writes,
              ingest_ok ? "PASS" : "FAIL");

  // --- d) determinism ---------------------------------------------------------
  const bool digest_ok =
      RunSweep(args.seed, hosts, opens, top.shards).digest == top.digest &&
      RunCoherence(args.seed, hosts, coh_files).digest == coh.digest &&
      RunIngest(args.seed, kDefIngestHosts, ingest_ops).digest == ing.digest;
  std::printf("\nsame-seed digest match (sweep, coherence, ingest): %s\n",
              digest_ok ? "PASS" : "FAIL");

  if (args.json) {
    std::printf("\nJSON: {\"experiment\":\"e18\",\"seed\":%llu,"
                "\"hosts\":%u,\"opens\":%u,\"sweep\":[",
                (unsigned long long)args.seed, hosts, opens);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      std::printf("%s{\"shards\":%u,\"kops\":%.1f,\"meta_layer_us\":%llu}",
                  i == 0 ? "" : ",", p.shards, p.kops,
                  (unsigned long long)(p.layers.of(obs::Layer::kMeta) /
                                       1000));
    }
    std::printf(
        "],\"scaling\":%.2f,"
        "\"warm_hit_rate\":%.3f,\"churn_hit_rate\":%.3f,"
        "\"renames\":%llu,\"invalidations\":%llu,\"dropped\":%llu,"
        "\"meta_invariant_evals\":%llu,\"meta_violations\":%llu,"
        "\"creates\":%llu,\"create_kops\":%.1f,\"qos_rejects\":%llu,"
        "\"double_applies\":%llu,\"ghost_writes\":%llu,"
        "\"digest_match\":%s}\n",
        scaling, coh.warm_hit_rate, coh.churn_hit_rate,
        (unsigned long long)coh.renames,
        (unsigned long long)coh.invalidations,
        (unsigned long long)coh.dropped_entries,
        (unsigned long long)meta_evals,
        (unsigned long long)meta_violations, (unsigned long long)ing.creates,
        ing.create_kops, (unsigned long long)ing.qos_rejects,
        (unsigned long long)ing.double_applies,
        (unsigned long long)ing.ghost_writes, digest_ok ? "true" : "false");
  }
  return scaling_ok && coherence_ok && ingest_ok && digest_ok ? 0 : 1;
}
