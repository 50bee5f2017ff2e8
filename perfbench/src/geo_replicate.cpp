// geo_replicate: three sites in one namespace.  Streams at the home site
// write 1 MiB files in 64 KiB pieces; one file in four is replicated
// synchronously to the near site (100 km) and every file asynchronously to
// the far site (1500 km).  Far-site readers pull reference files over the
// WAN alongside, then the async queues drain.
#include <algorithm>
#include <memory>

#include "geo/geo.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace geo = nlss::geo;
namespace fs = nlss::fs;

constexpr std::uint32_t kStreams = 8;
constexpr std::uint32_t kFilesPerStream = 8;
constexpr std::uint32_t kReaders = 4;
constexpr std::uint32_t kRefFiles = 128;
constexpr std::uint32_t kFileBytes = 1024 * 1024;
constexpr std::uint32_t kWriteBytes = 64 * 1024;
constexpr std::uint32_t kWritesPerFile = kFileBytes / kWriteBytes;
// Far reads are 32 KiB: enough of them that the read p99 has samples
// beyond it.
constexpr std::uint32_t kReadBytes = 64 * 1024;
constexpr std::uint32_t kReadsPerFile = kFileBytes / kReadBytes;
constexpr std::uint32_t kSyncEvery = 4;  // one file in four is sync
// Streams and readers start within this window of each other (seeded).
constexpr sim::Tick kStartJitterNs = 2 * 1000;

// Fibre: ~5 us per km one way.
constexpr sim::Tick OneWayNs(double km) {
  return static_cast<sim::Tick>(km * 5000.0);
}

controller::SystemConfig SiteConfig(const char* name) {
  controller::SystemConfig c;
  c.name = name;
  c.controllers = 2;
  c.raid_groups = 2;
  c.disk_profile.capacity_blocks = 16 * 1024;
  return c;
}

std::string WrittenPath(std::uint32_t file) {
  return "/w/f" + std::to_string(file);
}
std::string RefPath(std::uint32_t file) {
  return "/ref/f" + std::to_string(file);
}

/// Read `path` whole at `site` and check every extent against `ref`, whose
/// extents are numbered file * (extents per file) + extent within the file.
void CheckFileAt(geo::Site& site, const std::string& path, std::uint32_t file,
                 const Reference& ref, std::uint64_t& mismatches) {
  site.filesystem().Read(
      path, 0, kFileBytes,
      [&, file](fs::Status st, util::Bytes data) {
        if (st != fs::Status::kOk || data.size() != kFileBytes) {
          ++mismatches;
          return;
        }
        const std::uint32_t per_file = kFileBytes / ref.extent_bytes();
        for (std::uint32_t p = 0; p < per_file; ++p) {
          mismatches += !ref.Matches(
              std::uint64_t{file} * per_file + p,
              std::span<const std::uint8_t>(data).subspan(
                  std::size_t{p} * ref.extent_bytes(), ref.extent_bytes()));
        }
      });
}

}  // namespace

RepResult RunGeoReplicate(const RepOptions& opt, SpanLog& log, int parent) {
  RepResult r;
  PhaseTimes phases;
  constexpr std::uint32_t kWritten = kStreams * kFilesPerStream;

  // --- setup: bed ---------------------------------------------------------
  const int fill = log.Begin("setup.fill", parent);
  sim::Engine engine;
  net::Fabric fabric(engine);
  geo::GeoCluster::Config gc;
  // Far readers fetch exactly what they read: one WAN fetch per read, no
  // background prefetch or promotion, so the read latencies are one
  // population.
  gc.migrate_chunk_bytes = kReadBytes;
  gc.prefetch = false;
  gc.auto_promote = false;
  geo::GeoCluster grid(engine, fabric, gc);
  const geo::SiteId home = grid.AddSite("home", SiteConfig("home"), {0, 0});
  const geo::SiteId near = grid.AddSite("near", SiteConfig("near"), {100, 0});
  const geo::SiteId far = grid.AddSite("far", SiteConfig("far"), {1500, 0});
  grid.ConnectSites(home, near, net::LinkProfile::Wan(OneWayNs(100), 1.0));
  grid.ConnectSites(home, far, net::LinkProfile::Wan(OneWayNs(1500), 0.622));
  grid.ConnectSites(near, far, net::LinkProfile::Wan(OneWayNs(1400), 0.622));
  bool namespace_ok = grid.Mkdir("/w") == fs::Status::kOk &&
                      grid.Mkdir("/ref") == fs::Status::kOk;
  fs::FilePolicy async_policy;
  async_policy.geo_replicate = true;
  async_policy.geo_sites = 3;
  fs::FilePolicy sync_policy = async_policy;
  sync_policy.geo_sync = true;
  fs::FilePolicy ref_policy = async_policy;
  ref_policy.geo_sites = 2;  // home + near: the far site reads over the WAN
  util::Rng rng(opt.seed);
  for (std::uint32_t f = 0; f < kWritten; ++f) {
    const bool sync = f % kSyncEvery == 0;
    namespace_ok &=
        grid.Create(WrittenPath(f), home, sync ? sync_policy : async_policy) ==
        fs::Status::kOk;
  }
  for (std::uint32_t f = 0; f < kRefFiles; ++f) {
    namespace_ok &=
        grid.Create(RefPath(f), home, ref_policy) == fs::Status::kOk;
  }
  phases.fill_s = log.End(fill);

  // --- setup: preload + inputs --------------------------------------------
  const int preload = log.Begin("setup.preload", parent);
  Reference written(std::uint64_t{kWritten} * kWritesPerFile, kWriteBytes);
  Reference refdata(std::uint64_t{kRefFiles} * kReadsPerFile, kReadBytes);
  util::Bytes file_buf(kFileBytes);
  bool preload_ok = true;
  for (std::uint32_t f = 0; f < kRefFiles; ++f) {
    for (std::uint32_t p = 0; p < kReadsPerFile; ++p) {
      const std::uint64_t e = std::uint64_t{f} * kReadsPerFile + p;
      const std::uint64_t seed = PatternSeed(opt.seed, 0, e);
      refdata.Fill(std::span(file_buf).subspan(std::size_t{p} * kReadBytes,
                                               kReadBytes),
                   seed);
      refdata.Record(e, seed);
    }
    grid.Write(home, RefPath(f), 0, file_buf,
               [&](fs::Status st) { preload_ok &= st == fs::Status::kOk; });
    engine.Run();
  }
  grid.DrainAsync([] {});
  engine.Run();
  // Far readers take the reference pieces in a seeded order.
  std::vector<std::uint32_t> read_order(kRefFiles * kReadsPerFile);
  for (std::uint32_t i = 0; i < read_order.size(); ++i) read_order[i] = i;
  for (std::size_t i = read_order.size() - 1; i > 0; --i) {
    std::swap(read_order[i], read_order[rng.Below(i + 1)]);
  }
  std::vector<std::uint64_t> per_client(kStreams,
                                        kFilesPerStream * kWritesPerFile);
  per_client.insert(per_client.end(), kReaders,
                    read_order.size() / kReaders);
  std::vector<sim::Tick> start_delay;
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    start_delay.push_back(rng.Below(kStartJitterNs));
  }
  std::unique_ptr<Tracing> tracing;
  if (opt.traced) {
    tracing = std::make_unique<Tracing>(engine);
    for (geo::SiteId s = 0; s < grid.site_count(); ++s) {
      tracing->Attach(grid.site(s).system());
    }
    grid.AttachObs(&tracing->bg);
  }
  phases.preload_s = log.End(preload);
  r.setup_s = phases.fill_s + phases.preload_s;
  if (opt.setup_only) return r;

  LayerSources src;
  src.fabric = &fabric;
  for (geo::SiteId s = 0; s < grid.site_count(); ++s) {
    src.systems.push_back(&grid.site(s).system());
  }
  src.wan = {{grid.site(home).gateway(), grid.site(near).gateway()},
             {grid.site(home).gateway(), grid.site(far).gateway()},
             {grid.site(near).gateway(), grid.site(far).gateway()}};
  if (tracing != nullptr) {
    src.fg_tracer = &tracing->fg.tracer();
    src.bg_tracer = &tracing->bg;
  }

  // --- run ------------------------------------------------------------------
  const int run = log.Begin("run", parent);
  const LayerCounts before = CountLayers(src);
  const ProcUsage usage0 = ReadProcUsage();
  const std::uint64_t events0 = engine.executed_events();
  const auto t0 = Clock::now();
  const sim::Tick sim0 = engine.now();
  Latencies reads, writes;
  std::uint64_t backlog_peak = 0;
  std::uint64_t read_mismatches = 0;
  double inline_verify_s = 0;

  const int wr = log.Begin("phase.geo_write_read", run);
  util::Bytes piece(kWriteBytes);
  const sim::Tick fg_end = RunClosedLoop(
      engine, per_client,
      [&](std::uint32_t client, std::uint64_t i, OpDone done) {
        const sim::Tick t = engine.now();
        ++r.attempted;
        if (client < kStreams) {
          // Stream `client` writes its files piece by piece, in order.
          const std::uint32_t f =
              client * kFilesPerStream +
              static_cast<std::uint32_t>(i / kWritesPerFile);
          const auto p = static_cast<std::uint32_t>(i % kWritesPerFile);
          const std::uint64_t e = std::uint64_t{f} * kWritesPerFile + p;
          const std::uint64_t seed = PatternSeed(opt.seed, 1, e);
          written.Fill(piece, seed);
          const std::uint64_t offset = std::uint64_t{p} * kWriteBytes;
          grid.Write(home, WrittenPath(f), offset, piece,
                     [&, e, seed, t, done](fs::Status st) {
                       if (st == fs::Status::kOk) {
                         writes.Add(engine.now() - t);
                         written.Record(e, seed);
                       } else {
                         ++r.failed;
                       }
                       backlog_peak =
                           std::max(backlog_peak, grid.PendingAsyncBytes());
                       done();
                     });
          return;
        }
        const std::uint32_t e =
            read_order[i * kReaders + (client - kStreams)];
        grid.Read(far, RefPath(e / kReadsPerFile),
                  std::uint64_t{e % kReadsPerFile} * kReadBytes, kReadBytes,
                  [&, e, t, done](fs::Status st, util::Bytes data) {
                    if (st == fs::Status::kOk) {
                      reads.Add(engine.now() - t);
                      const auto v0 = Clock::now();
                      read_mismatches += !refdata.Matches(e, data);
                      inline_verify_s += SecondsBetween(v0, Clock::now());
                    } else {
                      ++r.failed;
                    }
                    backlog_peak =
                        std::max(backlog_peak, grid.PendingAsyncBytes());
                    done();
                  });
      },
      start_delay);
  phases.load_s += log.End(wr) - inline_verify_s;

  // Drain the async queues and every site's write-back cache.
  const int drain = log.Begin("drain.geo_drain", run);
  bool drained = false;
  grid.DrainAsync([&] { drained = true; });
  engine.Run();
  bool flushed = true;
  for (geo::SiteId s = 0; s < grid.site_count(); ++s) {
    grid.site(s).system().cache().FlushAll([&](bool ok) { flushed &= ok; });
  }
  engine.Run();
  phases.drain_s += log.End(drain);

  r.run_s = SecondsBetween(t0, Clock::now()) - inline_verify_s;
  const RunFigures figures{r.run_s, ReadProcUsage() - usage0,
                           engine.executed_events() - events0};
  const sim::Tick makespan = engine.now() - sim0;
  log.End(run);

  // --- metrics ---------------------------------------------------------------
  AddSimMetrics(r.attempted - r.failed, fg_end - sim0, reads, writes, makespan,
                r.sim);
  src.fg_ops = r.attempted;
  src.makespan_ns = makespan;
  src.async_backlog_peak_mb = static_cast<double>(backlog_peak) / (1024 * 1024);
  AddLayerMetrics(src, before, CountLayers(src), phases, figures, r.layers);

  // --- verify (untimed) -----------------------------------------------------
  const int verify = log.Begin("verify", parent);
  if (opt.corrupt_reference) {
    written.CorruptOneByte(rng.Below(written.extents()),
                           static_cast<std::uint32_t>(rng.Below(kWriteBytes)));
  }
  r.gate.Check(namespace_ok && preload_ok, "namespace or preload failed");
  r.gate.Check(r.failed == 0, "failed foreground ops");
  r.gate.Check(read_mismatches == 0, "far-site read returned wrong bytes");
  r.gate.Check(drained && grid.PendingAsyncBytes() == 0,
               "async queue not empty after drain");
  r.gate.Check(flushed, "site flush failed");
  std::uint64_t mismatches = 0;
  for (geo::SiteId s = 0; s < grid.site_count(); ++s) {
    controller::StorageSystem& sys = grid.site(s).system();
    r.gate.Check(sys.cache().DirtyPages() == 0, "dirty pages after drain");
    CheckExactlyOnce(sys, grid.site(s).name(), r.gate);
    DropCaches(sys);
  }
  // Every written file at every replica site, every reference file at its
  // replicas, from cold caches.
  for (std::uint32_t f = 0; f < kWritten; ++f) {
    const auto replicas = grid.ReplicasOf(WrittenPath(f));
    r.gate.Check(replicas.size() == 3, "written file not on three sites");
    for (const geo::SiteId s : replicas) {
      CheckFileAt(grid.site(s), WrittenPath(f), f, written, mismatches);
    }
    engine.Run();
  }
  for (std::uint32_t f = 0; f < kRefFiles; ++f) {
    for (const geo::SiteId s : grid.ReplicasOf(RefPath(f))) {
      CheckFileAt(grid.site(s), RefPath(f), f, refdata, mismatches);
    }
    engine.Run();
  }
  r.gate.Check(mismatches == 0, "replica readback mismatch");
  r.layers.Set("phase.verify_s", log.End(verify));
  return r;
}

}  // namespace perfbench
