// checkpoint_rebuild: every host writes its checkpoint over the previous
// generation as 1 MiB sequential writes (coalesced write-back); caches are
// dropped; every host restart-reads its checkpoint while one disk in each
// RAID-5 group fails and is rebuilt across the blades.
#include <algorithm>
#include <memory>

#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kHosts = 8;
constexpr std::uint32_t kChunkBytes = 1024 * 1024;  // checkpoint write
// Restart reads are 128 KiB: enough of them that the read p99 has samples
// beyond it.
constexpr std::uint32_t kReadBytes = 128 * 1024;
constexpr std::uint32_t kReadsPerChunk = kChunkBytes / kReadBytes;
// Every host writes the same 20 MiB, as the ranks of a bulk-synchronous
// job do.  (Sizes drawn per host swung the restart-read percentiles by
// ~20% from seed to seed: which hosts finish early decides how many
// streams contend with the rebuild.)
constexpr std::uint32_t kChunksPerHost = 20;
constexpr std::uint64_t kDiskBlocks = 16 * 1024;  // 64 MiB per disk
// Checkpoint nodes use a 1 s per-attempt timeout: a degraded 1 MiB read
// during rebuild takes ~50-65 ms, so the 50 ms default re-drives it until
// retries run out.  An operator sizes the timeout to the I/O size.
constexpr sim::Tick kAttemptTimeoutNs = 1000 * 1000 * 1000;
// Hosts enter each phase within this window of each other (seeded).
constexpr sim::Tick kStartJitterNs = 20 * 1000;
constexpr std::uint32_t kPreloadChunks = 2;  // per preload write
static_assert(kChunksPerHost % kPreloadChunks == 0);

controller::SystemConfig Config() {
  controller::SystemConfig c;
  c.name = "ckpt";
  c.controllers = 4;
  c.raid_groups = 4;
  c.disks_per_group = 5;
  c.disk_profile.capacity_blocks = kDiskBlocks;
  c.cache.node_capacity_pages = 256;  // 64 MiB aggregate DRAM < checkpoint
  c.cache.coalesce_pages = 8;
  return c;
}

}  // namespace

RepResult RunCheckpointRebuild(const RepOptions& opt, SpanLog& log,
                               int parent) {
  RepResult r;
  PhaseTimes phases;

  // --- setup: bed ---------------------------------------------------------
  const int fill = log.Begin("setup.fill", parent);
  sim::Engine engine;
  net::Fabric fabric(engine);
  controller::StorageSystem system(engine, fabric, Config());
  const controller::VolumeId vol = system.CreateVolume(
      "ckpt", std::uint64_t{kHosts} * kChunksPerHost * kChunkBytes);
  std::vector<std::unique_ptr<host::Initiator>> hosts;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    host::InitiatorConfig hc;
    hc.seed = PatternSeed(opt.seed, 1, h);
    hc.retry.request_timeout_ns = kAttemptTimeoutNs;
    hosts.push_back(std::make_unique<host::Initiator>(
        system, "node" + std::to_string(h), hc));
  }
  const net::NodeId verifier = system.AttachHost("verifier");
  phases.fill_s = log.End(fill);

  // --- setup: inputs + previous checkpoint generation ----------------------
  const int preload = log.Begin("setup.preload", parent);
  util::Rng rng(opt.seed);
  const std::vector<std::uint64_t> chunks(kHosts, kChunksPerHost);
  const auto jitter = [&rng] {
    std::vector<sim::Tick> delay(kHosts);
    for (auto& d : delay) d = rng.Below(kStartJitterNs);
    return delay;
  };
  const std::vector<sim::Tick> write_jitter = jitter();
  const std::vector<sim::Tick> read_jitter = jitter();
  Reference ref(std::uint64_t{kHosts} * kChunksPerHost, kChunkBytes);
  const auto extent_of = [](std::uint32_t h, std::uint64_t c) {
    return std::uint64_t{h} * kChunksPerHost + c;
  };
  // The previous checkpoint generation (generation 0) sits where every
  // host writes, so a lost write reads back stale bytes and fails the gate.
  util::Bytes old(std::uint64_t{kPreloadChunks} * kChunkBytes);
  bool preload_ok = true;
  for (std::uint64_t e = 0; e < ref.extents(); e += kPreloadChunks) {
    for (std::uint64_t i = 0; i < kPreloadChunks; ++i) {
      const std::uint64_t seed = PatternSeed(opt.seed, 0, e + i);
      ref.Fill(std::span(old).subspan(i * kChunkBytes, kChunkBytes), seed);
      ref.Record(e + i, seed);
    }
    system.Write(verifier, vol, e * kChunkBytes, old,
                 [&](bool ok) { preload_ok &= ok; });
    engine.Run();
  }
  system.cache().FlushAll([&](bool ok) { preload_ok &= ok; });
  engine.Run();
  DropCaches(system);
  // Traces cover the run only.
  std::unique_ptr<Tracing> tracing;
  if (opt.traced) {
    tracing = std::make_unique<Tracing>(engine);
    tracing->Attach(system);
    for (auto& h : hosts) h->AttachObs(&tracing->fg);
  }
  phases.preload_s = log.End(preload);
  r.setup_s = phases.fill_s + phases.preload_s;
  if (opt.setup_only) return r;

  LayerSources src;
  src.fabric = &fabric;
  src.systems = {&system};
  for (auto& h : hosts) src.initiators.push_back(h.get());
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
  Latencies writes, reads;
  double inline_verify_s = 0;

  // Checkpoint burst.
  const int ckpt = log.Begin("phase.ckpt_write", run);
  const sim::Tick write_start = engine.now();
  util::Bytes payload(kChunkBytes);
  const sim::Tick write_end = RunClosedLoop(
      engine, chunks, [&](std::uint32_t h, std::uint64_t c, OpDone done) {
        const std::uint64_t e = extent_of(h, c);
        const std::uint64_t seed = PatternSeed(opt.seed, 1, e);
        ref.Fill(payload, seed);
        const sim::Tick t = engine.now();
        ++r.attempted;
        hosts[h]->Write(vol, e * kChunkBytes, payload,
                        [&, e, seed, t, done](bool ok) {
                          if (ok) {
                            writes.Add(engine.now() - t);
                            ref.Record(e, seed);
                          } else {
                            ++r.failed;
                          }
                          done();
                        });
      },
      write_jitter);
  phases.load_s += log.End(ckpt);

  // Make the checkpoint durable, then drop every cache (node restart).
  const int flush = log.Begin("drain.flush_drop", run);
  bool flushed = false;
  system.cache().FlushAll([&](bool ok) { flushed = ok; });
  engine.Run();
  DropCaches(system);
  phases.drain_s += log.End(flush);

  // Restart reads while each group loses a disk and rebuilds.
  const int restart = log.Begin("phase.restart_rebuild", run);
  const sim::Tick read_start = engine.now();
  std::uint32_t rebuilds_ok = 0;
  sim::Tick rebuild_end = read_start;
  // One disk per group fails: disk g of group g, so the failures sit at
  // different stripe positions.
  for (std::uint32_t g = 0; g < system.group_count(); ++g) {
    system.FailAndRebuildDisk(g, g % Config().disks_per_group, [&](bool ok) {
      rebuilds_ok += ok ? 1 : 0;
      rebuild_end = std::max(rebuild_end, engine.now());
    });
  }
  std::uint64_t read_mismatches = 0;
  std::vector<std::uint64_t> read_ops(kHosts);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    read_ops[h] = chunks[h] * kReadsPerChunk;
  }
  const sim::Tick read_end = RunClosedLoop(
      engine, read_ops, [&](std::uint32_t h, std::uint64_t i, OpDone done) {
        const std::uint64_t e = extent_of(h, i / kReadsPerChunk);
        const auto within =
            static_cast<std::uint32_t>(i % kReadsPerChunk) * kReadBytes;
        const sim::Tick t = engine.now();
        ++r.attempted;
        hosts[h]->Read(vol, e * kChunkBytes + within, kReadBytes,
                       [&, e, within, t, done](bool ok, util::Bytes data) {
                         if (ok) {
                           reads.Add(engine.now() - t);
                           const auto v0 = Clock::now();
                           if (!ref.Matches(e, data, within)) ++read_mismatches;
                           inline_verify_s += SecondsBetween(v0, Clock::now());
                         } else {
                           ++r.failed;
                         }
                         done();
                       });
      },
      read_jitter);
  phases.load_s += log.End(restart) - inline_verify_s;

  r.run_s = SecondsBetween(t0, Clock::now()) - inline_verify_s;
  const RunFigures figures{r.run_s, ReadProcUsage() - usage0,
                           engine.executed_events() - events0};
  const sim::Tick makespan = engine.now() - sim0;
  log.End(run);

  // --- metrics ---------------------------------------------------------------
  AddSimMetrics(r.attempted - r.failed,
                (write_end - write_start) + (read_end - read_start), reads,
                writes, makespan, r.sim);
  src.fg_ops = r.attempted;
  src.makespan_ns = makespan;
  src.rebuild_sim_s = static_cast<double>(rebuild_end - read_start) / 1e9;
  AddLayerMetrics(src, before, CountLayers(src), phases, figures, r.layers);

  // --- verify (untimed) -----------------------------------------------------
  const int verify = log.Begin("verify", parent);
  if (opt.corrupt_reference) {
    ref.CorruptOneByte(extent_of(0, rng.Below(kChunksPerHost)), 4097);
  }
  r.gate.Check(preload_ok, "previous checkpoint preload failed");
  r.gate.Check(r.failed == 0, "failed foreground ops");
  r.gate.Check(flushed, "checkpoint flush failed");
  r.gate.Check(read_mismatches == 0, "restart read returned wrong bytes");
  r.gate.Check(rebuilds_ok == system.group_count(), "rebuild did not finish");
  r.gate.Check(system.rebuild().ActiveJobs() == 0, "rebuild still active");
  r.gate.Check(system.cache().DirtyPages() == 0, "dirty pages after drain");
  CheckExactlyOnce(system, "ckpt", r.gate);
  r.gate.Check(writes.count() == std::uint64_t{kHosts} * kChunksPerHost,
               "unacknowledged checkpoint chunk");
  // Readback after the rebuild, from cold caches: every chunk, byte exact.
  DropCaches(system);
  r.gate.Check(VerifyVolume(system, verifier, vol, ref,
                            [](std::uint64_t e) { return e * kChunkBytes; },
                            kHosts) == 0,
               "checkpoint readback mismatch");
  r.layers.Set("phase.verify_s", log.End(verify));
  return r;
}

}  // namespace perfbench
