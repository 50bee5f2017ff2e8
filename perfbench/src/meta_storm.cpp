// meta_storm: every host cold-resolves its own slice of paths through its
// dentry cache over the sharded metadata service (QoS attached, no data
// bytes), creates files in its own output directory (each create pushes a
// coherence invalidation to every registered client), then re-resolves its
// slice warm.
#include <algorithm>
#include <memory>

#include "qos/tenant.h"
#include "util/rng.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kHosts = 64;
constexpr std::uint32_t kSlice = 3500;  // paths per host
constexpr std::uint32_t kFilesPerDir = 50;
constexpr std::uint32_t kCreates = 500;  // per host, in its output directory
constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kBlades = 4;
// The warm pass must fit the dentry cache: the slice, its directories and
// the root.
static_assert(kSlice + kSlice / kFilesPerDir + 1 <= 4096,
              "warm slice must fit the default 4096-entry dentry cache");

// Hosts start each phase within this window of each other (seeded).
constexpr sim::Tick kStartJitterNs = 20 * 1000;

std::string CreatedName(std::uint64_t i) {
  return std::string("c") + std::to_string(i);
}

}  // namespace

RepResult RunMetaStorm(const RepOptions& opt, SpanLog& log, int parent) {
  RepResult r;
  PhaseTimes phases;
  const std::uint32_t files = kHosts * kSlice;

  // --- setup: bed ---------------------------------------------------------
  const int fill = log.Begin("setup.fill", parent);
  sim::Engine engine;
  qos::TenantRegistry tenants;
  const qos::TenantId tenant =
      tenants.Register("meta", qos::ServiceClass::kSilver);
  qos::Scheduler sched(engine, tenants, kBlades);
  meta::ServiceConfig mc;
  mc.shards = kShards;
  mc.blades = kBlades;
  std::unique_ptr<obs::Hub> hub;
  if (opt.traced) hub = std::make_unique<obs::Hub>(engine);
  meta::MetaService service(engine, mc);
  service.AttachQos(&sched, tenant);
  service.AttachObs(hub.get());
  phases.fill_s = log.End(fill);

  // --- setup: namespace + inputs ------------------------------------------
  // The namespace is populated before any client registers, so setup pays
  // no per-client invalidation per directory.
  const int preload = log.Begin("setup.preload", parent);
  std::vector<meta::Ino> inos(files, 0);
  std::uint64_t bootstrap_errors = 0;
  for (std::uint32_t d = 0; d < files / kFilesPerDir; ++d) {
    bootstrap_errors += service.BootstrapMkdir("/d" + std::to_string(d)) !=
                        meta::Status::kOk;
  }
  for (std::uint32_t f = 0; f < files; ++f) {
    bootstrap_errors +=
        service.BootstrapCreate(nlss::workload::MetaPathOf(f, kFilesPerDir),
                                &inos[f]) != meta::Status::kOk;
  }
  // Output directories carry a seeded job id, so the seed moves them
  // across shards.
  util::Rng rng(opt.seed);
  std::vector<std::string> out_dir(kHosts);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    out_dir[h] = std::string("/job") + std::to_string(rng.Below(1u << 30)) +
                 "." + std::to_string(h);
    bootstrap_errors +=
        service.BootstrapMkdir(out_dir[h]) != meta::Status::kOk;
  }
  std::vector<std::unique_ptr<meta::Client>> clients;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    clients.push_back(
        std::make_unique<meta::Client>(service, "mc" + std::to_string(h)));
  }
  // Each host's slice (the partitioned storm), in a seeded per-host order.
  nlss::workload::StormSpec spec;
  spec.files = nlss::workload::FileSet{0, files, 4096};
  spec.hosts = kHosts;
  spec.opens_per_host = kSlice;
  spec.read_bytes = 0;
  spec.open_gap_ns = 0;
  spec.partition_files = true;
  const nlss::workload::Trace trace =
      nlss::workload::MetadataStorm(spec, opt.seed);
  std::vector<std::vector<std::uint32_t>> slice(kHosts);
  for (const auto& op : trace.ops) slice[op.host].push_back(op.file);
  for (auto& s : slice) {
    for (std::size_t i = s.size() - 1; i > 0; --i) {
      std::swap(s[i], s[rng.Below(i + 1)]);
    }
  }
  const std::vector<std::uint64_t> per_host(kHosts, kSlice);
  const std::vector<std::uint64_t> creates(kHosts, kCreates);
  std::vector<sim::Tick> jitter[3];
  for (auto& phase : jitter) {
    for (std::uint32_t h = 0; h < kHosts; ++h) {
      phase.push_back(rng.Below(kStartJitterNs));
    }
  }
  phases.preload_s = log.End(preload);
  r.setup_s = phases.fill_s + phases.preload_s;
  if (opt.setup_only) return r;

  LayerSources src;
  for (auto& c : clients) src.meta_clients.push_back(c.get());
  src.meta = &service;
  src.qos = {&sched};
  // Every resolve and create is a foreground meta root in the traced run.
  if (hub != nullptr) src.fg_tracer = &hub->tracer();

  // --- run ------------------------------------------------------------------
  const int run = log.Begin("run", parent);
  sched.slo().Reset();
  const LayerCounts before = CountLayers(src);
  const ProcUsage usage0 = ReadProcUsage();
  const std::uint64_t events0 = engine.executed_events();
  const auto t0 = Clock::now();
  const sim::Tick sim0 = engine.now();
  Latencies cold, warm, create;
  std::uint64_t wrong_inode = 0;
  sim::Tick fg_sim = 0;

  const auto resolve_pass = [&](Latencies& lat,
                                const std::vector<sim::Tick>& delay) {
    const sim::Tick start = engine.now();
    const sim::Tick end = RunClosedLoop(
        engine, per_host, [&](std::uint32_t h, std::uint64_t i, OpDone done) {
          const std::uint32_t f = slice[h][i];
          const sim::Tick t = engine.now();
          ++r.attempted;
          clients[h]->Resolve(
              nlss::workload::MetaPathOf(f, kFilesPerDir),
              [&, f, t, done](meta::Status st, meta::Dentry dentry) {
                if (st == meta::Status::kOk) {
                  lat.Add(engine.now() - t);
                  wrong_inode += dentry.ino != inos[f];
                } else {
                  ++r.failed;
                }
                done();
              });
        },
        delay);
    fg_sim += end - start;
  };

  const int cold_span = log.Begin("phase.cold_resolve", run);
  resolve_pass(cold, jitter[0]);
  phases.load_s += log.End(cold_span);

  const int create_span = log.Begin("phase.create", run);
  const sim::Tick create_start = engine.now();
  const sim::Tick create_end = RunClosedLoop(
      engine, creates, [&](std::uint32_t h, std::uint64_t i, OpDone done) {
        const sim::Tick t = engine.now();
        ++r.attempted;
        service.Create(out_dir[h] + "/" + CreatedName(i),
                       [&, t, done](meta::Status st, meta::Ino) {
                         if (st == meta::Status::kOk) {
                           create.Add(engine.now() - t);
                         } else {
                           ++r.failed;
                         }
                         done();
                       });
      },
      jitter[1]);
  fg_sim += create_end - create_start;
  phases.load_s += log.End(create_span);

  const int warm_span = log.Begin("phase.warm_resolve", run);
  resolve_pass(warm, jitter[2]);
  phases.load_s += log.End(warm_span);

  // Nothing runs in the background here: the drain only confirms the
  // event queue is empty.
  const int drain = log.Begin("drain.settle", run);
  engine.Run();
  phases.drain_s += log.End(drain);

  r.run_s = SecondsBetween(t0, Clock::now());
  const RunFigures figures{r.run_s, ReadProcUsage() - usage0,
                           engine.executed_events() - events0};
  const sim::Tick makespan = engine.now() - sim0;
  log.End(run);

  // --- metrics ---------------------------------------------------------------
  // Reads are the cold lookups: one population (warm hits are ~40x faster
  // and would put the median on the cliff between the two passes).
  AddSimMetrics(r.attempted - r.failed, fg_sim, cold, create, makespan, r.sim);
  src.fg_ops = r.attempted;
  src.makespan_ns = makespan;
  AddLayerMetrics(src, before, CountLayers(src), phases, figures, r.layers);

  // --- verify (untimed) -----------------------------------------------------
  const int verify = log.Begin("verify", parent);
  r.gate.Check(bootstrap_errors == 0, "namespace bootstrap failed");
  r.gate.Check(r.failed == 0, "failed foreground ops");
  r.gate.Check(cold.count() == files && warm.count() == files,
               "not every path resolved in both passes");
  r.gate.Check(wrong_inode == 0, "path resolved to the wrong inode");
  // Each output directory lists exactly the files created in it.
  std::uint64_t listing_errors = 0;
  const std::uint32_t corrupt_dir =
      opt.corrupt_reference ? static_cast<std::uint32_t>(rng.Below(kHosts))
                            : kHosts;
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    std::vector<std::string> expected;
    for (std::uint32_t i = 0; i < kCreates; ++i) {
      expected.push_back(CreatedName(i));
    }
    if (h == corrupt_dir) expected[rng.Below(kCreates)][0] ^= 0x20;
    std::sort(expected.begin(), expected.end());
    service.List(out_dir[h],
                 [&, expected](meta::Status st,
                               std::vector<std::string> names) {
                   std::sort(names.begin(), names.end());
                   listing_errors +=
                       st != meta::Status::kOk || names != expected;
                 });
  }
  engine.Run();
  r.gate.Check(listing_errors == 0, "output directory listing mismatch");
  r.layers.Set("phase.verify_s", log.End(verify));
  return r;
}

}  // namespace perfbench
