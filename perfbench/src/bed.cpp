#include "bed.h"

#include <algorithm>

#include "cache/dedup.h"
#include "tier/manager.h"
#include "util/stats.h"

namespace perfbench {

void Tracing::Attach(controller::StorageSystem& system) {
  system.AttachObs(&fg);
  // AttachObs points every tracer at the hub; move the background roots
  // onto their own tracer.
  system.cache().SetTracer(&bg);
  system.rebuild().SetTracer(&bg);
  if (system.tier() != nullptr) system.tier()->SetTracer(&bg);
}

namespace {

double Frac(double num, double den) { return MetricList::Ratio(num, den); }

double Delta(std::uint64_t after, std::uint64_t before) {
  return static_cast<double>(after - before);
}

sim::Tick MaxDelta(const std::vector<sim::Tick>& after,
                   const std::vector<sim::Tick>& before) {
  sim::Tick best = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    best = std::max(best, after[i] - (i < before.size() ? before[i] : 0));
  }
  return best;
}

}  // namespace

LayerCounts CountLayers(const LayerSources& src) {
  LayerCounts n;
  for (const host::Initiator* init : src.initiators) {
    const host::InitiatorStats& s = init->stats();
    n.host.reads += s.reads;
    n.host.writes += s.writes;
    n.host.attempts += s.attempts;
    n.host.retries += s.retries;
    n.host.timeouts += s.timeouts;
    n.host.hedges += s.hedges;
  }
  for (controller::StorageSystem* sys : src.systems) {
    const auto c = sys->cache().Totals();
    n.cache.local_hits += c.local_hits;
    n.cache.remote_hits += c.remote_hits;
    n.cache.misses += c.misses;
    n.cache.evictions += c.evictions;
    n.cache.backing_writes += c.backing_writes;
    n.cache.coalesced_pages += c.coalesced_pages;
    if (sys->tier() != nullptr) {
      const nlss::tier::Stats& t = sys->tier()->stats();
      n.tier.flash_hits += t.flash_hits;
      n.tier.flash_misses += t.flash_misses;
      n.tier.spills += t.spills;
      n.tier.writeback_absorbs += t.writeback_absorbs;
      n.tier.demotions += t.demotions;
      n.tier.stale_demotes += t.stale_demotes;
    }
    for (std::uint32_t g = 0; g < sys->group_count(); ++g) {
      auto& group = sys->group(g);
      n.raid_compute_bytes += group.compute_bytes();
      for (std::uint32_t d = 0; d < group.width(); ++d) {
        const auto& s = group.disk(d).stats();
        n.disk_ops += s.reads + s.writes;
        n.disk_bytes += s.bytes_read + s.bytes_written;
        n.disk_busy.push_back(s.busy_ns);
      }
    }
  }
  if (src.fabric != nullptr) {
    const auto nodes = static_cast<net::NodeId>(src.fabric->NodeCount());
    for (net::NodeId a = 0; a < nodes; ++a) {
      for (net::NodeId b = 0; b < nodes; ++b) {
        const net::LinkStats s = src.fabric->StatsFor(a, b);
        n.net_messages += s.messages;
        n.link_busy.push_back(s.busy_ns);
      }
    }
    n.net_bytes = src.fabric->TotalBytesCarried();
    for (const auto& [a, b] : src.wan) {
      n.wan_bytes +=
          src.fabric->StatsFor(a, b).bytes + src.fabric->StatsFor(b, a).bytes;
    }
  }
  for (const meta::Client* c : src.meta_clients) {
    n.meta_resolves += c->stats().resolves;
    n.meta_full_hits += c->stats().full_hits;
  }
  if (src.meta != nullptr) {
    n.meta_steps = src.meta->stats().lookup_steps;
    n.meta_invalidations = src.meta->stats().invalidations;
  }
  return n;
}

void AddLayerMetrics(const LayerSources& src, const LayerCounts& before,
                     const LayerCounts& after, const PhaseTimes& phases,
                     const RunFigures& run, MetricList& out) {
  const LayerCounts& a = after;
  const LayerCounts& b = before;
  const double makespan = static_cast<double>(src.makespan_ns);

  // Benchmark phase spans (host time).
  out.Add("setup.fill_s", phases.fill_s, "s");
  out.Add("setup.preload_s", phases.preload_s, "s");
  out.Add("phase.load_s", phases.load_s, "s");
  out.Add("phase.drain_s", phases.drain_s, "s");
  out.Add("phase.verify_s", 0, "s");

  // sim: the DES kernel.
  out.Add("sim.events", static_cast<double>(run.events), "count");
  out.Add("sim.host_ns_per_event",
          MetricList::Ratio(run.run_s * 1e9, static_cast<double>(run.events)),
          "ns/event");

  // proc: the process over the timed run (CPU seconds, not elapsed).
  out.Add("proc.user_s", run.usage.user_s, "cpu_s");
  out.Add("proc.sys_s", run.usage.sys_s, "cpu_s");
  out.Add("proc.minor_faults", static_cast<double>(run.usage.minor_faults),
          "count");

  // host: the initiator stack.
  const double host_ops =
      Delta(a.host.reads + a.host.writes, b.host.reads + b.host.writes);
  out.Add("host.ops", host_ops, "count");
  out.Add("host.attempts_per_op",
          MetricList::Ratio(Delta(a.host.attempts, b.host.attempts), host_ops),
          "attempts/op");
  out.Add("host.retries", Delta(a.host.retries, b.host.retries), "count");
  out.Add("host.timeouts", Delta(a.host.timeouts, b.host.timeouts), "count");
  out.Add("host.hedges", Delta(a.host.hedges, b.host.hedges), "count");

  // qos: admission and queue wait, from the SloTracker (reset at run start).
  std::uint64_t dispatched = 0, rejected = 0;
  util::Histogram wait;
  for (const qos::Scheduler* q : src.qos) {
    for (const auto& [tenant, s] : q->slo().all()) {
      dispatched += s.queue_wait.count();
      rejected += s.rejected;
      wait.Merge(s.queue_wait);
    }
  }
  out.Add("qos.dispatched", static_cast<double>(dispatched), "count");
  out.Add("qos.rejected", static_cast<double>(rejected), "count");
  out.Add("qos.queue_wait_p99_us",
          wait.count() == 0
              ? 0.0
              : static_cast<double>(wait.Percentile(0.99)) / 1000.0,
          "sim_us");

  // cache: the coherent DRAM cache cluster.
  const double local = Delta(a.cache.local_hits, b.cache.local_hits);
  const double remote = Delta(a.cache.remote_hits, b.cache.remote_hits);
  const double lookups = local + remote + Delta(a.cache.misses, b.cache.misses);
  out.Add("cache.lookups", lookups, "count");
  out.Add("cache.hit_ratio", MetricList::Ratio(local + remote, lookups),
          "ratio");
  out.Add("cache.remote_hit_ratio", MetricList::Ratio(remote, lookups),
          "ratio");
  out.Add("cache.evictions", Delta(a.cache.evictions, b.cache.evictions),
          "count");
  out.Add("cache.backing_writes",
          Delta(a.cache.backing_writes, b.cache.backing_writes), "count");
  out.Add("cache.coalesced_pages",
          Delta(a.cache.coalesced_pages, b.cache.coalesced_pages), "count");

  // tier: the flash lanes.
  const double served_by_flash = Delta(a.tier.flash_hits, b.tier.flash_hits);
  const double flash_reads =
      served_by_flash + Delta(a.tier.flash_misses, b.tier.flash_misses);
  out.Add("tier.flash_reads", flash_reads, "count");
  out.Add("tier.flash_hit_ratio",
          MetricList::Ratio(served_by_flash, flash_reads), "ratio");
  out.Add("tier.spills", Delta(a.tier.spills, b.tier.spills), "count");
  out.Add("tier.writeback_absorbs",
          Delta(a.tier.writeback_absorbs, b.tier.writeback_absorbs), "count");
  out.Add("tier.demotions", Delta(a.tier.demotions, b.tier.demotions),
          "count");
  out.Add("tier.stale_demotes",
          Delta(a.tier.stale_demotes, b.tier.stale_demotes), "count");

  // raid: parity and reconstruction compute, rebuild window.
  out.Add("raid.compute_bytes",
          Delta(a.raid_compute_bytes, b.raid_compute_bytes), "bytes");
  out.Add("raid.rebuild_sim_s", src.rebuild_sim_s, "sim_s");

  // disk: mechanics and the sparse block stores' resident blocks.
  std::uint64_t resident_blocks = 0;
  for (controller::StorageSystem* sys : src.systems) {
    for (std::uint32_t g = 0; g < sys->group_count(); ++g) {
      for (std::uint32_t d = 0; d < sys->group(g).width(); ++d) {
        resident_blocks += sys->group(g).disk(d).store().allocated_blocks();
      }
    }
  }
  out.Add("disk.ops", Delta(a.disk_ops, b.disk_ops), "count");
  out.Add("disk.bytes", Delta(a.disk_bytes, b.disk_bytes), "bytes");
  out.Add("disk.busy_frac_max",
          Frac(static_cast<double>(MaxDelta(a.disk_busy, b.disk_busy)),
               makespan),
          "frac");
  out.Add("disk.resident_blocks", static_cast<double>(resident_blocks),
          "count");

  // net: every fabric link; the WAN links between site gateways.
  out.Add("net.bytes", Delta(a.net_bytes, b.net_bytes), "bytes");
  out.Add("net.messages", Delta(a.net_messages, b.net_messages), "count");
  out.Add("net.busy_frac_max",
          Frac(static_cast<double>(MaxDelta(a.link_busy, b.link_busy)),
               makespan),
          "frac");
  out.Add("net.wan_bytes", Delta(a.wan_bytes, b.wan_bytes), "bytes");

  // meta: host dentry caches and the sharded service.
  const double resolves = Delta(a.meta_resolves, b.meta_resolves);
  out.Add("meta.resolves", resolves, "count");
  out.Add("meta.full_hit_ratio",
          MetricList::Ratio(Delta(a.meta_full_hits, b.meta_full_hits),
                            resolves),
          "ratio");
  out.Add("meta.lookup_steps", Delta(a.meta_steps, b.meta_steps), "count");
  out.Add("meta.invalidations",
          Delta(a.meta_invalidations, b.meta_invalidations), "count");

  // geo: async replication backlog, sampled by the benchmark.
  out.Add("geo.async_backlog_peak_mb", src.async_backlog_peak_mb, "MB");

  // obs (traced run): mean simulated self time per foreground op, by layer.
  static const std::pair<const char*, obs::Layer> kPathLayers[] = {
      {"path.host_us", obs::Layer::kHost},
      {"path.qos_us", obs::Layer::kQos},
      {"path.cache_us", obs::Layer::kCache},
      {"path.net_us", obs::Layer::kNet},
      {"path.raid_us", obs::Layer::kRaid},
      {"path.disk_us", obs::Layer::kDisk},
      {"path.meta_us", obs::Layer::kMeta},
      {"path.tier_us", obs::Layer::kTier},
  };
  const obs::Tracer* fg = src.fg_tracer;
  const obs::Tracer* bg = src.bg_tracer;
  for (const auto& [name, layer] : kPathLayers) {
    const double self_ns =
        fg == nullptr ? 0.0 : static_cast<double>(fg->aggregate().of(layer));
    const double ops = static_cast<double>(src.fg_ops);
    out.Add(name, MetricList::Ratio(self_ns, ops) / 1000.0, "sim_us/op");
  }
  out.Add("trace.fg_roots",
          fg == nullptr ? 0.0 : static_cast<double>(fg->finished()), "count");
  out.Add("trace.bg_roots",
          bg == nullptr ? 0.0 : static_cast<double>(bg->finished()), "count");
  const sim::Tick bg_ns = bg == nullptr ? 0 : bg->aggregate().total;
  out.Add("trace.bg_sim_s", static_cast<double>(bg_ns) / 1e9, "sim_s");
}

void AddSimMetrics(std::uint64_t fg_ops, sim::Tick fg_sim_ns,
                   const Latencies& reads, const Latencies& writes,
                   sim::Tick makespan_ns, MetricList& out) {
  out.Add("sim_ops_per_s",
          MetricList::Ratio(static_cast<double>(fg_ops),
                            static_cast<double>(fg_sim_ns) / 1e9),
          "1/sim_s");
  if (reads.count() > 0) {
    out.Add("sim_read_p50_us", reads.QuantileUs(0.50), "sim_us");
    out.Add("sim_read_p99_us", reads.QuantileUs(0.99), "sim_us");
  }
  if (writes.count() > 0) {
    out.Add("sim_write_p50_us", writes.QuantileUs(0.50), "sim_us");
    out.Add("sim_write_p99_us", writes.QuantileUs(0.99), "sim_us");
  }
  out.Add("sim_makespan_s", static_cast<double>(makespan_ns) / 1e9, "sim_s");
}

void DropCaches(controller::StorageSystem& system) {
  for (std::uint32_t c = 0; c < system.controller_count(); ++c) {
    system.cache().node(c).Clear();
  }
  system.cache().Recover();
  system.engine().Run();
}

void CheckExactlyOnce(const controller::StorageSystem& system,
                      const std::string& site, Gate& gate) {
  const auto& s = system.write_dedup().stats();
  gate.Check(s.double_applies == 0, site + ": double applies");
  gate.Check(s.ghost_writes == 0, site + ": ghost writes");
}

std::uint64_t VerifyVolume(controller::StorageSystem& system,
                           net::NodeId node, controller::VolumeId vol,
                           const Reference& ref,
                           const std::function<std::uint64_t(std::uint64_t)>&
                               offset_of,
                           std::uint32_t lanes) {
  std::vector<std::uint64_t> written;
  for (std::uint64_t e = 0; e < ref.extents(); ++e) {
    if (ref.written(e)) written.push_back(e);
  }
  std::uint64_t mismatches = 0;
  std::vector<std::uint64_t> per_lane(lanes, 0);
  for (std::uint64_t i = 0; i < written.size(); ++i) ++per_lane[i % lanes];
  RunClosedLoop(system.engine(), per_lane,
                [&](std::uint32_t lane, std::uint64_t index, OpDone done) {
                  const std::uint64_t e = written[index * lanes + lane];
                  system.Read(node, vol, offset_of(e), ref.extent_bytes(),
                              [&, e, done](bool ok, util::Bytes data) {
                                if (!ok || !ref.Matches(e, data)) ++mismatches;
                                done();
                              });
                });
  return mismatches;
}

}  // namespace perfbench
