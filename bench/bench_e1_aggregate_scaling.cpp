// E1 (paper §2.1): aggregate throughput scales by adding controller blades
// to one shared pool — no data partitioning or replication — while a
// traditional dual-controller array plateaus at its two controllers.
//
// Workload: 48 hosts, closed loop, 64 KiB ops, 90% read / 10% write,
// uniform over a 256 MiB shared dataset.  Sweep blade count 1..16 and
// compare against the traditional array on identical backing stores.
#include "bench/common.h"

#include "baseline/traditional_array.h"
#include "cache/backing.h"

namespace nlss::bench {
namespace {

constexpr std::uint64_t kDataset = 256 * util::MiB;
constexpr std::uint32_t kOpBytes = 64 * util::KiB;
std::size_t g_hosts = 48;  // --hosts overrides (CI scale knob)
constexpr sim::Tick kWindow = 2 * util::kNsPerSec;

double RunCluster(std::uint32_t blades) {
  controller::SystemConfig config;
  config.name = "e1";
  config.controllers = blades;
  config.raid_groups = 8;
  config.disk_profile.capacity_blocks = 64 * 1024;
  config.cache.node_capacity_pages = 1024;  // 64 MiB per blade
  // Write-back aging: coalesce rewrites instead of flushing per write.
  config.cache.flush_delay_ns = 200 * util::kNsPerMs;
  TestBed bed(config, g_hosts);
  const auto vol = bed.system->CreateVolume("e1", kDataset);
  Preload(bed, vol, kDataset);
  DropCaches(bed);
  WarmRead(bed, vol, kDataset);

  util::Rng rng(1);
  const std::uint64_t ops_space = kDataset / kOpBytes;
  const sim::Tick start = bed.engine.now();
  auto [bytes, latency] = ClosedLoop::Run(
      bed.engine, g_hosts, start + kWindow,
      [&](std::size_t h, std::function<void(bool, std::uint64_t)> done) {
        const std::uint64_t off = rng.Below(ops_space) * kOpBytes;
        if (rng.Chance(0.9)) {
          bed.system->Read(bed.hosts[h], vol, off, kOpBytes,
                           [done = std::move(done)](bool ok, util::Bytes) {
                             done(ok, kOpBytes);
                           });
        } else {
          util::Bytes data(kOpBytes);
          util::FillPattern(data, off);
          bed.system->Write(bed.hosts[h], vol, off, data,
                            [done = std::move(done)](bool ok) {
                              done(ok, kOpBytes);
                            });
        }
      });
  return util::ThroughputMBps(bytes, kWindow);
}

double RunBaseline(std::uint32_t controllers) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  baseline::TraditionalArray::Config config;
  config.controllers = controllers;
  config.cache_pages_per_controller = 1024;
  baseline::TraditionalArray array(engine, fabric, config);
  std::vector<net::NodeId> hosts;
  for (std::size_t h = 0; h < g_hosts; ++h) {
    hosts.push_back(array.AttachHost("h" + std::to_string(h)));
  }
  // Identical disk substrate: 8 RAID-5 groups, one LUN each.
  disk::DiskProfile profile;
  profile.capacity_blocks = 64 * 1024;
  std::vector<std::unique_ptr<disk::DiskFarm>> farms;
  std::vector<std::unique_ptr<raid::RaidGroup>> groups;
  std::vector<std::unique_ptr<cache::RaidBacking>> backings;
  std::vector<std::uint32_t> luns;
  for (int g = 0; g < 8; ++g) {
    farms.push_back(std::make_unique<disk::DiskFarm>(engine, profile, 5));
    std::vector<disk::Disk*> disks;
    for (std::size_t i = 0; i < farms[g]->size(); ++i) {
      disks.push_back(&farms[g]->at(i));
    }
    raid::RaidGroup::Config rc;
    groups.push_back(std::make_unique<raid::RaidGroup>(engine,
                                                       std::move(disks), rc));
    backings.push_back(std::make_unique<cache::RaidBacking>(*groups.back()));
    luns.push_back(array.AddLun(backings.back().get()));
  }
  // Dataset striped across the 8 LUNs at op granularity.
  const std::uint64_t per_lun = kDataset / luns.size();
  // Warm pass, mirroring the cluster run.
  for (std::uint64_t off = 0; off < kDataset; off += util::MiB) {
    const std::uint32_t lun = static_cast<std::uint32_t>(off / per_lun) %
                              static_cast<std::uint32_t>(luns.size());
    array.Read(hosts[(off / util::MiB) % g_hosts], luns[lun], off % per_lun,
               util::MiB, [](bool, util::Bytes) {});
    engine.Run();
  }
  util::Rng rng(1);
  const sim::Tick start = engine.now();
  auto [bytes, latency] = ClosedLoop::Run(
      engine, g_hosts, start + kWindow,
      [&](std::size_t h, std::function<void(bool, std::uint64_t)> done) {
        const std::uint64_t global = rng.Below(kDataset / kOpBytes) * kOpBytes;
        const std::uint32_t lun =
            static_cast<std::uint32_t>(global / per_lun) %
            static_cast<std::uint32_t>(luns.size());
        const std::uint64_t off = global % per_lun;
        if (rng.Chance(0.9)) {
          array.Read(hosts[h], luns[lun], off, kOpBytes,
                     [done = std::move(done)](bool ok, util::Bytes) {
                       done(ok, kOpBytes);
                     });
        } else {
          util::Bytes data(kOpBytes);
          util::FillPattern(data, off);
          array.Write(hosts[h], luns[lun], off, data,
                      [done = std::move(done)](bool ok) {
                        done(ok, kOpBytes);
                      });
        }
      });
  return util::ThroughputMBps(bytes, kWindow);
}

}  // namespace
}  // namespace nlss::bench

int main(int argc, char** argv) {
  using namespace nlss;
  using namespace nlss::bench;
  g_hosts = Args::Parse(argc, argv, {.hosts = g_hosts}).hosts;
  PrintHeader("E1", "Aggregate throughput vs controller blades (paper 2.1)",
              "adding blades scales delivered I/O without partitioning; "
              "traditional controllers plateau");

  util::Table table({"system", "controllers", "MB/s", "speedup vs 1 blade"});
  double base = 0;
  for (const std::uint32_t blades : {1u, 2u, 4u, 8u, 16u}) {
    const double mbps = RunCluster(blades);
    if (blades == 1) base = mbps;
    table.AddRow({"nlss pooled cluster", util::Table::Cell(blades),
                  util::Table::Cell(mbps, 1),
                  util::Table::Cell(base > 0 ? mbps / base : 0.0, 2)});
  }
  for (const std::uint32_t ctrls : {1u, 2u}) {
    const double mbps = RunBaseline(ctrls);
    table.AddRow({"traditional array", util::Table::Cell(ctrls),
                  util::Table::Cell(mbps, 1),
                  util::Table::Cell(base > 0 ? mbps / base : 0.0, 2)});
  }
  table.Print("E1 results (" + std::to_string(g_hosts) +
              " hosts, 64 KiB ops, 90/10 r/w, 256 MiB set):");
  std::printf("\nExpected shape: throughput grows with blades (pooled cache +"
              "\nmore engines) until the disks bound it; the dual-controller"
              "\nbaseline stops scaling at 2.\n");
  return 0;
}
