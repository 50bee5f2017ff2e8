#include "meta/service.h"

#include <algorithm>
#include <tuple>

#include "check/race.h"
#include "meta/client.h"

namespace nlss::meta {

namespace {
/// QoS byte cost of one metadata shard visit — small next to data I/O, but
/// nonzero so a metadata storm draws down the tenant's token bucket and
/// queue-depth budget like any other traffic.
constexpr std::uint64_t kMetaOpCostBytes = 4096;

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

MetaService::MetaService(sim::Engine& engine, ServiceConfig config)
    : engine_(engine), config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.blades == 0) config_.blades = 1;
  shards_.reserve(config_.shards);
  for (ShardId s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<MetaShard>(engine_, s));
  }
  blade_up_.assign(config_.blades, true);
}

MetaService::~MetaService() = default;

// --- Shard map ----------------------------------------------------------------

ShardId MetaService::ShardOf(DirId dir) const {
  const auto it = shard_overrides_.find(dir);
  if (it != shard_overrides_.end()) return it->second;
  return static_cast<ShardId>(Mix64(dir ^ config_.map_seed) % shards_.size());
}

std::uint32_t MetaService::BladeOf(ShardId shard) const {
  const std::uint32_t blades = static_cast<std::uint32_t>(blade_up_.size());
  const std::uint32_t base = shard % blades;
  for (std::uint32_t i = 0; i < blades; ++i) {
    const std::uint32_t b = (base + i) % blades;
    if (blade_up_[b]) return b;
  }
  return base;  // every blade down: route to the home blade regardless
}

Status MetaService::MoveDirectory(DirId dir, ShardId to) {
  if (to >= shards_.size()) return Status::kInvalidArgument;
  if (ns_.Find(dir) == nullptr) return Status::kNotFound;
  if (ShardOf(dir) == to) return Status::kOk;
  shard_overrides_[dir] = to;
  ++map_epoch_;
  ++stats_.moved_dirs;
  return Status::kOk;
}

void MetaService::OnBladeDown(std::uint32_t blade) {
  if (blade >= blade_up_.size() || !blade_up_[blade]) return;
  blade_up_[blade] = false;
  ++map_epoch_;
  for (ShardId s = 0; s < shards_.size(); ++s) {
    if (s % blade_up_.size() == blade) ++stats_.remaps;
  }
}

void MetaService::OnBladeUp(std::uint32_t blade) {
  if (blade >= blade_up_.size() || blade_up_[blade]) return;
  blade_up_[blade] = true;
  ++map_epoch_;
  for (ShardId s = 0; s < shards_.size(); ++s) {
    if (s % blade_up_.size() == blade) ++stats_.remaps;
  }
}

// --- Directory table ----------------------------------------------------------

std::uint64_t MetaService::DirVersion(DirId dir) const {
  return ns_.Version(dir);
}

std::size_t MetaService::DirCount(ShardId shard) const {
  std::size_t n = 0;
  for (const auto& [id, dir] : ns_.dirs()) n += ShardOf(id) == shard ? 1 : 0;
  return n;
}

// --- Coherence ----------------------------------------------------------------

void MetaService::RegisterClient(Client* client) {
  clients_.push_back(client);
}

void MetaService::UnregisterClient(Client* client) {
  clients_.erase(std::remove(clients_.begin(), clients_.end(), client),
                 clients_.end());
}

void MetaService::Publish(const Change& change) {
  if (change.touched[0] == 0) return;  // a no-op self rename
  ++stats_.mutations;
  for (const DirId dir : change.touched) {
    if (dir != 0) TouchDirectory(dir);
  }
  if (change.removed_dir != 0) {
    shard_overrides_.erase(change.removed_dir);
    InvalidateGone(change.removed_dir);
  }
}

void MetaService::TouchDirectory(DirId dir) {
  const std::uint64_t version = ns_.BumpVersion(dir);
  for (Client* c : clients_) c->OnDirectoryInvalidate(dir, version);
  stats_.invalidations += clients_.size();
}

void MetaService::InvalidateGone(DirId dir) {
  for (Client* c : clients_) c->OnDirectoryInvalidate(dir, 0);
  stats_.invalidations += clients_.size();
}

// --- Shard visits -------------------------------------------------------------

void MetaService::Visit(DirId dir, MetaShard::OpClass klass,
                        sim::Tick cost_ns, std::function<void()> apply,
                        std::function<void()> reply, obs::TraceContext parent) {
  const ShardId shard = ShardOf(dir);
  obs::TraceContext span =
      obs::StartSpan(parent, obs::Layer::kMeta, "meta.shard");
  if (span.sampled()) {
    span.tracer->Annotate(span, "shard=" + std::to_string(shard));
  }
  auto serve = [this, shard, klass, cost_ns, apply = std::move(apply),
                reply = std::move(reply),
                span](std::function<void(bool)> done) {
    shards_[shard]->Execute(klass, cost_ns, [this, apply, reply, span,
                                             done = std::move(done)]() {
      apply();
      done(true);  // blade work finished; reply hop is network
      engine_.Schedule(config_.hop_ns, [reply, span]() {
        obs::EndSpan(span);
        reply();
      });
    });
  };
  // One fabric hop to reach the shard's blade, then admission.  Arrival
  // order here is what the shard's strict FIFO service preserves, so this
  // event carries the access tag: a same-tick unrelated mutation and
  // lookup of one directory would resolve before- or after-image by queue
  // order alone.
  const bool mutation = klass == MetaShard::OpClass::kMutation;
  engine_.Schedule(config_.hop_ns,
                   [this, shard, dir, mutation, serve = std::move(serve),
                    span]() {
                     if (mutation) {
                       NLSS_ACCESS(kMeta, check::AccessKey(0xD1Eull, dir),
                                   kWrite);
                     } else {
                       NLSS_ACCESS(kMeta, check::AccessKey(0xD1Eull, dir),
                                   kRead);
                     }
                     admission_.AdmitEventually(
                         [this, shard] { return BladeOf(shard); },
                         kMetaOpCostBytes, std::move(serve), span,
                         &stats_.qos_rejects);
                   });
}

// --- Lookup / resolve ---------------------------------------------------------

void MetaService::LookupStep(DirId dir, const std::string& name,
                             LookupCallback cb, obs::TraceContext ctx) {
  ++stats_.lookup_steps;
  auto result = std::make_shared<std::tuple<Status, Dentry, std::uint64_t>>(
      Status::kNotFound, Dentry{}, 0);
  Visit(
      dir, MetaShard::OpClass::kLookup, config_.lookup_cost_ns,
      [this, dir, name, result]() {
        std::get<0>(*result) = ns_.Lookup(dir, name, &std::get<1>(*result),
                                          &std::get<2>(*result));
      },
      [cb = std::move(cb), result]() {
        cb(std::get<0>(*result), std::get<1>(*result), std::get<2>(*result));
      },
      ctx);
}

void MetaService::DelegateDirectory(DirId dir, DelegateCallback cb,
                                    obs::TraceContext ctx) {
  ++stats_.delegations;
  bool root = false;
  obs::TraceContext op = StartOp(ctx, "meta.delegate", &root);
  // Billed like a full listing: base scan cost plus every entry copied.
  const Directory* d = ns_.Find(dir);
  const std::size_t approx = d == nullptr ? 0 : d->entries.size();
  auto result =
      std::make_shared<std::tuple<Status, DirectoryCopy, std::uint64_t>>(
          Status::kNotFound, DirectoryCopy{}, 0);
  Visit(
      dir, MetaShard::OpClass::kScan,
      config_.scan_cost_ns +
          config_.scan_entry_cost_ns * static_cast<sim::Tick>(approx),
      [this, dir, result]() {
        const Directory* d2 = ns_.Find(dir);
        if (d2 == nullptr) return;  // stays kNotFound
        std::get<0>(*result) = Status::kOk;
        std::get<1>(*result).reserve(d2->entries.size());
        d2->entries.ForEach([&](const std::string& name, const Dentry& de) {
          std::get<1>(*result).emplace(name, de);
        });
        std::get<2>(*result) = d2->version;
      },
      [this, cb = std::move(cb), result, op, root]() {
        FinishOp(op, root, std::get<0>(*result) == Status::kOk);
        cb(std::get<0>(*result), std::move(std::get<1>(*result)),
           std::get<2>(*result));
      },
      op);
}

void MetaService::Walk(std::shared_ptr<std::vector<std::string>> parts,
                       std::size_t i, std::size_t end, DirId dir,
                       ResolveCallback done, obs::TraceContext ctx) {
  if (i == end) {
    done(Status::kOk, Dentry{dir, true});
    return;
  }
  LookupStep(
      dir, (*parts)[i],
      [this, parts, i, end, done = std::move(done), ctx](Status st, Dentry d,
                                                         std::uint64_t) {
        if (st != Status::kOk) {
          done(st, {});
          return;
        }
        if (i + 1 == end) {
          done(Status::kOk, d);
          return;
        }
        if (!d.is_dir) {
          done(Status::kNotDirectory, {});
          return;
        }
        Walk(parts, i + 1, end, d.ino, done, ctx);
      },
      ctx);
}

void MetaService::Resolve(const std::string& path, ResolveCallback cb,
                          obs::TraceContext ctx) {
  bool root = false;
  obs::TraceContext op = StartOp(ctx, "meta.resolve", &root);
  ++stats_.resolves;
  auto parts = std::make_shared<std::vector<std::string>>(
      Namespace::SplitPath(path));
  auto done = [this, cb = std::move(cb), op, root](Status st, Dentry d) {
    FinishOp(op, root, st == Status::kOk);
    cb(st, d);
  };
  if (parts->empty()) {
    engine_.Schedule(0, [done = std::move(done)]() {
      done(Status::kOk, Dentry{kRootDir, true});
    });
    return;
  }
  Walk(parts, 0, parts->size(), kRootDir, std::move(done), op);
}

// --- Mutations ----------------------------------------------------------------

struct MetaService::Mutation {
  std::vector<std::shared_ptr<std::vector<std::string>>> parts;
  std::vector<std::string> leaves;
  std::vector<DirId> parents;  // filled by the walk, in path order
  MutationRule rule;
  MutationCallback done;
  obs::TraceContext op;
};

MetaService::MutationRule MetaService::AtParent(Namespace::Rule rule) {
  return [this, rule](const std::vector<DirId>& parents,
                      const std::vector<std::string>& leaves,
                      Change* change) {
    return (ns_.*rule)(parents[0], leaves[0], change);
  };
}

void MetaService::Mutate(const char* op_name, std::vector<std::string> paths,
                         MutationRule rule, MutationCallback cb,
                         obs::TraceContext ctx) {
  bool root = false;
  obs::TraceContext op = StartOp(ctx, op_name, &root);
  auto m = std::make_shared<Mutation>();
  m->rule = std::move(rule);
  m->op = op;
  m->done = [this, cb = std::move(cb), op, root](Status st,
                                                 const Change& change) {
    FinishOp(op, root, st == Status::kOk);
    cb(st, change);
  };
  for (const std::string& path : paths) {
    m->parts.push_back(std::make_shared<std::vector<std::string>>(
        Namespace::SplitPath(path)));
    if (m->parts.back()->empty()) {
      engine_.Schedule(
          0, [m]() { m->done(Status::kInvalidArgument, Change{}); });
      return;
    }
    m->leaves.push_back(m->parts.back()->back());
  }
  WalkParents(std::move(m));
}

void MetaService::WalkParents(std::shared_ptr<Mutation> m) {
  const std::size_t k = m->parents.size();
  if (k < m->parts.size()) {
    Walk(
        m->parts[k], 0, m->parts[k]->size() - 1, kRootDir,
        [this, m](Status st, Dentry parent) {
          if (st == Status::kOk && !parent.is_dir) st = Status::kNotDirectory;
          if (st != Status::kOk) {
            m->done(st, Change{});
            return;
          }
          m->parents.push_back(parent.ino);
          WalkParents(m);
        },
        m->op);
    return;
  }
  // Validate + apply every edit atomically at the first parent's shard; a
  // rename's destination shard is charged its own mutation service time to
  // keep both queues honest.
  const ShardId home = ShardOf(m->parents[0]);
  for (std::size_t i = 1; i < m->parents.size(); ++i) {
    if (ShardOf(m->parents[i]) != home) {
      shards_[ShardOf(m->parents[i])]->Execute(
          MetaShard::OpClass::kMutation, config_.mutate_cost_ns, []() {});
    }
  }
  auto result =
      std::make_shared<std::pair<Status, Change>>(Status::kNotFound, Change{});
  Visit(
      m->parents[0], MetaShard::OpClass::kMutation, config_.mutate_cost_ns,
      [this, m, result]() {
        result->first = m->rule(m->parents, m->leaves, &result->second);
        if (result->first == Status::kOk) Publish(result->second);
      },
      [m, result]() { m->done(result->first, result->second); }, m->op);
}

void MetaService::Mkdir(const std::string& path, StatusCallback cb,
                        obs::TraceContext ctx) {
  Mutate("meta.mkdir", {path}, AtParent(&Namespace::Mkdir),
         [cb = std::move(cb)](Status st, const Change&) { cb(st); }, ctx);
}

void MetaService::Create(const std::string& path, CreateCallback cb,
                         obs::TraceContext ctx) {
  Mutate("meta.create", {path}, AtParent(&Namespace::Create),
         [cb = std::move(cb)](Status st, const Change& change) {
           cb(st, st == Status::kOk ? change.ino : 0);
         },
         ctx);
}

void MetaService::Unlink(const std::string& path, StatusCallback cb,
                         obs::TraceContext ctx) {
  Mutate("meta.unlink", {path}, AtParent(&Namespace::Unlink),
         [cb = std::move(cb)](Status st, const Change&) { cb(st); }, ctx);
}

void MetaService::Rmdir(const std::string& path, StatusCallback cb,
                        obs::TraceContext ctx) {
  Mutate("meta.rmdir", {path}, AtParent(&Namespace::Rmdir),
         [cb = std::move(cb)](Status st, const Change&) { cb(st); }, ctx);
}

void MetaService::Rename(const std::string& from, const std::string& to,
                         StatusCallback cb, obs::TraceContext ctx) {
  Mutate(
      "meta.rename", {from, to},
      [this](const std::vector<DirId>& parents,
             const std::vector<std::string>& leaves, Change* change) {
        return ns_.Rename(parents[0], leaves[0], parents[1], leaves[1],
                          change);
      },
      [cb = std::move(cb)](Status st, const Change&) { cb(st); }, ctx);
}

// --- Ordered listing ----------------------------------------------------------

void MetaService::List(const std::string& path, ListCallback cb,
                       obs::TraceContext ctx) {
  RangeScan(path, "", 0,
            [cb = std::move(cb)](
                Status st, std::vector<std::pair<std::string, Dentry>> rows) {
              std::vector<std::string> names;
              names.reserve(rows.size());
              for (auto& r : rows) names.push_back(std::move(r.first));
              cb(st, std::move(names));
            },
            ctx);
}

void MetaService::RangeScan(const std::string& path, const std::string& from,
                            std::size_t limit, ScanCallback cb,
                            obs::TraceContext ctx) {
  bool root = false;
  obs::TraceContext op = StartOp(ctx, "meta.scan", &root);
  ++stats_.scans;
  auto parts = std::make_shared<std::vector<std::string>>(
      Namespace::SplitPath(path));
  auto done = [this, cb = std::move(cb), op, root](
                  Status st, std::vector<std::pair<std::string, Dentry>> rows) {
    FinishOp(op, root, st == Status::kOk);
    cb(st, std::move(rows));
  };
  auto scan_dir = [this, from, limit, done, op](DirId dir) {
    const Directory* d = ns_.Find(dir);
    const std::size_t approx = d == nullptr ? 0 : d->entries.size();
    const std::size_t billed =
        limit == 0 ? approx : std::min(limit, approx);
    auto result = std::make_shared<
        std::pair<Status, std::vector<std::pair<std::string, Dentry>>>>();
    result->first = Status::kNotFound;
    Visit(
        dir, MetaShard::OpClass::kScan,
        config_.scan_cost_ns +
            config_.scan_entry_cost_ns * static_cast<sim::Tick>(billed),
        [this, dir, from, limit, result]() {
          const Directory* d2 = ns_.Find(dir);
          if (d2 == nullptr) return;
          result->first = Status::kOk;
          result->second = d2->entries.Scan(from, limit);
        },
        [done, result]() { done(result->first, std::move(result->second)); },
        op);
  };
  if (parts->empty()) {
    scan_dir(kRootDir);
    return;
  }
  Walk(parts, 0, parts->size(), kRootDir,
       [scan_dir = std::move(scan_dir), done](Status st, Dentry d) {
         if (st != Status::kOk) {
           done(st, {});
           return;
         }
         if (!d.is_dir) {
           done(Status::kNotDirectory, {});
           return;
         }
         scan_dir(d.ino);
       },
       op);
}

// --- Bootstrap ----------------------------------------------------------------

Status MetaService::BootstrapMkdir(const std::string& path) {
  return Bootstrap(path, &Namespace::Mkdir, nullptr);
}

Status MetaService::BootstrapCreate(const std::string& path, Ino* out_ino) {
  return Bootstrap(path, &Namespace::Create, out_ino);
}

Status MetaService::Bootstrap(const std::string& path, Namespace::Rule rule,
                              Ino* out_ino) {
  Change change;
  const Status st = ns_.ApplyAt(path, rule, &change);
  if (st != Status::kOk) return st;
  // Uncounted, but a client holding the parent (whose delegated copy answers
  // misses authoritatively) must still learn that the directory changed.
  TouchDirectory(change.touched[0]);
  if (out_ino != nullptr) *out_ino = change.ino;
  return st;
}

// --- Wiring -------------------------------------------------------------------

void MetaService::AttachQos(qos::Scheduler* qos, qos::TenantId tenant) {
  admission_.Attach(qos, tenant);
}

std::uint64_t MetaService::SumClientStat(
    const std::function<std::uint64_t(const Client&)>& fn) const {
  std::uint64_t sum = 0;
  for (const Client* c : clients_) sum += fn(*c);
  return sum;
}

void MetaService::AttachObs(obs::Hub* hub) {
  hub_ = hub;
  if (hub_ == nullptr) return;
  obs::Registry& m = hub_->metrics();
  m.AddCallback("nlss_meta_resolves_total", "Service-side path resolves",
                [this] { return static_cast<double>(stats_.resolves); });
  m.AddCallback("nlss_meta_lookup_steps_total",
                "Single-component lookups served by shards",
                [this] { return static_cast<double>(stats_.lookup_steps); });
  m.AddCallback("nlss_meta_mutations_total",
                "Applied namespace mutations (mkdir/create/unlink/rmdir/rename)",
                [this] { return static_cast<double>(stats_.mutations); });
  m.AddCallback("nlss_meta_scans_total", "Ordered listings and range scans",
                [this] { return static_cast<double>(stats_.scans); });
  m.AddCallback("nlss_meta_invalidations_total",
                "Dentry-cache invalidation callbacks delivered",
                [this] { return static_cast<double>(stats_.invalidations); });
  m.AddCallback("nlss_meta_qos_rejects_total",
                "Metadata ops bounced by QoS admission (retried)",
                [this] { return static_cast<double>(stats_.qos_rejects); });
  m.AddCallback("nlss_meta_delegations_total",
                "Directory-copy delegation grants served (E18a)",
                [this] { return static_cast<double>(stats_.delegations); });
  m.AddCallback("nlss_meta_map_epoch", "Shard-map epoch (bumped on remaps)",
                [this] { return static_cast<double>(map_epoch_); });
  for (ShardId s = 0; s < shards_.size(); ++s) {
    const obs::Labels labels = {{"shard", std::to_string(s)}};
    m.AddCallback(
        "nlss_meta_shard_ops_total", "Metadata ops served by this shard",
        [this, s] { return static_cast<double>(shards_[s]->ops()); }, labels);
    m.AddCallback(
        "nlss_meta_shard_busy_ns", "Service time accumulated by this shard",
        [this, s] { return static_cast<double>(shards_[s]->stats().busy_ns); },
        labels);
    m.AddCallback(
        "nlss_meta_shard_dirs", "Directories currently homed on this shard",
        [this, s] { return static_cast<double>(DirCount(s)); },
        labels);
  }
  m.AddCallback("nlss_meta_cache_resolves_total",
                "Host dentry-cache resolves (all clients)", [this] {
                  return static_cast<double>(SumClientStat(
                      [](const Client& c) { return c.stats().resolves; }));
                });
  m.AddCallback("nlss_meta_cache_hits_total",
                "Host dentry-cache full-path hits (all clients)", [this] {
                  return static_cast<double>(SumClientStat(
                      [](const Client& c) { return c.stats().full_hits; }));
                });
}

// --- Spans --------------------------------------------------------------------

obs::TraceContext MetaService::StartOp(obs::TraceContext ctx, const char* name,
                                       bool* root) {
  *root = false;
  if (ctx.sampled()) return obs::StartSpan(ctx, obs::Layer::kMeta, name);
  if (hub_ == nullptr) return {};
  *root = true;
  return hub_->tracer().StartTrace(obs::Layer::kMeta, name);
}

void MetaService::FinishOp(obs::TraceContext op, bool root, bool ok) {
  if (!op.sampled()) return;
  if (root) {
    op.tracer->EndTrace(op, ok);
  } else {
    op.tracer->EndSpan(op);
  }
}

}  // namespace nlss::meta
