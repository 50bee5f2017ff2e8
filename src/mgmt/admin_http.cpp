#include "mgmt/admin_http.h"

#include <charconv>
#include <map>
#include <sstream>

#include "meta/client.h"
#include "mgmt/json.h"

namespace nlss::mgmt {
namespace {

/// Split "k1=v1&k2=v2" into a map (no URL decoding: admin values are
/// simple identifiers/numbers).
std::map<std::string, std::string> ParseQuery(const std::string& query) {
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      out[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return out;
}

}  // namespace

proto::HttpResponse AdminHttp::Json(int status,
                                    const std::string& body) const {
  proto::HttpResponse r;
  r.status = status;
  r.reason = status == 200   ? "OK"
             : status == 401 ? "Unauthorized"
             : status == 404 ? "Not Found"
                             : "Bad Request";
  r.body.assign(body.begin(), body.end());
  r.content_length = r.body.size();
  r.headers = "Content-Type: application/json\r\n";
  return r;
}

std::optional<std::string> AdminHttp::Authenticate(
    const std::string& raw) const {
  std::istringstream in(raw);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.rfind("Authorization:", 0) == 0) {
      std::string token = line.substr(14);
      while (!token.empty() && token.front() == ' ') token.erase(token.begin());
      const auto user = auth_.Verify(token);
      if (user.has_value() && auth_.HasRole(*user, "admin")) return user;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

proto::HttpResponse AdminHttp::Handle(const std::string& raw_request) {
  const auto request = proto::ParseHttpRequest(raw_request);
  if (!request.has_value()) {
    return Json(400, "{\"error\":\"bad request\"}");
  }
  const auto admin = Authenticate(raw_request);
  if (!admin.has_value()) {
    audit_.Record("?", "admin-http-denied", request->path);
    return Json(401, "{\"error\":\"admin authentication required\"}");
  }
  audit_.Record(*admin, "admin-http", request->path);

  // Routes may carry a query string ("/qos/weight?class=gold&weight=8").
  std::string path = request->path;
  std::string query;
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path = path.substr(0, q);
  }
  if (path == "/qos") {
    if (qos_ == nullptr) return Json(404, "{\"error\":\"no qos scheduler\"}");
    return QosReport();
  }
  if (path == "/qos/weight") {
    if (qos_ == nullptr) return Json(404, "{\"error\":\"no qos scheduler\"}");
    return QosSetWeight(query);
  }
  if (path == "/status") {
    StatusReporter reporter(system_);
    return Json(200, reporter.Report());
  }
  if (path == "/geo") {
    if (geo_ == nullptr) return Json(404, "{\"error\":\"no geo cluster\"}");
    return Json(200, GeoStatusReport(*geo_));
  }
  if (path == "/alerts") {
    JsonWriter w;
    w.BeginArray();
    for (const Alert& a : alerts_.alerts()) {
      w.BeginObject();
      w.Field("when_ns", a.when);
      w.Field("severity", a.severity == AlertSeverity::kCritical ? "critical"
                          : a.severity == AlertSeverity::kWarning
                              ? "warning"
                              : "info");
      w.Field("source", a.source);
      w.Field("message", a.message);
      w.EndObject();
    }
    w.EndArray();
    return Json(200, w.str());
  }
  if (path == "/meta") {
    if (meta_ == nullptr) return Json(404, "{\"error\":\"no meta service\"}");
    return MetaReport();
  }
  if (path == "/tier") {
    if (system_.tier() == nullptr) {
      return Json(404, "{\"error\":\"no flash tier\"}");
    }
    return TierReport();
  }
  if (path == "/metrics") {
    if (hub_ == nullptr) return Json(404, "{\"error\":\"no obs hub\"}");
    // Prometheus text exposition format, not JSON.
    proto::HttpResponse r;
    r.status = 200;
    r.reason = "OK";
    const std::string text = hub_->metrics().PrometheusText();
    r.body.assign(text.begin(), text.end());
    r.content_length = r.body.size();
    r.headers = "Content-Type: text/plain; version=0.0.4\r\n";
    return r;
  }
  if (path == "/traces") {
    if (hub_ == nullptr) return Json(404, "{\"error\":\"no obs hub\"}");
    return Traces(query);
  }
  if (path == "/audit") {
    JsonWriter w;
    w.BeginObject();
    w.Field("chain_intact", audit_.VerifyChain());
    w.Key("entries").BeginArray();
    for (const auto& e : audit_.entries()) {
      w.BeginObject();
      w.Field("when_ns", e.when);
      w.Field("actor", e.actor);
      w.Field("action", e.action);
      w.Field("detail", e.detail);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return Json(200, w.str());
  }
  return Json(404, "{\"error\":\"unknown route\"}");
}

proto::HttpResponse AdminHttp::QosReport() const {
  const qos::TenantRegistry& registry = qos_->registry();
  const qos::SloTracker& slo = qos_->slo();
  JsonWriter w;
  w.BeginObject();
  w.Key("classes").BeginArray();
  for (int c = 0; c < qos::kServiceClasses; ++c) {
    const auto cls = static_cast<qos::ServiceClass>(c);
    const qos::ClassSpec& spec = registry.spec(cls);
    w.BeginObject();
    w.Field("name", qos::ServiceClassName(cls));
    w.Field("weight", static_cast<std::uint64_t>(spec.weight));
    w.Field("rate_bytes_per_sec", spec.rate_bytes_per_sec);
    w.Field("burst_bytes", spec.burst_bytes);
    w.Field("max_queue_depth", static_cast<std::uint64_t>(spec.max_queue_depth));
    w.EndObject();
  }
  w.EndArray();
  w.Key("tenants").BeginArray();
  for (const qos::Tenant& t : registry.tenants()) {
    const auto& s = slo.stats(t.id);
    w.BeginObject();
    w.Field("id", static_cast<std::uint64_t>(t.id));
    w.Field("name", t.name);
    w.Field("class", qos::ServiceClassName(t.cls));
    w.Field("ops", s.ops);
    w.Field("errors", s.errors);
    w.Field("rejected", s.rejected);
    w.Field("bytes", s.bytes);
    w.Field("delivered_mbps", slo.DeliveredMBps(t.id));
    w.Field("latency_p50_ns", s.latency.Percentile(0.5));
    w.Field("latency_p99_ns", s.latency.Percentile(0.99));
    w.Field("latency_mean_ns", s.latency.Mean());
    w.Field("queue_wait_p99_ns", s.queue_wait.Percentile(0.99));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return Json(200, w.str());
}

proto::HttpResponse AdminHttp::QosSetWeight(const std::string& query) {
  const auto params = ParseQuery(query);
  const auto cls_it = params.find("class");
  const auto weight_it = params.find("weight");
  if (cls_it == params.end() || weight_it == params.end()) {
    return Json(400, "{\"error\":\"class and weight required\"}");
  }
  const auto cls = qos::ServiceClassFromName(cls_it->second);
  if (!cls.has_value()) {
    return Json(400, "{\"error\":\"unknown class\"}");
  }
  std::uint32_t weight = 0;
  const auto& ws = weight_it->second;
  const auto [ptr, ec] =
      std::from_chars(ws.data(), ws.data() + ws.size(), weight);
  if (ec != std::errc() || ptr != ws.data() + ws.size() ||
      !qos_->registry().SetClassWeight(*cls, weight)) {
    return Json(400, "{\"error\":\"invalid weight\"}");
  }
  audit_.Record("admin", "qos-set-weight",
                cls_it->second + "=" + ws);
  JsonWriter w;
  w.BeginObject();
  w.Field("ok", true);
  w.Field("class", cls_it->second);
  w.Field("weight", static_cast<std::uint64_t>(weight));
  w.EndObject();
  return Json(200, w.str());
}

proto::HttpResponse AdminHttp::TierReport() const {
  const tier::TierManager& tier = *system_.tier();
  const tier::Stats& s = tier.stats();
  JsonWriter w;
  w.BeginObject();
  w.Field("flash_capacity_pages", tier.config().flash_capacity_pages);
  w.Field("flash_pages", tier.TotalFlashPages());
  const std::uint64_t lookups = s.flash_hits + s.flash_misses;
  w.Field("flash_hit_rate",
          lookups == 0 ? 0.0
                       : static_cast<double>(s.flash_hits) /
                             static_cast<double>(lookups));
  w.Field("flash_hits", s.flash_hits);
  w.Field("flash_misses", s.flash_misses);
  w.Field("remote_reads", s.remote_reads);
  w.Field("joins", s.joins);
  w.Field("spills", s.spills);
  w.Field("admits", s.admits);
  w.Field("writeback_absorbs", s.writeback_absorbs);
  w.Field("promotions", s.promotions);
  w.Field("demotions", s.demotions);
  w.Field("stale_demotes", s.stale_demotes);
  w.Field("drops", s.drops);
  w.Field("cool_scans", s.cool_scans);
  w.Field("cool_spills", s.cool_spills);
  w.Field("cool_drops", s.cool_drops);
  w.Field("qos_rejects", s.qos_rejects);
  w.Key("blades").BeginArray();
  for (cache::ControllerId c = 0; c < tier.lanes(); ++c) {
    w.BeginObject();
    w.Field("blade", static_cast<std::uint64_t>(c));
    w.Field("flash_pages", tier.FlashPages(c));
    w.Field("dirty_pages", tier.FlashDirtyPages(c));
    w.EndObject();
  }
  w.EndArray();
  w.Key("heat_histogram").BeginArray();
  for (const std::uint64_t bucket : tier.heat().Histogram()) {
    w.Value(bucket);
  }
  w.EndArray();
  w.EndObject();
  return Json(200, w.str());
}

proto::HttpResponse AdminHttp::MetaReport() const {
  const meta::ServiceStats& s = meta_->stats();
  const std::uint64_t cache_resolves = meta_->SumClientStat(
      [](const meta::Client& c) { return c.stats().resolves; });
  const std::uint64_t cache_hits = meta_->SumClientStat(
      [](const meta::Client& c) { return c.stats().full_hits; });
  JsonWriter w;
  w.BeginObject();
  w.Field("map_epoch", meta_->map_epoch());
  w.Field("resolves", s.resolves);
  w.Field("lookup_steps", s.lookup_steps);
  w.Field("mutations", s.mutations);
  w.Field("scans", s.scans);
  w.Field("invalidations", s.invalidations);
  w.Field("qos_rejects", s.qos_rejects);
  w.Field("remaps", s.remaps);
  w.Field("moved_dirs", s.moved_dirs);
  w.Key("shards").BeginArray();
  for (meta::ShardId sh = 0; sh < meta_->shard_count(); ++sh) {
    const meta::MetaShard& shard = meta_->shard(sh);
    w.BeginObject();
    w.Field("id", static_cast<std::uint64_t>(sh));
    w.Field("blade", static_cast<std::uint64_t>(meta_->BladeOf(sh)));
    w.Field("dirs", static_cast<std::uint64_t>(meta_->DirCount(sh)));
    w.Field("lookups", shard.stats().lookups);
    w.Field("mutations", shard.stats().mutations);
    w.Field("scans", shard.stats().scans);
    w.Field("busy_ns", shard.stats().busy_ns);
    w.Field("queue_ns", shard.stats().queue_ns);
    w.EndObject();
  }
  w.EndArray();
  w.Key("dentry_cache").BeginObject();
  w.Field("clients", static_cast<std::uint64_t>(meta_->client_count()));
  w.Field("resolves", cache_resolves);
  w.Field("hits", cache_hits);
  w.Field("hit_rate", cache_resolves == 0
                          ? 0.0
                          : static_cast<double>(cache_hits) /
                                static_cast<double>(cache_resolves));
  w.Field("invalidations_applied",
          meta_->SumClientStat([](const meta::Client& c) {
            return c.stats().invalidations;
          }));
  w.Field("dropped_entries", meta_->SumClientStat([](const meta::Client& c) {
            return c.stats().dropped_entries;
          }));
  w.EndObject();
  w.EndObject();
  return Json(200, w.str());
}

proto::HttpResponse AdminHttp::Traces(const std::string& query) const {
  const auto params = ParseQuery(query);
  std::string tenant;
  if (const auto it = params.find("tenant"); it != params.end()) {
    tenant = it->second;
  }
  std::string name;  // substring match on the root span name
  if (const auto it = params.find("name"); it != params.end()) {
    name = it->second;
  }
  // view=slowest (default) serves the top-K retained traces; view=recent
  // serves the ring buffer of the latest finished traces, oldest first.
  std::string view = "slowest";
  if (const auto it = params.find("view"); it != params.end()) {
    view = it->second;
  }
  if (view != "slowest" && view != "recent") {
    return Json(400, "{\"error\":\"invalid view\"}");
  }
  std::uint64_t min_us = 0;
  if (const auto it = params.find("min_us"); it != params.end()) {
    const auto& v = it->second;
    const auto [ptr, ec] =
        std::from_chars(v.data(), v.data() + v.size(), min_us);
    if (ec != std::errc() || ptr != v.data() + v.size()) {
      return Json(400, "{\"error\":\"invalid min_us\"}");
    }
  }

  const obs::Tracer& tracer = hub_->tracer();
  std::vector<const obs::FinishedTrace*> selected;
  if (view == "recent") {
    for (const obs::FinishedTrace& t : tracer.recent()) selected.push_back(&t);
  } else {
    for (const obs::FinishedTrace& t : tracer.slowest()) {
      selected.push_back(&t);
    }
  }

  JsonWriter w;
  w.BeginObject();
  w.Field("started", tracer.started());
  w.Field("sampled", tracer.sampled());
  w.Field("finished", tracer.finished());
  w.Field("view", view);
  w.Key("traces").BeginArray();
  for (const obs::FinishedTrace* tp : selected) {
    const obs::FinishedTrace& t = *tp;
    if (!tenant.empty() && t.tenant != tenant) continue;
    if (!name.empty() && t.name.find(name) == std::string::npos) continue;
    if (t.duration() < min_us * 1000) continue;
    w.BeginObject();
    w.Field("id", t.id);
    w.Field("name", t.name);
    w.Field("tenant", t.tenant);
    w.Field("ok", t.ok);
    w.Field("start_ns", t.start);
    w.Field("duration_ns", t.duration());
    w.Key("breakdown_ns").BeginObject();
    for (int l = 0; l < obs::kLayerCount; ++l) {
      const auto layer = static_cast<obs::Layer>(l);
      w.Field(obs::LayerName(layer), t.breakdown.of(layer));
    }
    w.EndObject();
    w.Key("spans").BeginArray();
    for (const obs::Span& s : t.spans) {
      w.BeginObject();
      w.Field("id", s.id);
      w.Field("parent", s.parent);
      w.Field("layer", obs::LayerName(s.layer));
      w.Field("name", s.name);
      if (!s.note.empty()) w.Field("note", s.note);
      w.Field("start_ns", s.start);
      w.Field("end_ns", s.end);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return Json(200, w.str());
}

}  // namespace nlss::mgmt
