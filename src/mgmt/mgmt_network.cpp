#include "mgmt/mgmt_network.h"

namespace nlss::mgmt {

namespace {

/// The answer a station gets when no blade can serve its request: every
/// blade is down, or the request or its response was dropped on the way.
proto::HttpResponse Unavailable() {
  proto::HttpResponse r;
  r.status = 503;
  r.reason = "Service Unavailable";
  return r;
}

}  // namespace

ManagementNetwork::ManagementNetwork(controller::StorageSystem& system,
                                     AdminHttp& admin, Config config)
    : system_(system), admin_(admin) {
  net::Fabric& fabric = system_.fabric();
  switch_node_ = fabric.AddNode(system_.config().name + "-mgmt-switch");
  for (std::uint32_t c = 0; c < system_.controller_count(); ++c) {
    // A dedicated management Ethernet port per blade.  It is a distinct
    // fabric node: taking the blade's host-side presence down does not
    // take the management port down, and vice versa.
    const net::NodeId port = fabric.AddNode(
        system_.config().name + "-mgmt" + std::to_string(c));
    fabric.Connect(port, switch_node_, config.link);
    ports_.push_back(port);
  }
}

net::NodeId ManagementNetwork::AddStation(const std::string& name) {
  const net::NodeId station = system_.fabric().AddNode(name);
  system_.fabric().Connect(station, switch_node_, net::LinkProfile::GigE());
  return station;
}

void ManagementNetwork::Request(net::NodeId station,
                                const std::string& raw_request, Callback cb) {
  // Route to the first live blade's management port.
  std::uint32_t blade = ~0u;
  for (std::uint32_t c = 0; c < system_.controller_count(); ++c) {
    if (system_.cache().IsAlive(c)) {
      blade = c;
      break;
    }
  }
  if (blade == ~0u) {
    system_.engine().Schedule(0, [cb = std::move(cb)] { cb(Unavailable()); });
    return;
  }
  const net::NodeId port = ports_[blade];
  system_.fabric().Send(
      station, port, raw_request.size() + 64,
      [this, station, port, raw_request,
       cb = std::move(cb)](bool delivered) mutable {
        if (!delivered) {
          cb(Unavailable());
          return;
        }
        proto::HttpResponse resp = admin_.Handle(raw_request);
        const std::uint64_t bytes = resp.body.size() + 128;
        system_.fabric().Send(
            port, station, bytes,
            [cb = std::move(cb), resp = std::move(resp)](bool ok) mutable {
              cb(ok ? std::move(resp) : Unavailable());
            });
      });
}

}  // namespace nlss::mgmt
