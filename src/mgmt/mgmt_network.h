// Out-of-band management network (paper §5.2 and Figure 2): "controller
// blades could have built-in Ethernet ports that are used to create a
// separate, secure network for out-of-band control commands", with
// "redundant storage management servers" behind it.
//
// ManagementNetwork builds that second network on the shared fabric: a
// management switch, one management port per blade, and management
// stations.  Admin HTTP requests travel station -> mgmt switch -> blade and
// back, fully independent of the host-side Fibre Channel fabric — a
// host-fabric outage or a compromised host port cannot touch it.
#pragma once

#include <string>
#include <vector>

#include "controller/system.h"
#include "mgmt/admin_http.h"

namespace nlss::mgmt {

class ManagementNetwork {
 public:
  struct Config {
    net::LinkProfile link = net::LinkProfile::GigE();
  };

  ManagementNetwork(controller::StorageSystem& system, AdminHttp& admin)
      : ManagementNetwork(system, admin, Config()) {}
  ManagementNetwork(controller::StorageSystem& system, AdminHttp& admin,
                    Config config);

  /// Add a management station (an operator console / web browser).
  net::NodeId AddStation(const std::string& name);

  using Callback = std::function<void(proto::HttpResponse)>;

  /// Issue a raw admin HTTP request from a station.  The request rides the
  /// management network to a live blade's management port, is handled
  /// there, and the response rides back.  Fails with status 503 only if no
  /// blade is reachable over the management network.
  void Request(net::NodeId station, const std::string& raw_request,
               Callback cb);

  net::NodeId mgmt_switch() const { return switch_node_; }
  net::NodeId mgmt_port(std::uint32_t blade) const {
    return ports_[blade];
  }

 private:
  controller::StorageSystem& system_;
  AdminHttp& admin_;
  net::NodeId switch_node_;
  std::vector<net::NodeId> ports_;  // per-blade management Ethernet ports
};

}  // namespace nlss::mgmt
