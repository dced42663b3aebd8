#pragma once

/// The serving topology a workload runs against, all in-process: one
/// engine behind a net::Server, or a CombiningProxy in front of
/// backend servers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/proxy.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/engine.hpp"

#include "connection.hpp"

namespace perfbench {

/// Worker threads of every engine, and of the proxy.
inline constexpr unsigned kEngineWorkers = 2;
inline constexpr std::size_t kProxyWorkers = 4;

struct FleetShape {
  /// Backend servers; with a proxy the client talks to the proxy.
  std::size_t backends = 1;
  bool proxy = false;
  /// The proxy's health pinger (the ledger turns it off so backend
  /// frame counts are exact).
  bool proxy_pinger = true;
};

class Fleet {
 public:
  /// Builds and starts every server; throws std::runtime_error when one
  /// cannot start.
  explicit Fleet(const FleetShape& shape);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Port clients connect to (the proxy's when there is one).
  std::uint16_t front_port() const;
  /// Port of backend @p i, bypassing the proxy.
  std::uint16_t backend_port(std::size_t i) const {
    return servers_[i]->port();
  }
  std::vector<mpct::service::QueryEngine*> engines() const;
  /// Registries of every tier: backends first, then the proxy's.
  std::vector<const mpct::service::MetricsRegistry*> registries() const;
  /// Null without a proxy.
  mpct::cluster::CombiningProxy* proxy() const { return proxy_.get(); }

  /// Stop the proxy, then the servers; idempotent.
  void stop();

 private:
  std::vector<std::unique_ptr<mpct::service::QueryEngine>> engines_;
  std::vector<std::unique_ptr<mpct::net::Server>> servers_;
  std::unique_ptr<mpct::cluster::CombiningProxy> proxy_;
};

/// A connected, negotiated net::Client.  Throws when connect or Hello
/// fails.
std::unique_ptr<mpct::net::Client> connect_client(std::uint16_t port);

/// A fleet with its load-generator connections, set up in one timed
/// step: start -> every connection negotiated -> first Ok answer.
struct Deployment {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::unique_ptr<WireConnection>> connections;
  double setup_s = 0;

  /// Tear down the connections, then the servers.
  void reset() {
    connections.clear();
    fleet.reset();
  }
};

Deployment deploy(const FleetShape& shape, std::size_t connections);

/// deploy() in a fresh child process (fork), torn down there: the
/// set-up a new process pays, the singletons' first touch included, as
/// long as this process has not touched them yet.  Call it before this
/// process starts a thread.  Returns the child's setup_s; throws when
/// the child fails.
double fresh_process_setup_s(const FleetShape& shape, std::size_t connections);

}  // namespace perfbench
