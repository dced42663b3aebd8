#include "fleet.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>

#include "arch/registry.hpp"

#include "common.hpp"

namespace perfbench {

using namespace mpct;

Fleet::Fleet(const FleetShape& shape) {
  std::vector<cluster::Endpoint> endpoints;
  for (std::size_t i = 0; i < shape.backends; ++i) {
    service::EngineOptions options;
    options.worker_threads = kEngineWorkers;
    engines_.push_back(std::make_unique<service::QueryEngine>(options));
    servers_.push_back(std::make_unique<net::Server>(*engines_.back()));
    if (!servers_.back()->start()) {
      throw std::runtime_error("backend server: " + servers_.back()->error());
    }
    endpoints.push_back({"127.0.0.1", servers_.back()->port()});
  }
  if (shape.proxy) {
    cluster::ProxyOptions options;
    options.cluster.endpoints = endpoints;
    options.worker_threads = kProxyWorkers;
    options.enable_pinger = shape.proxy_pinger;
    proxy_ = std::make_unique<cluster::CombiningProxy>(options);
    if (!proxy_->start()) throw std::runtime_error("proxy: " + proxy_->error());
  }
}

Fleet::~Fleet() { stop(); }

void Fleet::stop() {
  if (proxy_) proxy_->stop();
  for (auto& server : servers_) server->stop();
}

std::uint16_t Fleet::front_port() const {
  return proxy_ ? proxy_->port() : servers_.front()->port();
}

std::vector<service::QueryEngine*> Fleet::engines() const {
  std::vector<service::QueryEngine*> out;
  for (const auto& engine : engines_) out.push_back(engine.get());
  return out;
}

std::vector<const service::MetricsRegistry*> Fleet::registries() const {
  std::vector<const service::MetricsRegistry*> out;
  for (const auto& engine : engines_) out.push_back(&engine->metrics());
  if (proxy_) out.push_back(&proxy_->metrics());
  return out;
}

std::unique_ptr<net::Client> connect_client(std::uint16_t port) {
  net::ClientOptions options;
  options.port = port;
  auto client = std::make_unique<net::Client>(options);
  const service::Status status = client->negotiate();
  if (!status.ok()) {
    throw std::runtime_error("client Hello: " + status.to_string());
  }
  return client;
}

Deployment deploy(const FleetShape& shape, std::size_t connections) {
  Deployment out;
  const std::int64_t start = now_ns();
  out.fleet = std::make_unique<Fleet>(shape);
  for (std::size_t i = 0; i < connections; ++i) {
    out.connections.push_back(
        std::make_unique<WireConnection>(out.fleet->front_port()));
  }
  const service::QueryResponse first = out.connections.front()->call(
      service::ClassifyRequest::of(arch::surveyed_architectures().front()));
  if (!first.ok()) {
    throw std::runtime_error("first request: " + first.status.to_string());
  }
  out.setup_s = static_cast<double>(now_ns() - start) / 1e9;
  return out;
}

double fresh_process_setup_s(const FleetShape& shape, std::size_t connections) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up: pipe failed");
  std::fflush(nullptr);  // the child must not write this process's buffers
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("set-up: fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    double setup_s = -1;
    try {
      Deployment deployment = deploy(shape, connections);
      setup_s = deployment.setup_s;
      deployment.reset();
    } catch (...) {
    }
    const bool sent = write(fds[1], &setup_s, sizeof(setup_s)) == sizeof(setup_s);
    _exit(sent && setup_s >= 0 ? 0 : 1);
  }
  close(fds[1]);
  double setup_s = -1;
  const bool received = read(fds[0], &setup_s, sizeof(setup_s)) == sizeof(setup_s);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!received || setup_s < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up in a fresh process failed");
  }
  return setup_s;
}

}  // namespace perfbench
