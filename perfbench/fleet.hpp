#pragma once
// The in-process service fleet the benchmark drives over unix sockets:
// kShards RpcServer shards (ServerConfig defaults) behind one ShardRouter,
// plus client connections to the router.

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "router/router.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"

namespace perfbench {

constexpr std::size_t kShards = 2;

/// Two shards and a router on unix sockets under `dir`, plus `clients`
/// connections to the router.
class Fleet {
 public:
  Fleet(const std::string& dir, std::size_t clients) : dir_(dir) {
    std::vector<parhuff::router::ShardEndpoint> eps;
    for (std::size_t i = 0; i < kShards; ++i) {
      const std::string path = shard_path(i);
      shards_.push_back(std::make_unique<parhuff::rpc::RpcServer>(
          parhuff::rpc::listen_unix(path)));
      eps.push_back({"shard" + std::to_string(i),
                     [path] { return parhuff::rpc::connect_unix(path); }});
    }
    router_ = std::make_unique<parhuff::router::ShardRouter>(
        parhuff::rpc::listen_unix(router_path()), std::move(eps));
    for (std::size_t i = 0; i < clients; ++i) {
      clients_.push_back(dial_router());
    }
  }

  ~Fleet() {
    clients_.clear();
    router_.reset();
    shards_.clear();
    std::error_code ec;
    for (std::size_t i = 0; i < kShards; ++i) {
      std::filesystem::remove(shard_path(i), ec);
    }
    std::filesystem::remove(router_path(), ec);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::string shard_path(std::size_t i) const {
    return dir_ + "/shard" + std::to_string(i) + ".sock";
  }
  [[nodiscard]] std::string router_path() const {
    return dir_ + "/router.sock";
  }
  [[nodiscard]] std::unique_ptr<parhuff::rpc::RpcClient> dial_router() const {
    const std::string p = router_path();
    return std::make_unique<parhuff::rpc::RpcClient>(
        [p] { return parhuff::rpc::connect_unix(p); });
  }
  [[nodiscard]] std::unique_ptr<parhuff::rpc::RpcClient> dial_shard(
      std::size_t i) const {
    const std::string p = shard_path(i);
    return std::make_unique<parhuff::rpc::RpcClient>(
        [p] { return parhuff::rpc::connect_unix(p); });
  }

  parhuff::rpc::RpcClient& client(std::size_t i) { return *clients_[i]; }
  /// Codebooks cached across every shard's u8 and u16 service.
  [[nodiscard]] std::size_t cached_books() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      n += s->service8().cache().size() + s->service16().cache().size();
    }
    return n;
  }
  [[nodiscard]] std::size_t clients() const { return clients_.size(); }
  parhuff::router::ShardRouter& router() { return *router_; }

 private:
  std::string dir_;
  std::vector<std::unique_ptr<parhuff::rpc::RpcServer>> shards_;
  std::unique_ptr<parhuff::router::ShardRouter> router_;
  std::vector<std::unique_ptr<parhuff::rpc::RpcClient>> clients_;
};

/// routed == forwarded + failed_over + shed once every request resolved;
/// an imbalance is one failed operation.
inline void check_router_ledger(Result& r) {
  const parhuff::obs::MetricsRegistry& reg =
      parhuff::obs::MetricsRegistry::global();
  const u64 routed = reg.counter("router.routed");
  const u64 fwd = reg.counter("router.forwarded");
  const u64 fo = reg.counter("router.failed_over");
  const u64 shed = reg.counter("router.shed");
  r.count(routed == fwd + fo + shed);
  r.info.set("router_ledger", parhuff::obs::Json::object()
                                  .set("router.routed", routed)
                                  .set("router.forwarded", fwd)
                                  .set("router.failed_over", fo)
                                  .set("router.shed", shed));
}

/// The rpc and router numbers the program publishes, read after a
/// quiescent phase into values named `prefix` + the metric name.
inline void read_fleet_layers(Fleet& fleet, const std::string& prefix,
                              Result& r) {
  const parhuff::obs::MetricsRegistry& reg =
      parhuff::obs::MetricsRegistry::global();
  r.values[prefix + "rpc.request_p50_ms"] =
      reg.histo("rpc.request_seconds").quantile(0.5) * 1e3;
  r.values[prefix + "router.request_p50_ms"] =
      reg.histo("router.request_seconds").quantile(0.5) * 1e3;
  r.values[prefix + "router.failed_over"] =
      static_cast<double>(reg.counter("router.failed_over"));
  r.values[prefix + "router.shed"] =
      static_cast<double>(reg.counter("router.shed"));
  double lo = 0, hi = 0;
  for (std::size_t i = 0; i < fleet.router().shard_count(); ++i) {
    const auto s = static_cast<double>(fleet.router().shard_served(i));
    lo = i == 0 ? s : std::min(lo, s);
    hi = std::max(hi, s);
  }
  r.values[prefix + "router.shard_skew"] = lo == 0 ? 0.0 : hi / lo;
}

}  // namespace perfbench
