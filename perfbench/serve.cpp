// serve_mixed: the service face. Small compress requests (4-32 KiB) are
// slices of five recurring tenant sources -- four u8 (text and two other
// Table V byte datasets), one u16 quant-code -- mixed with 30% decompress
// requests for containers the fleet returned earlier. Every request goes
// RpcClient -> ShardRouter -> one of two RpcServer shards over unix
// sockets, all inside this process.
// This exercises request batching, the codebook cache and its misses, the
// 65536-bin histogram of u16 requests, RPC framing and the router hop;
// encode is a small share.
//
// Phases: warm-up (fills the container pool and the shard caches), an
// open loop at a fixed rate (latency, timed from each request's due time),
// then a closed loop with a fixed window of outstanding requests per
// connection (throughput). Load comes from this process with at most
// nproc threads and nproc connections. Every response is verified right
// after its completion is stamped.

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "data/datasets.hpp"
#include "fleet.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "rpc/client.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace parhuff;

constexpr std::size_t kTenantBytes = std::size_t{2} << 20;
constexpr u64 kTenantSeed = 0x7e4a47;
constexpr std::size_t kMinRequestBytes = 4 << 10;
constexpr std::size_t kMaxRequestBytes = 32 << 10;
/// Open-loop arrival rate, a fifth or less of closed-loop capacity on a
/// 4-thread host. At half capacity the tail latencies swung between runs
/// by more than their regression bound (see README.md).
constexpr double kOpenRate = 150.0;
/// Outstanding requests per connection in the closed loop.
constexpr std::size_t kWindow = 4;
/// Containers kept for decompress requests.
constexpr std::size_t kPoolSize = 64;
/// Closed-loop warm-up: rounds, requests per round, and a time cap per
/// round.
constexpr u64 kWarmRounds = 4;
constexpr std::size_t kWarmRoundRequests = 900;
constexpr double kMaxWarmRoundS = 5.0;
/// A failed request is recorded at no less than this latency, so it
/// counts as missing any latency limit at or below it.
constexpr double kMissMs = 1000.0;
constexpr std::size_t kPeelSample = 40;
constexpr int kPeelPasses = 3;

struct Tenant {
  std::vector<u8> bytes;  ///< raw symbol bytes (u16 little-endian for w=2)
  u8 width = 1;
};

struct PoolEntry {
  std::vector<u8> container;
  std::vector<u8> original;
  u8 width = 1;
};

struct Request {
  bool decompress = false;
  u8 width = 1;
  std::span<const u8> payload;  ///< symbol bytes or a pooled container
  std::size_t pool_index = 0;
};

struct Outcome {
  Request req;
  Clock::time_point due, sent, sent_end, done;
  std::size_t response_bytes = 0;
  bool ok = false;  ///< answered and verified
};

/// Deterministic request stream over the tenants and the pool. The mix is
/// stratified so that every seed sends the same composition: exactly 3 of
/// every 10 requests decompress, compress requests cycle through the
/// tenants, and their sizes walk the 4-32 KiB range in a golden-ratio
/// sequence. The seed picks slice offsets, pool entries and the phase.
class Mix {
 public:
  Mix(const std::vector<Tenant>& tenants, const std::vector<PoolEntry>& pool,
      u64 seed)
      : tenants_(tenants), pool_(pool), rng_(seed), phase_(rng_.uniform()) {}

  Request compress_request() {
    const Tenant& t = tenants_[compressed_++ % tenants_.size()];
    phase_ += 0.6180339887498949;
    phase_ -= static_cast<double>(static_cast<u64>(phase_));
    std::size_t n = kMinRequestBytes +
                    static_cast<std::size_t>(
                        phase_ * static_cast<double>(kMaxRequestBytes -
                                                     kMinRequestBytes + 1));
    n -= n % t.width;
    std::size_t off = rng_.below(t.bytes.size() - n + 1);
    off -= off % t.width;
    return Request{false, t.width,
                   std::span<const u8>(t.bytes).subspan(off, n), 0};
  }

  Request next() {
    const u64 i = sent_++;
    if (!pool_.empty() && (i + 1) * 3 / 10 != i * 3 / 10) {
      const std::size_t p = rng_.below(pool_.size());
      return Request{true, pool_[p].width,
                     std::span<const u8>(pool_[p].container), p};
    }
    return compress_request();
  }

 private:
  const std::vector<Tenant>& tenants_;
  const std::vector<PoolEntry>& pool_;
  Xoshiro256 rng_;
  double phase_;
  u64 sent_ = 0;
  u64 compressed_ = 0;
};

rpc::RpcCall send(rpc::RpcClient& c, const Request& r) {
  return r.decompress ? c.decompress(r.payload, r.width)
                      : c.compress(r.payload, r.width);
}

template <typename Sym>
bool decodes_to(std::span<const u8> container, std::span<const u8> original) {
  const Compressed<Sym> blob = deserialize<Sym>(container);
  const std::vector<Sym> out = decode_auto<Sym>(blob.stream, blob.codebook);
  return out.size() * sizeof(Sym) == original.size() &&
         std::memcmp(out.data(), original.data(), original.size()) == 0;
}

/// Content check: a compress response must decode to the request's
/// bytes, a decompress response must equal the original.
bool verify(const Request& q, const std::vector<u8>& response,
            const std::vector<PoolEntry>& pool) {
  try {
    if (q.decompress) return response == pool[q.pool_index].original;
    return q.width == 1 ? decodes_to<u8>(response, q.payload)
                        : decodes_to<u16>(response, q.payload);
  } catch (const std::exception&) {
    return false;
  }
}

/// Wait for the answer, stamp the completion, then verify it (after the
/// stamp, so the check never counts as latency). Responses are dropped
/// once verified unless `keep` asks for them, so the benchmark's own
/// memory stays out of peak_rss_mb.
void resolve(Outcome& o, rpc::RpcCall& call,
             const std::vector<PoolEntry>& pool,
             std::vector<u8>* keep = nullptr) {
  std::vector<u8> response;
  bool answered = false;
  try {
    response = call.result.get();
    answered = true;
  } catch (const std::exception&) {
  }
  o.done = Clock::now();
  o.ok = answered && verify(o.req, response, pool);
  o.response_bytes = response.size();
  if (keep != nullptr) *keep = std::move(response);
}

/// Sequential per-connection queue between the open-loop generator and
/// the connection's waiter thread (responses on one connection arrive in
/// request order, so waiting FIFO observes each completion promptly).
struct Lane {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<Outcome, rpc::RpcCall>> q;
  bool closed = false;
  std::vector<Outcome> done;
};

/// Open-loop connection of a request: one per request class (u8 compress,
/// u16 compress, decompress), as tenants of each class would hold their
/// own. Responses on one connection come back in request order, so a
/// shared connection would time a cheap request behind the expensive one
/// ahead of it instead of its own path. With fewer than three connections
/// the classes share them.
std::size_t lane_for(const Request& q, std::size_t k) {
  if (k == 1) return 0;
  if (q.decompress) return k - 1;
  return k >= 3 && q.width == 2 ? 1 : 0;
}

std::vector<Outcome> open_loop(Fleet& fleet, Mix& mix,
                               const std::vector<PoolEntry>& pool,
                               double seconds, u64 seed,
                               std::vector<double>& late_ms) {
  const std::size_t k = fleet.clients();
  std::vector<Lane> lanes(k);
  std::vector<std::thread> waiters;
  for (std::size_t c = 0; c < k; ++c) {
    waiters.emplace_back([&lane = lanes[c], &pool] {
      for (;;) {
        std::unique_lock lk(lane.mu);
        lane.cv.wait(lk, [&] { return lane.closed || !lane.q.empty(); });
        if (lane.q.empty()) return;
        auto item = std::move(lane.q.front());
        lane.q.pop_front();
        lk.unlock();
        resolve(item.first, item.second, pool);
        lane.done.push_back(std::move(item.first));
      }
    });
  }
  // Jittered arrivals: request i is due at a uniform random point of the
  // i-th 1/rate slot. The rate is exact and bursts stay short, while the
  // random phase keeps a request's arrival from locking onto the service
  // time of the one ahead of it on a shared connection (with a fixed
  // spacing, tails jumped with small changes in host speed). The jitter
  // has a stream of its own, apart from the Mix's draws.
  Xoshiro256 arrivals(seed ^ 0xa7715a15ull);
  const auto n = static_cast<std::size_t>(seconds * kOpenRate);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    const double at =
        (static_cast<double>(i) + arrivals.uniform()) / kOpenRate;
    Outcome o;
    o.req = mix.next();
    o.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(at));
    std::this_thread::sleep_until(o.due);
    o.sent = Clock::now();
    late_ms.push_back(seconds_between(o.due, o.sent) * 1e3);
    const std::size_t c = lane_for(o.req, k);
    Lane& lane = lanes[c];
    rpc::RpcCall call = send(fleet.client(c), o.req);
    o.sent_end = Clock::now();
    {
      const std::lock_guard lk(lane.mu);
      lane.q.emplace_back(std::move(o), std::move(call));
    }
    lane.cv.notify_one();
  }
  for (Lane& lane : lanes) {
    {
      const std::lock_guard lk(lane.mu);
      lane.closed = true;
    }
    lane.cv.notify_one();
  }
  for (auto& w : waiters) w.join();
  std::vector<Outcome> all;
  for (Lane& lane : lanes) {
    for (Outcome& o : lane.done) all.push_back(std::move(o));
  }
  return all;
}

/// Closed loop: each connection keeps kWindow requests outstanding and
/// sends the next as soon as the oldest completes, until `seconds` have
/// passed or the connections together sent `budget` requests.
std::vector<Outcome> closed_loop(Fleet& fleet,
                                 const std::vector<Tenant>& tenants,
                                 const std::vector<PoolEntry>& pool, u64 seed,
                                 double seconds, Clock::time_point* start_out,
                                 std::size_t budget = SIZE_MAX) {
  const std::size_t k = fleet.clients();
  std::vector<std::vector<Outcome>> per(k);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < k; ++c) {
    threads.emplace_back([&, c] {
      Mix mix(tenants, pool, seed * 1000003 + c);
      rpc::RpcClient& cli = fleet.client(c);
      std::deque<std::pair<Outcome, rpc::RpcCall>> q;
      std::size_t left = budget / k;
      auto push = [&] {
        if (left == 0 || Clock::now() >= end) return;
        --left;
        Outcome o;
        o.req = mix.next();
        o.due = o.sent = Clock::now();
        rpc::RpcCall call = send(cli, o.req);
        q.emplace_back(std::move(o), std::move(call));
      };
      for (std::size_t w = 0; w < kWindow; ++w) push();
      while (!q.empty()) {
        auto item = std::move(q.front());
        q.pop_front();
        resolve(item.first, item.second, pool);
        per[c].push_back(std::move(item.first));
        push();
      }
    });
  }
  for (auto& t : threads) t.join();
  *start_out = start;
  std::vector<Outcome> all;
  for (auto& v : per) {
    for (Outcome& o : v) all.push_back(std::move(o));
  }
  return all;
}

struct Totals {
  double compress_in = 0, compress_out = 0;
};

/// Count every outcome; latencies go to `prefix` samples.
void account(const std::vector<Outcome>& outs, const std::string& prefix,
             Result& r, Totals& tot) {
  for (const Outcome& o : outs) {
    r.count(o.ok);
    double ms = seconds_between(o.due, o.done) * 1e3;
    if (!o.ok) ms = std::max(ms, kMissMs);
    r.sample(prefix + (o.req.decompress ? "decompress_ms" : "compress_ms"),
             ms);
    if (o.ok && !o.req.decompress) {
      tot.compress_in += static_cast<double>(o.req.payload.size());
      tot.compress_out += static_cast<double>(o.response_bytes);
    }
  }
}

/// Throughput of a closed-loop phase, per whole second of it (completions
/// in the drain after the phase are excluded): one "rps",
/// "compress_mbps" (compress input) and "decompress_mbps" (decompress
/// output) sample per second. run.py reports their medians, so a host
/// stall of a second or two moves no rate.
void closed_rates(const std::vector<Outcome>& outs, Clock::time_point start,
                  double seconds, Result& r) {
  const auto windows = static_cast<std::size_t>(seconds);
  std::vector<double> n(windows), cin(windows), dout(windows);
  for (const Outcome& o : outs) {
    const double at = seconds_between(start, o.done);
    if (!o.ok || at >= static_cast<double>(windows)) continue;
    const auto w = static_cast<std::size_t>(at);
    n[w] += 1;
    if (o.req.decompress) {
      dout[w] += static_cast<double>(o.response_bytes);
    } else {
      cin[w] += static_cast<double>(o.req.payload.size());
    }
  }
  for (std::size_t w = 0; w < windows; ++w) {
    r.sample("rps", n[w]);
    r.sample("compress_mbps", cin[w] / 1e6);
    r.sample("decompress_mbps", dout[w] / 1e6);
  }
}

/// Four u8 tenants and one u16 quant-code tenant. A u16 request costs
/// several times a u8 one (65536-bin histogram) and holds up the u8
/// requests behind it on a shard connection, whose responses return in
/// order. With a 4:1 mix the median compress request is a u8 one that no
/// u16 request held up, and the 99th percentile a u16 one; at 2:1 the
/// median fell among the held-up u8 requests and moved with small changes
/// in host speed. The tenants are the same recurring sources in every
/// run; the workload seed drives the traffic drawn from them.
std::vector<Tenant> make_tenants() {
  std::vector<Tenant> out;
  const std::array<const char*, 5> names = {"ENWIK8", "ENWIK9", "NCI", "MR",
                                            "NYX-QUANT"};
  for (u64 i = 0; i < names.size(); ++i) {
    data::GeneratedDataset ds =
        data::generate(names[i], kTenantBytes, kTenantSeed + i);
    Tenant t;
    if (ds.bytes8.empty()) {
      t.width = 2;
      t.bytes.resize(ds.syms16.size() * 2);
      std::memcpy(t.bytes.data(), ds.syms16.data(), t.bytes.size());
    } else {
      t.bytes = std::move(ds.bytes8);
    }
    out.push_back(std::move(t));
  }
  return out;
}

/// Fill the decompress pool through the fleet (verified), then run the
/// closed loop for kWarmRounds rounds of kWarmRoundRequests. The shards'
/// codebook caches fill fast, then creep (small slices keep producing new
/// fingerprints); the fourth round adds about 3% to what the caches
/// hold, so timing starts near the steady state of a long-running
/// fleet, with its hit ratio settled. The warm-up counts requests, not
/// seconds, and runs the same number in every run: a faster host does not
/// warm further, and peak_rss_mb does not depend on when a stopping rule
/// fired.
std::vector<PoolEntry> warm_up(Fleet& fleet, const std::vector<Tenant>& tenants,
                               u64 seed, Result& r) {
  std::vector<PoolEntry> pool;
  const std::vector<PoolEntry> none;
  Mix mix(tenants, none, seed ^ 0x9e3779b97f4a7c15ull);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    Outcome o;
    o.req = mix.compress_request();
    rpc::RpcCall call = send(fleet.client(i % fleet.clients()), o.req);
    std::vector<u8> container;
    resolve(o, call, none, &container);
    r.count(o.ok);
    if (o.ok) {
      pool.push_back(PoolEntry{std::move(container),
                               std::vector<u8>(o.req.payload.begin(),
                                               o.req.payload.end()),
                               o.req.width});
    }
  }
  Clock::time_point t0;
  Totals ignore;
  obs::Json growth = obs::Json::array();
  for (u64 round = 0; round < kWarmRounds; ++round) {
    account(closed_loop(fleet, tenants, pool, seed + 77 + round, kMaxWarmRoundS,
                        &t0, kWarmRoundRequests),
            "warm.", r, ignore);
    growth.push(u64{fleet.cached_books()});
  }
  r.info.set("warm_cached_books", std::move(growth));
  return pool;
}

template <typename Sym>
double time_direct(const Request& q, const PipelineConfig& cfg) {
  const std::span<const Sym> syms(
      reinterpret_cast<const Sym*>(q.payload.data()),
      q.payload.size() / sizeof(Sym));
  const auto t0 = Clock::now();
  const Compressed<Sym> c = compress<Sym>(syms, cfg);
  const auto t1 = Clock::now();
  if (c.stream.n_symbols != syms.size()) {
    throw std::runtime_error("peel: compress() lost symbols");
  }
  return seconds_between(t0, t1);
}

template <typename Sym>
double time_service(svc::CompressionService<Sym>& s, const Request& q,
                    const PipelineConfig& cfg) {
  const std::span<const Sym> syms(
      reinterpret_cast<const Sym*>(q.payload.data()),
      q.payload.size() / sizeof(Sym));
  const auto t0 = Clock::now();
  const svc::CompressResult<Sym> res = s.submit(syms, cfg).get();
  const auto t1 = Clock::now();
  if (res.stream.n_symbols != syms.size()) {
    throw std::runtime_error("peel: submit() lost symbols");
  }
  return seconds_between(t0, t1);
}

double time_rpc(rpc::RpcClient& c, const Request& q) {
  const auto t0 = Clock::now();
  const std::vector<u8> out = send(c, q).result.get();
  const auto t1 = Clock::now();
  if (out.empty()) throw std::runtime_error("peel: empty RPC response");
  return seconds_between(t0, t1);
}

/// Layer peel: one fixed sample of compress requests, one at a time, to
/// each boundary in turn -- compress(), CompressionService::submit,
/// RpcClient -> RpcServer, RpcClient -> ShardRouter. Configs match the
/// shards' (256 bins for u8, 65536 for u16; default ServiceConfig). The
/// per-boundary times go to the samples "peel.<boundary>_ms"; run.py
/// takes their medians and differences.
void peel(Fleet& fleet, const std::vector<Tenant>& tenants, u64 seed,
          Result& r) {
  const std::vector<PoolEntry> none;
  Mix mix(tenants, none, seed ^ 0x5ca1ab1eull);
  std::vector<Request> sample;
  for (std::size_t i = 0; i < kPeelSample; ++i) {
    sample.push_back(mix.compress_request());
  }
  const rpc::ServerConfig scfg;
  svc::CompressionService<u8> s8(scfg.service);
  svc::CompressionService<u16> s16(scfg.service);
  const std::unique_ptr<rpc::RpcClient> direct = fleet.dial_shard(0);
  // Pass 0 warms each boundary's caches and is not recorded.
  for (int pass = 0; pass <= kPeelPasses; ++pass) {
    auto keep = [&](const char* name, double s) {
      if (pass > 0) r.sample(std::string("peel.") + name + "_ms", s * 1e3);
    };
    for (const Request& q : sample) {
      keep("compress", q.width == 1 ? time_direct<u8>(q, scfg.pipeline8)
                                    : time_direct<u16>(q, scfg.pipeline16));
    }
    for (const Request& q : sample) {
      keep("submit", q.width == 1
                         ? time_service<u8>(s8, q, scfg.pipeline8)
                         : time_service<u16>(s16, q, scfg.pipeline16));
    }
    for (const Request& q : sample) keep("rpc", time_rpc(*direct, q));
    for (const Request& q : sample) {
      keep("router", time_rpc(fleet.client(0), q));
    }
  }
}

/// Per-layer numbers the program publishes, read after a quiescent phase
/// into values named `prefix` + the metric name.
void read_layers(Fleet& fleet, const std::string& prefix, Result& r) {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::StageStat hist = reg.stage("svc.histogram");
  const obs::StageStat cb = reg.stage("svc.codebook");
  const u64 hits = reg.counter("svc.cache_hits");
  const u64 misses = reg.counter("svc.cache_misses");
  const u64 rejects = reg.counter("svc.cache_guard_rejects");
  const u64 batches = reg.counter("svc.batches");
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  r.values[prefix + "svc.histogram.ms_per_batch"] =
      ratio(hist.seconds * 1e3, static_cast<double>(hist.count));
  r.values[prefix + "svc.codebook.ms_per_miss"] =
      ratio(cb.seconds * 1e3, static_cast<double>(misses + rejects));
  r.values[prefix + "svc.queue_wait_p50_ms"] =
      reg.histo("svc.queue_wait_seconds").quantile(0.5) * 1e3;
  r.values[prefix + "svc.requests_per_batch"] =
      ratio(static_cast<double>(reg.counter("svc.requests_submitted")),
            static_cast<double>(batches));
  r.values[prefix + "svc.cache.hit_ratio"] = ratio(
      static_cast<double>(hits), static_cast<double>(hits + misses + rejects));
  r.values[prefix + "svc.retries"] =
      static_cast<double>(reg.counter("svc.retries"));
  r.values[prefix + "svc.degraded"] =
      static_cast<double>(reg.counter("svc.degraded"));
  read_fleet_layers(fleet, prefix, r);
}

std::size_t client_count() {
  const unsigned n = std::thread::hardware_concurrency();
  // One generator thread plus one waiter per connection <= nproc.
  return n <= 2 ? 1 : std::min<std::size_t>(n - 1, 3);
}

}  // namespace

Result run_serve(const Options& opt) {
  Result r;
  const std::vector<Tenant> tenants = make_tenants();
  const std::size_t k = client_count();
  r.info.set("fleet", obs::Json::object()
                          .set("shards", u64{kShards})
                          .set("transport", "unix sockets")
                          .set("connections", u64{k})
                          .set("server_config",
                               "ServerConfig defaults (service workers = "
                               "nproc per service instance)")
                          .set("open_rate_rps", kOpenRate)
                          .set("closed_window_per_connection", u64{kWindow}));

  if (opt.mode == Mode::kSetup) {
    // Construct the fleet, then one request per tenant: set-up ends when
    // the last of them completes.
    const std::vector<PoolEntry> none;
    Mix mix(tenants, none, opt.seed);
    const auto t0 = Clock::now();
    Fleet fleet(opt.workdir, 1);
    Clock::time_point done = t0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      Outcome o;
      o.req = mix.compress_request();
      rpc::RpcCall call = send(fleet.client(0), o.req);
      resolve(o, call, none);
      r.count(o.ok);
      done = o.done;
    }
    r.values["setup_s"] = seconds_between(t0, done);
    return r;
  }

  Fleet fleet(opt.workdir, k);
  const std::vector<PoolEntry> pool = warm_up(fleet, tenants, opt.seed, r);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.clear();
  Totals tot;

  auto open_phase = [&](double seconds, const std::string& prefix,
                        u64 salt) {
    Mix mix(tenants, pool, opt.seed + salt);
    std::vector<double> late;
    auto outs = open_loop(fleet, mix, pool, seconds, opt.seed + salt, late);
    account(outs, prefix, r, tot);
    double worst = 0;
    for (double x : late) {
      r.sample(prefix + "generator_late_ms", x);
      worst = std::max(worst, x);
    }
    r.values[prefix + "generator_late_max_ms"] = worst;
    return outs;
  };

  if (opt.mode == Mode::kMeasure) {
    // Most of the time goes to the open loop: its p99 needs enough
    // requests that one host stall cannot decide it.
    open_phase(opt.seconds * 0.75, "", 1);
    // Memory is read before the closed loop: it sends as many requests as
    // the host's speed allows, and every new fingerprint grows the caches.
    r.values["peak_rss_mb"] = peak_rss_mb();
    Clock::time_point t0;
    const double closed_s = opt.seconds * 0.25;
    const auto outs = closed_loop(fleet, tenants, pool, opt.seed + 2,
                                  closed_s, &t0);
    account(outs, "closed.", r, tot);
    closed_rates(outs, t0, closed_s, r);
    r.values["ratio"] = tot.compress_in / tot.compress_out;
    check_router_ledger(r);
    read_layers(fleet, "", r);  // kept in the raw record for diagnosis
    return r;
  }

  // Trace run: an untraced open loop (the baseline, and the layer numbers
  // the program publishes under open-loop load), a traced open loop, a
  // closed loop (the layer numbers under the load that sets rps), then
  // the layer peel. The two open loops draw different slices from the
  // same stratified mix: repeating the first one's slices would let the
  // second hit codebooks the first one cached.
  open_phase(opt.seconds * 0.3, "", 1);
  check_router_ledger(r);
  read_layers(fleet, "", r);
  reg.clear();

  {
    TracedHalf half;
    const auto traced = open_phase(opt.seconds * 0.3, "traced.", 3);
    check_router_ledger(r);
    // Each request from its due time to its completion, with the client's
    // send call inside it. The server side is not spanned by the
    // benchmark: the router's published request time covers the shard,
    // service and stages below it, so it joins the accounted layer time.
    SpanLog& log = half.log();
    for (const Outcome& o : traced) {
      const int root = log.add("op.request", -1, o.due, o.done);
      log.add("client.send", root, o.sent, o.sent_end);
    }
    r.add_spans(log);
    r.values["accounted_s"] += reg.histo("router.request_seconds").sum;
    half.finish(opt.workdir + "/spans_serve_mixed.json");
  }
  reg.clear();

  Clock::time_point t0;
  const double closed_s = opt.seconds * 0.15;
  const auto closed = closed_loop(fleet, tenants, pool, opt.seed + 2,
                                  closed_s, &t0);
  account(closed, "closed.", r, tot);
  check_router_ledger(r);
  read_layers(fleet, "closed.", r);

  peel(fleet, tenants, opt.seed, r);
  r.values["ratio"] = tot.compress_in / tot.compress_out;
  return r;
}

}  // namespace perfbench
