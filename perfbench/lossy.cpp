// lossy_fields: scientific producers that compress whole float fields
// under an error bound (cuSZ+-style, PAPERS.md #5). Whole 3-D
// generate_cosmo_field fields (three "timesteps") at three relative error
// bounds go through CompressionService<u16>::submit_lossy and back through
// decompress_field_fused; every result is checked for max |error| <= eb.
// The fused quantize/RLE pass and the service's solo-dispatch path with
// its codebook cache do the work; Huffman encode, RPC and the router do
// little or nothing.

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "data/quant.hpp"
#include "fleet.hpp"
#include "harness.hpp"
#include "lossy/fused.hpp"
#include "obs/metrics.hpp"
#include "rpc/protocol.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace parhuff;

constexpr data::Dims kDims{128, 128, 128};  // 8 MiB of f32 per field
/// The fields are the same three timesteps in every run: compressibility
/// differs by about +-10% between realizations of the generator, which
/// would swamp the ratio bound. The workload seed orders the operations.
constexpr std::size_t kFields = 3;
constexpr u64 kFieldSeed = 0xc05;
/// Run-dominated (5e-2), typical (1e-3) and tight (1e-4) bounds.
constexpr std::array<double, 3> kRelBounds = {5e-2, 1e-3, 1e-4};
/// Recorded passes of the layer peel over every (field, bound) pair.
constexpr int kPeelPasses = 2;

struct Trip {
  double compress_s = 0;
  double decompress_s = 0;
  std::size_t raw_bytes = 0;
  std::size_t out_bytes = 0;
  bool ok = false;
  u64 bound_violations = 0;  ///< elements with |error| > eb
  double worst_excess = 0;   ///< max over elements of |error| / eb - 1
  lossy::FusedReport rep;
};

/// Relative slack on eb that the repository's lossy tests
/// (tests/test_lossy.cpp) allow on every round trip: the reconstruction is
/// rounded to f32 after quantization, which can land a fraction of an ulp
/// past eb. An element past eb * (1 + kBoundSlack) fails the operation;
/// one past eb alone is counted in bound_violations.
constexpr double kBoundSlack = 1e-4;

/// Absolute bound the service must honour: rel * finite value range, the
/// range taken in f32 as the quantizer takes it.
double abs_bound(const std::vector<float>& f, double rel) {
  float lo = INFINITY, hi = -INFINITY;
  for (float v : f) {
    if (std::isfinite(v)) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  return rel * static_cast<double>(hi - lo);
}

/// The contract: every element within eb, the bound resolved as rel * f32
/// value range, up to the tests' f32 rounding slack. Sets t.ok,
/// t.bound_violations and t.worst_excess.
void check_bound(const std::vector<float>& field, double rel,
                 double resolved_eb, const std::vector<float>& back,
                 Trip& t) {
  const double eb = abs_bound(field, rel);
  const bool ok = back.size() == field.size() && resolved_eb <= eb;
  double worst = 0;
  for (std::size_t i = 0; ok && i < field.size(); ++i) {
    const double err = std::fabs(static_cast<double>(back[i]) -
                                 static_cast<double>(field[i]));
    if (err > eb) ++t.bound_violations;
    worst = std::max(worst, err);
  }
  t.worst_excess = worst / eb - 1.0;
  t.ok = ok && t.worst_excess <= kBoundSlack;
}

lossy::FusedConfig config(double rel) {
  lossy::FusedConfig cfg;
  cfg.rel_error_bound = rel;
  return cfg;
}

Trip round_trip(svc::CompressionService<u16>& service,
                const std::vector<float>& field,
                const lossy::FusedConfig& cfg, SpanLog& log) {
  Trip t;
  t.raw_bytes = field.size() * sizeof(float);
  std::vector<float> copy = field;  // submit_lossy takes ownership
  const auto t0 = Clock::now();
  svc::LossyResult res =
      service.submit_lossy(std::move(copy), kDims, cfg).result.get();
  const auto t1 = Clock::now();
  const lossy::Field back = lossy::decompress_field_fused(res.container);
  const auto t2 = Clock::now();
  t.compress_s = seconds_between(t0, t1);
  t.decompress_s = seconds_between(t1, t2);
  t.out_bytes = res.container.size();
  t.rep = res.report;

  check_bound(field, cfg.rel_error_bound, res.report.error_bound,
              back.values, t);

  if (log.enabled()) {
    const PipelineReport& h = res.report.huffman;
    const int root = log.add("op.round_trip", -1, t0, t2);
    const int c = log.add("op.submit_lossy", root, t0, t1);
    log.add_child("svc.queue", c, res.queue_seconds);
    log.add_child("lossy.quantize", c, res.report.quantize_seconds);
    log.add_child("lossy.huffman", c,
                  h.hist_seconds + h.codebook_seconds + h.encode_seconds);
    log.add("lossy.decompress", root, t1, t2);
  }
  return t;
}

struct LayerTotals {
  double raw_bytes = 0, quantize_s = 0, huffman_s = 0, decompress_s = 0;
  double rle_symbols = 0, symbols = 0, ops = 0;
};

/// One pass = every (field, bound) pair once, in an order drawn from
/// `order`.
void measure(svc::CompressionService<u16>& service,
             const std::vector<std::vector<float>>& fields, double seconds,
             Xoshiro256& order, const std::string& prefix, Result& r,
             SpanLog& log, LayerTotals* layers) {
  std::vector<std::pair<const std::vector<float>*, double>> ops;
  for (const auto& field : fields) {
    for (double rel : kRelBounds) ops.emplace_back(&field, rel);
  }
  const auto start = Clock::now();
  do {
    for (std::size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[order.below(i)]);
    }
    double in = 0, out = 0, comp = 0, decomp = 0;
    const auto c0 = Clock::now();
    for (const auto& [field, rel] : ops) {
      const Trip t = round_trip(service, *field, config(rel), log);
      r.count(t.ok);
      r.values["lossy.bound_violations"] +=
          static_cast<double>(t.bound_violations);
      r.values["max_error_excess"] =
          std::max(r.values["max_error_excess"], t.worst_excess);
      in += static_cast<double>(t.raw_bytes);
      out += static_cast<double>(t.out_bytes);
      comp += t.compress_s;
      decomp += t.decompress_s;
      r.sample(prefix + "compress_ms", t.compress_s * 1e3);
      r.sample(prefix + "decompress_ms", t.decompress_s * 1e3);
      if (layers != nullptr) {
        const PipelineReport& h = t.rep.huffman;
        layers->raw_bytes += static_cast<double>(t.raw_bytes);
        layers->quantize_s += t.rep.quantize_seconds;
        layers->huffman_s +=
            h.hist_seconds + h.codebook_seconds + h.encode_seconds;
        layers->decompress_s += t.decompress_s;
        layers->rle_symbols += static_cast<double>(t.rep.rle_run_symbols);
        layers->symbols += static_cast<double>(field->size());
        layers->ops += 1;
      }
    }
    const double cycle_s = seconds_between(c0, Clock::now());
    r.sample(prefix + "compress_mbps", in / comp / 1e6);
    r.sample(prefix + "decompress_mbps", in / decomp / 1e6);
    r.sample(prefix + "rps", static_cast<double>(ops.size()) / cycle_s);
    r.sample(prefix + "cycle_s", cycle_s);
    r.values["ratio"] = in / out;
  } while (seconds_between(start, Clock::now()) < seconds);
}

/// The published ledger must balance once every request has resolved; an
/// imbalance is one failed operation. Also records the error-bound
/// figures so far beside their limit.
void check_ledger(Result& r) {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const u64 req = reg.counter("lossy.requests");
  const u64 done = reg.counter("lossy.completed");
  const u64 fail = reg.counter("lossy.failed");
  r.count(req == done + fail);
  r.info.set("ledger", obs::Json::object()
                           .set("lossy.requests", req)
                           .set("lossy.completed", done)
                           .set("lossy.failed", fail));
  r.info.set("max_error_excess", r.values["max_error_excess"]);
  r.info.set("elements_past_eb", r.values["lossy.bound_violations"]);
}

/// One field round trip through the fleet: lossy compress, then lossy
/// decompress, both over `client` (a shard's or the router's). Returns
/// its duration; the result is verified like a local round trip.
double remote_round_trip(rpc::RpcClient& client,
                         const std::vector<float>& field, double rel,
                         Result& r) {
  rpc::LossyRequestHeader hdr;
  hdr.nx = kDims.nx;
  hdr.ny = kDims.ny;
  hdr.nz = kDims.nz;
  const lossy::FusedConfig defaults;
  hdr.rel_error_bound = rel;
  hdr.nbins = defaults.nbins;
  hdr.rle_min_run = defaults.rle_min_run;
  Trip t;
  const auto t0 = Clock::now();
  try {
    const std::vector<u8> container =
        client.lossy_compress(field, hdr).result.get();
    const std::vector<u8> payload =
        client.lossy_decompress(container).result.get();
    const double s = seconds_between(t0, Clock::now());
    auto [fh, back] = rpc::decode_lossy_field_payload(payload);
    check_bound(field, rel, fh.error_bound, back, t);
    r.count(t.ok);
    return s;
  } catch (const std::exception&) {
    r.count(false);
    return seconds_between(t0, Clock::now());
  }
}

/// Layer peel for field requests: every (field, bound) pair, one at a
/// time, as a round trip to each boundary in turn -- submit_lossy and
/// decompress_field_fused in this process, RpcClient -> RpcServer,
/// RpcClient -> ShardRouter -> RpcServer. The quantizer and Huffman
/// configs are the shards' (ServerConfig defaults). The per-boundary
/// times go to the samples "peel.<boundary>_ms"; run.py takes their
/// medians and differences.
void peel(const std::vector<std::vector<float>>& fields,
          const std::string& workdir, Result& r) {
  const rpc::ServerConfig scfg;
  svc::CompressionService<u16> local(scfg.service);
  Fleet fleet(workdir, 1);
  const std::unique_ptr<rpc::RpcClient> direct = fleet.dial_shard(0);
  SpanLog off(false);
  // Pass 0 warms each boundary's caches and is not recorded.
  for (int pass = 0; pass <= kPeelPasses; ++pass) {
    auto keep = [&](const char* name, double s) {
      if (pass > 0) r.sample(std::string("peel.") + name + "_ms", s * 1e3);
    };
    for (const auto& field : fields) {
      for (double rel : kRelBounds) {
        lossy::FusedConfig cfg = config(rel);
        cfg.pipeline = scfg.pipeline16;
        const Trip t = round_trip(local, field, cfg, off);
        r.count(t.ok);
        keep("submit", t.compress_s + t.decompress_s);
        keep("rpc", remote_round_trip(*direct, field, rel, r));
        keep("router", remote_round_trip(fleet.client(0), field, rel, r));
      }
    }
  }
  // Numbers the rpc and router layers publish, from the peel alone.
  check_router_ledger(r);
  read_fleet_layers(fleet, "", r);
}

}  // namespace

Result run_lossy(const Options& opt) {
  Result r;
  SpanLog off(false);
  if (opt.mode == Mode::kSetup) {
    const auto field = data::generate_cosmo_field(kDims, kFieldSeed);
    const auto t0 = Clock::now();
    svc::CompressionService<u16> service;
    const Trip t = round_trip(service, field, config(kRelBounds[1]), off);
    r.values["setup_s"] = seconds_between(t0, Clock::now());
    r.count(t.ok);
    return r;
  }

  std::vector<std::vector<float>> fields;
  for (std::size_t i = 0; i < kFields; ++i) {
    fields.push_back(data::generate_cosmo_field(kDims, kFieldSeed + i));
  }
  r.info.set("field_dims", obs::Json::array()
                               .push(u64{kDims.nx})
                               .push(u64{kDims.ny})
                               .push(u64{kDims.nz}));
  obs::Json bounds = obs::Json::array();
  for (double b : kRelBounds) bounds.push(b);
  r.info.set("rel_error_bounds", std::move(bounds));
  r.info.set("bound_slack", kBoundSlack);

  svc::CompressionService<u16> service;
  // Warm-up: one verified pass fills the codebook cache.
  for (const auto& field : fields) {
    for (double rel : kRelBounds) {
      r.count(round_trip(service, field, config(rel), off).ok);
    }
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.clear();
  Xoshiro256 order(opt.seed);

  if (opt.mode == Mode::kMeasure) {
    measure(service, fields, opt.seconds, order, "", r, off, nullptr);
    check_ledger(r);
    return r;
  }

  measure(service, fields, opt.seconds / 2, order, "", r, off, nullptr);
  const obs::HistoStat qwait = reg.histo("svc.queue_wait_seconds");
  const u64 hits = reg.counter("lossy.cache_hits");
  const u64 misses = reg.counter("lossy.cache_misses");
  check_ledger(r);

  LayerTotals L;
  {
    TracedHalf traced;
    measure(service, fields, opt.seconds / 2, order, "traced.", r,
            traced.log(), &L);
    r.add_spans(traced.log());
    traced.finish(opt.workdir + "/spans_lossy_fields.json");
  }
  check_ledger(r);

  r.values["lossy.quantize.gbps"] = L.raw_bytes / L.quantize_s / 1e9;
  r.values["lossy.huffman.ms"] = L.huffman_s / L.ops * 1e3;
  r.values["lossy.rle_symbol_share"] = L.rle_symbols / L.symbols;
  r.values["lossy.cache.hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  r.values["lossy.decode.gbps"] = L.raw_bytes / L.decompress_s / 1e9;
  r.values["svc.queue_wait_p50_ms"] = qwait.quantile(0.5) * 1e3;

  // The rpc and router layers under field requests, with the counters
  // cleared so they hold the peel alone.
  reg.clear();
  peel(fields, opt.workdir, r);
  check_ledger(r);
  return r;
}

}  // namespace perfbench
