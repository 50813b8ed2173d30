// bulk_paper: library users who compress whole files. The Table V
// stand-ins ENWIK8 (u8, ~5.2 bits/symbol), NCI (u8, ~2.7 bits/symbol) and
// NYX-QUANT (u16, 1024 bins) pass one buffer at a time through the default
// PipelineConfig (only nbins follows the dataset) as compress -> serialize
// -> deserialize -> decode_auto, and every round trip is compared byte for
// byte. Encode, decode and the container format do most of the work; the
// inputs span REDUCE factors 2 and 3. The service, RPC and router layers
// are not involved.

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "data/datasets.hpp"
#include "harness.hpp"
#include "perf/gpu_model.hpp"
#include "simt/spec.hpp"

namespace perfbench {
namespace {

using namespace parhuff;

/// Tens of MiB, as the paper's inputs; all three together stay well inside
/// a 300 MiB LLC, which host_info()/info record next to this size.
constexpr std::size_t kBufferBytes = std::size_t{16} << 20;
constexpr std::array<const char*, 3> kDatasets = {"ENWIK8", "NCI",
                                                  "NYX-QUANT"};

struct Trip {
  double compress_s = 0;  ///< compress + serialize
  double decompress_s = 0;  ///< deserialize + decode_auto
  double serialize_s = 0;
  double deserialize_s = 0;
  double decode_s = 0;
  std::size_t in_bytes = 0;
  std::size_t out_bytes = 0;
  bool ok = false;
  PipelineReport rep;
};

template <typename Sym>
Trip round_trip(std::span<const Sym> data, std::size_t nbins, SpanLog& log) {
  PipelineConfig cfg;
  cfg.nbins = nbins;
  Trip t;
  t.in_bytes = data.size_bytes();
  const auto t0 = Clock::now();
  const Compressed<Sym> blob = compress<Sym>(data, cfg, &t.rep);
  const auto t1 = Clock::now();
  const std::vector<u8> bytes = serialize<Sym>(blob);
  const auto t2 = Clock::now();
  const Compressed<Sym> back = deserialize<Sym>(bytes);
  const auto t3 = Clock::now();
  const std::vector<Sym> out = decode_auto<Sym>(back.stream, back.codebook);
  const auto t4 = Clock::now();
  t.ok = out.size() == data.size() &&
         std::memcmp(out.data(), data.data(), data.size_bytes()) == 0;
  t.out_bytes = bytes.size();
  t.serialize_s = seconds_between(t1, t2);
  t.deserialize_s = seconds_between(t2, t3);
  t.decode_s = seconds_between(t3, t4);
  t.compress_s = seconds_between(t0, t2);
  t.decompress_s = seconds_between(t2, t4);
  if (log.enabled()) {
    const int root = log.add("op.round_trip", -1, t0, t4);
    const int c = log.add("op.compress", root, t0, t1);
    log.add_child("core.histogram", c, t.rep.hist_seconds);
    log.add_child("core.codebook", c, t.rep.codebook_seconds);
    log.add_child("core.encode", c, t.rep.encode_seconds);
    log.add("core.serialize", root, t1, t2);
    log.add("core.deserialize", root, t2, t3);
    log.add("core.decode", root, t3, t4);
  }
  return t;
}

Trip run_one(const data::GeneratedDataset& ds, SpanLog& log) {
  if (!ds.bytes8.empty()) {
    return round_trip<u8>(std::span<const u8>(ds.bytes8), ds.info.nbins, log);
  }
  return round_trip<u16>(std::span<const u16>(ds.syms16), ds.info.nbins, log);
}

/// Per-layer totals over one pass, for the trace run.
struct LayerTotals {
  double in_bytes = 0, hist_s = 0, encode_s = 0, serialize_s = 0,
         deserialize_s = 0, decode_s = 0;
  double hist_sectors = 0, encode_sectors = 0;
  double v100_hist_s = 0, v100_encode_s = 0, paper_bytes = 0;
};

/// Repeat cycles over every dataset for `seconds`; one sample set per
/// cycle so datasets of different speed never mix inside a median.
void measure(const std::vector<data::GeneratedDataset>& sets, double seconds,
             const std::string& prefix, Result& r, SpanLog& log,
             LayerTotals* layers) {
  const simt::DeviceSpec v100 = simt::DeviceSpec::v100();
  const auto start = Clock::now();
  do {
    double in = 0, out = 0, comp = 0, decomp = 0;
    const auto c0 = Clock::now();
    for (const auto& ds : sets) {
      const Trip t = run_one(ds, log);
      r.count(t.ok);
      in += static_cast<double>(t.in_bytes);
      out += static_cast<double>(t.out_bytes);
      comp += t.compress_s;
      decomp += t.decompress_s;
      r.sample(prefix + "compress_ms", t.compress_s * 1e3);
      r.sample(prefix + "decompress_ms", t.decompress_s * 1e3);
      if (layers != nullptr) {
        LayerTotals& L = *layers;
        L.in_bytes += static_cast<double>(t.in_bytes);
        L.hist_s += t.rep.hist_seconds;
        L.encode_s += t.rep.encode_seconds;
        L.serialize_s += t.serialize_s;
        L.deserialize_s += t.deserialize_s;
        L.decode_s += t.decode_s;
        L.hist_sectors += static_cast<double>(
            t.rep.hist_tally.global_read_sectors +
            t.rep.hist_tally.global_write_sectors);
        L.encode_sectors += static_cast<double>(
            t.rep.encode_tally.global_read_sectors +
            t.rep.encode_tally.global_write_sectors);
        const double paper = static_cast<double>(ds.info.paper_bytes);
        L.paper_bytes += paper;
        L.v100_hist_s += paper / 1e9 /
                         perf::modeled_gbps_at(t.in_bytes, ds.info.paper_bytes,
                                               t.rep.hist_tally, v100);
        L.v100_encode_s +=
            paper / 1e9 /
            perf::modeled_gbps_at(t.in_bytes, ds.info.paper_bytes,
                                  t.rep.encode_tally, v100);
        r.values["core.encode.reduce_factor." + ds.info.name] =
            t.rep.reduce_factor;
        r.values["core.avg_bits." + ds.info.name] = t.rep.avg_bits;
      }
    }
    const double cycle_s = seconds_between(c0, Clock::now());
    r.sample(prefix + "compress_mbps", in / comp / 1e6);
    r.sample(prefix + "decompress_mbps", in / decomp / 1e6);
    r.sample(prefix + "rps", static_cast<double>(sets.size()) / cycle_s);
    r.sample(prefix + "cycle_s", cycle_s);
    r.values["ratio"] = in / out;
  } while (seconds_between(start, Clock::now()) < seconds);
}

/// Host ceilings over the same buffers: memcpy and a one-pass serial
/// histogram, in input GB/s (best of three passes).
void ceilings(const std::vector<data::GeneratedDataset>& sets, Result& r) {
  double bytes = 0, copy_s = 0, hist_s = 0;
  std::vector<u8> dst(kBufferBytes);
  std::vector<u64> freq(65536);
  u64 guard = 0;
  for (const auto& ds : sets) {
    const u8* src = ds.bytes8.empty()
                        ? reinterpret_cast<const u8*>(ds.syms16.data())
                        : ds.bytes8.data();
    const std::size_t n = ds.input_bytes();
    double best_copy = 1e9, best_hist = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      std::memcpy(dst.data(), src, n);
      const auto t1 = Clock::now();
      std::fill(freq.begin(), freq.end(), 0);
      if (ds.bytes8.empty()) {
        for (u16 s : ds.syms16) ++freq[s];
      } else {
        for (u8 s : ds.bytes8) ++freq[s];
      }
      const auto t2 = Clock::now();
      guard += dst[n / 2] + freq[src[0]];
      best_copy = std::min(best_copy, seconds_between(t0, t1));
      best_hist = std::min(best_hist, seconds_between(t1, t2));
    }
    bytes += static_cast<double>(n);
    copy_s += best_copy;
    hist_s += best_hist;
  }
  r.values["ceiling.memcpy_gbps"] = bytes / copy_s / 1e9;
  r.values["ceiling.serial_histogram_gbps"] = bytes / hist_s / 1e9;
  r.info.set("ceiling_guard", guard);
}

}  // namespace

Result run_bulk(const Options& opt) {
  Result r;
  SpanLog off(false);
  if (opt.mode == Mode::kSetup) {
    // No objects to construct: set-up is the first whole-file round trip
    // in a fresh process.
    const auto ds = data::generate(kDatasets[0], kBufferBytes, opt.seed);
    const auto t0 = Clock::now();
    const Trip t = run_one(ds, off);
    r.values["setup_s"] = seconds_between(t0, Clock::now());
    r.count(t.ok);
    return r;
  }

  std::vector<data::GeneratedDataset> sets;
  for (std::size_t i = 0; i < kDatasets.size(); ++i) {
    sets.push_back(data::generate(kDatasets[i], kBufferBytes, opt.seed + i));
  }
  parhuff::obs::Json sizes = parhuff::obs::Json::object();
  for (const auto& ds : sets) sizes.set(ds.info.name, u64{ds.input_bytes()});
  r.info.set("buffer_bytes", std::move(sizes));
  r.info.set("workload", "one buffer at a time, default PipelineConfig");

  // Warm-up: one untimed (but verified) round trip per dataset.
  for (const auto& ds : sets) r.count(run_one(ds, off).ok);

  if (opt.mode == Mode::kMeasure) {
    measure(sets, opt.seconds, "", r, off, nullptr);
    return r;
  }

  measure(sets, opt.seconds / 2, "", r, off, nullptr);
  LayerTotals L;
  {
    TracedHalf traced;
    measure(sets, opt.seconds / 2, "traced.", r, traced.log(), &L);
    r.add_spans(traced.log());
    traced.finish(opt.workdir + "/spans_bulk_paper.json");
  }
  ceilings(sets, r);

  const double kib = L.in_bytes / 1024.0;
  r.values["core.histogram.gbps"] = L.in_bytes / L.hist_s / 1e9;
  r.values["core.encode.gbps"] = L.in_bytes / L.encode_s / 1e9;
  r.values["core.encode.frac_of_memcpy"] =
      r.values["core.encode.gbps"] / r.values["ceiling.memcpy_gbps"];
  r.values["core.histogram.frac_of_serial"] =
      r.values["core.histogram.gbps"] /
      r.values["ceiling.serial_histogram_gbps"];
  r.values["core.format.serialize_gbps"] = L.in_bytes / L.serialize_s / 1e9;
  r.values["core.format.deserialize_gbps"] =
      L.in_bytes / L.deserialize_s / 1e9;
  r.values["core.decode.gbps"] = L.in_bytes / L.decode_s / 1e9;
  r.values["simt.histogram.sectors_per_kib"] = L.hist_sectors / kib;
  r.values["simt.encode.sectors_per_kib"] = L.encode_sectors / kib;
  r.values["perf.histogram.v100_gbps"] = L.paper_bytes / 1e9 / L.v100_hist_s;
  r.values["perf.encode.v100_gbps"] = L.paper_bytes / 1e9 / L.v100_encode_s;
  double rf = 0, bits = 0;
  for (const auto& ds : sets) {
    rf += r.values["core.encode.reduce_factor." + ds.info.name];
    bits += r.values["core.avg_bits." + ds.info.name];
  }
  r.values["core.encode.reduce_factor"] = rf / static_cast<double>(sets.size());
  r.values["core.avg_bits"] = bits / static_cast<double>(sets.size());
  return r;
}

}  // namespace perfbench
