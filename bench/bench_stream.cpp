// Streaming-verb overhead: one large payload pushed through the protocol
// v3 chunked path three ways — in-process StreamingCompressor calls (the
// work floor), streamed RPC over a unix socket, and streamed RPC through
// the shard router front-end.
//
// The client pipelines chunks (stream_window deep), so the wire transfer
// of chunk N+1 overlaps the server's encode of chunk N; the headline
// number is slowdown_vs_inproc, which the acceptance bar pins at <= 1.2x
// for the direct unix case — the chunked framing must not throttle the
// encoder it feeds. The ratio compares unlike things: run_inproc encodes
// the chunks serially, while the RPC cases overlap the server's encode of
// one chunk with the reader pulling the next off the wire, so a ratio
// near or under 1.0 does not mean the wire costs nothing. A final record
// carries the stream counters so CI can assert the opened == completed +
// aborted ledger over the whole run.
//
// BENCH_stream.json records one object per case plus the workload shape,
// as a parhuff-metrics-v1 document (docs/observability.md).

#include <algorithm>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "core/streaming.hpp"
#include "obs/metrics.hpp"
#include "router/router.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "util/rng.hpp"

namespace {

using namespace parhuff;

std::vector<u8> ramp_data(std::size_t n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u8> v(n);
  for (auto& s : v) s = static_cast<u8>(rng.below(97));
  return v;
}

PipelineConfig host_config() {
  PipelineConfig cfg;
  cfg.nbins = 256;
  cfg.histogram = HistogramKind::kSerial;
  cfg.codebook = CodebookKind::kSerialTree;
  cfg.encoder = EncoderKind::kSerial;
  return cfg;
}

constexpr int kReps = 3;
constexpr std::size_t kChunkBytes = 1024 * 1024;

/// What the server's compress-stream codec does per connection: train on
/// the first chunk, then one framed segment per chunk. Timing this is the
/// no-wire floor the RPC cases are measured against.
double run_inproc(std::span<const u8> data) {
  Timer t;
  StreamingCompressor<u8> sc(host_config());
  std::vector<u8> out;
  for (std::size_t off = 0; off < data.size(); off += kChunkBytes) {
    const auto piece = data.subspan(off, std::min(kChunkBytes,
                                                  data.size() - off));
    if (!sc.frozen()) {
      sc.observe(piece);
      sc.smooth();
      sc.freeze();
      out = sc.header();
    }
    const std::vector<u8> frame = sc.encode_segment(piece);
    out.insert(out.end(), frame.begin(), frame.end());
  }
  if (out.empty()) std::abort();  // keep the work live
  return t.seconds();
}

double run_stream_rpc(rpc::RpcClient& cli, std::span<const u8> data) {
  // The ownership-transfer copy happens outside the timed region: the
  // inproc baseline lends spans, so charging the RPC case for building a
  // movable buffer would measure memcpy, not the wire machinery.
  std::vector<u8> payload(data.begin(), data.end());
  Timer t;
  const std::vector<u8> container =
      cli.compress(std::move(payload)).result.get();
  if (container.empty()) std::abort();
  return t.seconds();
}

rpc::ServerConfig server_config() {
  rpc::ServerConfig sc;
  sc.pipeline8 = host_config();
  return sc;
}

rpc::ClientConfig client_config() {
  rpc::ClientConfig cc;
  cc.stream_chunk_bytes = kChunkBytes;
  cc.stream_threshold_bytes = kChunkBytes;  // stream anything non-trivial
  return cc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver run("stream", argc, argv);
  bench::banner(
      "STREAMING VERBS: in-process chunked encode vs streamed RPC vs "
      "streamed router RPC");

  const std::size_t total =
      bench::scaled_bytes(std::size_t{256} * 1024 * 1024);
  const std::vector<u8> data = ramp_data(total, 2021);
  run.config()
      .set("total_bytes", static_cast<u64>(total))
      .set("chunk_bytes", static_cast<u64>(kChunkBytes));

  (void)run_inproc(data);  // warm-up
  double inproc_s = run_inproc(data);
  for (int r = 1; r < kReps; ++r) inproc_s = std::min(inproc_s, run_inproc(data));

  double unix_s = 0;
  const std::string spath =
      "/tmp/parhuff_bench_stream_" + std::to_string(::getpid()) + ".sock";
  {
    rpc::RpcServer server(rpc::listen_unix(spath), server_config());
    rpc::RpcClient cli([&] { return rpc::connect_unix(spath); },
                       client_config());
    // Correctness gate once, outside the timed reps: the streamed
    // container must round-trip.
    {
      std::vector<u8> payload(data.begin(), data.end());
      std::vector<u8> container =
          cli.compress(std::move(payload)).result.get();
      const std::vector<u8> round =
          cli.decompress(std::move(container)).result.get();
      if (round.size() != data.size() ||
          !std::equal(round.begin(), round.end(), data.begin())) {
        std::abort();
      }
    }
    unix_s = run_stream_rpc(cli, data);
    for (int r = 1; r < kReps; ++r) {
      unix_s = std::min(unix_s, run_stream_rpc(cli, data));
    }
  }
  ::unlink(spath.c_str());

  double router_s = 0;
  const std::string b0 =
      "/tmp/parhuff_bench_stream_b0_" + std::to_string(::getpid()) + ".sock";
  const std::string b1 =
      "/tmp/parhuff_bench_stream_b1_" + std::to_string(::getpid()) + ".sock";
  const std::string fpath =
      "/tmp/parhuff_bench_stream_f_" + std::to_string(::getpid()) + ".sock";
  {
    rpc::RpcServer shard0(rpc::listen_unix(b0), server_config());
    rpc::RpcServer shard1(rpc::listen_unix(b1), server_config());
    std::vector<router::ShardEndpoint> eps;
    eps.push_back({"s0", [b0] { return rpc::connect_unix(b0); }});
    eps.push_back({"s1", [b1] { return rpc::connect_unix(b1); }});
    router::RouterConfig rc;
    rc.client = client_config();
    router::ShardRouter rtr(rpc::listen_unix(fpath), std::move(eps), rc);
    rpc::RpcClient cli([&] { return rpc::connect_unix(fpath); },
                       client_config());
    (void)run_stream_rpc(cli, data);  // warm-up
    router_s = run_stream_rpc(cli, data);
    for (int r = 1; r < kReps; ++r) {
      router_s = std::min(router_s, run_stream_rpc(cli, data));
    }
  }
  ::unlink(b0.c_str());
  ::unlink(b1.c_str());
  ::unlink(fpath.c_str());

  TextTable table(
      "streamed compress of one large payload, best of 3");
  table.header({"case", "MB/s", "slowdown vs inproc"});
  const auto row = [&](const char* name, double seconds) {
    table.row({name,
               fmt(static_cast<double>(total) / seconds / 1e6, 1),
               fmt(seconds / inproc_s, 2)});
  };
  row("inproc streaming", inproc_s);
  row("rpc stream unix", unix_s);
  row("router stream unix", router_s);
  table.print();

  const auto record = [&](const char* name, double seconds) {
    obs::Json rec = obs::Json::object();
    rec.set("case", name)
        .set("seconds", seconds)
        .set("throughput_gbps", gbps(total, seconds))
        .set("slowdown_vs_inproc", seconds / inproc_s);
    run.record(std::move(rec));
  };
  record("inproc_streaming", inproc_s);
  record("rpc_stream_unix", unix_s);
  record("router_stream_unix", router_s);

  // The stream ledger over the whole run — CI asserts the balance.
  auto& reg = obs::MetricsRegistry::global();
  obs::Json counters = obs::Json::object();
  counters.set("case", "stream_counters")
      .set("rpc_streams_opened", reg.counter("rpc.streams_opened"))
      .set("rpc_streams_completed", reg.counter("rpc.streams_completed"))
      .set("rpc_streams_aborted", reg.counter("rpc.streams_aborted"))
      .set("router_streams_opened", reg.counter("router.streams_opened"))
      .set("router_streams_completed",
           reg.counter("router.streams_completed"))
      .set("router_streams_aborted", reg.counter("router.streams_aborted"));
  run.record(std::move(counters));

  return run.finish();
}
