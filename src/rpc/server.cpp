#include "rpc/server.hpp"

#include <cstring>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "core/decode.hpp"
#include "core/format.hpp"
#include "core/streaming.hpp"
#include "lossy/lossy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault_inject.hpp"
#include "util/hash.hpp"

namespace parhuff::rpc {

namespace {

[[nodiscard]] bool is_compress_stream_op(Op op) {
  return op == Op::kCompressStreamBegin || op == Op::kCompressStreamChunk ||
         op == Op::kCompressStreamEnd;
}

/// Incremental per-stream transcoder behind the v3 chunk verbs. One
/// instance per open stream, driven strictly sequentially by the
/// connection's writer slots, so no internal locking is needed. process()
/// consumes one chunk's payload (taking ownership — for u8 compress the
/// wire buffer IS the kernel input, no copy) and returns whatever output
/// that chunk produced; finish() validates that nothing is left dangling.
class StreamChunkCodec {
 public:
  virtual ~StreamChunkCodec() = default;
  virtual std::vector<u8> process(std::vector<u8> chunk,
                                  const CancelToken* cancel) = 0;
  virtual void finish(const CancelToken* cancel) = 0;
  /// Most bytes ever buffered across chunk boundaries — the bounded-
  /// buffering contract's measurable quantity.
  [[nodiscard]] virtual u64 buffered_high_water() const = 0;
};

/// Compress direction: first chunk trains, smooths and freezes the
/// stream codebook (add-one smoothing keeps every alphabet symbol
/// encodable however later chunks drift) and emits the PHS2 header +
/// first framed segment; each later chunk emits one framed segment.
/// Nothing is buffered between chunks.
template <typename Sym>
class CompressStreamCodec final : public StreamChunkCodec {
 public:
  explicit CompressStreamCodec(PipelineConfig pl) : sc_(std::move(pl)) {}

  std::vector<u8> process(std::vector<u8> chunk,
                          const CancelToken* cancel) override {
    if (chunk.size() % sizeof(Sym) != 0) {
      throw std::invalid_argument("chunk is not a whole number of symbols");
    }
    std::span<const Sym> syms;
    [[maybe_unused]] std::vector<Sym> realigned;
    if constexpr (std::is_same_v<Sym, u8>) {
      syms = std::span<const Sym>(chunk);
    } else {
      // Wider symbols need the realigning copy (the wire buffer has no
      // alignment guarantee); the u8 path has none.
      realigned.resize(chunk.size() / sizeof(Sym));
      if (!realigned.empty()) {
        std::memcpy(realigned.data(), chunk.data(), chunk.size());
      }
      syms = realigned;
    }
    std::vector<u8> out;
    if (syms.empty()) return out;
    if (!sc_.frozen()) {
      sc_.observe(syms);
      sc_.smooth();
      sc_.freeze();
      out = sc_.header();
    }
    std::vector<u8> frame = sc_.encode_segment(syms, cancel);
    out.insert(out.end(), frame.begin(), frame.end());
    return out;
  }

  void finish(const CancelToken*) override {}

  [[nodiscard]] u64 buffered_high_water() const override { return 0; }

 private:
  StreamingCompressor<Sym> sc_;
};

/// Decompress direction: chunks carry an arbitrary split of PHS2 header +
/// framed segments. Bytes accumulate only until the current header/
/// segment completes (never the whole stream): each complete segment is
/// decoded immediately and its symbols returned in that chunk's response.
/// `unit_bound` caps a single header or segment (so a forged length can
/// never balloon the buffer) and `output_bound` caps one response's
/// decoded bytes.
template <typename Sym>
class DecompressStreamCodec final : public StreamChunkCodec {
 public:
  DecompressStreamCodec(u64 unit_bound, u64 output_bound)
      : unit_bound_(unit_bound), output_bound_(output_bound) {}

  std::vector<u8> process(std::vector<u8> chunk,
                          const CancelToken* cancel) override {
    if (pending_.empty()) {
      pending_ = std::move(chunk);
    } else {
      pending_.insert(pending_.end(), chunk.begin(), chunk.end());
    }
    if (pending_.size() > high_water_) high_water_ = pending_.size();
    std::vector<u8> out;
    std::size_t head = 0;
    if (!dec_) {
      // Fast-fail a stream that is not PHS2 at all (e.g. a monolithic
      // PHF container pushed through the chunk verbs) instead of
      // buffering up to the bound first.
      if (pending_.size() >= 4 &&
          std::memcmp(pending_.data(), kStreamHeaderMagic, 4) != 0) {
        throw std::invalid_argument(
            "stream is not a PHS2 streamed container");
      }
      try {
        const std::size_t hl =
            StreamingDecompressor<Sym>::header_length(pending_);
        dec_.emplace(std::span<const u8>(pending_).first(hl));
        head = hl;
      } catch (const std::runtime_error&) {
        // Not parsable yet: either truncated (wait for more bytes) or
        // corrupt — the unit bound decides when waiting stops being an
        // option.
        if (pending_.size() > unit_bound_) {
          throw std::invalid_argument(
              "stream header unparsable within the buffering bound");
        }
        return out;
      }
    }
    for (;;) {
      const std::span<const u8> rest =
          std::span<const u8>(pending_).subspan(head);
      std::size_t total = 0;
      if (!StreamingDecompressor<Sym>::frame_length(rest, &total)) break;
      if (total > unit_bound_) {
        throw std::invalid_argument(
            "stream segment exceeds the buffering bound");
      }
      if (rest.size() < total) break;
      const std::vector<Sym> syms =
          dec_->decode_segment(rest.first(total), cancel);
      const std::size_t nbytes = syms.size() * sizeof(Sym);
      if (out.size() + nbytes > output_bound_) {
        throw std::invalid_argument(
            "chunk decodes beyond the response bound; stream smaller "
            "chunks");
      }
      const std::size_t at = out.size();
      out.resize(at + nbytes);
      if (nbytes != 0) std::memcpy(out.data() + at, syms.data(), nbytes);
      head += total;
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(head));
    return out;
  }

  void finish(const CancelToken*) override {
    if (!pending_.empty()) {
      throw std::invalid_argument(
          "stream ended with " + std::to_string(pending_.size()) +
          " bytes of an incomplete header/segment");
    }
  }

  [[nodiscard]] u64 buffered_high_water() const override {
    return high_water_;
  }

 private:
  u64 unit_bound_;
  u64 output_bound_;
  std::vector<u8> pending_;
  u64 high_water_ = 0;
  std::optional<StreamingDecompressor<Sym>> dec_;
};

[[nodiscard]] std::unique_ptr<StreamChunkCodec> make_stream_codec(
    Op begin_op, u8 sym_width, const ServerConfig& cfg) {
  const bool compress = begin_op == Op::kCompressStreamBegin;
  // A segment framing a whole chunk outgrows the chunk slightly
  // (codebook/stream metadata) — same reasoning as the response bound's
  // slack.
  const u64 unit_bound =
      static_cast<u64>(cfg.stream_chunk_bytes) + (u64{1} << 20);
  const u64 output_bound = response_payload_bound(cfg.max_payload_bytes);
  if (sym_width == 1) {
    if (compress) {
      return std::make_unique<CompressStreamCodec<u8>>(cfg.pipeline8);
    }
    return std::make_unique<DecompressStreamCodec<u8>>(unit_bound,
                                                       output_bound);
  }
  if (compress) {
    return std::make_unique<CompressStreamCodec<u16>>(cfg.pipeline16);
  }
  return std::make_unique<DecompressStreamCodec<u16>>(unit_bound,
                                                      output_bound);
}

/// Latency histogram and trace span every request slot ends with.
void record_request(double start_us) {
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  const double done_us = rec.now_us();
  obs::MetricsRegistry::global().histo_record("rpc.request_seconds",
                                              (done_us - start_us) / 1e6);
  rec.complete("rpc.request", "rpc", start_us, done_us - start_us);
}

}  // namespace

/// One open v3 stream. Created by Begin, destroyed by End, an error or
/// connection teardown. Chunk processing happens in writer slots, which
/// run strictly sequentially per connection, so the mutable fields need
/// no lock of their own; the token is shared with the reader's cancel
/// path (CancelToken is thread-safe).
struct RpcServer::StreamState {
  u64 id = 0;
  Op begin_op = Op::kCompressStreamBegin;
  u8 sym_width = 1;
  u64 begin_request_id = 0;
  std::shared_ptr<CancelToken> token;
  u64 bytes_in = 0;
  u64 bytes_out = 0;
  u64 checksum = kFnv1aSeed;
  std::unique_ptr<StreamChunkCodec> codec;
};

/// The server's per-connection state on top of the endpoint's slot queue:
/// what a cancel frame or the teardown sweep must find. Guarded by mu.
struct RpcServer::ConnState final : FrameConn {
  // Cancellable in-flight requests on this connection, by request id.
  std::unordered_map<u64, svc::RequestHandle> compress_inflight;
  std::unordered_map<u64, std::shared_ptr<CancelToken>> decode_inflight;

  // Open v3 streams, by server-assigned stream id. The map is guarded by
  // mu (reader opens, writer slots look up and close); the pointed-to
  // state is mutated only by the strictly-sequential writer slots.
  std::unordered_map<u64, std::shared_ptr<StreamState>> streams;

  /// A single-frame request slot's epilogue: forget the request's cancel
  /// handle, then record its latency and span.
  void finish(u64 request_id, double start_us) {
    {
      std::lock_guard<std::mutex> lock(mu);
      compress_inflight.erase(request_id);
      decode_inflight.erase(request_id);
    }
    record_request(start_us);
  }
};

RpcServer::RpcServer(std::unique_ptr<Listener> listener, ServerConfig cfg)
    : cfg_(cfg),
      clock_(cfg.service.clock ? cfg.service.clock : &util::Clock::real()),
      svc8_(std::make_unique<svc::CompressionService<u8>>(cfg.service)),
      svc16_(std::make_unique<svc::CompressionService<u16>>(cfg.service)),
      endpoint_(std::move(listener), *this,
                EndpointConfig{.max_connections = cfg.max_connections,
                               .max_payload_bytes = cfg.max_payload_bytes,
                               .io_threads = cfg.io_threads,
                               .clock = clock_,
                               .counter_prefix = "rpc",
                               .fault_prefix = "rpc.server"}) {}

// The endpoint is the last member, so it stops and joins its io tasks
// before the services they use tear down.
RpcServer::~RpcServer() = default;

void RpcServer::stop() { endpoint_.stop(); }

std::size_t RpcServer::connection_count() const {
  return endpoint_.connection_count();
}

std::shared_ptr<FrameConn> RpcServer::open_conn() {
  return std::make_shared<ConnState>();
}

bool RpcServer::on_frame(FrameConn& conn, const Header& h,
                         std::vector<u8> payload) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  ConnState& cs = static_cast<ConnState&>(conn);
  if (h.kind != Kind::kRequest) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest,
                                 "response frame sent to a server"));
    return true;
  }
  switch (h.op) {
    case Op::kCompress:
      if (h.sym_width == 1) {
        handle_compress<u8>(cs, h, std::move(payload), cfg_.pipeline8,
                            *svc8_);
      } else if (h.sym_width == 2) {
        handle_compress<u16>(cs, h, std::move(payload), cfg_.pipeline16,
                             *svc16_);
      } else {
        cs.enqueue_ready(error_frame(h, Status::kBadRequest,
                                     "sym_width must be 1 or 2"));
      }
      return true;
    case Op::kDecompress:
      if (h.sym_width == 1) {
        handle_decompress<u8>(cs, h, std::move(payload));
      } else if (h.sym_width == 2) {
        handle_decompress<u16>(cs, h, std::move(payload));
      } else {
        cs.enqueue_ready(error_frame(h, Status::kBadRequest,
                                     "sym_width must be 1 or 2"));
      }
      return true;
    case Op::kCancel: {
      if (payload.size() != sizeof(u64)) {
        cs.enqueue_ready(error_frame(h, Status::kBadRequest,
                                     "cancel payload must be a u64 id"));
        return true;
      }
      u64 target = 0;
      std::memcpy(&target, payload.data(), sizeof(target));
      reg.counter_add("rpc.cancels_received");
      // Apply immediately in the reader — a cancel must not wait behind
      // the in-order response stream it is trying to shorten.
      {
        std::lock_guard<std::mutex> lock(cs.mu);
        if (auto it = cs.compress_inflight.find(target);
            it != cs.compress_inflight.end()) {
          it->second.cancel();
        } else if (auto jt = cs.decode_inflight.find(target);
                   jt != cs.decode_inflight.end()) {
          jt->second->request();
        }
        // Unknown id: the request already resolved (or never existed) —
        // cancel is idempotent best-effort either way.
      }
      cs.enqueue_ready(ok_frame(h));
      return true;
    }
    case Op::kHealth: {
      // Answered from the reader with current values (no future to wait
      // on): a router probe must see load *now*, not after the response
      // stream drains.
      HealthInfo info;
      info.queue_depth = svc8_->queue_depth() + svc16_->queue_depth();
      info.queue_capacity = 2 * cfg_.service.queue_capacity;
      info.connections = endpoint_.connection_count();
      info.max_connections = cfg_.max_connections;
      info.accepting = endpoint_.accepting();
      reg.counter_add("rpc.health_probes");
      cs.enqueue_ready(ok_frame(h, encode_health_info(info)));
      return true;
    }
    case Op::kLossyCompress:
      handle_lossy_compress(cs, h, std::move(payload));
      return true;
    case Op::kLossyDecompress:
      handle_lossy_decompress(cs, h, std::move(payload));
      return true;
    case Op::kCompressStreamBegin:
    case Op::kDecompressStreamBegin:
      handle_stream_begin(cs, h);
      return true;
    case Op::kCompressStreamChunk:
    case Op::kCompressStreamEnd:
    case Op::kDecompressStreamChunk:
    case Op::kDecompressStreamEnd:
      handle_stream_frame(cs, h, std::move(payload));
      return true;
    case Op::kStats:
      cs.enqueue([id = h.request_id] { return stats_frame(id, "rpc-stats"); });
      return true;
  }
  return true;  // unreachable: decode_header validated the op
}

void RpcServer::on_drained(FrameConn& conn) {
  // Every slot has drained, so no stream can make further progress:
  // whatever is still open died with the connection and settles the
  // opened == completed + aborted balance as aborted.
  ConnState& cs = static_cast<ConnState&>(conn);
  std::lock_guard<std::mutex> lock(cs.mu);
  if (!cs.streams.empty()) {
    obs::MetricsRegistry::global().counter_add("rpc.streams_aborted",
                                               cs.streams.size());
    cs.streams.clear();
  }
}

template <typename Sym>
void RpcServer::handle_compress(ConnState& cs, const Header& h,
                                std::vector<u8> payload,
                                const PipelineConfig& pl,
                                svc::CompressionService<Sym>& svc) {
  if (payload.size() % sizeof(Sym) != 0) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest,
                                 "payload is not a whole number of symbols"));
    return;
  }
  // Byte symbols ride the wire buffer straight through; wider symbols
  // need the realigning copy.
  std::vector<Sym> data;
  if constexpr (std::is_same_v<Sym, u8>) {
    data = std::move(payload);
  } else {
    data.resize(payload.size() / sizeof(Sym));
    if (!data.empty()) {
      std::memcpy(data.data(), payload.data(), payload.size());
    }
  }

  svc::SubmitOptions opts;
  opts.priority = to_priority(h.priority);
  if (h.deadline_micros != 0) {
    // Relative on the wire; re-anchored against the server's clock.
    opts.deadline = svc::Deadline::in(
        static_cast<double>(h.deadline_micros) * 1e-6, *clock_);
  }

  svc::Submission<Sym> sub;
  try {
    sub = svc.submit(std::move(data), pl, opts);
  } catch (const svc::QueueFullError&) {
    cs.enqueue_ready(error_frame(h, Status::kQueueFull,
                                 "service admission queue full"));
    return;
  } catch (const std::logic_error&) {
    cs.enqueue_ready(
        error_frame(h, Status::kShuttingDown, "server shutting down"));
    return;
  } catch (const std::exception& e) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest, e.what()));
    return;
  }

  {
    std::lock_guard<std::mutex> lock(cs.mu);
    cs.compress_inflight.emplace(h.request_id, sub.handle);
  }

  auto fut = std::make_shared<std::future<svc::CompressResult<Sym>>>(
      std::move(sub.result));
  ConnState* raw = &cs;  // the writer keeps *raw alive past this slot
  const double start_us = obs::TraceRecorder::global().now_us();
  cs.enqueue([raw, fut, hdr = h, start_us]() {
    Frame f;
    try {
      svc::CompressResult<Sym> res = fut->get();
      Compressed<Sym> blob;
      blob.codebook = *res.codebook;
      blob.stream = std::move(res.stream);
      f = ok_frame(hdr, serialize<Sym>(blob));
    } catch (const svc::DeadlineExceeded& e) {
      f = error_frame(hdr, Status::kDeadlineExceeded, e.what());
    } catch (const svc::CancelledError& e) {
      f = error_frame(hdr, Status::kCancelled, e.what());
    } catch (const std::exception& e) {
      f = error_frame(hdr, Status::kInternal, e.what());
    }
    raw->finish(hdr.request_id, start_us);
    return f;
  });
}

template <typename Sym>
void RpcServer::handle_decompress(ConnState& cs, const Header& h,
                                  std::vector<u8> payload) {
  auto token = std::make_shared<CancelToken>();
  if (h.deadline_micros != 0) {
    token->arm_deadline(clock_->now() + util::Clock::dur(
                            static_cast<double>(h.deadline_micros) * 1e-6),
                        *clock_);
  }
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    cs.decode_inflight.emplace(h.request_id, token);
  }
  auto body = std::make_shared<std::vector<u8>>(std::move(payload));
  ConnState* raw = &cs;
  const double start_us = obs::TraceRecorder::global().now_us();
  // The decode runs on the writer task itself (requests on one connection
  // are an ordered stream anyway); the walk polls the token, so a cancel
  // frame or the deadline aborts it mid-stream.
  cs.enqueue([raw, body, token, hdr = h, start_us]() {
    Frame f;
    try {
      token->check();  // cheap pre-flight: already cancelled/expired?
      std::vector<u8> out_bytes;
      if (body->size() >= 4 &&
          std::memcmp(body->data(), kStreamHeaderMagic, 4) == 0) {
        // A PHS2 streamed container (StreamingCompressor output — what
        // the v3 compress stream produces). Decode its framed segments
        // in order so streamed-compress results round-trip through the
        // plain decompress verb too, when they fit one frame.
        const std::span<const u8> bytes(*body);
        const std::size_t hl =
            StreamingDecompressor<Sym>::header_length(bytes);
        const StreamingDecompressor<Sym> sd(bytes.first(hl));
        for (const std::span<const u8> seg :
             StreamingDecompressor<Sym>::split_frames(bytes.subspan(hl))) {
          const std::vector<Sym> out = sd.decode_segment(seg, token.get());
          const std::size_t at = out_bytes.size();
          out_bytes.resize(at + out.size() * sizeof(Sym));
          if (!out.empty()) {
            std::memcpy(out_bytes.data() + at, out.data(),
                        out.size() * sizeof(Sym));
          }
        }
      } else {
        const Compressed<Sym> blob = deserialize<Sym>(*body);
        // decode_auto picks the gap-array kernel when the container
        // carried gap metadata (a "PHF3" + GAP1 blob), the host decoder
        // otherwise.
        const std::vector<Sym> out =
            decode_auto<Sym>(blob.stream, blob.codebook, 0, token.get());
        out_bytes.resize(out.size() * sizeof(Sym));
        if (!out.empty()) {
          std::memcpy(out_bytes.data(), out.data(), out_bytes.size());
        }
      }
      f = ok_frame(hdr, std::move(out_bytes));
    } catch (const OperationCancelled& e) {
      f = error_frame(hdr, Status::kCancelled, e.what());
    } catch (const DeadlineExpired& e) {
      f = error_frame(hdr, Status::kDeadlineExceeded, e.what());
    } catch (const std::runtime_error& e) {
      // Malformed container / corrupt stream: the client's fault.
      f = error_frame(hdr, Status::kBadRequest, e.what());
    } catch (const std::exception& e) {
      f = error_frame(hdr, Status::kInternal, e.what());
    }
    raw->finish(hdr.request_id, start_us);
    return f;
  });
}

void RpcServer::handle_lossy_compress(ConnState& cs, const Header& h,
                                      std::vector<u8> payload) {
  // Validate the shape before any allocation is committed to it: header
  // present, sample stream a whole number of f32s, dims matching the
  // stream exactly (overflow-safe stepwise product — nx*ny*nz of forged
  // u64 dims must never wrap into a plausible count).
  LossyRequestHeader lh;
  try {
    lh = decode_lossy_request_header(payload);
  } catch (const ProtocolError& e) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest, e.what()));
    return;
  }
  const std::size_t body_bytes = payload.size() - kLossyRequestHeaderBytes;
  if (body_bytes % sizeof(float) != 0) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest,
                                 "payload is not a whole number of f32s"));
    return;
  }
  const u64 n_floats = body_bytes / sizeof(float);
  bool dims_ok = lh.nx != 0 && lh.ny != 0 && lh.nz != 0 && n_floats != 0;
  dims_ok = dims_ok && lh.nx <= n_floats / lh.ny;
  dims_ok = dims_ok && lh.nx * lh.ny <= n_floats / lh.nz;
  dims_ok = dims_ok && lh.nx * lh.ny * lh.nz == n_floats;
  if (!dims_ok) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest,
                                 "dims do not match the f32 sample count"));
    return;
  }
  if (lh.nbins < 4 || lh.nbins > 65536) {
    cs.enqueue_ready(
        error_frame(h, Status::kBadRequest, "nbins out of range [4, 65536]"));
    return;
  }

  std::vector<float> field(static_cast<std::size_t>(n_floats));
  std::memcpy(field.data(), payload.data() + kLossyRequestHeaderBytes,
              body_bytes);
  data::Dims dims{static_cast<std::size_t>(lh.nx),
                  static_cast<std::size_t>(lh.ny),
                  static_cast<std::size_t>(lh.nz)};
  lossy::FusedConfig fc;
  fc.rel_error_bound = lh.rel_error_bound;
  fc.abs_error_bound = lh.abs_error_bound;
  fc.nbins = lh.nbins;
  fc.rle_min_run = lh.rle_min_run;
  fc.pipeline = lh.nbins <= 256 ? cfg_.pipeline8 : cfg_.pipeline16;

  svc::SubmitOptions opts;
  opts.priority = to_priority(h.priority);
  if (h.deadline_micros != 0) {
    opts.deadline = svc::Deadline::in(
        static_cast<double>(h.deadline_micros) * 1e-6, *clock_);
  }

  // Route on the residual alphabet: the u8 service owns narrow quantizers,
  // the u16 service everything wider (submit_lossy enforces the same
  // predicate, so a routing bug fails loudly instead of silently).
  svc::LossySubmission sub;
  try {
    sub = lh.nbins <= 256
              ? svc8_->submit_lossy(std::move(field), dims, fc, opts)
              : svc16_->submit_lossy(std::move(field), dims, fc, opts);
  } catch (const svc::QueueFullError&) {
    cs.enqueue_ready(error_frame(h, Status::kQueueFull,
                                 "service admission queue full"));
    return;
  } catch (const std::logic_error&) {
    cs.enqueue_ready(
        error_frame(h, Status::kShuttingDown, "server shutting down"));
    return;
  } catch (const std::exception& e) {
    cs.enqueue_ready(error_frame(h, Status::kBadRequest, e.what()));
    return;
  }

  {
    std::lock_guard<std::mutex> lock(cs.mu);
    cs.compress_inflight.emplace(h.request_id, sub.handle);
  }

  auto fut = std::make_shared<std::future<svc::LossyResult>>(
      std::move(sub.result));
  ConnState* raw = &cs;  // the writer keeps *raw alive past this slot
  const double start_us = obs::TraceRecorder::global().now_us();
  cs.enqueue([raw, fut, hdr = h, start_us]() {
    Frame f;
    try {
      f = ok_frame(hdr, std::move(fut->get().container));
    } catch (const svc::DeadlineExceeded& e) {
      f = error_frame(hdr, Status::kDeadlineExceeded, e.what());
    } catch (const svc::CancelledError& e) {
      f = error_frame(hdr, Status::kCancelled, e.what());
    } catch (const std::invalid_argument& e) {
      f = error_frame(hdr, Status::kBadRequest, e.what());
    } catch (const std::exception& e) {
      f = error_frame(hdr, Status::kInternal, e.what());
    }
    raw->finish(hdr.request_id, start_us);
    return f;
  });
}

void RpcServer::handle_lossy_decompress(ConnState& cs, const Header& h,
                                        std::vector<u8> payload) {
  auto token = std::make_shared<CancelToken>();
  if (h.deadline_micros != 0) {
    token->arm_deadline(clock_->now() + util::Clock::dur(
                            static_cast<double>(h.deadline_micros) * 1e-6),
                        *clock_);
  }
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    cs.decode_inflight.emplace(h.request_id, token);
  }
  auto body = std::make_shared<std::vector<u8>>(std::move(payload));
  ConnState* raw = &cs;
  const double start_us = obs::TraceRecorder::global().now_us();
  // Runs on the writer task like plain decompress; the container magic
  // (PHL1/PHL2) picks the path and the decode/reconstruct walks poll the
  // token.
  cs.enqueue([raw, body, token, hdr = h, start_us]() {
    Frame f;
    try {
      token->check();  // cheap pre-flight: already cancelled/expired?
      const lossy::Field field = lossy::decompress_field(*body, token.get());
      LossyFieldHeader fh;
      fh.nx = static_cast<u64>(field.dims.nx);
      fh.ny = static_cast<u64>(field.dims.ny);
      fh.nz = static_cast<u64>(field.dims.nz);
      fh.error_bound = field.error_bound;
      std::vector<u8> out = encode_lossy_field_header(fh);
      const std::size_t at = out.size();
      out.resize(at + field.values.size() * sizeof(float));
      if (!field.values.empty()) {
        std::memcpy(out.data() + at, field.values.data(),
                    field.values.size() * sizeof(float));
      }
      f = ok_frame(hdr, std::move(out));
    } catch (const OperationCancelled& e) {
      f = error_frame(hdr, Status::kCancelled, e.what());
    } catch (const DeadlineExpired& e) {
      f = error_frame(hdr, Status::kDeadlineExceeded, e.what());
    } catch (const std::runtime_error& e) {
      // Malformed container / corrupt stream: the client's fault.
      f = error_frame(hdr, Status::kBadRequest, e.what());
    } catch (const std::exception& e) {
      f = error_frame(hdr, Status::kInternal, e.what());
    }
    raw->finish(hdr.request_id, start_us);
    return f;
  });
}

void RpcServer::handle_stream_begin(ConnState& cs, const Header& h) {
  if (h.sym_width != 1 && h.sym_width != 2) {
    cs.enqueue_ready(
        error_frame(h, Status::kBadRequest, "sym_width must be 1 or 2"));
    return;
  }
  auto st = std::make_shared<StreamState>();
  st->id = next_stream_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  st->begin_op = h.op;
  st->sym_width = h.sym_width;
  st->begin_request_id = h.request_id;
  st->token = std::make_shared<CancelToken>();
  if (h.deadline_micros != 0) {
    // The one and only anchoring point: the whole stream runs on this
    // budget; chunk frames carry the stream id where a deadline would be.
    st->token->arm_deadline(
        clock_->now() + util::Clock::dur(
                            static_cast<double>(h.deadline_micros) * 1e-6),
        *clock_);
  }
  st->codec = make_stream_codec(h.op, h.sym_width, cfg_);
  bool over_cap = false;
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    if (cs.streams.size() >= cfg_.max_streams_per_connection) {
      over_cap = true;
    } else {
      cs.streams.emplace(st->id, st);
      // Registered under the Begin request id: a kCancel naming it aborts
      // the stream at the next chunk, exactly like single-frame requests.
      cs.decode_inflight.emplace(h.request_id, st->token);
    }
  }
  if (over_cap) {
    cs.enqueue_ready(error_frame(h, Status::kQueueFull,
                                 "per-connection open-stream cap reached"));
    return;
  }
  obs::MetricsRegistry::global().counter_add("rpc.streams_opened");
  std::vector<u8> sid(sizeof(u64));
  std::memcpy(sid.data(), &st->id, sizeof(u64));
  cs.enqueue_ready(ok_frame(h, std::move(sid)));
}

void RpcServer::handle_stream_frame(ConnState& cs, const Header& h,
                                    std::vector<u8> payload) {
  auto body = std::make_shared<std::vector<u8>>(std::move(payload));
  ConnState* raw = &cs;  // the writer keeps *raw alive past this slot
  const double start_us = obs::TraceRecorder::global().now_us();
  // Processed in the writer slot: while this chunk encodes/decodes, the
  // reader is already pulling the next chunk off the wire — that overlap
  // is the whole point of the streaming verbs.
  cs.enqueue([this, raw, body, hdr = h, start_us]() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const bool is_end = hdr.op == Op::kCompressStreamEnd ||
                        hdr.op == Op::kDecompressStreamEnd;
    std::shared_ptr<StreamState> st;
    {
      std::lock_guard<std::mutex> lock(raw->mu);
      if (auto it = raw->streams.find(hdr.stream_id);
          it != raw->streams.end()) {
        st = it->second;
      }
    }
    if (!st) {
      return error_frame(hdr, Status::kBadRequest,
                         "unknown stream id (never opened, completed, or "
                         "already aborted)");
    }
    Frame f;
    bool completed = false;
    try {
      // Fault site: the stream's processing dies mid-chunk (a kernel
      // failure, an allocation failure...). The stream aborts typed.
      util::FaultInjector::global().maybe_throw("rpc.server.stream_chunk");
      if (is_compress_stream_op(hdr.op) !=
          is_compress_stream_op(st->begin_op)) {
        throw std::invalid_argument(
            "stream op family does not match the Begin op");
      }
      st->token->check();
      if (!is_end) {
        if (body->size() > cfg_.stream_chunk_bytes) {
          throw std::invalid_argument(
              "chunk exceeds stream_chunk_bytes (" +
              std::to_string(cfg_.stream_chunk_bytes) + ")");
        }
        st->checksum = stream_checksum(*body, st->checksum);
        st->bytes_in += body->size();
        reg.counter_add("rpc.stream_chunks");
        reg.counter_add("rpc.stream_bytes_in", body->size());
        std::vector<u8> out =
            st->codec->process(std::move(*body), st->token.get());
        st->bytes_out += out.size();
        reg.counter_add("rpc.stream_bytes_out", out.size());
        f = ok_frame(hdr, std::move(out));
      } else {
        const StreamEndRequest end = decode_stream_end_request(*body);
        if (end.total_bytes != st->bytes_in) {
          throw std::invalid_argument(
              "stream length mismatch: sender claims " +
              std::to_string(end.total_bytes) + " bytes, server received " +
              std::to_string(st->bytes_in));
        }
        if (end.checksum != st->checksum) {
          throw std::invalid_argument("stream checksum mismatch");
        }
        st->codec->finish(st->token.get());
        f = ok_frame(hdr, encode_stream_summary(StreamSummary{
                              st->bytes_in, st->bytes_out, st->checksum}));
        completed = true;
      }
    } catch (const OperationCancelled& e) {
      f = error_frame(hdr, Status::kCancelled, e.what());
    } catch (const DeadlineExpired& e) {
      f = error_frame(hdr, Status::kDeadlineExceeded, e.what());
    } catch (const util::TransientError& e) {
      f = error_frame(hdr, Status::kInternal, e.what());
    } catch (const ProtocolError& e) {
      f = error_frame(hdr, Status::kBadRequest, e.what());
    } catch (const std::invalid_argument& e) {
      f = error_frame(hdr, Status::kBadRequest, e.what());
    } catch (const std::runtime_error& e) {
      // Corrupt stream bytes (bad segment payload etc.): the client's
      // fault.
      f = error_frame(hdr, Status::kBadRequest, e.what());
    } catch (const std::exception& e) {
      f = error_frame(hdr, Status::kInternal, e.what());
    }
    // Track the bounded-buffering high water even on failure paths.
    const u64 buffered = st->codec ? st->codec->buffered_high_water() : 0;
    u64 cur = stream_buffer_high_water_.load(std::memory_order_relaxed);
    while (buffered > cur && !stream_buffer_high_water_.compare_exchange_weak(
                                 cur, buffered, std::memory_order_relaxed)) {
    }
    reg.gauge_max("rpc.stream_buffered_bytes_high_water",
                  static_cast<double>(buffered));
    // Completion and every error are terminal for the stream: forget the
    // id (later frames answer "unknown stream") and settle the
    // opened == completed + aborted balance.
    if (f.h.status != Status::kOk || completed) {
      bool was_open = false;
      {
        std::lock_guard<std::mutex> lock(raw->mu);
        was_open = raw->streams.erase(st->id) > 0;
        raw->decode_inflight.erase(st->begin_request_id);
      }
      if (was_open) {
        reg.counter_add(completed ? "rpc.streams_completed"
                                  : "rpc.streams_aborted");
      }
    }
    record_request(start_us);
    return f;
  });
}

}  // namespace parhuff::rpc
