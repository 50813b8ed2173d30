#pragma once
// RPC client: futures over a connection, mirroring the in-process
// CompressionService::submit() shape (docs/rpc.md).
//
//   RpcClient cli(
//       [&] { return connect_unix("/tmp/parhuff.sock"); });
//   RpcCall call = cli.compress_data<u8>(symbols,
//                                        {.deadline_seconds = 0.5});
//   std::vector<u8> container = call.result.get();   // PHF2 bytes
//   cli.cancel(call.id);                             // best-effort
//
// Every future resolves: with payload bytes on kOk, with
// svc::DeadlineExceeded / svc::CancelledError on the matching statuses,
// with RpcError for other typed server errors, or with TransportError
// when the connection died with the request in flight.
//
// Connection management: the client lazily connects on first use and
// transparently reconnects (util::BackoffPolicy, bounded attempts) after
// a connection failure — requests in flight across the loss fail with
// TransportError (the server may or may not have executed them; compress
// is idempotent, so callers simply resubmit), later requests use the new
// connection. One background reader thread owns response demultiplexing
// and is the only actor that fails a connection's pending futures.
//
// Fault sites (util::FaultInjector): rpc.client.connect, rpc.client.send,
// rpc.client.read.

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rpc/transport.hpp"
#include "svc/service.hpp"
#include "util/backoff.hpp"

namespace parhuff::rpc {

struct ClientConfig {
  /// Bounded connect/reconnect attempts before a send fails with
  /// TransportError.
  int connect_attempts = 5;
  util::BackoffPolicy backoff;
  /// Time source for the reconnect backoff. nullptr = real clock.
  const util::Clock* clock = nullptr;
  /// Bound on request payloads this client sends; responses are accepted
  /// up to response_payload_bound() of it, matching the server.
  u32 max_payload_bytes = kMaxPayloadBytes;
  /// Transparently switch oversized compress/decompress submits onto the
  /// v3 streaming verbs instead of failing them typed. Off restores the
  /// pre-v3 behavior: payloads past the bound answer kBadRequest without
  /// touching the connection or the pending map.
  bool enable_streaming = true;
  /// Chunk payload size the transparent chunker sends (rounded down to a
  /// whole number of symbols). Must not exceed the server's
  /// stream_chunk_bytes.
  u32 stream_chunk_bytes = kDefaultStreamChunkBytes;
  /// Payload size above which a submit streams instead of riding one
  /// frame. 0 = max_payload_bytes (stream only what a single frame
  /// cannot carry).
  u32 stream_threshold_bytes = 0;
  /// Chunk frames kept in flight per stream before the driver waits on
  /// the oldest ack — the transfer/encode-overlap pipelining depth.
  std::size_t stream_window = 8;
};

struct RpcOptions {
  svc::Priority priority = svc::Priority::kNormal;
  /// Relative deadline budget shipped on the wire (re-anchored against
  /// the server's clock). 0 = none.
  double deadline_seconds = 0;
};

/// One in-flight request: the response payload future plus the id to
/// cancel() with.
struct RpcCall {
  std::future<std::vector<u8>> result;
  u64 id = 0;
};

class RpcClient {
 public:
  /// Factory for a fresh connection; called on first use and on every
  /// reconnect. Must throw (or return null) on failure.
  using Connector = std::function<std::unique_ptr<Connection>()>;

  explicit RpcClient(Connector connect, ClientConfig cfg = {});
  /// Fails every pending future with TransportError, then joins.
  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Compress raw symbol bytes (`sym_width` 1 or 2; payload length must
  /// be a multiple). Resolves to serialized container bytes: a PHF
  /// container when the payload rode one frame, a PHS2 streamed container
  /// when the transparent chunker streamed it (both decompress through
  /// this client and the server's decompress verb identically).
  [[nodiscard]] RpcCall compress(std::span<const u8> symbol_bytes,
                                 u8 sym_width = 1,
                                 const RpcOptions& opts = {});

  /// Ownership-transfer overload: the vector is moved, never copied —
  /// single-frame submits send straight from it, and a streamed submit's
  /// chunks are lent to the transport as views into it (the
  /// submit(vector&&) zero-copy path extended across the wire). Prefer
  /// this for large payloads; the span overload of a streamed submit
  /// must copy once to outlive the call.
  [[nodiscard]] RpcCall compress(std::vector<u8>&& symbol_bytes,
                                 u8 sym_width = 1,
                                 const RpcOptions& opts = {});

  /// Typed convenience over compress(): Sym is u8 or u16.
  template <typename Sym>
  [[nodiscard]] RpcCall compress_data(std::span<const Sym> symbols,
                                      const RpcOptions& opts = {}) {
    return compress(
        std::span<const u8>(reinterpret_cast<const u8*>(symbols.data()),
                            symbols.size() * sizeof(Sym)),
        sizeof(Sym), opts);
  }

  /// Decompress a serialized container (PHF single-frame or PHS2
  /// streamed). Resolves to raw symbol bytes of `sym_width`-byte symbols.
  /// Oversized PHS2 containers stream transparently; an oversized PHF
  /// container cannot be split and fails typed (kBadRequest).
  [[nodiscard]] RpcCall decompress(std::span<const u8> container,
                                   u8 sym_width = 1,
                                   const RpcOptions& opts = {});

  /// Ownership-transfer overload of decompress() — same zero-copy
  /// contract as the compress overload.
  [[nodiscard]] RpcCall decompress(std::vector<u8>&& container,
                                   u8 sym_width = 1,
                                   const RpcOptions& opts = {});

  /// v4 fused lossy compress (docs/lossy.md): ships the 48-byte quantizer
  /// config followed by the f32 field; resolves to a PHL2 container.
  /// cfg.nx*ny*nz must equal field.size(). A pre-v4 server answers the
  /// version gate with a typed RpcError (kUnsupportedVersion) — a
  /// feature probe, never a hang.
  [[nodiscard]] RpcCall lossy_compress(std::span<const float> field,
                                       const LossyRequestHeader& cfg,
                                       const RpcOptions& opts = {});

  /// Raw pass-through overload for proxies (the shard router's forward
  /// hop): `payload` must already be a LossyRequestHeader + f32 stream —
  /// exactly what the typed overload builds. The shard re-validates it.
  [[nodiscard]] RpcCall lossy_compress_raw(std::span<const u8> payload,
                                           u8 sym_width,
                                           const RpcOptions& opts = {});

  /// v4 fused lossy decompress: ships a PHL1/PHL2 container; resolves to
  /// a LossyFieldHeader + f32 payload (split it with
  /// decode_lossy_field_payload).
  [[nodiscard]] RpcCall lossy_decompress(std::span<const u8> container,
                                         const RpcOptions& opts = {});

  // --- v3 streaming verbs (protocol.hpp). compress()/decompress() use
  // these transparently for oversized payloads; they are public for
  // callers that want manual chunk control (the shard router forwards
  // streams with them). A stream is stream_begin(), N stream_frame()
  // chunks, stream_end(); every call returns an ordinary RpcCall and the
  // Begin id is the one cancel() accepts for the whole stream.

  /// Open a stream (`op` is kCompressStreamBegin or kDecompressStreamBegin;
  /// opts.deadline_seconds is anchored once, covering the whole stream).
  /// Resolves to the 8-byte LE server-assigned stream id.
  [[nodiscard]] RpcCall stream_begin(Op op, u8 sym_width = 1,
                                     const RpcOptions& opts = {});

  /// Send one Chunk/End frame on an open stream. The payload span is
  /// borrowed — written to the wire during this call, never copied into
  /// an owned frame — so callers may lend views into buffers they keep.
  [[nodiscard]] RpcCall stream_frame(Op op, u64 stream_id,
                                     std::span<const u8> payload);

  /// Close a stream: ships the byte total and chained stream_checksum for
  /// the server to verify. Resolves to a StreamSummary payload.
  [[nodiscard]] RpcCall stream_end(Op op, u64 stream_id, u64 total_bytes,
                                   u64 checksum);

  /// Best-effort cancel of an earlier call on this client. Resolves when
  /// the server acknowledged (the target may still complete if it passed
  /// its last poll point — same contract as RequestHandle::cancel()).
  [[nodiscard]] std::future<void> cancel(u64 request_id);

  /// Server-side parhuff-metrics-v1 snapshot (JSON text).
  [[nodiscard]] std::future<std::string> stats();

  /// In-band health probe (protocol v2). Resolves with the server's
  /// HealthInfo; a v1 peer answers the unknown version with a typed
  /// RpcError (kUnsupportedVersion) rather than hanging, so probers can
  /// tell "legacy" from "dead" (TransportError).
  [[nodiscard]] std::future<HealthInfo> health();

 private:
  struct Pending {
    u64 generation = 0;
    std::promise<std::vector<u8>> promise;
  };

  /// True when a compress/decompress payload of this size should ride the
  /// v3 streaming verbs instead of one frame.
  [[nodiscard]] bool use_streaming(std::size_t payload_bytes) const;
  [[nodiscard]] RpcCall submit_frame(Frame f);
  /// Borrowed-payload submit: registers the pending entry, then writes
  /// header + payload straight from the caller's span (read only during
  /// the call). Every other submit funnels through here.
  [[nodiscard]] RpcCall submit_frame(Header h, std::span<const u8> payload);
  /// Transparent chunking for oversized compress/decompress submits:
  /// sends Begin inline (so the returned id is the cancellable Begin id),
  /// then hands the moved payload to a driver thread that pipelines
  /// Chunk frames and resolves the outer future from the concatenated
  /// chunk acks + End summary.
  [[nodiscard]] RpcCall submit_stream(Op begin_op, std::vector<u8> data,
                                      u8 sym_width, RpcOptions opts);
  void drive_stream(Op begin_op, std::vector<u8> data, u8 sym_width,
                    std::future<std::vector<u8>> begin,
                    std::shared_ptr<std::promise<std::vector<u8>>> out);
  /// Called under send_mu_: returns the live connection and its
  /// generation, dialing (with backoff) when there is none. Throws
  /// TransportError after the attempt budget.
  [[nodiscard]] std::pair<std::shared_ptr<Connection>, u64> ensure_connected();
  void receive_loop();
  /// Fail every pending entry of `generation` with TransportError.
  void fail_generation(u64 generation, const char* why);

  Connector connector_;
  ClientConfig cfg_;
  const util::Clock* clock_;

  std::mutex mu_;  // conn_, generation_, pending_, stopping_
  std::condition_variable conn_cv_;  // reader parks here between conns
  std::shared_ptr<Connection> conn_;
  u64 generation_ = 0;
  std::unordered_map<u64, Pending> pending_;
  bool stopping_ = false;

  std::mutex send_mu_;  // serializes connect + frame writes
  std::atomic<u64> next_id_{1};
  std::thread reader_;

  /// One driver thread per in-flight streamed submit. Finished drivers
  /// are reaped opportunistically on the next streamed submit; the dtor
  /// joins whatever is left after failing the pending map (safe: every
  /// future a driver waits on resolves — the reader's generation sweep or
  /// the sender's own failure path guarantees it).
  struct Driver {
    std::thread t;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex drivers_mu_;
  std::vector<Driver> drivers_;
};

}  // namespace parhuff::rpc
