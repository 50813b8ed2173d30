#pragma once
// Wire protocol for the cross-process compression service (docs/rpc.md).
//
// Every message — request or response — is one length-prefixed frame: a
// fixed 32-byte little-endian header followed by `payload_len` bytes of
// payload. Layout:
//
//   offset  size  field
//        0     4  magic            0x43524850 ("PHRC")
//        4     1  version          kMinVersion..kVersion accepted
//        5     1  kind             0 request / 1 response
//        6     1  op               Op (compress/decompress/cancel/stats/
//                                  health/stream begin-chunk-end)
//        7     1  sym_width        payload symbol width in bytes (1 or 2)
//        8     8  request_id       caller-chosen; echoed on the response
//       16     1  priority         svc::Priority numeric value
//       17     1  status           Status; always kOk on requests
//       18     2  reserved         must-ignore (forward compatibility)
//       20     4  payload_len      bytes following the header
//       24     8  deadline_micros  relative budget in µs; 0 = none.
//                                  On stream *Chunk/End* frames (both
//                                  kinds) this slot carries the u64
//                                  stream_id instead — the stream's
//                                  deadline was anchored once at Begin,
//                                  which frees the field.
//
// The deadline is *relative* on the wire (the client and server do not
// share a clock); the server re-anchors it against its own injected
// util::Clock on receipt. Payloads by op:
//
//   compress    request: raw symbols (sym_width bytes each)
//               response: PHF2 container (core/format.hpp serialize())
//   decompress  request: PHF2 container — response: raw symbols
//   cancel      request: u64 target request id — response: empty
//   stats       request: empty — response: parhuff-metrics-v1 JSON text
//   health      request: empty — response: HealthInfo (fixed LE layout);
//               protocol v2. A v1 server never sees the op (the version
//               gate answers kUnsupportedVersion first); a v2 server that
//               somehow receives an op it does not know answers
//               kBadRequest — both typed, so a health prober can always
//               distinguish "legacy peer" from "dead peer".
//
// Protocol v3 adds the streaming verbs (kCompressStreamBegin/Chunk/End
// and the decompress mirror) so payloads larger than one frame's bound
// stream as a sequence of bounded chunk frames and wire transfer overlaps
// encode/decode server-side:
//
//   *StreamBegin  request: empty — response: u64 LE server-assigned
//                 stream id. The Begin frame's deadline_micros anchors the
//                 budget for the WHOLE stream (re-anchored once, server
//                 clock); chunk frames carry the stream id where the
//                 deadline would live.
//   *StreamChunk  request: ≤ stream_chunk_bytes of raw symbols (compress)
//                 or PHS2 stream bytes (decompress) — response: the
//                 output produced so far by this chunk (possibly empty
//                 for decompress while a segment straddles chunks).
//   *StreamEnd    request: StreamEndRequest (u64 total bytes | u64
//                 stream_checksum over every chunk payload byte, in
//                 order) — response: StreamSummary (u64 bytes_in |
//                 u64 bytes_out | u64 checksum). A mismatch aborts the
//                 stream with kBadRequest.
//
// Any stream error (unknown id, oversized chunk, checksum mismatch,
// deadline, cancel, fault) answers typed on the offending frame and
// aborts the stream: the id is forgotten and later frames for it answer
// kBadRequest ("unknown stream"). Streams never stall silently.
//
// Protocol v4 adds the fused lossy verbs (docs/lossy.md):
//
//   lossy_compress    request: LossyRequestHeader (48-byte LE quantizer
//                     config) followed by nx*ny*nz little-endian f32
//                     samples — response: PHL2 container.
//   lossy_decompress  request: PHL1/PHL2 container — response:
//                     LossyFieldHeader (32-byte LE dims + resolved bound)
//                     followed by the reconstructed f32 samples.
//
// Version negotiation is unchanged: a v3 server that receives a v4 frame
// answers kUnsupportedVersion at the version gate, and a v3 frame that
// somehow carries a lossy op fails the op range check with kBadRequest —
// typed either way, never a hang.
//
// A non-kOk response carries a human-readable message as payload. Frame
// parsing distinguishes two failure classes: ProtocolError (a structurally
// invalid frame — the server answers with a typed error when enough of the
// header parsed to address one, else drops the connection) and
// TransportError (the byte stream itself died mid-frame; always fatal for
// the connection). See docs/rpc.md for the full error model.

#include <array>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace parhuff::svc {
enum class Priority : u8;  // svc/service.hpp
}  // namespace parhuff::svc

namespace parhuff::rpc {

inline constexpr u32 kMagic = 0x43524850u;  // "PHRC" when read little-endian
/// Current protocol version. v2 added the health op (kHealth) for in-band
/// shard probing; v3 added the streaming verbs (Begin/Chunk/End pairs);
/// v4 adds the fused lossy verbs (kLossyCompress/kLossyDecompress).
/// The header layout and every earlier op are unchanged, so the whole
/// [kMinVersion, kVersion] range is still accepted.
inline constexpr u8 kVersion = 4;
inline constexpr u8 kMinVersion = 1;
inline constexpr std::size_t kHeaderBytes = 32;
/// Default bound on a single frame's payload; both ends reject bigger
/// frames (kBadRequest) before allocating.
inline constexpr u32 kMaxPayloadBytes = 64u << 20;
/// Default bound on one stream chunk's payload (v3 streaming verbs).
/// Deliberately much smaller than kMaxPayloadBytes: it is the server's
/// per-stream buffering bound and the unit of transfer/encode overlap.
inline constexpr u32 kDefaultStreamChunkBytes = 4u << 20;

/// Responses may outgrow the request bound (container overhead on
/// incompressible input), so the response direction gets 1 MiB of slack —
/// the server encodes against this bound and the client decodes with it.
[[nodiscard]] inline constexpr u32 response_payload_bound(u32 request_bound) {
  const u64 b = static_cast<u64>(request_bound) + (u64{1} << 20);
  return b > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<u32>(b);
}

enum class Kind : u8 { kRequest = 0, kResponse = 1 };

enum class Op : u8 {
  kCompress = 1,
  kDecompress = 2,
  kCancel = 3,
  kStats = 4,
  kHealth = 5,  ///< protocol v2: compact load/liveness snapshot (HealthInfo)
  // Protocol v3 streaming verbs. A stream is Begin, then N Chunk frames,
  // then End; the server assigns the stream id (Begin response payload)
  // and Chunk/End frames carry it in the header's offset-24 slot.
  kCompressStreamBegin = 6,
  kCompressStreamChunk = 7,
  kCompressStreamEnd = 8,
  kDecompressStreamBegin = 9,
  kDecompressStreamChunk = 10,
  kDecompressStreamEnd = 11,
  // Protocol v4 fused lossy verbs (lossy/fused.hpp). sym_width on these
  // frames describes the residual Huffman alphabet the server should use
  // on compress (derived from nbins; informational) and is ignored on
  // decompress (the container is self-describing).
  kLossyCompress = 12,
  kLossyDecompress = 13,
};

/// True for all six v3 streaming ops.
[[nodiscard]] inline constexpr bool is_stream_op(Op op) {
  return op >= Op::kCompressStreamBegin && op <= Op::kDecompressStreamEnd;
}

/// True for ops that open a stream (and therefore still carry a deadline
/// in the offset-24 slot).
[[nodiscard]] inline constexpr bool is_stream_begin_op(Op op) {
  return op == Op::kCompressStreamBegin || op == Op::kDecompressStreamBegin;
}

/// True for Chunk/End ops, whose offset-24 slot carries the stream id
/// instead of a deadline (the deadline was anchored at Begin).
[[nodiscard]] inline constexpr bool is_stream_ref_op(Op op) {
  return op == Op::kCompressStreamChunk || op == Op::kCompressStreamEnd ||
         op == Op::kDecompressStreamChunk || op == Op::kDecompressStreamEnd;
}

enum class Status : u8 {
  kOk = 0,
  kBadRequest = 1,          ///< malformed frame or payload
  kUnsupportedVersion = 2,  ///< header version != kVersion
  kQueueFull = 3,           ///< service admission rejected (kReject policy)
  kDeadlineExceeded = 4,    ///< request deadline passed server-side
  kCancelled = 5,           ///< request cancelled (cancel op or handle)
  kShuttingDown = 6,        ///< server stopping; request not admitted
  kInternal = 7,            ///< unexpected server-side failure
};

[[nodiscard]] const char* status_name(Status s);

/// The byte stream under a connection failed: mid-frame EOF, short write,
/// socket error, or the peer vanished. Always connection-fatal; pending
/// requests on the connection fail with this type.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A non-kOk response status, surfaced through the client's future.
/// (Deadline/cancel statuses map to the svc exception types instead —
/// see RpcClient.)
class RpcError : public std::runtime_error {
 public:
  RpcError(Status status, const std::string& message)
      : std::runtime_error("rpc: " + std::string(status_name(status)) +
                           ": " + message),
        status_(status) {}
  [[nodiscard]] Status status() const { return status_; }

 private:
  Status status_;
};

/// A structurally invalid frame. `can_respond` says whether enough of the
/// header parsed to address a typed error response (request id known);
/// otherwise the stream position is unknowable and the connection must be
/// dropped.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(const std::string& msg, Status status, bool can_respond,
                u64 request_id)
      : std::runtime_error("rpc protocol: " + msg),
        status_(status),
        can_respond_(can_respond),
        request_id_(request_id) {}
  [[nodiscard]] Status status() const { return status_; }
  [[nodiscard]] bool can_respond() const { return can_respond_; }
  [[nodiscard]] u64 request_id() const { return request_id_; }

 private:
  Status status_;
  bool can_respond_;
  u64 request_id_;
};

/// Decoded frame header (payload read separately).
struct Header {
  Kind kind = Kind::kRequest;
  Op op = Op::kCompress;
  u8 sym_width = 1;
  u64 request_id = 0;
  u8 priority = 1;  ///< svc::Priority numeric value
  Status status = Status::kOk;
  u32 payload_len = 0;
  u64 deadline_micros = 0;  ///< relative budget; 0 = none
  /// v3 streaming: the server-assigned stream this Chunk/End frame
  /// belongs to. Shares the offset-24 wire slot with deadline_micros
  /// (is_stream_ref_op decides which one is on the wire); 0 elsewhere.
  u64 stream_id = 0;
};

/// A whole message: header plus owned payload. `h.payload_len` is derived
/// from `payload.size()` when encoding.
struct Frame {
  Header h;
  std::vector<u8> payload;
};

/// The kOk response to `req`: echoes its op, sym_width, request_id and
/// stream_id around `payload`.
[[nodiscard]] Frame ok_frame(const Header& req, std::vector<u8> payload = {});

/// A typed non-kOk response to `req`, addressed like ok_frame(); the
/// message is the payload.
[[nodiscard]] Frame error_frame(const Header& req, Status status,
                                std::string_view message);

/// The wire priority byte as an svc::Priority (values past kHigh clamp).
[[nodiscard]] svc::Priority to_priority(u8 p);

/// The kStats response to request `request_id`: a parhuff-metrics-v1 JSON
/// document named `name` holding the global metrics registry.
[[nodiscard]] Frame stats_frame(u64 request_id, std::string_view name);

/// Payload of a kHealth response: the compact load/liveness snapshot a
/// router's in-band probe consumes. Fixed little-endian layout
/// (kHealthInfoBytes): u32 info_version | u8 accepting | u8[3] reserved |
/// u64 queue_depth | u64 queue_capacity | u64 connections |
/// u64 max_connections. Decoders ignore trailing bytes, so future servers
/// may append fields without breaking old probers.
struct HealthInfo {
  u32 info_version = 1;
  bool accepting = true;    ///< false once the server began shutting down
  u64 queue_depth = 0;      ///< outstanding service requests right now
  u64 queue_capacity = 0;   ///< admission bound (0 = unknown)
  u64 connections = 0;      ///< live transport connections
  u64 max_connections = 0;  ///< accept cap
};

inline constexpr std::size_t kHealthInfoBytes = 40;

[[nodiscard]] std::vector<u8> encode_health_info(const HealthInfo& info);

/// Throws ProtocolError (kBadRequest, can_respond=false) on a short or
/// unversioned payload; trailing bytes beyond the known layout are ignored.
[[nodiscard]] HealthInfo decode_health_info(std::span<const u8> payload);

/// Payload of a *StreamEnd request: what the sender believes it streamed.
/// 16-byte LE layout: u64 total_bytes | u64 checksum, where checksum is
/// stream_checksum() chained over every chunk payload byte in send order
/// (util/hash.hpp). The server verifies both before completing.
struct StreamEndRequest {
  u64 total_bytes = 0;
  u64 checksum = 0;
};

/// Payload of a *StreamEnd kOk response. 24-byte LE layout:
/// u64 bytes_in | u64 bytes_out | u64 checksum (the verified input
/// checksum, echoed).
struct StreamSummary {
  u64 bytes_in = 0;
  u64 bytes_out = 0;
  u64 checksum = 0;
};

inline constexpr std::size_t kStreamEndRequestBytes = 16;
inline constexpr std::size_t kStreamSummaryBytes = 24;

[[nodiscard]] std::vector<u8> encode_stream_end_request(
    const StreamEndRequest& req);
/// Throws ProtocolError (kBadRequest, can_respond=false) on a short
/// payload; trailing bytes are ignored (forward slack).
[[nodiscard]] StreamEndRequest decode_stream_end_request(
    std::span<const u8> payload);

[[nodiscard]] std::vector<u8> encode_stream_summary(const StreamSummary& s);
[[nodiscard]] StreamSummary decode_stream_summary(std::span<const u8> payload);

/// Leading bytes of a kLossyCompress request payload: the quantizer
/// configuration, followed immediately by nx*ny*nz LE f32 samples.
/// 48-byte LE layout: u64 nx | u64 ny | u64 nz | f64 rel_error_bound |
/// f64 abs_error_bound | u32 nbins | u32 rle_min_run. This header is also
/// the router's affinity key for lossy traffic: fields with the same
/// shape and quantizer land on the same shard, so their residual
/// histograms can share its codebook cache.
struct LossyRequestHeader {
  u64 nx = 0;
  u64 ny = 0;
  u64 nz = 0;
  double rel_error_bound = 0;
  double abs_error_bound = 0;
  u32 nbins = 0;
  u32 rle_min_run = 0;
};

/// Leading bytes of a kLossyDecompress kOk response payload: the field's
/// shape and the resolved absolute error bound, followed by nx*ny*nz LE
/// f32 reconstructed samples. 32-byte LE layout: u64 nx | u64 ny | u64 nz
/// | f64 error_bound.
struct LossyFieldHeader {
  u64 nx = 0;
  u64 ny = 0;
  u64 nz = 0;
  double error_bound = 0;
};

inline constexpr std::size_t kLossyRequestHeaderBytes = 48;
inline constexpr std::size_t kLossyFieldHeaderBytes = 32;

[[nodiscard]] std::vector<u8> encode_lossy_request_header(
    const LossyRequestHeader& h);
/// Throws ProtocolError (kBadRequest, can_respond=false) on a short
/// payload; bytes beyond the header belong to the sample stream and are
/// not examined here.
[[nodiscard]] LossyRequestHeader decode_lossy_request_header(
    std::span<const u8> payload);

[[nodiscard]] std::vector<u8> encode_lossy_field_header(
    const LossyFieldHeader& h);
[[nodiscard]] LossyFieldHeader decode_lossy_field_header(
    std::span<const u8> payload);

/// Split a kLossyDecompress kOk response payload into its header and the
/// reconstructed f32 samples. Throws ProtocolError (kBadRequest) when the
/// sample byte count disagrees with the header's dims (overflow-safe — a
/// forged header can never wrap the product into a plausible count).
[[nodiscard]] std::pair<LossyFieldHeader, std::vector<float>>
decode_lossy_field_payload(std::span<const u8> payload);

[[nodiscard]] std::array<u8, kHeaderBytes> encode_header(const Header& h);

/// Header + payload in one contiguous buffer (one write syscall per
/// frame). Throws std::length_error when the payload exceeds
/// `max_payload`.
[[nodiscard]] std::vector<u8> encode_frame(
    const Frame& f, u32 max_payload = kMaxPayloadBytes);

/// Validates magic, version, kind, op, status range and the payload bound.
/// Throws ProtocolError; never reads beyond the 32 bytes.
[[nodiscard]] Header decode_header(
    std::span<const u8, kHeaderBytes> bytes,
    u32 max_payload = kMaxPayloadBytes);

}  // namespace parhuff::rpc
