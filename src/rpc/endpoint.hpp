#pragma once
// The connection engine shared by RpcServer and ShardRouter (docs/rpc.md,
// "Connection engine"). A FrameEndpoint owns the listener, an io
// WorkStealExecutor and the live-connection registry, and runs one accept
// loop plus, per connection, one reader and one writer task:
//
//   reader — reads a header, decodes it against max_payload_bytes, reads
//     the payload and hands the frame to the handler's on_frame(), which
//     enqueues exactly one response slot. A header that parses far enough
//     to address a reply but is invalid (bad version/op/kind, oversized
//     declaration) gets a typed error slot; the reader then skips the
//     declared payload to stay frame-synced, or drops the connection when
//     the declaration is too large to skip. Bad magic drops silently.
//   writer — resolves the slots strictly in FIFO order (one connection =
//     one ordered response stream) and writes each frame under
//     response_payload_bound(max_payload_bytes); a response over the
//     bound is replaced by a typed kInternal. Once the connection dies the
//     remaining slots still resolve and count as dropped. After the reader
//     finished and the last slot resolved, the handler's on_drained() runs,
//     then the connection is shut down.
//
// Every request the reader counts drains exactly one slot, so after stop()
// quiesces:
//   <p>.responses_written + <p>.responses_dropped ==
//       <p>.requests_received + <p>.protocol_error_responses
//
// The endpoint has no behavioural options. It is parameterised only by the
// limits both front ends share and by its names: the counter prefix <p>
// (rpc / router) and the fault-site prefix <f> (rpc.server / router), whose
// <f>.accept, <f>.read and <f>.write sites model the connection dying at
// that point.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rpc/protocol.hpp"
#include "rpc/transport.hpp"
#include "util/clock.hpp"
#include "util/work_steal.hpp"

namespace parhuff::rpc {

/// What one connection's reader and writer share. Handlers derive their
/// per-connection state from it and guard that state with `mu` too.
/// Response slots may hold a raw pointer to the connection state: the
/// writer keeps it alive for as long as any slot exists.
class FrameConn {
 public:
  virtual ~FrameConn() = default;

  /// Append one response slot. Slots resolve strictly in FIFO order on
  /// the writer task and must not throw; a slot may block on a future
  /// that always resolves.
  void enqueue(std::function<Frame()> slot);
  /// Append an already-built response.
  void enqueue_ready(Frame f);

  std::shared_ptr<Connection> conn;
  std::mutex mu;

 private:
  friend class FrameEndpoint;
  void reader_finished();

  std::condition_variable cv_;
  std::deque<std::function<Frame()>> slots_;  // under mu
  bool reader_done_ = false;                  // under mu
};

/// The per-frame half of a front end.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  /// Fresh state for a just-accepted connection.
  [[nodiscard]] virtual std::shared_ptr<FrameConn> open_conn() = 0;
  /// One well-formed frame, on the connection's reader task. Enqueues
  /// exactly one response slot; returns false to drop the connection.
  virtual bool on_frame(FrameConn& conn, const Header& h,
                        std::vector<u8> payload) = 0;
  /// On the writer task, after the last slot resolved and before the
  /// endpoint shuts the connection: settle what died with it.
  virtual void on_drained(FrameConn& conn) = 0;
};

struct EndpointConfig {
  std::size_t max_connections = 8;
  /// Request frame bound; responses get response_payload_bound() of it.
  u32 max_payload_bytes = kMaxPayloadBytes;
  /// 0 → 1 + 2 * max_connections: accept plus a reader and a writer per
  /// connection, all long-running, so the pool must hold them all.
  int io_threads = 0;
  /// Drives the io pool's idle park. nullptr = real clock.
  const util::Clock* clock = nullptr;
  std::string counter_prefix;  ///< "rpc" or "router"
  std::string fault_prefix;    ///< "rpc.server" or "router"
};

class FrameEndpoint {
 public:
  /// Starts accepting immediately. `handler` must outlive the endpoint.
  /// Throws std::invalid_argument on a null listener or max_connections 0.
  FrameEndpoint(std::unique_ptr<Listener> listener, FrameHandler& handler,
                EndpointConfig cfg);
  /// stop(), then joins the io tasks.
  ~FrameEndpoint();
  FrameEndpoint(const FrameEndpoint&) = delete;
  FrameEndpoint& operator=(const FrameEndpoint&) = delete;

  /// Stop accepting, shut every live connection down, drain the io pool.
  /// Idempotent. Slots still resolve; their responses count as dropped
  /// when the connection is gone.
  void stop();

  /// False once stop() began.
  [[nodiscard]] bool accepting() const;
  /// Live connections right now.
  [[nodiscard]] std::size_t connection_count() const;

 private:
  void accept_loop();
  void reader_loop(std::shared_ptr<FrameConn> c);
  void writer_loop(std::shared_ptr<FrameConn> c);

  FrameHandler& handler_;
  const EndpointConfig cfg_;
  // Metric and fault-site names, built once from the prefixes.
  const std::string connections_accepted_, connections_rejected_,
      requests_received_, responses_written_, responses_dropped_,
      protocol_errors_, protocol_error_responses_;
  const std::string fault_accept_, fault_read_, fault_write_;
  std::unique_ptr<Listener> listener_;

  mutable std::mutex conns_mu_;
  std::vector<std::weak_ptr<FrameConn>> conns_;  // under conns_mu_
  bool stopping_ = false;                        // under conns_mu_

  /// Declared last: destroyed first, joining the io tasks while the
  /// registry they touch is still alive.
  std::unique_ptr<WorkStealExecutor> io_;
};

}  // namespace parhuff::rpc
