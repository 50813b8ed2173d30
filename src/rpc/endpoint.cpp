#include "rpc/endpoint.hpp"

#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/fault_inject.hpp"

namespace parhuff::rpc {

void FrameConn::enqueue(std::function<Frame()> slot) {
  {
    std::lock_guard<std::mutex> lock(mu);
    slots_.push_back(std::move(slot));
  }
  cv_.notify_all();
}

void FrameConn::enqueue_ready(Frame f) {
  auto boxed = std::make_shared<Frame>(std::move(f));
  enqueue([boxed]() { return std::move(*boxed); });
}

void FrameConn::reader_finished() {
  {
    std::lock_guard<std::mutex> lock(mu);
    reader_done_ = true;
  }
  cv_.notify_all();
}

FrameEndpoint::FrameEndpoint(std::unique_ptr<Listener> listener,
                             FrameHandler& handler, EndpointConfig cfg)
    : handler_(handler),
      cfg_(std::move(cfg)),
      connections_accepted_(cfg_.counter_prefix + ".connections_accepted"),
      connections_rejected_(cfg_.counter_prefix + ".connections_rejected"),
      requests_received_(cfg_.counter_prefix + ".requests_received"),
      responses_written_(cfg_.counter_prefix + ".responses_written"),
      responses_dropped_(cfg_.counter_prefix + ".responses_dropped"),
      protocol_errors_(cfg_.counter_prefix + ".protocol_errors"),
      protocol_error_responses_(cfg_.counter_prefix +
                                ".protocol_error_responses"),
      fault_accept_(cfg_.fault_prefix + ".accept"),
      fault_read_(cfg_.fault_prefix + ".read"),
      fault_write_(cfg_.fault_prefix + ".write"),
      listener_(std::move(listener)) {
  if (!listener_) {
    throw std::invalid_argument(cfg_.counter_prefix +
                                ": listener must not be null");
  }
  if (cfg_.max_connections == 0) {
    throw std::invalid_argument(cfg_.counter_prefix +
                                ": max_connections must be > 0");
  }
  const int io = cfg_.io_threads > 0
                     ? cfg_.io_threads
                     : static_cast<int>(1 + 2 * cfg_.max_connections);
  io_ = std::make_unique<WorkStealExecutor>(io, cfg_.clock);
  io_->submit([this] { accept_loop(); });
}

FrameEndpoint::~FrameEndpoint() {
  stop();
  io_.reset();  // joins accept/reader/writer tasks
}

void FrameEndpoint::stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    stopping_ = true;
  }
  listener_->close();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& w : conns_) {
      if (std::shared_ptr<FrameConn> c = w.lock()) c->conn->shutdown();
    }
  }
  io_->wait_idle();
}

bool FrameEndpoint::accepting() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return !stopping_;
}

std::size_t FrameEndpoint::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::size_t live = 0;
  for (const auto& w : conns_) {
    if (!w.expired()) ++live;
  }
  return live;
}

void FrameEndpoint::accept_loop() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  for (;;) {
    std::unique_ptr<Connection> accepted;
    try {
      accepted = listener_->accept();
    } catch (...) {
      break;  // listener failed: live connections keep being served
    }
    if (!accepted) break;  // closed

    bool reject = false;
    // Fault site: the connection dies right after accept (e.g. a peer
    // that vanished during the handshake).
    try {
      util::FaultInjector::global().maybe_throw(fault_accept_);
    } catch (...) {
      reject = true;
    }

    std::shared_ptr<FrameConn> c;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      std::erase_if(conns_, [](const std::weak_ptr<FrameConn>& w) {
        return w.expired();
      });
      if (stopping_ || conns_.size() >= cfg_.max_connections) reject = true;
      if (!reject) {
        c = handler_.open_conn();
        c->conn = std::shared_ptr<Connection>(std::move(accepted));
        conns_.push_back(c);
      }
    }
    if (reject) {
      // Counted before the shutdown a peer can observe.
      reg.counter_add(connections_rejected_);
      accepted->shutdown();
      continue;
    }
    reg.counter_add(connections_accepted_);

    // The writer goes first so a reader-submit failure can still unblock
    // it via reader_finished(). Executor-submit faults are transient; a
    // connection that cannot get its tasks scheduled is dropped whole.
    bool writer_up = false;
    try {
      io_->submit([this, c] { writer_loop(c); });
      writer_up = true;
      io_->submit([this, c] { reader_loop(c); });
    } catch (...) {
      c->conn->shutdown();
      if (writer_up) c->reader_finished();
      reg.counter_add(connections_rejected_);
    }
  }
}

void FrameEndpoint::reader_loop(std::shared_ptr<FrameConn> c) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  util::FaultInjector& faults = util::FaultInjector::global();
  for (;;) {
    std::array<u8, kHeaderBytes> hb;
    try {
      // Fault site: the connection dies between frames.
      faults.maybe_throw(fault_read_);
      if (!c->conn->read_exact(hb.data(), kHeaderBytes)) break;
    } catch (...) {
      break;
    }

    Header h;
    try {
      h = decode_header(std::span<const u8, kHeaderBytes>(hb),
                        cfg_.max_payload_bytes);
    } catch (const ProtocolError& e) {
      reg.counter_add(protocol_errors_);
      if (!e.can_respond()) break;  // stream not frame-aligned: drop
      // Stay frame-synced by consuming the declared payload when its
      // length is sane; an oversized declaration is unskippable, so the
      // typed error is the connection's last frame.
      u32 raw_len = 0;
      std::memcpy(&raw_len, hb.data() + 20, sizeof(raw_len));
      const bool resync = raw_len <= cfg_.max_payload_bytes;
      if (resync && raw_len > 0) {
        std::vector<u8> skip(raw_len);
        try {
          if (!c->conn->read_exact(skip.data(), skip.size())) break;
        } catch (...) {
          break;
        }
      }
      reg.counter_add(protocol_error_responses_);
      c->enqueue_ready(error_frame(
          Header{.op = Op::kCompress, .request_id = e.request_id()},
          e.status(), e.what()));
      if (!resync) break;
      continue;
    }

    std::vector<u8> payload(h.payload_len);
    try {
      if (!c->conn->read_exact(payload.data(), payload.size())) break;
    } catch (...) {
      break;
    }

    reg.counter_add(requests_received_);
    if (!handler_.on_frame(*c, h, std::move(payload))) break;
  }
  c->reader_finished();
}

void FrameEndpoint::writer_loop(std::shared_ptr<FrameConn> c) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  util::FaultInjector& faults = util::FaultInjector::global();
  const u32 bound = response_payload_bound(cfg_.max_payload_bytes);
  bool conn_ok = true;
  for (;;) {
    std::function<Frame()> slot;
    {
      std::unique_lock<std::mutex> lock(c->mu);
      c->cv_.wait(lock,
                  [&] { return !c->slots_.empty() || c->reader_done_; });
      if (c->slots_.empty()) break;  // reader done and everything drained
      slot = std::move(c->slots_.front());
      c->slots_.pop_front();
    }
    // Resolving a slot never throws (each slot catches internally) but
    // may block on a future — which always resolves, so every slot
    // drains even after the connection died.
    Frame f = slot();
    if (!conn_ok) {
      reg.counter_add(responses_dropped_);
      continue;
    }
    try {
      // Fault site: the connection dies while a response is in flight.
      faults.maybe_throw(fault_write_);
      try {
        write_frame(*c->conn, f, bound);
      } catch (const std::length_error&) {
        write_frame(*c->conn,
                    error_frame(f.h, Status::kInternal,
                                "response exceeds the frame bound"),
                    bound);
      }
      reg.counter_add(responses_written_);
    } catch (...) {
      conn_ok = false;
      c->conn->shutdown();  // unblocks the reader too
      reg.counter_add(responses_dropped_);
    }
  }
  handler_.on_drained(*c);
  c->conn->shutdown();
}

}  // namespace parhuff::rpc
