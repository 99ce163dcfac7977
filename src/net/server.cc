#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace xk::net {

namespace {
/// Poll interval of a backpressure-stalled streaming sink: how quickly a
/// deadline or cancel breaks the stall when the writer frees no room.
constexpr std::chrono::milliseconds kStallPoll{20};
}  // namespace

/// One accepted connection. The reader thread owns recv() and all protocol
/// dispatch; the writer thread owns send(); they meet in `mutex` / `cv` over
/// the bounded outbox and the in-flight-query slot.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() {
    if (fd >= 0) close(fd);
  }

  const int fd;
  std::thread reader;
  std::thread writer;

  /// One encoded frame awaiting send. Batch frames count toward the
  /// streamed-results metric; control frames (kError) do not.
  struct OutFrame {
    std::string bytes;
    uint32_t results = 0;
    bool is_batch = false;
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<OutFrame> outbox;
  size_t outbox_bytes = 0;
  /// Immediate teardown (peer gone / server stop): the writer drops the
  /// outbox and exits; sink pushes fail fast.
  bool closed = false;
  /// Graceful teardown (protocol error answered with kError): the reader is
  /// done but the writer still drains the outbox and any pending final
  /// frame before closing the socket.
  bool draining = false;

  // In-flight query slot (at most one per connection).
  bool query_active = false;
  bool have_handle = false;
  bool query_done = false;       // the service's on_done hook fired
  bool query_cancelled = false;  // breaks a sink stalled on backpressure
  uint64_t request_id = 0;
  size_t streamed_results = 0;  // MTTONs already pushed as kBatch frames
  service::QueryHandle handle;
  std::shared_ptr<engine::ResultSink> sink;  // outlives the query with us
};

namespace {

/// The streaming bridge: engine thread in, connection outbox out. Blocks
/// when the outbox is full (backpressure), polling the query's CancelToken
/// and the connection's teardown flags so the stall always breaks. After the
/// first dropped batch it goes silent for good — the frames already pushed
/// stay a prefix of the answer and the kFinal tail carries the rest.
class NetResultSink final : public engine::ResultSink {
 public:
  // Raw pointer, not shared_ptr: the sink is owned by the connection
  // (Connection::sink), so a strong back-reference would be a cycle that
  // leaks both on abrupt teardown. The query's on_done closure holds the
  // connection alive for the whole window in which the engine may call
  // OnBatch, so the pointer cannot dangle.
  NetResultSink(Server::Connection* conn, uint64_t request_id,
                size_t capacity_bytes)
      : conn_(conn),
        request_id_(request_id),
        capacity_bytes_(capacity_bytes) {}

  void OnBatch(std::span<const present::Mtton> batch) override {
    if (broken_ || batch.empty()) return;
    std::string frame = EncodeBatchFrame(request_id_, batch);
    std::unique_lock<std::mutex> lock(conn_->mutex);
    // Admit an oversized frame into an empty outbox rather than spin forever
    // on a bound it can never meet.
    while (!conn_->closed && !conn_->query_cancelled &&
           !conn_->outbox.empty() &&
           conn_->outbox_bytes + frame.size() > capacity_bytes_) {
      if (cancel_token() != nullptr && cancel_token()->StopRequested()) break;
      conn_->cv.wait_for(lock, kStallPoll);
    }
    if (conn_->closed || conn_->query_cancelled ||
        (cancel_token() != nullptr && cancel_token()->StopRequested())) {
      broken_ = true;
      return;
    }
    conn_->outbox_bytes += frame.size();
    conn_->outbox.push_back(Server::Connection::OutFrame{
        std::move(frame), static_cast<uint32_t>(batch.size()), true});
    conn_->streamed_results += batch.size();
    lock.unlock();
    conn_->cv.notify_all();
  }

 private:
  Server::Connection* const conn_;
  const uint64_t request_id_;
  const size_t capacity_bytes_;
  bool broken_ = false;  // engine-thread-only
};

/// Enqueues a control frame (kError), bypassing the capacity bound — control
/// frames are tiny and must not block the reader.
void PushControlFrame(Server::Connection* conn, std::string frame) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    conn->outbox_bytes += frame.size();
    conn->outbox.push_back(
        Server::Connection::OutFrame{std::move(frame), 0, false});
  }
  conn->cv.notify_all();
}

}  // namespace

// --- Lifecycle -------------------------------------------------------------

Result<std::unique_ptr<Server>> Server::Start(service::QueryService* service,
                                              ServerOptions options) {
  if (service == nullptr) return Status::InvalidArgument("null query service");
  XK_RETURN_NOT_OK(options.Validate());

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket: %s", strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::Internal(StrFormat("bind: %s", strerror(errno)));
    close(fd);
    return s;
  }
  if (listen(fd, options.backlog) != 0) {
    const Status s = Status::Internal(StrFormat("listen: %s", strerror(errno)));
    close(fd);
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    const Status s =
        Status::Internal(StrFormat("getsockname: %s", strerror(errno)));
    close(fd);
    return s;
  }
  return std::unique_ptr<Server>(
      new Server(service, options, fd, ntohs(addr.sin_port)));
}

Server::Server(service::QueryService* service, ServerOptions options,
               int listen_fd, uint16_t port)
    : service_(service), options_(options), listen_fd_(listen_fd), port_(port) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

Server::~Server() { Stop(); }

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Wakes the blocked accept(2); further accepts fail and the loop exits.
  shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();

  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (const std::shared_ptr<Connection>& conn : connections) {
    // Severing the socket wakes the reader (EOF -> client-abort teardown,
    // cancelling any in-flight query) and any blocked send in the writer.
    shutdown(conn->fd, SHUT_RDWR);
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->closed = true;
      conn->query_cancelled = true;
    }
    conn->cv.notify_all();
  }
  for (const std::shared_ptr<Connection>& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
  close(listen_fd_);
}

void Server::AcceptLoop() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or fatally broken
    }
    // A streamed reply is a few small frames; without this, Nagle holds each
    // one back until the client acks the previous (a delayed ACK, ~40 ms).
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      close(fd);
      return;
    }
    auto conn = std::make_shared<Connection>(fd);
    connections_.push_back(conn);
    service_->metrics().OnConnectionOpened();
    // Thread starts stay under mutex_ so Stop's join snapshot can never see
    // a registered connection whose threads are not yet running.
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    conn->writer = std::thread([this, conn] { WriterLoop(conn); });
  }
}

// --- Reader ----------------------------------------------------------------

void Server::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  bool graceful = false;  // answered with kError; drain before closing
  std::vector<uint8_t> payload;
  while (true) {
    const Status read = ReadFrame(conn->fd, &payload, options_.max_frame_bytes);
    if (!read.ok()) {
      if (read.IsCorruption()) {
        // Malformed framing is unrecoverable (the stream position is lost):
        // answer once at connection level, then close.
        service_->metrics().OnMalformedFrame();
        PushControlFrame(conn.get(), EncodeErrorFrame(0, read));
        graceful = true;
      }
      break;
    }
    Result<FrameHead> head = DecodeFrameHead(payload);
    if (!head.ok()) {
      service_->metrics().OnMalformedFrame();
      PushControlFrame(conn.get(), EncodeErrorFrame(0, head.status()));
      graceful = true;
      break;
    }
    if (head.value().type == FrameType::kQuery) {
      if (!HandleQuery(conn, head.value().request_id, payload)) {
        graceful = true;
        break;
      }
      continue;
    }
    if (head.value().type == FrameType::kCancel) {
      service::QueryHandle handle;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (!conn->query_active || !conn->have_handle ||
            conn->request_id != head.value().request_id) {
          continue;  // stale cancel (the query already finalized): ignore
        }
        conn->query_cancelled = true;
        handle = conn->handle;
      }
      conn->cv.notify_all();
      handle.Cancel();
      continue;
    }
    // A server->client frame type arriving at the server is a protocol
    // violation.
    service_->metrics().OnMalformedFrame();
    PushControlFrame(
        conn.get(),
        EncodeErrorFrame(head.value().request_id,
                         Status::InvalidArgument("unexpected frame type")));
    graceful = true;
    break;
  }

  // Teardown. A query still in flight means the client walked away from it
  // (or broke protocol): cancel it server-side so it stops burning a worker.
  service::QueryHandle abandoned;
  bool abort = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->query_active && !conn->query_done && conn->have_handle) {
      abort = true;
      abandoned = conn->handle;
    }
    conn->query_cancelled = true;
    if (graceful) {
      conn->draining = true;
    } else {
      conn->closed = true;
    }
  }
  conn->cv.notify_all();
  if (abort) {
    abandoned.Cancel();
    service_->metrics().OnClientAbort();
  }
  service_->metrics().OnConnectionClosed();
}

bool Server::HandleQuery(const std::shared_ptr<Connection>& conn,
                         uint64_t request_id,
                         std::span<const uint8_t> payload) {
  Result<engine::QueryRequest> request = DecodeQueryBody(payload);
  if (!request.ok()) {
    service_->metrics().OnMalformedFrame();
    PushControlFrame(conn.get(), EncodeErrorFrame(request_id, request.status()));
    return false;
  }
  bool busy = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->query_active) {
      // One query at a time per connection; the client must await kFinal.
      // (The frame is pushed after the lock drops: PushControlFrame takes
      // conn->mutex itself.)
      busy = true;
    }
  }
  if (busy) {
    PushControlFrame(
        conn.get(),
        EncodeErrorFrame(request_id, Status::ResourceExhausted(
                                         "a query is already in flight on "
                                         "this connection")));
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->query_active = true;
    conn->have_handle = false;
    conn->query_done = false;
    conn->query_cancelled = false;
    conn->request_id = request_id;
    conn->streamed_results = 0;
    conn->sink = std::make_shared<NetResultSink>(
        conn.get(), request_id, options_.outbox_capacity_bytes);
  }

  service::QueryService::StreamHooks hooks;
  hooks.sink = conn->sink.get();
  // Holds the connection alive until the query completes, even if the
  // client disconnects and the server stops first. NetResultSink's raw
  // back-pointer relies on this: the engine only calls the sink before
  // on_done fires, and this capture is released only after it fires.
  hooks.on_done = [conn] {
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->query_done = true;
    }
    conn->cv.notify_all();
  };
  Result<service::QueryHandle> handle =
      service_->Submit(request.MoveValueUnsafe(), std::move(hooks));
  if (!handle.ok()) {
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->query_active = false;
      conn->sink.reset();
    }
    PushControlFrame(conn.get(), EncodeErrorFrame(request_id, handle.status()));
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->handle = handle.MoveValueUnsafe();
    conn->have_handle = true;
  }
  // on_done may have fired before the handle landed (cache hit completes
  // inside Submit); re-check the writer's wake condition now.
  conn->cv.notify_all();
  return true;
}

// --- Writer ----------------------------------------------------------------

void Server::WriterLoop(const std::shared_ptr<Connection>& conn) {
  std::unique_lock<std::mutex> lock(conn->mutex);
  while (true) {
    conn->cv.wait(lock, [&] {
      return conn->closed || !conn->outbox.empty() ||
             (conn->query_done && conn->have_handle) ||
             (conn->draining && !conn->query_active);
    });
    if (conn->closed) break;

    if (!conn->outbox.empty()) {
      Connection::OutFrame frame = std::move(conn->outbox.front());
      conn->outbox.pop_front();
      conn->outbox_bytes -= frame.bytes.size();
      lock.unlock();
      conn->cv.notify_all();  // freed room: wake a backpressure-stalled sink
      const Status sent = WriteAll(conn->fd, frame.bytes.data(),
                                   frame.bytes.size());
      if (sent.ok() && frame.is_batch) {
        service_->metrics().OnStreamedBatch(frame.results, frame.bytes.size());
      }
      lock.lock();
      if (!sent.ok()) {
        conn->closed = true;  // peer gone: the reader will notice EOF too
        break;
      }
      continue;
    }

    if (conn->query_done && conn->have_handle) {
      // Outbox drained and the query completed: emit the final frame with
      // the MTTON tail the batches did not cover.
      const service::QueryHandle handle = conn->handle;
      const uint64_t request_id = conn->request_id;
      const size_t streamed = conn->streamed_results;
      // Free the slot before the final frame hits the wire: the moment the
      // client sees kFinal it may legally send its next query, and the
      // reader must not find the slot still occupied.
      conn->query_active = false;
      conn->have_handle = false;
      conn->query_done = false;
      conn->handle = service::QueryHandle();
      conn->sink.reset();
      lock.unlock();
      conn->cv.notify_all();
      Result<engine::QueryResponse> result = handle.Wait();  // non-blocking
      const std::string frame =
          result.ok() ? EncodeFinalFrame(request_id, result.value(), streamed)
                      : EncodeErrorFrame(request_id, result.status());
      const Status sent = WriteAll(conn->fd, frame.data(), frame.size());
      lock.lock();
      if (!sent.ok()) {
        conn->closed = true;
        break;
      }
      continue;
    }

    if (conn->draining && !conn->query_active) break;
  }
  lock.unlock();
  conn->cv.notify_all();
  // Sever both directions so the client sees EOF after the drained frames
  // and a reader still blocked in recv() wakes up.
  shutdown(conn->fd, SHUT_RDWR);
}

}  // namespace xk::net
