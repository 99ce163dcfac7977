// Tests for the socket serving front-end (net::Server / net::Client): wire
// round-trips, the streamed-vs-in-process differential matrix (byte-identical
// responses), mid-stream client disconnect cancelling the server-side query,
// protocol cancel frames, malformed-frame rejection, and backpressure
// bookkeeping in the metrics registry.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/dblp_gen.h"
#include "engine/xkeyword.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "test_util.h"

namespace xk::net {
namespace {

using engine::Completeness;
using engine::QueryMode;
using engine::QueryRequest;
using engine::QueryResponse;
using service::MetricsSnapshot;
using service::QueryService;
using std::chrono::milliseconds;

// --- Wire round-trips (no server needed) ----------------------------------

std::span<const uint8_t> PayloadOf(const std::string& frame) {
  // Strip the 4-byte length prefix EncodeXxxFrame produced.
  return std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(frame.data()) + 4, frame.size() - 4);
}

present::Mtton MakeMtton(int ctssn_index, int score,
                         std::initializer_list<storage::ObjectId> objects) {
  present::Mtton m;
  m.ctssn_index = ctssn_index;
  m.score = score;
  m.objects = objects;
  return m;
}

/// A query whose every wire field differs from its default.
QueryRequest NonDefaultRequest() {
  QueryRequest request;
  request.keywords = {"john", "vcr", "john"};
  request.decomposition = "XKeyword";
  request.mode = QueryMode::kAll;
  request.deadline = milliseconds(250);
  request.cache_mode = engine::CacheMode::kRefresh;
  engine::QueryOptions& o = request.options;
  o.max_size_z = 5;
  o.max_network_size = 4;
  o.per_network_k = 7;
  o.global_k = 11;
  o.enable_cache = false;
  o.cache_capacity = 99;
  o.num_threads = 3;
  o.enable_semijoin_pruning = false;
  o.enable_subplan_reuse = false;
  o.subplan_cache_budget_bytes = 12345;
  o.cost_ordered_scheduling = false;
  o.full_mode = engine::FullMode::kHashJoin;
  o.enable_scan_reuse = false;
  o.enable_anytime = false;
  o.anytime_cost_budget = 123.5;
  o.anytime_headroom = 2.5;
  o.anytime_min_plan_rows = 77;
  return request;
}

/// A response whose status, coverage and every wire stat are non-default.
QueryResponse NonDefaultResponse(const std::vector<present::Mtton>& mttons) {
  QueryResponse response;
  response.status = Status::DeadlineExceeded("deadline exceeded");
  response.mttons = mttons;
  response.completeness = Completeness::kDegraded;
  response.coverage.cns_executed = 4;
  response.coverage.cns_skipped = 2;
  response.coverage.exhausted_class = 1;
  response.coverage.interrupted = true;
  response.coverage.deadline_limited = true;
  engine::ExecutionStats& s = response.stats;
  s.probes.probes = 100;
  s.probes.rows_scanned = 101;
  s.probes.rows_matched = 102;
  s.probes.bloom_skips = 103;
  s.cache_hits = 104;
  s.cache_misses = 105;
  s.results = 3;
  s.reuse_hits = 106;
  s.reuse_misses = 107;
  s.bloom_build_rows = 108;
  s.subplan_hits = 5;
  s.subplan_misses = 109;
  s.subplan_bytes = 110;
  s.dedup_saved_rows = 111;
  return response;
}

const std::vector<present::Mtton>& SampleMttons() {
  static const std::vector<present::Mtton> mttons = {
      MakeMtton(0, 1, {3, 5}),
      MakeMtton(2, 1, {7}),
      MakeMtton(1, 3, {9, 11, 13}),
  };
  return mttons;
}

TEST(WireTest, QueryFrameRoundTrip) {
  const QueryRequest request = NonDefaultRequest();
  const std::string frame = EncodeQueryFrame(42, request);
  XK_ASSERT_OK_AND_ASSIGN(const FrameHead head,
                          DecodeFrameHead(PayloadOf(frame)));
  EXPECT_EQ(head.type, FrameType::kQuery);
  EXPECT_EQ(head.request_id, 42u);

  XK_ASSERT_OK_AND_ASSIGN(const QueryRequest decoded,
                          DecodeQueryBody(PayloadOf(frame)));
  EXPECT_EQ(decoded.keywords, request.keywords);
  EXPECT_EQ(decoded.decomposition, request.decomposition);
  EXPECT_EQ(decoded.mode, request.mode);
  EXPECT_EQ(decoded.deadline, request.deadline);
  EXPECT_EQ(decoded.cache_mode, request.cache_mode);
  const engine::QueryOptions& want = request.options;
  const engine::QueryOptions& got = decoded.options;
  EXPECT_EQ(got.max_size_z, want.max_size_z);
  EXPECT_EQ(got.max_network_size, want.max_network_size);
  EXPECT_EQ(got.per_network_k, want.per_network_k);
  EXPECT_EQ(got.global_k, want.global_k);
  EXPECT_EQ(got.enable_cache, want.enable_cache);
  EXPECT_EQ(got.cache_capacity, want.cache_capacity);
  EXPECT_EQ(got.num_threads, want.num_threads);
  EXPECT_EQ(got.enable_semijoin_pruning, want.enable_semijoin_pruning);
  EXPECT_EQ(got.enable_subplan_reuse, want.enable_subplan_reuse);
  EXPECT_EQ(got.subplan_cache_budget_bytes, want.subplan_cache_budget_bytes);
  EXPECT_EQ(got.cost_ordered_scheduling, want.cost_ordered_scheduling);
  EXPECT_EQ(got.full_mode, want.full_mode);
  EXPECT_EQ(got.enable_scan_reuse, want.enable_scan_reuse);
  EXPECT_EQ(got.enable_anytime, want.enable_anytime);
  EXPECT_EQ(got.anytime_cost_budget, want.anytime_cost_budget);
  EXPECT_EQ(got.anytime_headroom, want.anytime_headroom);
  EXPECT_EQ(got.anytime_min_plan_rows, want.anytime_min_plan_rows);
}

TEST(WireTest, BatchAndFinalFrameRoundTrip) {
  const std::vector<present::Mtton>& mttons = SampleMttons();
  const std::string batch = EncodeBatchFrame(9, mttons);
  XK_ASSERT_OK_AND_ASSIGN(const std::vector<present::Mtton> decoded_batch,
                          DecodeBatchBody(PayloadOf(batch)));
  EXPECT_EQ(decoded_batch, mttons);

  const QueryResponse response = NonDefaultResponse(mttons);
  // tail_start = 2: the final frame ships only the last result.
  const std::string final_frame = EncodeFinalFrame(9, response, 2);
  XK_ASSERT_OK_AND_ASSIGN(const FrameHead head,
                          DecodeFrameHead(PayloadOf(final_frame)));
  EXPECT_EQ(head.type, FrameType::kFinal);
  XK_ASSERT_OK_AND_ASSIGN(const FinalBody body,
                          DecodeFinalBody(PayloadOf(final_frame)));
  EXPECT_EQ(body.tail_start, 2u);
  ASSERT_EQ(body.response.mttons.size(), 1u);
  EXPECT_EQ(body.response.mttons[0], mttons[2]);
  EXPECT_TRUE(body.response.status.IsDeadlineExceeded());
  EXPECT_EQ(body.response.status.message(), "deadline exceeded");
  EXPECT_EQ(body.response.completeness, Completeness::kDegraded);
  EXPECT_EQ(body.response.coverage.cns_executed, 4u);
  EXPECT_EQ(body.response.coverage.cns_skipped, 2u);
  EXPECT_EQ(body.response.coverage.exhausted_class, 1);
  EXPECT_TRUE(body.response.coverage.interrupted);
  EXPECT_TRUE(body.response.coverage.deadline_limited);
  const engine::ExecutionStats& want = response.stats;
  const engine::ExecutionStats& got = body.response.stats;
  EXPECT_EQ(got.probes.probes, want.probes.probes);
  EXPECT_EQ(got.probes.rows_scanned, want.probes.rows_scanned);
  EXPECT_EQ(got.probes.rows_matched, want.probes.rows_matched);
  EXPECT_EQ(got.probes.bloom_skips, want.probes.bloom_skips);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cache_misses, want.cache_misses);
  EXPECT_EQ(got.results, want.results);
  EXPECT_EQ(got.reuse_hits, want.reuse_hits);
  EXPECT_EQ(got.reuse_misses, want.reuse_misses);
  EXPECT_EQ(got.bloom_build_rows, want.bloom_build_rows);
  EXPECT_EQ(got.subplan_hits, want.subplan_hits);
  EXPECT_EQ(got.subplan_misses, want.subplan_misses);
  EXPECT_EQ(got.subplan_bytes, want.subplan_bytes);
  EXPECT_EQ(got.dedup_saved_rows, want.dedup_saved_rows);
}

TEST(WireTest, EveryTruncationIsCorruption) {
  // Every strict prefix of a body — cut inside the head, a string, a count
  // or an mtton's object list — must decode to Corruption: no crash, no
  // allocation sized by a count the bytes cannot back.
  const std::string query_frame = EncodeQueryFrame(3, NonDefaultRequest());
  const auto query = PayloadOf(query_frame);
  for (size_t n = 0; n < query.size(); ++n) {
    EXPECT_TRUE(DecodeQueryBody(query.first(n)).status().IsCorruption())
        << "query prefix " << n << " of " << query.size();
  }
  const std::string final_frame =
      EncodeFinalFrame(3, NonDefaultResponse(SampleMttons()), 0);
  const auto final_body = PayloadOf(final_frame);
  for (size_t n = 0; n < final_body.size(); ++n) {
    EXPECT_TRUE(DecodeFinalBody(final_body.first(n)).status().IsCorruption())
        << "final prefix " << n << " of " << final_body.size();
  }
}

TEST(WireTest, ErrorFrameRoundTrip) {
  const std::string frame =
      EncodeErrorFrame(7, Status::ResourceExhausted("queue full"));
  XK_ASSERT_OK_AND_ASSIGN(const FrameHead head,
                          DecodeFrameHead(PayloadOf(frame)));
  EXPECT_EQ(head.type, FrameType::kError);
  EXPECT_EQ(head.request_id, 7u);
  Status error;
  XK_ASSERT_OK(DecodeErrorBody(PayloadOf(frame), &error));
  EXPECT_TRUE(error.IsResourceExhausted());
  EXPECT_EQ(error.message(), "queue full");
}

TEST(WireTest, MalformedPayloadsRejected) {
  // Empty payload: no head.
  EXPECT_TRUE(DecodeFrameHead({}).status().IsCorruption());
  // Unknown frame type.
  std::vector<uint8_t> bogus(9, 0);
  bogus[0] = 99;
  EXPECT_TRUE(DecodeFrameHead(bogus).status().IsCorruption());
  // A query frame truncated mid-body.
  QueryRequest request;
  request.keywords = {"a", "b"};
  request.decomposition = "XKeyword";
  const std::string frame = EncodeQueryFrame(1, request);
  const auto payload = PayloadOf(frame);
  EXPECT_TRUE(
      DecodeQueryBody(payload.subspan(0, payload.size() - 5)).status()
          .IsCorruption());
  // Trailing garbage after a well-formed body.
  std::vector<uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  EXPECT_TRUE(DecodeQueryBody(padded).status().IsCorruption());
}

// --- Server fixture --------------------------------------------------------

/// DBLP instance shared by every server test; sized like service_test's so
/// an unbounded naive query runs long enough to cancel mid-flight.
class NetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::DblpConfig config;
    config.num_conferences = 8;
    config.years_per_conference = 5;
    config.avg_papers_per_year = 18;
    config.avg_citations_per_paper = 12.0;
    config.author_vocab = 150;
    config.title_vocab = 150;
    config.seed = 2003;
    db_ = datagen::DblpDatabase::Generate(config).MoveValueUnsafe().release();
    xk_ = engine::XKeyword::Load(&db_->graph(), &db_->schema(), &db_->tss())
              .MoveValueUnsafe()
              .release();
    ASSERT_TRUE(xk_->AddDecomposition(
                       decomp::MakeXKeyword(db_->tss(), /*B=*/2, /*M=*/6)
                           .MoveValueUnsafe())
                    .ok());
  }

  static void TearDownTestSuite() {
    delete xk_;
    xk_ = nullptr;
    delete db_;
    db_ = nullptr;
  }

  void StartServing(service::QueryServiceOptions service_options = {},
                    ServerOptions server_options = {}) {
    service_ = QueryService::Create(xk_, service_options).MoveValueUnsafe();
    server_ = Server::Start(service_.get(), server_options).MoveValueUnsafe();
  }

  Client MustConnect() {
    return Client::Connect(server_->port()).MoveValueUnsafe();
  }

  static QueryRequest Cheap(const std::vector<std::string>& keywords) {
    QueryRequest request;
    request.keywords = keywords;
    request.decomposition = "XKeyword";
    request.options.max_size_z = 4;
    request.options.per_network_k = 3;
    return request;
  }

  /// Long-running: the naive executor over the full network space.
  static QueryRequest Expensive() {
    QueryRequest request;
    request.keywords = {"gray", "codd"};
    request.decomposition = "XKeyword";
    request.mode = QueryMode::kNaive;
    request.options.max_size_z = 6;
    request.options.per_network_k = 1000000;
    return request;
  }

  /// Long-running top-k whose small size classes finish (and stream) early.
  static QueryRequest ExpensiveStreaming() {
    QueryRequest request = Expensive();
    request.mode = QueryMode::kTopK;
    return request;
  }

  template <typename Predicate>
  static bool SpinUntil(Predicate predicate,
                        milliseconds budget = milliseconds(10000)) {
    const auto give_up = std::chrono::steady_clock::now() + budget;
    while (!predicate()) {
      if (std::chrono::steady_clock::now() >= give_up) return false;
      std::this_thread::sleep_for(milliseconds(2));
    }
    return predicate();
  }

  static void ExpectSameResponse(const QueryResponse& streamed,
                                 const QueryResponse& direct) {
    EXPECT_EQ(streamed.status.code(), direct.status.code());
    EXPECT_EQ(streamed.completeness, direct.completeness);
    EXPECT_EQ(streamed.coverage.cns_executed, direct.coverage.cns_executed);
    EXPECT_EQ(streamed.coverage.cns_skipped, direct.coverage.cns_skipped);
    EXPECT_EQ(streamed.coverage.exhausted_class,
              direct.coverage.exhausted_class);
    EXPECT_EQ(streamed.stats.results, direct.stats.results);
    ASSERT_EQ(streamed.mttons.size(), direct.mttons.size());
    for (size_t i = 0; i < direct.mttons.size(); ++i) {
      EXPECT_EQ(streamed.mttons[i], direct.mttons[i]) << "result " << i;
    }
  }

  static datagen::DblpDatabase* db_;
  static engine::XKeyword* xk_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<Server> server_;
};

datagen::DblpDatabase* NetTest::db_ = nullptr;
engine::XKeyword* NetTest::xk_ = nullptr;

// --- Differential matrix: streamed == in-process --------------------------

TEST_F(NetTest, StreamedResponsesMatchInProcessSubmit) {
  StartServing();
  Client client = MustConnect();

  std::vector<QueryRequest> matrix;
  for (QueryMode mode : {QueryMode::kTopK, QueryMode::kNaive, QueryMode::kAll}) {
    for (size_t global_k : {size_t{0}, size_t{7}}) {
      QueryRequest request;
      request.keywords = {"gray", "codd"};
      request.decomposition = "XKeyword";
      request.mode = mode;
      // Both sides execute for real: no cache, no coalescing.
      request.cache_mode = engine::CacheMode::kBypass;
      request.options.max_size_z = 5;
      request.options.per_network_k = 5;
      request.options.global_k = global_k;
      matrix.push_back(request);
    }
  }
  // The cost-unordered legacy schedule and direct execution without subplan
  // reuse exercise the streamer's other hook sites.
  QueryRequest legacy_order = matrix[0];
  legacy_order.options.cost_ordered_scheduling = false;
  matrix.push_back(legacy_order);
  QueryRequest no_reuse = matrix[0];
  no_reuse.options.enable_subplan_reuse = false;
  matrix.push_back(no_reuse);

  for (size_t i = 0; i < matrix.size(); ++i) {
    SCOPED_TRACE("combo " + std::to_string(i));
    std::vector<std::vector<present::Mtton>> batches;
    XK_ASSERT_OK_AND_ASSIGN(const QueryResponse streamed,
                            client.Run(matrix[i], &batches));
    XK_ASSERT_OK_AND_ASSIGN(service::QueryHandle handle,
                            service_->Submit(matrix[i]));
    XK_ASSERT_OK_AND_ASSIGN(const QueryResponse direct, handle.Wait());
    ExpectSameResponse(streamed, direct);
    // Client::Run already checked concat(batches) is the response prefix via
    // the final frame's tail_start; spot-check the batch bookkeeping here.
    size_t streamed_results = 0;
    for (const auto& b : batches) streamed_results += b.size();
    EXPECT_LE(streamed_results, streamed.mttons.size());
  }

  const MetricsSnapshot snap = service_->metrics().Snapshot();
  EXPECT_EQ(snap.malformed_frames, 0u);
  EXPECT_EQ(snap.client_aborts, 0u);
  EXPECT_EQ(snap.peak_connections, 1);
}

TEST_F(NetTest, TopKStreamsBatchesAheadOfFinalFrame) {
  StartServing();
  Client client = MustConnect();
  // Unbounded top-k over every size class: small classes finalize (and
  // stream) while larger ones still run.
  QueryRequest request = ExpensiveStreaming();
  request.cache_mode = engine::CacheMode::kBypass;
  std::vector<std::vector<present::Mtton>> batches;
  XK_ASSERT_OK_AND_ASSIGN(const QueryResponse response,
                          client.Run(request, &batches));
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_FALSE(batches.empty());
  size_t streamed = 0;
  for (const auto& b : batches) {
    EXPECT_FALSE(b.empty());
    streamed += b.size();
  }
  EXPECT_GT(streamed, 0u);
  EXPECT_LE(streamed, response.mttons.size());

  const MetricsSnapshot snap = service_->metrics().Snapshot();
  EXPECT_GE(snap.streamed_batches, batches.size());
  EXPECT_GE(snap.streamed_results, streamed);
  EXPECT_GT(snap.streamed_bytes, 0u);
}

TEST_F(NetTest, SequentialQueriesShareOneConnection) {
  StartServing();
  Client client = MustConnect();
  for (const auto& keywords : std::vector<std::vector<std::string>>{
           {"gray", "codd"}, {"sigmod"}, {"gray", "codd"}}) {
    QueryRequest request = Cheap(keywords);
    XK_ASSERT_OK_AND_ASSIGN(const QueryResponse streamed, client.Run(request));
    XK_ASSERT_OK_AND_ASSIGN(service::QueryHandle handle,
                            service_->Submit(request));
    XK_ASSERT_OK_AND_ASSIGN(const QueryResponse direct, handle.Wait());
    ExpectSameResponse(streamed, direct);
  }
  // The third request hit the answer cache (populated by the first): served
  // whole through the final frame, still byte-identical.
  EXPECT_GE(service_->metrics().cache_hits(), 1u);
}

TEST_F(NetTest, AcceptedSocketsDisableNagle) {
  StartServing();
  Client client = MustConnect();
  // One round trip guarantees the server has accepted the connection.
  XK_ASSERT_OK(client.Run(Cheap({"gray", "codd"})).status());
  // The server lives in this process: its accepted sockets are the
  // non-listening TCP sockets bound to the server's port.
  int accepted = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename().string());
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
        addr.sin_family != AF_INET || ntohs(addr.sin_port) != server_->port()) {
      continue;
    }
    int listening = 0;
    len = sizeof(listening);
    ASSERT_EQ(getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening, &len), 0);
    if (listening != 0) continue;
    int nodelay = 0;
    len = sizeof(nodelay);
    ASSERT_EQ(getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
    EXPECT_NE(nodelay, 0) << "accepted socket fd " << fd;
    ++accepted;
  }
  EXPECT_EQ(accepted, 1);
}

// --- Cancellation paths ----------------------------------------------------

TEST_F(NetTest, CancelFrameStopsServerQuery) {
  StartServing();
  Client client = MustConnect();
  XK_ASSERT_OK_AND_ASSIGN(const uint64_t request_id,
                          client.SendQuery(Expensive()));
  ASSERT_TRUE(SpinUntil([&] { return service_->metrics().in_flight() == 1; }));
  XK_ASSERT_OK(client.SendCancel(request_id));

  // The final frame arrives with the cancelled outcome and whatever partial
  // results the executor had.
  while (true) {
    XK_ASSERT_OK_AND_ASSIGN(const Client::Event event, client.ReadEvent());
    if (event.kind == Client::Event::Kind::kBatch) continue;
    ASSERT_EQ(event.kind, Client::Event::Kind::kFinal);
    EXPECT_EQ(event.request_id, request_id);
    EXPECT_TRUE(event.response.status.IsCancelled())
        << event.response.status.ToString();
    EXPECT_NE(event.response.completeness, Completeness::kComplete);
    break;
  }
  // The worker is free again; the connection keeps serving.
  ASSERT_TRUE(SpinUntil([&] { return service_->metrics().in_flight() == 0; }));
  XK_ASSERT_OK_AND_ASSIGN(const QueryResponse after,
                          client.Run(Cheap({"gray", "codd"})));
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(service_->metrics().client_aborts(), 0u);
}

TEST_F(NetTest, ClientDisconnectMidQueryCancelsServerSide) {
  StartServing();
  {
    Client client = MustConnect();
    XK_ASSERT_OK(client.SendQuery(Expensive()).status());
    ASSERT_TRUE(
        SpinUntil([&] { return service_->metrics().in_flight() == 1; }));
    // Hang up with the query running: destroying the client severs the
    // connection without reading a single response frame.
  }
  // The reader's EOF turns into a cooperative cancel: the worker frees up
  // (no leaked in-flight query) and the abort is counted.
  ASSERT_TRUE(SpinUntil([&] {
    const MetricsSnapshot snap = service_->metrics().Snapshot();
    return snap.client_aborts == 1 && snap.in_flight == 0 &&
           snap.cancelled >= 1 && snap.active_connections == 0;
  }));
  // The service survives to serve the next connection.
  Client again = MustConnect();
  XK_ASSERT_OK_AND_ASSIGN(const QueryResponse response,
                          again.Run(Cheap({"gray", "codd"})));
  EXPECT_TRUE(response.status.ok());
}

TEST_F(NetTest, ClientDisconnectMidStreamCancelsServerSide) {
  StartServing();
  {
    Client client = MustConnect();
    QueryRequest request = ExpensiveStreaming();
    request.cache_mode = engine::CacheMode::kBypass;
    XK_ASSERT_OK(client.SendQuery(request).status());
    // Wait for the first streamed batch — proof the query is mid-stream —
    // then vanish without reading the rest.
    XK_ASSERT_OK_AND_ASSIGN(const Client::Event event, client.ReadEvent());
    ASSERT_EQ(event.kind, Client::Event::Kind::kBatch);
    EXPECT_FALSE(event.batch.empty());
  }
  ASSERT_TRUE(SpinUntil([&] {
    const MetricsSnapshot snap = service_->metrics().Snapshot();
    return snap.client_aborts == 1 && snap.in_flight == 0 &&
           snap.active_connections == 0;
  }));
  const MetricsSnapshot snap = service_->metrics().Snapshot();
  // The abandoned query finished degraded-or-cancelled, never complete.
  EXPECT_GE(snap.cancelled, 1u);
  EXPECT_GT(snap.streamed_results, 0u);
}

// --- Protocol robustness ---------------------------------------------------

TEST_F(NetTest, SecondQueryWhileInFlightIsRejected) {
  StartServing();
  Client client = MustConnect();
  XK_ASSERT_OK_AND_ASSIGN(const uint64_t first, client.SendQuery(Expensive()));
  ASSERT_TRUE(SpinUntil([&] { return service_->metrics().in_flight() == 1; }));
  XK_ASSERT_OK_AND_ASSIGN(const uint64_t second,
                          client.SendQuery(Cheap({"sigmod"})));

  bool saw_rejection = false;
  bool saw_final = false;
  XK_ASSERT_OK(client.SendCancel(first));
  while (!saw_rejection || !saw_final) {
    XK_ASSERT_OK_AND_ASSIGN(const Client::Event event, client.ReadEvent());
    if (event.kind == Client::Event::Kind::kError) {
      EXPECT_EQ(event.request_id, second);
      EXPECT_TRUE(event.error.IsResourceExhausted())
          << event.error.ToString();
      saw_rejection = true;
    } else if (event.kind == Client::Event::Kind::kFinal) {
      EXPECT_EQ(event.request_id, first);
      saw_final = true;
    }
  }
  // The connection survives the rejection.
  XK_ASSERT_OK_AND_ASSIGN(const QueryResponse after,
                          client.Run(Cheap({"gray", "codd"})));
  EXPECT_TRUE(after.status.ok());
}

/// Raw-socket helper for protocol-violation tests: Client refuses to send
/// malformed bytes, so speak to the port directly.
int RawConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  return fd;
}

TEST_F(NetTest, OversizedFramePrefixRejectedCleanly) {
  ServerOptions server_options;
  server_options.max_frame_bytes = 1 << 16;
  StartServing({}, server_options);
  const int fd = RawConnect(server_->port());
  // Length prefix far beyond the configured bound; the server must reject
  // it before allocating, answer kError, and close.
  const uint32_t huge = (1u << 20);
  ASSERT_TRUE(WriteAll(fd, &huge, sizeof(huge)).ok());
  std::vector<uint8_t> payload;
  XK_ASSERT_OK(ReadFrame(fd, &payload));
  XK_ASSERT_OK_AND_ASSIGN(const FrameHead head, DecodeFrameHead(payload));
  EXPECT_EQ(head.type, FrameType::kError);
  EXPECT_EQ(head.request_id, 0u);  // connection-level fault
  Status error;
  XK_ASSERT_OK(DecodeErrorBody(payload, &error));
  EXPECT_TRUE(error.IsCorruption()) << error.ToString();
  // Then EOF: the server closed the connection.
  EXPECT_TRUE(ReadFrame(fd, &payload).IsAborted());
  close(fd);
  ASSERT_TRUE(SpinUntil([&] {
    return service_->metrics().Snapshot().active_connections == 0;
  }));
  EXPECT_EQ(service_->metrics().Snapshot().malformed_frames, 1u);
}

TEST_F(NetTest, GarbageQueryBodyRejectedCleanly) {
  StartServing();
  const int fd = RawConnect(server_->port());
  // Well-framed but undecodable: a kQuery head followed by garbage.
  std::string frame;
  const uint32_t length = 9 + 4;
  frame.append(reinterpret_cast<const char*>(&length), 4);
  frame.push_back(static_cast<char>(FrameType::kQuery));
  const uint64_t request_id = 5;
  frame.append(reinterpret_cast<const char*>(&request_id), 8);
  const uint32_t bogus_keyword_count = 0xffffffff;
  frame.append(reinterpret_cast<const char*>(&bogus_keyword_count), 4);
  ASSERT_TRUE(WriteAll(fd, frame.data(), frame.size()).ok());

  std::vector<uint8_t> payload;
  XK_ASSERT_OK(ReadFrame(fd, &payload));
  XK_ASSERT_OK_AND_ASSIGN(const FrameHead head, DecodeFrameHead(payload));
  EXPECT_EQ(head.type, FrameType::kError);
  EXPECT_EQ(head.request_id, 5u);  // echoed from the rejected query
  EXPECT_TRUE(ReadFrame(fd, &payload).IsAborted());
  close(fd);
  ASSERT_TRUE(SpinUntil([&] {
    return service_->metrics().Snapshot().active_connections == 0;
  }));
  EXPECT_EQ(service_->metrics().Snapshot().malformed_frames, 1u);
  // No query ever started, so nothing was cancelled or leaked.
  EXPECT_EQ(service_->metrics().in_flight(), 0);
}

TEST_F(NetTest, ServerStopSeversLiveConnections) {
  StartServing();
  Client idle = MustConnect();
  Client busy = MustConnect();
  XK_ASSERT_OK(busy.SendQuery(Expensive()).status());
  ASSERT_TRUE(SpinUntil([&] { return service_->metrics().in_flight() == 1; }));
  ASSERT_TRUE(SpinUntil([&] {
    return service_->metrics().Snapshot().active_connections == 2;
  }));

  server_->Stop();  // joins every connection thread
  // The in-flight query was cancelled through the abort path; the clients
  // observe EOF.
  ASSERT_TRUE(SpinUntil([&] {
    const MetricsSnapshot snap = service_->metrics().Snapshot();
    return snap.in_flight == 0 && snap.active_connections == 0;
  }));
  EXPECT_TRUE(idle.ReadEvent().status().IsAborted());
  EXPECT_EQ(service_->metrics().Snapshot().peak_connections, 2);
}

}  // namespace
}  // namespace xk::net
