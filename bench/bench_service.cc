// Closed-loop throughput bench for the QueryService serving front-end: C
// client threads each submit a query, wait for its response, and immediately
// submit the next one, cycling through the DBLP author workload against one
// shared engine. Reported per series point (and in BENCH_service.json):
//
//   qps       — completed queries per wall-clock second
//   p50_us    — median end-to-end latency (submit → response), microseconds
//   p99_us    — tail latency, microseconds
//   rejected  — admission-queue rejections (kResourceExhausted)
//
// Series: Service/C:<clients>/W:<workers> scales the client count against a
// fixed worker pool (closed-loop saturation; cache bypassed so every query
// actually executes), ServiceOverload drives a one-worker, two-slot queue
// past capacity so the admission path and its rejection counters are
// exercised rather than idle, and ServiceRepeated/cache:{on,off} replays a
// small query set many times to expose the answer cache: with the cache on
// it also reports hit_rate and coalesced, and its p50 against the cache:off
// p50 is the cache-hit vs cache-miss latency gap.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/xkeyword.h"
#include "service/query_service.h"

namespace {

using xk::bench::DblpBench;
using xk::engine::QueryRequest;
using xk::service::MetricsSnapshot;
using xk::service::QueryService;
using xk::service::QueryServiceOptions;

struct LoopSetup {
  int clients = 4;
  int workers = 4;
  size_t queue_capacity = 256;
  int queries_per_client = 40;
  /// Queries cycled per client; 0 = the whole fixture workload.
  size_t distinct_queries = 0;
  xk::engine::CacheMode cache_mode = xk::engine::CacheMode::kBypass;
  /// Per-query deadline (0 = unbounded). Armed at admission, so queue wait
  /// counts against it — the overload-degradation series relies on that.
  std::chrono::milliseconds deadline{0};
};

QueryRequest MakeRequest(const std::vector<std::string>& keywords,
                         const LoopSetup& setup) {
  QueryRequest request;
  request.keywords = keywords;
  request.decomposition = "XKeyword";
  request.options.max_size_z = 6;
  request.options.per_network_k = 10;
  request.cache_mode = setup.cache_mode;
  if (setup.deadline.count() > 0) request.deadline = setup.deadline;
  return request;
}

void BM_ServiceClosedLoop(benchmark::State& state, const LoopSetup& setup) {
  auto& fixture = DblpBench::Get();
  const auto& queries = fixture.queries();

  QueryServiceOptions options;
  options.num_workers = setup.workers;
  options.queue_capacity = setup.queue_capacity;

  const size_t cycle = setup.distinct_queries > 0
                           ? std::min(setup.distinct_queries, queries.size())
                           : queries.size();

  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t degraded = 0, deadline_exceeded = 0;
  uint64_t hits = 0, misses = 0, coalesced = 0;
  double p50 = 0, p99 = 0;
  for (auto _ : state) {
    auto service = QueryService::Create(&fixture.xk(), options).MoveValueUnsafe();
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(setup.clients));
    for (int c = 0; c < setup.clients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < setup.queries_per_client; ++i) {
          auto handle =
              service->Submit(MakeRequest(queries[(c + i) % cycle], setup));
          if (!handle.ok()) continue;  // rejected: counted by the service
          auto response = handle->Wait();
          benchmark::DoNotOptimize(response);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const MetricsSnapshot snap = service->metrics().Snapshot();
    completed += snap.completed_ok;
    rejected += snap.rejected;
    degraded += snap.degraded;
    deadline_exceeded += snap.deadline_exceeded;
    hits += snap.cache_hits;
    misses += snap.cache_misses;
    coalesced += snap.coalesced;
    p50 = snap.latency_p50_us;  // last iteration's distribution
    p99 = snap.latency_p99_us;
  }

  // kIsRate divides by the (real) elapsed benchmark time → queries/second.
  state.counters["qps"] =
      benchmark::Counter(static_cast<double>(completed), benchmark::Counter::kIsRate);
  state.counters["p50_us"] = benchmark::Counter(p50);
  state.counters["p99_us"] = benchmark::Counter(p99);
  state.counters["rejected"] = benchmark::Counter(static_cast<double>(rejected));
  if (setup.deadline.count() > 0) {
    // The overload story: how many deadline-bound queries still delivered a
    // usable (degraded) answer vs. how many tripped at all.
    state.counters["degraded"] =
        benchmark::Counter(static_cast<double>(degraded));
    state.counters["deadline_exceeded"] =
        benchmark::Counter(static_cast<double>(deadline_exceeded));
  }
  if (setup.cache_mode != xk::engine::CacheMode::kBypass) {
    const uint64_t eligible = hits + misses + coalesced;
    state.counters["hit_rate"] = benchmark::Counter(
        eligible > 0 ? static_cast<double>(hits) / static_cast<double>(eligible)
                     : 0.0);
    state.counters["coalesced"] =
        benchmark::Counter(static_cast<double>(coalesced));
  }
  state.SetLabel(std::to_string(setup.clients) + " clients / " +
                 std::to_string(setup.workers) + " workers");
}

void RegisterAll() {
  for (int clients : {1, 4, 8}) {
    LoopSetup setup;
    setup.clients = clients;
    auto* b = benchmark::RegisterBenchmark(
        ("Service/C:" + std::to_string(clients) + "/W:4").c_str(),
        [setup](benchmark::State& state) { BM_ServiceClosedLoop(state, setup); });
    b->Unit(benchmark::kMillisecond);
    b->Iterations(2);
    b->UseRealTime();
  }

  // Overload: more clients than the one worker and two queue slots can hold;
  // the admission queue must shed load (rejected > 0) without stalling.
  LoopSetup overload;
  overload.clients = 8;
  overload.workers = 1;
  overload.queue_capacity = 2;
  overload.queries_per_client = 20;
  auto* b = benchmark::RegisterBenchmark(
      "ServiceOverload/C:8/W:1",
      [overload](benchmark::State& state) { BM_ServiceClosedLoop(state, overload); });
  b->Unit(benchmark::kMillisecond);
  b->Iterations(2);
  b->UseRealTime();

  // Deadline overload: the same saturated one-worker setup, but every query
  // carries a deadline armed at admission. Queue wait eats most of the
  // budget, so late queries degrade: the deadline truncates the size-ordered
  // plan schedule where it trips (structured degraded answers with a
  // coverage bound). The rejected counter stays comparable to
  // ServiceOverload — degradation converts would-be bare timeouts, not
  // admission rejections.
  {
    LoopSetup deadline = overload;
    deadline.deadline = std::chrono::milliseconds(7);
    auto* d = benchmark::RegisterBenchmark(
        "ServiceDeadlineOverload",
        [deadline](benchmark::State& state) {
          BM_ServiceClosedLoop(state, deadline);
        });
    d->Unit(benchmark::kMillisecond);
    d->Iterations(2);
    d->UseRealTime();
  }

  // Repeated workload: 4 clients replay the same 8 queries 100 times each.
  // cache:on serves all but the first occurrence of each query from the
  // answer cache (hit_rate well above 0.9); cache:off (kBypass) executes
  // every one, so its p50 is the cache-miss latency to compare against.
  for (bool cache_on : {true, false}) {
    LoopSetup repeated;
    repeated.clients = 4;
    repeated.workers = 4;
    repeated.queries_per_client = 100;
    repeated.distinct_queries = 8;
    repeated.cache_mode = cache_on ? xk::engine::CacheMode::kDefault
                                   : xk::engine::CacheMode::kBypass;
    auto* r = benchmark::RegisterBenchmark(
        cache_on ? "ServiceRepeated/cache:on" : "ServiceRepeated/cache:off",
        [repeated](benchmark::State& state) {
          BM_ServiceClosedLoop(state, repeated);
        });
    r->Unit(benchmark::kMillisecond);
    r->Iterations(2);
    r->UseRealTime();
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterAll();
  return xk::bench::RunBenchMain("service", argc, argv);
}
