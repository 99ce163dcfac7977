// Copyright (c) the XKeyword authors.
//
// xkbench: the end-to-end benchmark program behind perfbench/run.py.
//
//   xkbench --workload <topk_mem|all_mem|topk_disk|service_net> --seed <n>
//           --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// One invocation builds the DblpBench default-scale database, draws the
// workload's queries from --seed, checks every distinct query's answer
// against an oracle, and then either
//   --trace 0: runs the untraced closed loop for --seconds and reports the
//              end-to-end metrics (setup_s, p50_ms, p95_ms, qps, rss_mb), or
//   --trace 1: runs one untraced and one traced phase over a fixed request
//              sequence and reports the per-layer metrics. Layers are timed
//              from outside: the traced run makes the same public calls that
//              XKeyword::Prepare and XKeyword::Run chain together, with a
//              span around each.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. perfbench/README.md explains the workloads and the metrics.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cn/cn_generator.h"
#include "cn/ctssn.h"
#include "datagen/dblp_gen.h"
#include "decomp/decomposition.h"
#include "engine/full_executor.h"
#include "engine/topk_executor.h"
#include "engine/xkeyword.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "opt/optimizer.h"
#include "service/answer_cache.h"
#include "service/query_service.h"
#include "storage/buffer_pool.h"

namespace xk::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using Keywords = std::vector<std::string>;
using Answer = std::vector<present::Mtton>;

// --- Fixed workload parameters ------------------------------------------------

// The database is the DblpBench default scale with its fixed data seed, so
// every seed queries the same data; --seed picks the queries only.
constexpr uint64_t kDataSeed = 2003;
constexpr char kDecomposition[] = "XKeyword";
// Set-up is repeated and its median reported: a single set-up is one sample
// of a seconds-long phase on a host whose speed drifts. A traced run, which
// reports no setup_s, sets up once.
constexpr int kSetupRepetitions = 3;
// p95 is reported from at least this many samples, 10 of them beyond it.
constexpr size_t kMinSamples = 200;
// topk_disk's buffer pool: a small fraction of the page file, so page reads,
// checksum checks and posting decodes stay on the query path.
constexpr size_t kDiskPoolBytes = size_t{1} << 20;
// Engine threads per topk_disk query. With more than one, concurrent page
// reads make the pool's eviction order, and so its page counts, vary between
// runs.
constexpr int kDiskEngineThreads = 1;
// service_net: closed-loop client connections and service workers. Each
// request runs on one engine thread, so the workers never oversubscribe the
// cores.
constexpr int kServiceConnections = 4;
constexpr int kServiceWorkers = 4;
// Zipf skew of the service's request stream over the query pool.
constexpr double kServiceZipfSkew = 1.0;
// The answer cache's byte budget holds this many of the hottest answers, so
// about a third of the requests hit once the cache is warm and the median
// request takes the miss path through the engine.
constexpr size_t kServiceCachedAnswers = 6;
// Requests per connection: warm-up (fills the cache), and the length of each
// connection's seeded request sequence (cycled by the timed loop).
constexpr size_t kServiceWarmup = 48;
constexpr size_t kServiceSequence = 8192;
// Requests per connection in each phase of a traced service run.
constexpr size_t kServiceTracedRequests = 200;

// --- Deterministic randomness (independent of the library's own RNG) ----------

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf-distributed ranks in [0, n) with skew `s`.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(SplitMix64* rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->Unit());
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

template <typename T>
void Shuffle(std::vector<T>* v, SplitMix64* rng) {
  for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
}

// --- Small helpers ------------------------------------------------------------

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Resident set size now, in MiB.
double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string JoinSeconds(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : "/") + std::to_string(x);
  return out;
}

std::string JoinKeywords(const Keywords& k) {
  std::string out;
  for (const std::string& w : k) out += (out.empty() ? "" : " ") + w;
  return out;
}

// --- Workloads ----------------------------------------------------------------

// Keyword classes of the stratified query design: the source vocabulary
// (author names or title words) times a band of frequency ranks, ranks
// counted by the words' posting-list lengths in the loaded data.
constexpr int kBands = 4;
using Bands = std::array<size_t, kBands>;  // first rank of each band
// Top-k queries: the top band is narrow, so the heaviest queries are nearly
// the same for every seed.
constexpr Bands kTopKBands = {0, 3, 12, 50};
// Complete results grow with the product of the keywords' frequencies, so
// the most frequent words would decide every high percentile; all_mem skips
// the top three of each vocabulary and keeps its heavy bands narrow.
constexpr Bands kAllBands = {3, 6, 16, 50};

struct Workload {
  const char* name;
  engine::QueryMode mode;
  storage::StorageBackend backend;
  Bands bands;
  bool two_keyword_only;  // the two-keyword part of the pool only
  bool service;           // through net::Client -> net::Server -> QueryService
  int clients;            // closed-loop client threads
  int engine_threads;     // QueryOptions::num_threads; 0 keeps the shipped value
};

// all_mem's executor is serial, so one client's figures follow the speed of
// one core, which drifts with the host's other load; four clients spread each
// run over all cores. The top-k workloads already use 4 engine threads per
// query; topk_disk keeps one client, so its 1 MiB pool serves one query at a
// time.
constexpr Workload kWorkloads[] = {
    {"topk_mem", engine::QueryMode::kTopK, storage::StorageBackend::kMemory,
     kTopKBands, false, false, 1, 0},
    {"all_mem", engine::QueryMode::kAll, storage::StorageBackend::kMemory, kAllBands,
     true, false, 4, 0},
    {"topk_disk", engine::QueryMode::kTopK, storage::StorageBackend::kDisk,
     kTopKBands, true, false, 1, kDiskEngineThreads},
    {"service_net", engine::QueryMode::kTopK, storage::StorageBackend::kMemory,
     kTopKBands, true, true, kServiceConnections, 1},
};

/// The workload's request for `keywords`: the shipped QueryOptions, with
/// the workload's engine thread count.
engine::QueryRequest MakeRequest(const Workload& w, const Keywords& keywords) {
  engine::QueryRequest request;
  request.keywords = keywords;
  request.decomposition = kDecomposition;
  request.mode = w.mode;
  if (w.engine_threads > 0) request.options.num_threads = w.engine_threads;
  return request;
}

constexpr int kClasses = 2 * kBands;
// Copies of the pool design per seed: more queries per class make the pool's
// percentiles depend less on which words the seed picked.
constexpr int kDesignRepeats = 3;

/// The words of `vocab` that occur in the data, by descending posting-list
/// length (ties by word). An absent word would make an empty, near-free query.
std::vector<std::string> ByFrequency(const engine::XKeyword& xk,
                                     std::vector<std::string> vocab) {
  std::vector<std::pair<size_t, std::string>> ranked;
  for (std::string& w : vocab) {
    const size_t count = xk.master_index().ContainingList(w).size();
    if (count > 0) ranked.emplace_back(count, std::move(w));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<std::string> out;
  for (auto& [count, w] : ranked) out.push_back(std::move(w));
  return out;
}

/// The seeded query pool. Its design is fixed: kDesignRepeats copies of one
/// two-keyword query per unordered pair of keyword classes (36) and of 12
/// three-keyword queries, 3 per author/title mix, with rotating bands — so
/// every seed has the same ¾ two-keyword mix and nearly the same cost
/// profile. The seed picks the words inside each class, and the pool order.
Result<std::vector<Keywords>> MakeQueryPool(const Workload& w, const engine::XKeyword& xk,
                                            const datagen::DblpDatabase& db,
                                            uint64_t seed) {
  const std::vector<std::string> vocabs[] = {ByFrequency(xk, db.author_names()),
                                             ByFrequency(xk, db.title_words())};
  for (const std::vector<std::string>& vocab : vocabs) {
    if (vocab.size() <= w.bands[kBands - 1]) {
      return Status::InvalidArgument("vocabulary too small for the query design");
    }
  }
  SplitMix64 rng(seed * 0x2545f4914f6cdd1dULL + 0x3c6ef372fe94f82bULL);
  auto word = [&](int cls) {
    const std::vector<std::string>& vocab = vocabs[cls / kBands];
    const int band = cls % kBands;
    const size_t lo = w.bands[band];
    const size_t hi = band + 1 < kBands ? w.bands[band + 1] : vocab.size();
    return vocab[lo + rng.Below(hi - lo)];
  };
  std::vector<std::vector<int>> design;
  for (int copy = 0; copy < kDesignRepeats; ++copy) {
    for (int a = 0; a < kClasses; ++a) {
      for (int b = a; b < kClasses; ++b) design.push_back({a, b});
    }
  }
  for (int copy = 0; copy < kDesignRepeats && !w.two_keyword_only; ++copy) {
    for (int t = 0; t < 12; ++t) {
      const int titles = t / 3;  // 0..3 title words among the three
      std::vector<int> classes;
      for (int k = 0; k < 3; ++k) {
        classes.push_back((k < titles ? kBands : 0) + (t + k) % kBands);
      }
      design.push_back(classes);
    }
  }
  // Distinct keyword bags; every band holds enough words for each class
  // pair's kDesignRepeats copies to differ.
  std::set<Keywords> seen;
  std::vector<Keywords> pool;
  for (const std::vector<int>& classes : design) {
    for (int attempt = 0;; ++attempt) {
      if (attempt == 10000) return Status::Internal("cannot draw distinct queries");
      Keywords q;
      for (int cls : classes) q.push_back(word(cls));
      Keywords bag = q;
      std::sort(bag.begin(), bag.end());
      if (std::adjacent_find(bag.begin(), bag.end()) != bag.end()) continue;
      if (!seen.insert(std::move(bag)).second) continue;
      pool.push_back(std::move(q));
      break;
    }
  }
  Shuffle(&pool, &rng);
  return pool;
}

// --- Tracing (per-layer runs only) --------------------------------------------

/// Spans recorded around the benchmark's own calls into each module, kept in
/// memory and written out when the run ends. One tracer per thread.
class Tracer {
 public:
  struct Span {
    uint32_t query;
    const char* stage;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans_, -1 for a root
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) { spans_.reserve(1 << 14); }

  int Begin(uint32_t query, const char* stage, int parent) {
    spans_.push_back(Span{query, stage, Now(), -1, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = Now(); }

  /// Self time per stage in ms, summed over every span of that stage: a span's
  /// duration minus the part its children cover (the children of one span
  /// never overlap: each traced pipeline is sequential).
  std::map<std::string, double> SelfMsByStage() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.stage] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  /// Durations (ms) of the root spans.
  std::vector<double> RootDurationsMs() const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.parent < 0) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
    return out;
  }

  void AppendJsonLines(std::FILE* f, int thread) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"thread\": %d, \"id\": %zu, \"query\": %u, \"stage\": \"%s\", "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d}\n",
                   thread, i, s.query, s.stage, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Writes the query pool (one line per query id), then every span.
void WriteTrace(const std::string& path, const std::vector<Keywords>& queries,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::fprintf(f, "{\"query\": %zu, \"keywords\": \"%s\"}\n", i,
                 JoinKeywords(queries[i]).c_str());
  }
  for (size_t t = 0; t < tracers.size(); ++t) {
    tracers[t]->AppendJsonLines(f, static_cast<int>(t));
  }
  std::fclose(f);
}

/// Counts taken at the same boundaries the tracer times.
struct LayerCounts {
  uint64_t queries = 0;
  uint64_t postings = 0;
  uint64_t networks_generated = 0;
  uint64_t networks_kept = 0;
  uint64_t plans = 0;
  engine::ExecutionStats stats;
};

/// XKeyword::Run for one request, rebuilt from the public calls that
/// XKeyword::Prepare and Run chain together, with a span around each layer.
Result<engine::QueryResponse> TracedRun(const engine::XKeyword& xk,
                                        const engine::QueryRequest& request,
                                        uint32_t query_id, Tracer* tracer,
                                        LayerCounts* counts) {
  const int root = tracer->Begin(query_id, "query", -1);
  CancelToken token;
  engine::QueryOptions options = request.options;
  options.cancel = &token;
  XK_RETURN_NOT_OK(options.Validate());
  (void)storage::BufferPool::DrainThreadCounters();
  XK_ASSIGN_OR_RETURN(const decomp::Decomposition* d,
                      xk.GetDecomposition(request.decomposition));
  engine::PreparedQuery q;
  q.keywords = request.keywords;
  q.exec_options.use_indexes = d->use_indexes_at_runtime;
  q.exec_options.vectorized = options.vectorized;
  q.exec_options.force_scalar_kernels =
      options.kernel_dispatch == engine::KernelDispatch::kForceScalar;

  int span = tracer->Begin(query_id, "keyword", root);
  std::vector<std::vector<schema::SchemaNodeId>> keyword_schema_nodes;
  for (const std::string& k : request.keywords) {
    keyword_schema_nodes.push_back(xk.master_index().SchemaNodesContaining(k));
  }
  tracer->End(span);

  span = tracer->Begin(query_id, "cn", root);
  cn::CnGeneratorOptions gen_options;
  gen_options.max_size = options.max_size_z;
  const cn::CnGenerator generator(&xk.schema(), gen_options);
  XK_ASSIGN_OR_RETURN(std::vector<cn::CandidateNetwork> networks,
                      generator.Generate(keyword_schema_nodes));
  counts->networks_generated += networks.size();
  for (cn::CandidateNetwork& network : networks) {
    Result<cn::Ctssn> reduced = cn::ReduceToCtssn(network, xk.schema(), xk.tss());
    if (!reduced.ok()) continue;
    q.networks.push_back(std::move(network));
    q.ctssns.push_back(reduced.MoveValueUnsafe());
  }
  counts->networks_kept += q.ctssns.size();
  tracer->End(span);

  span = tracer->Begin(query_id, "keyword", root);
  for (const cn::Ctssn& ctssn : q.ctssns) {
    for (const auto& kws : ctssn.node_keywords) {
      for (const cn::CtssnKeyword& kw : kws) {
        const auto key = std::make_pair(kw.keyword, kw.schema_node);
        if (q.filter_sets.contains(key)) continue;
        storage::IdSet& set = q.filter_sets[key];
        const keyword::PostingList list = xk.master_index().ContainingList(
            request.keywords[static_cast<size_t>(kw.keyword)]);
        counts->postings += list.size();
        for (const keyword::Posting& p : list) {
          if (p.schema_node == kw.schema_node) set.insert(p.to_id);
        }
      }
    }
  }
  tracer->End(span);

  span = tracer->Begin(query_id, "opt", root);
  const opt::Optimizer optimizer(&xk.tss(), d, &xk.catalog(), &xk.objects());
  for (const cn::Ctssn& ctssn : q.ctssns) {
    opt::NodeFilters filters(static_cast<size_t>(ctssn.num_nodes()));
    for (int v = 0; v < ctssn.num_nodes(); ++v) {
      for (const cn::CtssnKeyword& kw : ctssn.node_keywords[static_cast<size_t>(v)]) {
        filters[static_cast<size_t>(v)].push_back(
            &q.filter_sets.at({kw.keyword, kw.schema_node}));
      }
    }
    XK_ASSIGN_OR_RETURN(opt::CtssnPlan plan, optimizer.Plan(ctssn, filters));
    q.node_filters.push_back(std::move(filters));
    q.plans.push_back(std::move(plan));
  }
  counts->plans += q.plans.size();
  tracer->End(span);

  span = tracer->Begin(query_id, "engine", root);
  engine::QueryResponse response;
  Result<Answer> results = Status::Internal("unreachable");
  if (request.mode == engine::QueryMode::kAll) {
    engine::FullExecutor executor(options);
    results = executor.Run(q, &response.stats, &response.coverage);
  } else {
    engine::TopKExecutor executor;
    results = executor.Run(q, options, &response.stats, &response.coverage);
  }
  tracer->End(span);
  XK_RETURN_NOT_OK(results.status());
  engine::DrainPageCounters(&response.stats);
  response.mttons = results.MoveValueUnsafe();
  response.completeness =
      engine::DeriveCompleteness(response.coverage, !response.mttons.empty());
  counts->stats.Add(response.stats);
  ++counts->queries;
  tracer->End(root);
  return response;
}

// --- Set-up -------------------------------------------------------------------

/// One loaded system. Members are destroyed in reverse order: the server
/// before the service it serves, the service before the engine, the engine
/// before the data it indexes.
struct Fixture {
  std::unique_ptr<datagen::DblpDatabase> db;
  std::unique_ptr<engine::XKeyword> xk;
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::Server> server;
  size_t page_file_bytes = 0;
};

/// Set-up stage times of one fixture, in ms.
struct SetupTimes {
  double datagen = 0;
  double load = 0;
  double decomp = 0;
};

datagen::DblpConfig DefaultScale() {
  datagen::DblpConfig config;
  config.num_conferences = 10;
  config.years_per_conference = 6;
  config.avg_papers_per_year = 20;
  config.avg_citations_per_paper = 20.0;
  config.author_vocab = 200;
  config.title_vocab = 200;
  config.seed = kDataSeed;
  return config;
}

/// The measured set-up: data generation, load on `backend`, and the one
/// decomposition every workload queries.
Result<Fixture> BuildFixture(storage::StorageBackend backend, const std::string& page_dir,
                             SetupTimes* times) {
  Fixture f;
  const Clock::time_point t0 = Clock::now();
  XK_ASSIGN_OR_RETURN(f.db, datagen::DblpDatabase::Generate(DefaultScale()));
  const Clock::time_point t1 = Clock::now();
  storage::StorageOptions storage;
  storage.backend = backend;
  storage.buffer_pool_bytes = kDiskPoolBytes;
  storage.data_dir = page_dir;
  XK_ASSIGN_OR_RETURN(f.xk, engine::XKeyword::Load(&f.db->graph(), &f.db->schema(),
                                                   &f.db->tss(), storage));
  const Clock::time_point t2 = Clock::now();
  XK_ASSIGN_OR_RETURN(decomp::Decomposition d,
                      decomp::MakeXKeyword(f.db->tss(), /*B=*/2, /*M=*/6));
  XK_RETURN_NOT_OK(f.xk->AddDecomposition(std::move(d)));
  const Clock::time_point t3 = Clock::now();
  if (const storage::StorageTier* tier = f.xk->data().storage_tier.get()) {
    f.page_file_bytes = tier->FileBytes();
  }
  *times = SetupTimes{MsBetween(t0, t1), MsBetween(t1, t2), MsBetween(t2, t3)};
  return f;
}

/// Starts service_net's QueryService and loopback server over `f`, with an
/// answer cache of `cache_bytes`.
Status StartService(size_t cache_bytes, Fixture* f) {
  service::QueryServiceOptions options;
  options.num_workers = kServiceWorkers;
  options.answer_cache.num_shards = 1;  // one LRU, so the hit ratio is steady
  options.answer_cache.max_bytes = cache_bytes;
  XK_ASSIGN_OR_RETURN(f->service, service::QueryService::Create(f->xk.get(), options));
  XK_ASSIGN_OR_RETURN(f->server, net::Server::Start(f->service.get()));
  return Status::OK();
}

// --- Oracle -------------------------------------------------------------------

/// What a correct answer must look like. Answers are kept as fingerprints so
/// that the oracle's copies do not count in the measured RSS.
struct Expected {
  uint64_t fingerprint = 0;
  size_t results = 0;
  size_t cache_bytes = 0;  // service_net: the answer cache's charge for it
};

uint64_t Fingerprint(const Answer& answer) {
  uint64_t h = answer.size();
  auto mix = [&h](uint64_t v) { h = SplitMix64(h ^ v).Next(); };
  for (const present::Mtton& m : answer) {
    mix(static_cast<uint64_t>(m.ctssn_index));
    mix(static_cast<uint64_t>(m.score));
    mix(m.objects.size());
    for (storage::ObjectId o : m.objects) mix(static_cast<uint64_t>(o));
  }
  return h;
}

/// The reference answer of each query, computed before any measured phase by
/// another code path than the one the workload measures.
Result<std::vector<Expected>> OracleAnswers(const Workload& w,
                                            const engine::XKeyword& memory_xk,
                                            const std::vector<Keywords>& queries) {
  std::vector<Expected> answers;
  for (const Keywords& k : queries) {
    engine::QueryRequest request = MakeRequest(w, k);
    if (std::strcmp(w.name, "topk_mem") == 0) {
      // Serial, cacheless nested loops: the paper's naive baseline.
      request.mode = engine::QueryMode::kNaive;
    } else if (std::strcmp(w.name, "all_mem") == 0) {
      request.options.num_threads = 1;
    }
    // topk_disk: the same request on the memory backend. service_net: the
    // same request in-process, with no service, cache or wire in between.
    XK_ASSIGN_OR_RETURN(engine::QueryResponse r, memory_xk.Run(request));
    if (!r.status.ok() || r.completeness != engine::Completeness::kComplete) {
      return Status::Internal("oracle query did not complete: " + JoinKeywords(k));
    }
    answers.push_back(Expected{
        Fingerprint(r.mttons), r.mttons.size(),
        service::AnswerCache::EstimateBytes(
            service::AnswerCache::CanonicalKey(MakeRequest(w, k)), r)});
  }
  return answers;
}

bool AnswerMatches(const Result<engine::QueryResponse>& r, const Expected& expected) {
  return r.ok() && r->status.ok() &&
         r->completeness == engine::Completeness::kComplete &&
         r->mttons.size() == expected.results &&
         Fingerprint(r->mttons) == expected.fingerprint;
}

// --- Result line --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void PrintResult(const Outcome& o) {
  std::string json = "{\"correct\": ";
  json += o.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- The run ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

/// Everything a workload's measured phases need, built outside them.
struct Setup {
  std::vector<Keywords> queries;
  std::vector<Expected> expected;    // parallel to queries
  std::vector<double> setup_s;       // one per repetition
  SetupTimes last_times;
  Fixture fixture;                   // the last repetition's
  size_t cache_bytes = 0;
  std::vector<size_t> service_rank;  // service_net: Zipf rank -> query index
};

/// The answer-cache budget: room for the kServiceCachedAnswers hottest
/// answers, charged as the cache charges them.
size_t ServiceCacheBytes(const Setup& s) {
  size_t bytes = 0;
  for (size_t r = 0; r < kServiceCachedAnswers && r < s.service_rank.size(); ++r) {
    bytes += s.expected[s.service_rank[r]].cache_bytes;
  }
  return bytes;
}

Result<Setup> SetUp(const Workload& w, const Args& args, const std::string& page_dir) {
  Setup s;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepetitions); ++rep) {
    s.fixture = Fixture{};
    ::malloc_trim(0);  // so RSS sampled later reflects live data only
    const Clock::time_point t0 = Clock::now();
    XK_ASSIGN_OR_RETURN(s.fixture, BuildFixture(w.backend, page_dir, &s.last_times));
    s.setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }
  {
    // The oracle needs a memory-backend instance: a disk workload builds its
    // own, dropped again before any measured phase.
    Fixture memory;
    if (w.backend != storage::StorageBackend::kMemory) {
      SetupTimes unused;
      XK_ASSIGN_OR_RETURN(
          memory, BuildFixture(storage::StorageBackend::kMemory, page_dir, &unused));
    }
    const Fixture& m = memory.xk != nullptr ? memory : s.fixture;
    XK_ASSIGN_OR_RETURN(s.queries, MakeQueryPool(w, *m.xk, *m.db, args.seed));
    XK_ASSIGN_OR_RETURN(s.expected, OracleAnswers(w, *m.xk, s.queries));
  }
  ::malloc_trim(0);
  if (w.service) {
    s.service_rank.resize(s.queries.size());
    for (size_t i = 0; i < s.queries.size(); ++i) s.service_rank[i] = i;
    SplitMix64 rng(args.seed ^ 0x6a09e667f3bcc909ULL);
    Shuffle(&s.service_rank, &rng);
    s.cache_bytes = ServiceCacheBytes(s);
    XK_RETURN_NOT_OK(StartService(s.cache_bytes, &s.fixture));
  }
  return s;
}

/// Per-layer metrics of the in-process layers: self time per query from the
/// traced run's spans, counts per query. All zero when `tracer` is null (the
/// layers ran out of the benchmark's reach).
void AddEngineLayerMetrics(const Tracer* tracer, const LayerCounts& counts,
                           Outcome* out) {
  std::map<std::string, double> self;
  if (tracer != nullptr) self = tracer->SelfMsByStage();
  auto self_ms = [&](const char* stage) { return self.contains(stage) ? self[stage] : 0.0; };
  const double n = std::max<double>(1.0, static_cast<double>(counts.queries));
  const engine::ExecutionStats& s = counts.stats;
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"keyword.busy_ms", self_ms("keyword") / n, "ms"},
      {"keyword.postings", d(counts.postings) / n, "count"},
      {"cn.busy_ms", self_ms("cn") / n, "ms"},
      {"cn.networks", d(counts.networks_generated) / n, "count"},
      {"cn.kept_ratio", Ratio(d(counts.networks_kept), d(counts.networks_generated)),
       "ratio"},
      {"opt.busy_ms", self_ms("opt") / n, "ms"},
      {"opt.plans", d(counts.plans) / n, "count"},
      {"engine.busy_ms", self_ms("engine") / n, "ms"},
      {"engine.results", d(s.results) / n, "count"},
      {"engine.cache_hit_ratio", Ratio(d(s.cache_hits), d(s.cache_hits + s.cache_misses)),
       "ratio"},
      {"engine.subplan_hit_ratio",
       Ratio(d(s.subplan_hits), d(s.subplan_hits + s.subplan_misses)), "ratio"},
      {"exec.probes", d(s.probes.probes) / n, "count"},
      {"exec.rows_scanned", d(s.probes.rows_scanned) / n, "count"},
      {"exec.rows_per_result", Ratio(d(s.probes.rows_scanned), d(s.results)), "ratio"},
      {"exec.bloom_skip_ratio", Ratio(d(s.probes.bloom_skips), d(s.probes.probes)),
       "ratio"},
      {"storage.page_hit_ratio", Ratio(d(s.page_hits), d(s.page_hits + s.page_misses)),
       "ratio"},
      {"storage.page_misses", d(s.page_misses) / n, "count"},
      {"storage.read_mb", d(s.page_read_bytes) / n / (1 << 20), "MiB"},
  };
  out->metrics.insert(out->metrics.end(), m.begin(), m.end());
}

/// service_net's service and wire figures; all zero on the in-process
/// workloads.
struct ServiceFigures {
  double p50_ms = 0;  // server side, queue wait included
  double net_overhead_ms = 0;
  double cache_hit_ratio = 0;
  double coalesced_share = 0;
  double rejected = 0;
  double bytes_per_query = 0;
  double batches_per_query = 0;
  double order_mismatches = 0;
};

void AddServiceLayerMetrics(const ServiceFigures& f, Outcome* out) {
  const std::vector<Metric> m = {
      {"service.p50_ms", f.p50_ms, "ms"},
      {"service.cache_hit_ratio", f.cache_hit_ratio, "ratio"},
      {"service.coalesced_share", f.coalesced_share, "ratio"},
      {"service.rejected", f.rejected, "count"},
      {"service.order_mismatches", f.order_mismatches, "count"},
      {"net.overhead_ms", f.net_overhead_ms, "ms"},
      {"net.bytes_per_query", f.bytes_per_query, "count"},
      {"net.batches_per_query", f.batches_per_query, "count"},
  };
  out->metrics.insert(out->metrics.end(), m.begin(), m.end());
}

void AddSetupLayerMetrics(const SetupTimes& t, Outcome* out) {
  out->metrics.push_back({"setup.datagen_ms", t.datagen, "ms"});
  out->metrics.push_back({"setup.load_ms", t.load, "ms"});
  out->metrics.push_back({"setup.decomp_ms", t.decomp, "ms"});
}

/// topk_mem, all_mem, topk_disk: closed-loop clients calling XKeyword::Run
/// in-process. A traced run uses one client.
Outcome RunInProcess(const Workload& w, const Args& args, Setup& s) {
  Outcome out;
  const engine::XKeyword& xk = *s.fixture.xk;
  std::vector<engine::QueryRequest> requests;
  for (const Keywords& k : s.queries) requests.push_back(MakeRequest(w, k));

  // Warm-up pass, untimed: every distinct answer is checked against the
  // oracle here; a mismatch counts as a failed operation.
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!AnswerMatches(xk.Run(requests[i]), s.expected[i])) {
      ++out.failed;
      std::fprintf(stderr, "oracle mismatch: %s\n", JoinKeywords(s.queries[i]).c_str());
    }
  }

  // The untraced closed loop: each client makes whole passes over the pool,
  // starting at its own offset, until --seconds are up and kMinSamples
  // latencies are in (one pass in a traced run), so every query weighs the
  // same in the percentiles.
  const int clients = args.trace ? 1 : w.clients;
  std::vector<std::vector<double>> client_latencies(clients);
  std::vector<uint64_t> client_failed(clients, 0);
  std::vector<double> client_rss(clients, CurrentRssMb());
  const Clock::time_point start = Clock::now();
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(args.seconds));
  auto client = [&](int c) {
    std::vector<double>& lat = client_latencies[c];
    const size_t n = requests.size();
    do {
      for (size_t k = 0; k < n; ++k) {
        const size_t i = (k + n * c / clients) % n;  // each client starts elsewhere
        const Clock::time_point t0 = Clock::now();
        Result<engine::QueryResponse> r = xk.Run(requests[i]);
        lat.push_back(MsBetween(t0, Clock::now()));
        if (!AnswerMatches(r, s.expected[i])) ++client_failed[c];
      }
      client_rss[c] = std::max(client_rss[c], CurrentRssMb());
    } while (!args.trace &&
             (Clock::now() - start < budget || lat.size() * clients < kMinSamples));
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& t : threads) t.join();
  const Clock::time_point end = Clock::now();
  std::vector<double> latencies;
  double rss_mb = 0;
  for (int c = 0; c < clients; ++c) {
    latencies.insert(latencies.end(), client_latencies[c].begin(), client_latencies[c].end());
    out.failed += client_failed[c];
    rss_mb = std::max(rss_mb, client_rss[c]);
  }
  out.attempted = latencies.size();
  const double wall_s = MsBetween(start, end) / 1000.0;
  std::fprintf(stderr,
               "%s seed %llu: %zu distinct queries, %zu runs in %.2f s; set-ups "
               "%s s; page file %zu B, pool %zu B\n",
               w.name, static_cast<unsigned long long>(args.seed), s.queries.size(),
               latencies.size(), wall_s, JoinSeconds(s.setup_s).c_str(),
               s.fixture.page_file_bytes,
               w.backend == storage::StorageBackend::kDisk ? kDiskPoolBytes : size_t{0});

  if (!args.trace) {
    out.metrics = {
        {"setup_s", Median(s.setup_s), "s"},
        {"p50_ms", Percentile(latencies, 0.50), "ms"},
        {"p95_ms", Percentile(latencies, 0.95), "ms"},
        {"qps", static_cast<double>(latencies.size()) / wall_s, "1/s"},
        {"rss_mb", rss_mb, "MiB"},
    };
    return out;
  }

  // Traced pass over the same sequence.
  Tracer tracer(Clock::now());
  LayerCounts counts;
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<engine::QueryResponse> r =
        TracedRun(xk, requests[i], static_cast<uint32_t>(i), &tracer, &counts);
    if (!AnswerMatches(r, s.expected[i])) ++out.failed;
    ++out.attempted;
  }
  WriteTrace(args.work_dir + "/trace-" + w.name + "-" + std::to_string(args.seed) +
                 ".jsonl",
             s.queries, {&tracer});
  AddEngineLayerMetrics(&tracer, counts, &out);
  out.metrics.push_back({"trace.overhead_ms",
                         Percentile(tracer.RootDurationsMs(), 0.5) -
                             Percentile(latencies, 0.5),
                         "ms"});
  AddSetupLayerMetrics(s.last_times, &out);
  AddServiceLayerMetrics(ServiceFigures{}, &out);  // no service on this path
  return out;
}

/// One service_net client connection's tallies.
struct ConnectionLog {
  std::vector<double> latencies;
  uint64_t failed = 0;
  uint64_t batches = 0;
  uint64_t bytes = 0;
  Clock::time_point end;
};

/// Sends the hottest queries once more with their keywords reversed and
/// counts answers that differ from in-process XKeyword::Run on the reversed
/// request. The answer cache keys a request by its sorted keyword bag, so a
/// reversed request is served the answer cached for the original order, whose
/// MTTONs follow that order: a defect of the cache key, which this count
/// shows. It is kept out of `failed` because the workload's own requests never
/// present one bag in two orders.
uint64_t CountOrderMismatches(const Workload& w, const Setup& s) {
  Result<net::Client> client = net::Client::Connect(s.fixture.server->port());
  uint64_t mismatches = 0;
  for (size_t r = 0; r < kServiceCachedAnswers && r < s.service_rank.size(); ++r) {
    Keywords reversed = s.queries[s.service_rank[r]];
    std::reverse(reversed.begin(), reversed.end());
    const engine::QueryRequest request = MakeRequest(w, reversed);
    Result<engine::QueryResponse> in_process = s.fixture.xk->Run(request);
    Result<engine::QueryResponse> served =
        client.ok() ? client->Run(request) : Result<engine::QueryResponse>(client.status());
    if (!in_process.ok() || !served.ok() || served->mttons != in_process->mttons) {
      ++mismatches;
    }
  }
  return mismatches;
}

/// service_net: kServiceConnections closed-loop clients, each on its own
/// loopback connection, through net::Client::Run -> net::Server ->
/// QueryService. Each client walks its own seeded Zipf sequence over the
/// query pool.
Outcome RunService(const Workload& w, const Args& args, Setup& s) {
  Outcome out;
  const uint16_t port = s.fixture.server->port();
  std::vector<std::vector<size_t>> sequences(w.clients);
  const Zipf zipf(s.queries.size(), kServiceZipfSkew);
  for (int c = 0; c < w.clients; ++c) {
    SplitMix64 rng(args.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(c) + 1);
    for (size_t i = 0; i < kServiceSequence; ++i) {
      sequences[static_cast<size_t>(c)].push_back(s.service_rank[zipf.Sample(&rng)]);
    }
  }
  std::vector<engine::QueryRequest> requests;
  for (const Keywords& k : s.queries) requests.push_back(MakeRequest(w, k));

  // Phases: warm-up (untimed, fills the cache), then the timed loop — until
  // --seconds are up untraced, or a fixed count untraced and then traced.
  enum Phase { kWarmup, kUntraced, kTraced, kPhases };
  std::vector<ConnectionLog> logs(w.clients * kPhases);
  std::vector<std::unique_ptr<Tracer>> tracers;
  const Clock::time_point epoch = Clock::now();
  for (int c = 0; c < w.clients; ++c) {
    tracers.push_back(std::make_unique<Tracer>(epoch));
  }
  std::atomic<int64_t> stop_at_ns{0};
  std::barrier sync(w.clients + 1);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> connect_failures{0};
  std::atomic<int> running{w.clients};
  for (int c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      Result<net::Client> client = net::Client::Connect(port);
      if (!client.ok()) connect_failures.fetch_add(1);
      const std::vector<size_t>& seq = sequences[static_cast<size_t>(c)];
      size_t next = 0;
      auto one = [&](ConnectionLog* log, Tracer* tracer) {
        const size_t i = seq[next++ % seq.size()];
        std::vector<Answer> batches;
        const Clock::time_point t0 = Clock::now();
        const int span = tracer != nullptr
                             ? tracer->Begin(static_cast<uint32_t>(i), "client", -1)
                             : -1;
        Result<engine::QueryResponse> r =
            client.ok() ? client->Run(requests[i], tracer != nullptr ? &batches : nullptr)
                        : Result<engine::QueryResponse>(client.status());
        if (tracer != nullptr) tracer->End(span);
        log->latencies.push_back(MsBetween(t0, Clock::now()));
        if (!AnswerMatches(r, s.expected[i])) ++log->failed;
        if (tracer != nullptr && r.ok()) {
          // Bytes the server put on the wire for this answer, as net::wire
          // encodes them: the streamed batches, then the final frame's tail.
          size_t streamed = 0;
          for (const Answer& b : batches) {
            log->bytes += net::EncodeBatchFrame(1, b).size();
            streamed += b.size();
          }
          log->bytes += net::EncodeFinalFrame(1, *r, streamed).size();
          log->batches += batches.size();
        }
      };
      ConnectionLog* base = &logs[static_cast<size_t>(c) * kPhases];
      for (size_t k = 0; k < kServiceWarmup; ++k) one(&base[kWarmup], nullptr);
      sync.arrive_and_wait();  // every cache-warming request is done
      sync.arrive_and_wait();  // the main thread has set the stop time
      if (!args.trace) {
        const Clock::time_point stop_at{Clock::duration{stop_at_ns.load()}};
        while (Clock::now() < stop_at) one(&base[kUntraced], nullptr);
      } else {
        for (size_t k = 0; k < kServiceTracedRequests; ++k) one(&base[kUntraced], nullptr);
        sync.arrive_and_wait();
        for (size_t k = 0; k < kServiceTracedRequests; ++k) {
          one(&base[kTraced], tracers[static_cast<size_t>(c)].get());
        }
      }
      base[kUntraced].end = Clock::now();
      running.fetch_sub(1);
    });
  }
  sync.arrive_and_wait();
  const service::MetricsSnapshot before = s.fixture.service->metrics().Snapshot();
  const Clock::time_point start = Clock::now();
  stop_at_ns.store(
      (start + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(args.seconds)))
          .time_since_epoch()
          .count());
  sync.arrive_and_wait();
  if (args.trace) sync.arrive_and_wait();
  double rss_mb = CurrentRssMb();
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rss_mb = std::max(rss_mb, CurrentRssMb());
  }
  for (std::thread& t : threads) t.join();
  const service::MetricsSnapshot after = s.fixture.service->metrics().Snapshot();

  out.failed = connect_failures.load();
  std::vector<double> latencies, traced;
  Clock::time_point end = start;
  uint64_t bytes = 0, batches = 0;
  for (int c = 0; c < w.clients; ++c) {
    const ConnectionLog* base = &logs[static_cast<size_t>(c) * kPhases];
    out.failed += base[kWarmup].failed + base[kUntraced].failed + base[kTraced].failed;
    out.attempted += base[kUntraced].latencies.size() + base[kTraced].latencies.size();
    latencies.insert(latencies.end(), base[kUntraced].latencies.begin(),
                     base[kUntraced].latencies.end());
    traced.insert(traced.end(), base[kTraced].latencies.begin(),
                  base[kTraced].latencies.end());
    end = std::max(end, base[kUntraced].end);
    bytes += base[kTraced].bytes;
    batches += base[kTraced].batches;
  }
  const double wall_s = MsBetween(start, end) / 1000.0;
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  const double coalesced = static_cast<double>(after.coalesced - before.coalesced);
  std::fprintf(stderr,
               "%s seed %llu: %zu distinct queries, %zu requests in %.2f s over %d "
               "connections; cache %zu B: %.0f hits, %.0f misses, %.0f coalesced; "
               "set-ups %s s\n",
               w.name, static_cast<unsigned long long>(args.seed), s.queries.size(),
               latencies.size() + traced.size(), wall_s, w.clients,
               s.cache_bytes, hits, misses, coalesced, JoinSeconds(s.setup_s).c_str());
  if (!args.trace) {
    out.metrics = {
        {"setup_s", Median(s.setup_s), "s"},
        {"p50_ms", Percentile(latencies, 0.50), "ms"},
        {"p95_ms", Percentile(latencies, 0.95), "ms"},
        {"qps", static_cast<double>(latencies.size()) / wall_s, "1/s"},
        {"rss_mb", rss_mb, "MiB"},
    };
    return out;
  }

  std::vector<const Tracer*> tracer_views;
  for (const auto& t : tracers) tracer_views.push_back(t.get());
  WriteTrace(args.work_dir + "/trace-" + w.name + "-" + std::to_string(args.seed) +
                 ".jsonl",
             s.queries, tracer_views);
  // The in-process layers run inside the server, out of the benchmark's
  // reach: they report zero here.
  AddEngineLayerMetrics(nullptr, LayerCounts{}, &out);
  const double client_p50 = Percentile(traced, 0.5);
  const double service_p50 = after.latency_p50_us / 1000.0;
  const double n = std::max<double>(1.0, static_cast<double>(traced.size()));
  const double served = hits + misses + coalesced;
  out.metrics.push_back({"trace.overhead_ms", client_p50 - Percentile(latencies, 0.5), "ms"});
  AddSetupLayerMetrics(s.last_times, &out);
  AddServiceLayerMetrics(
      ServiceFigures{
          .p50_ms = service_p50,
          .net_overhead_ms = client_p50 - service_p50,
          .cache_hit_ratio = Ratio(hits, served),
          .coalesced_share = Ratio(coalesced, served),
          .rejected = static_cast<double>(after.rejected - before.rejected),
          .bytes_per_query = static_cast<double>(bytes) / n,
          .batches_per_query = static_cast<double>(batches) / n,
          .order_mismatches = static_cast<double>(CountOrderMismatches(w, s))},
      &out);
  return out;
}

int Main(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string page_dir = args.work_dir + "/pages-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(page_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", page_dir.c_str(), ec.message().c_str());
    return 2;
  }
  int code = 0;
  {
    Result<Setup> s = SetUp(*w, args, page_dir);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.status().ToString().c_str());
      code = 2;
    } else {
      PrintResult(w->service ? RunService(*w, args, *s) : RunInProcess(*w, args, *s));
    }
  }
  std::filesystem::remove_all(page_dir, ec);
  return code;
}

}  // namespace
}  // namespace xk::perfbench

int main(int argc, char** argv) {
  xk::perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flags come in --name value pairs\n");
    return 2;
  }
  return xk::perfbench::Main(args);
}
