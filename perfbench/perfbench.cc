// End-to-end benchmark of the dynamic-plan engine: three workloads, the
// end-to-end metrics of one closed-loop client, and a traced run that
// times each layer from outside by wrapping calls into its public
// functions.  See README.md for the workloads, metrics and bounds.
//
//   perfbench --workload <warm_hits|cold_churn|scaled_exec> --seed <n>
//             --seconds <s> --trace <0|1> --tmp-dir <dir>
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1).  Human-readable detail goes to standard error.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "obs/analyze.h"
#include "obs/drift.h"
#include "obs/flight_recorder.h"
#include "obs/querylog.h"
#include "optimizer/optimizer.h"
#include "oracle.h"
#include "physical/costing.h"
#include "runtime/lifecycle.h"
#include "runtime/plan_cache.h"
#include "runtime/plan_rewrite.h"
#include "runtime/startup.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/normalize.h"
#include "sql/parser.h"
#include "storage/data_generator.h"
#include "storage/database.h"
#include "workload/paper_workload.h"

namespace perfbench {
namespace {

using dqep::CachedPlanRequest;
using dqep::CachedPlanResult;
using dqep::CostModel;
using dqep::Database;
using dqep::DynamicPlanCache;
using dqep::ParamEnv;
using dqep::PhysNodePtr;
using dqep::StartupOptions;
using dqep::StartupResult;
using dqep::SystemConfig;
using dqep::Tuple;

// ---------------------------------------------------------------------------
// Fixed workload geometry.  Changing any of these changes the benchmark.

/// The paper database seed (the server's default workload seed).
constexpr uint64_t kPaperDbSeed = 42;
/// Memory grant every query runs under (the server's and the CLI's
/// default), in pages.
constexpr double kGrantPages = 64.0;
/// Set-ups per run, each in a child process; setup_s is their median.
constexpr int kSetups = 9;

/// warm_hits: 4-, 6- and 10-way chain windows over R1..R10.
constexpr int kWarmCopiesPerRound = 16;  // each template 16x per round
constexpr double kWarmMaxSelectivity = 0.1;
/// cold_churn: 4-way windows; a round inserts more templates than the
/// plan cache holds (128), so each round's probe is evicted before the
/// next round sends it again and stays a miss.
constexpr int kColdPerRound = 150;
constexpr int kColdWarmup = 200;
constexpr double kColdMaxSelectivity = 0.1;
/// scaled_exec: chain database T1..T3.
constexpr int32_t kScaledRelations = 3;
constexpr int64_t kScaledRows = 20000;
constexpr int32_t kScaledRecordBytes = 256;
constexpr int32_t kScaledPoolPages = 2048;
constexpr uint64_t kScaledDbSeed = 7;
constexpr int kScaledCopiesPerRound = 4;  // selectivity strata per round
/// Seeded queries per run whose g = d property is checked (reported
/// apart from `failed`, since whether a seeded binding hits the fault
/// depends on the seed).
constexpr size_t kGdSample = 48;
constexpr double kGdTolerance = 1e-9;


// ---------------------------------------------------------------------------
// Small measurement helpers.

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// A "VmHWM:"/"VmRSS:" line of /proc/self/status, in KB.
double StatusKb(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kb = 0.0;
  const size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, len) == 0) {
      kb = std::atof(line + len);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T MustOk(dqep::Result<T> result, const char* what) {
  if (!result.ok()) {
    Die(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Query streams.  Each workload is an endless sequence of rounds; a round
// is a fixed number of seeded queries plus the workload's fixed probes.

enum class Kind { kWarmHits, kColdChurn, kScaledExec };

struct Workload {
  Kind kind;
  std::string prefix;              ///< relation-name prefix
  std::vector<BaseTable> tables;   ///< indexed by relation number
};

struct Window {
  int32_t first;
  int32_t n;
};

std::vector<Window> WarmTemplates() {
  std::vector<Window> out;
  for (int32_t f = 1; f <= 7; ++f) out.push_back({f, 4});
  for (int32_t f = 1; f <= 5; ++f) out.push_back({f, 6});
  out.push_back({1, 10});
  return out;
}

template <typename T>
void Shuffle(std::vector<T>* v, SplitMix* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// cold_churn shape space: 7 windows x 15^4 per-relation variants (five
/// operators on s, times none / a >= lit / b < lit).
constexpr uint64_t kColdShapes = 7ULL * 15 * 15 * 15 * 15;
/// Coprime to kColdShapes (= 3^4 5^4 7), so k -> (offset + k * stride)
/// mod kColdShapes visits every shape once before repeating.
constexpr uint64_t kColdStride = 104729;

QuerySpec ColdQuery(const Workload& w, uint64_t shape, SplitMix* rng) {
  static const Op kOps[] = {Op::kLt, Op::kLe, Op::kGt, Op::kGe, Op::kEq};
  QuerySpec q;
  q.prefix = w.prefix;
  q.first = static_cast<int32_t>(shape % 7) + 1;
  q.n = 4;
  uint64_t rest = shape / 7;
  for (int32_t pos = 0; pos < 4; ++pos) {
    const uint64_t d = rest % 15;
    rest /= 15;
    const BaseTable& t = w.tables[static_cast<size_t>(q.first + pos)];
    const Op op = kOps[d % 5];
    q.preds.push_back({pos, kS, op,
                       t.LiteralFor(kS, op,
                                    op == Op::kEq
                                        ? rng->Uniform()
                                        : rng->Uniform() * kColdMaxSelectivity)});
    if (d / 5 == 1) {
      q.preds.push_back(
          {pos, kA, Op::kGe, t.LiteralFor(kA, Op::kGe, 0.3 + 0.7 * rng->Uniform())});
    } else if (d / 5 == 2) {
      q.preds.push_back(
          {pos, kB, Op::kLt, t.LiteralFor(kB, Op::kLt, 0.3 + 0.7 * rng->Uniform())});
    }
  }
  return q;
}

/// Fixed probes: bindings on which the plan-cache path's start-up choice
/// was found costlier than run-time optimization (g > d; see README, "The
/// g = d property").  They do not depend on the seed and go out once per
/// round, so a soundness fix moves `failed` by exactly their share.
std::vector<QuerySpec> Probes(const Workload& w) {
  auto chain = [&](int32_t first, std::vector<Pred> preds) {
    QuerySpec q;
    q.prefix = w.prefix;
    q.first = first;
    q.n = 0;
    for (const Pred& p : preds) q.n = std::max(q.n, p.pos + 1);
    q.preds = std::move(preds);
    q.probe = true;
    return q;
  };
  auto lt = [](int32_t pos, int64_t literal) {
    return Pred{pos, kS, Op::kLt, literal};
  };
  switch (w.kind) {
    case Kind::kWarmHits:
      return {chain(5, {lt(0, 31), lt(1, 28), lt(2, 82), lt(3, 17)}),
              chain(7, {lt(0, 121), lt(1, 4), lt(2, 64), lt(3, 145)}),
              chain(4, {lt(0, 65), lt(1, 23), lt(2, 21), lt(3, 89),
                        lt(4, 39), lt(5, 151)})};
    case Kind::kColdChurn:
      return {chain(3, {{0, kS, Op::kEq, 136}, {0, kB, Op::kLt, 647},
                        {1, kS, Op::kGe, 586}, {1, kA, Op::kGe, 208},
                        {2, kS, Op::kGe, 125}, {2, kB, Op::kLt, 51},
                        {3, kS, Op::kGt, 103}, {3, kA, Op::kGe, 30}})};
    case Kind::kScaledExec:
      return {};
  }
  return {};
}

/// Inverse of ColdQuery's shape decoding: the probes' shapes, which the
/// seeded stream skips so that they stay out of its distinct templates.
uint64_t ColdShapeOf(const QuerySpec& q) {
  uint64_t variants = 0;
  for (int32_t pos = 3; pos >= 0; --pos) {
    uint64_t d = 0;
    for (const Pred& p : q.preds) {
      if (p.pos != pos) continue;
      if (p.column == kS) d += static_cast<uint64_t>(p.op);  // kOps order
      if (p.column == kA) d += 5;
      if (p.column == kB) d += 10;
    }
    variants = variants * 15 + d;
  }
  return static_cast<uint64_t>(q.first - 1) + 7 * variants;
}

/// Generates the query stream of one workload from the run's seed.
class Stream {
 public:
  Stream(const Workload& w, uint64_t seed)
      : w_(w),
        rng_(seed),
        cold_offset_(SplitMix(seed ^ 0xc01dULL).Next() % kColdShapes) {
    if (w.kind == Kind::kColdChurn) {
      for (const QuerySpec& p : Probes(w)) skip_.insert(ColdShapeOf(p));
    }
  }

  /// Queries sent before timing starts (set-up).
  std::vector<QuerySpec> Warmup() {
    std::vector<QuerySpec> out;
    switch (w_.kind) {
      case Kind::kWarmHits: {
        SplitMix rng(0x3a11);  // one query per template: fills the cache
        for (const Window& t : WarmTemplates()) {
          out.push_back(ChainLt(t, &rng, kWarmMaxSelectivity));
        }
        break;
      }
      case Kind::kColdChurn:
        for (int i = 0; i < kColdWarmup; ++i) {
          out.push_back(ColdQuery(w_, NextColdShape(), &rng_));
        }
        break;
      case Kind::kScaledExec: {
        SplitMix rng(0x5ca1);  // one query per template: fills the cache
        for (const Window& t : ScaledTemplates()) {
          out.push_back(ChainLt(t, &rng, 1.0));
        }
        break;
      }
    }
    return out;
  }

  std::vector<QuerySpec> NextRound() {
    std::vector<QuerySpec> out;
    switch (w_.kind) {
      case Kind::kWarmHits:
        for (int c = 0; c < kWarmCopiesPerRound; ++c) {
          for (const Window& t : WarmTemplates()) {
            out.push_back(ChainLt(t, &rng_, kWarmMaxSelectivity));
          }
        }
        Shuffle(&out, &rng_);
        break;
      case Kind::kColdChurn:
        for (int i = 0; i < kColdPerRound; ++i) {
          out.push_back(ColdQuery(w_, NextColdShape(), &rng_));
        }
        break;
      case Kind::kScaledExec:
        // Stratified selectivities: each predicate's kScaledCopiesPerRound
        // draws in a round fall one per stratum of [0, 1), so each round
        // covers the U[0, 1] range evenly and rounds cost about the same.
        for (const Window& t : ScaledTemplates()) {
          std::vector<std::vector<int>> strata(static_cast<size_t>(t.n));
          for (auto& s : strata) {
            for (int c = 0; c < kScaledCopiesPerRound; ++c) s.push_back(c);
            Shuffle(&s, &rng_);
          }
          for (int c = 0; c < kScaledCopiesPerRound; ++c) {
            QuerySpec q;
            q.prefix = w_.prefix;
            q.first = t.first;
            q.n = t.n;
            for (int32_t pos = 0; pos < t.n; ++pos) {
              const double sel =
                  (strata[static_cast<size_t>(pos)][static_cast<size_t>(c)] +
                   rng_.Uniform()) /
                  kScaledCopiesPerRound;
              q.preds.push_back(
                  {pos, kS, Op::kLt,
                   w_.tables[static_cast<size_t>(t.first + pos)].LiteralFor(
                       kS, Op::kLt, sel)});
            }
            out.push_back(std::move(q));
          }
        }
        Shuffle(&out, &rng_);
        break;
    }
    return out;
  }

  Kind kind() const { return w_.kind; }

  static std::vector<Window> ScaledTemplates() {
    return {{1, 1}, {2, 1}, {3, 1}, {1, 2}, {2, 2}, {1, 3}};
  }

 private:
  /// A chain with `s < literal` on every relation, selectivity U[0, max).
  QuerySpec ChainLt(const Window& t, SplitMix* rng, double max_sel) const {
    QuerySpec q;
    q.prefix = w_.prefix;
    q.first = t.first;
    q.n = t.n;
    for (int32_t pos = 0; pos < t.n; ++pos) {
      q.preds.push_back(
          {pos, kS, Op::kLt,
           w_.tables[static_cast<size_t>(t.first + pos)].LiteralFor(
               kS, Op::kLt, rng->Uniform() * max_sel)});
    }
    return q;
  }

  uint64_t NextColdShape() {
    uint64_t shape = 0;
    do {
      shape = (cold_offset_ + cold_k_++ * kColdStride) % kColdShapes;
    } while (skip_.count(shape) != 0);
    return shape;
  }

  const Workload& w_;
  SplitMix rng_;
  uint64_t cold_offset_;
  uint64_t cold_k_ = 0;
  std::set<uint64_t> skip_;
};


// ---------------------------------------------------------------------------
// Databases.

std::vector<BaseTable> ReadBaseTables(const Database& db,
                                      const std::string& prefix,
                                      int32_t count) {
  std::vector<BaseTable> tables(static_cast<size_t>(count) + 1);
  for (int32_t k = 1; k <= count; ++k) {
    const dqep::RelationId id = MustOk(
        db.catalog().FindRelation(prefix + std::to_string(k)), "relation");
    BaseTable& t = tables[static_cast<size_t>(k)];
    for (const Tuple& tuple : db.table(id).heap().Materialize()) {
      t.rows.push_back({tuple.value(kA).AsInt64(), tuple.value(kB).AsInt64(),
                        tuple.value(kS).AsInt64()});
    }
    t.Finish();
  }
  return tables;
}

/// The scaled_exec database: T1..T3, unclustered B-trees on a, b and s.
std::unique_ptr<Database> BuildScaledDb() {
  auto db = std::make_unique<Database>(kScaledPoolPages);
  for (int32_t k = 1; k <= kScaledRelations; ++k) {
    auto int_column = [](const char* name) {
      return dqep::ColumnInfo{.name = name,
                              .type = dqep::ColumnType::kInt64,
                              .domain_size = kScaledRows,
                              .width_bytes = 8};
    };
    std::vector<dqep::ColumnInfo> columns = {
        int_column("a"), int_column("b"), int_column("s"),
        {.name = "pay",
         .type = dqep::ColumnType::kString,
         .domain_size = 1,
         .width_bytes = kScaledRecordBytes - 3 * 8}};
    const dqep::RelationId id = MustOk(
        db->CreateTable("T" + std::to_string(k), std::move(columns),
                        kScaledRows),
        "create table");
    for (int32_t c : {kA, kB, kS}) {
      if (!db->CreateIndex(id, c).ok()) Die("create index");
    }
  }
  if (!dqep::GenerateDatabaseData(kScaledDbSeed, db.get()).ok()) {
    Die("generate scaled data");
  }
  return db;
}

/// An in-process engine: the embedded path of the CLI and the examples,
/// and the traced replica of a server session.
struct Engine {
  std::unique_ptr<dqep::PaperWorkload> paper;
  std::unique_ptr<Database> owned_db;
  Database* db = nullptr;
  SystemConfig config;
  std::unique_ptr<CostModel> owned_model;
  const CostModel* model = nullptr;
  DynamicPlanCache cache{DynamicPlanCache::kDefaultCapacity};

  static std::unique_ptr<Engine> Create(Kind kind) {
    auto e = std::make_unique<Engine>();
    if (kind == Kind::kScaledExec) {
      e->owned_db = BuildScaledDb();
      e->db = e->owned_db.get();
      e->owned_model = std::make_unique<CostModel>(&e->db->catalog(), e->config);
      e->model = e->owned_model.get();
    } else {
      e->paper = MustOk(dqep::PaperWorkload::Create(kPaperDbSeed, true),
                        "paper database");
      e->db = &e->paper->db();
      e->config = e->paper->config();
      e->model = &e->paper->model();
    }
    return e;
  }
};

/// The per-query side work of a server session (admission, query log,
/// flight recorder, drift monitor), for the traced replica.
struct Sinks {
  dqep::server::AdmissionController admission{dqep::server::AdmissionConfig{}};
  dqep::obs::QueryLogWriter log;
  dqep::obs::FlightRecorder flight{dqep::obs::FlightRecorderOptions{}};
  dqep::obs::CalibrationDriftMonitor drift;
  std::string log_path;
};

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out when the run ends.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t query;
};

class Tracer {
 public:
  int32_t Open(const char* name, int32_t parent, int64_t query) {
    spans_.push_back({name, NowNs(), 0, parent, query});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// One span around a scope; a no-op without a tracer.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int32_t parent, int64_t query)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Open(name, parent, query)) {}
  ~SpanScope() { End(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void End() {
    if (tracer_ != nullptr && id_ >= 0 && !ended_) {
      tracer_->Close(id_);
      ended_ = true;
    }
  }
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
  bool ended_ = false;
};

// ---------------------------------------------------------------------------
// Executing one query.

struct Executed {
  bool ok = false;
  std::string error;
  double latency_s = 0.0;  ///< as the caller sees it
  double server_s = -1.0;  ///< the server's own seconds= (server path)
  int cache = -1;          ///< 1 hit, 0 miss
  Outcome got;
  std::string shape;  ///< resolved plan shape (in-process path)
};

/// Per-query counts of the in-process path (traced runs).
struct Facts {
  bool hit = false;
  double plan_nodes = 0, choose_nodes = 0, cost_evaluations = 0,
         decisions = 0, rows = 0, spilled = 0, pool_hits = 0,
         pool_misses = 0, log_bytes = 0;
};

std::string PlanShape(const dqep::PhysNode& node) {
  std::string out = dqep::PhysOpKindName(node.kind());
  if (!node.children().empty()) {
    out += "(";
    for (size_t i = 0; i < node.children().size(); ++i) {
      out += (i ? "," : "") + PlanShape(*node.child(i));
    }
    out += ")";
  }
  return out;
}

int64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

/// Runs `sql` through the in-process path: the planning round of
/// PlanQueryWithCache spelled out with the public functions it calls
/// (normalize, lookup, parse + optimize + insert on a miss, bind), then
/// start-up resolution, execution and, when `sinks` is given, the side
/// work ServerSession::RunQuery does after execution.  With a tracer,
/// each call gets a span.  `sinks_outside` moves the side work out of the
/// query span (scaled_exec, whose own path has none).
Executed RunInProcess(Engine& e, Sinks* sinks, bool sinks_outside,
                      const std::string& sql, Tracer* tr, int64_t qid,
                      Facts* facts) {
  namespace obs = dqep::obs;
  Executed out;
  dqep::BufferPool& pool = e.db->buffer_pool();
  const int64_t pool_hits0 = pool.hits();
  const int64_t pool_misses0 = pool.misses();
  const int64_t t0 = NowNs();
  SpanScope root(tr, "query", -1, qid);
  const int32_t r = root.id();

  ParamEnv bound(dqep::Interval::Point(kGrantPages));
  DynamicPlanCache::EntryPtr entry;
  dqep::NormalizedQuery normalized;
  {
    SpanScope s(tr, "sql.normalize", r, qid);
    auto norm = dqep::NormalizeQuery(sql);
    if (!norm.ok()) {
      out.error = norm.status().ToString();
      return out;
    }
    normalized = std::move(*norm);
  }
  {
    SpanScope s(tr, "plan_cache.lookup", r, qid);
    entry = e.cache.Lookup(normalized.fingerprint, kGrantPages);
    if (entry != nullptr &&
        entry->literal_params.size() != normalized.literals.size()) {
      entry = nullptr;
    }
  }
  if (entry != nullptr) {
    SpanScope s(tr, "plan_cache.bind", r, qid);
    for (size_t i = 0; i < entry->literal_params.size(); ++i) {
      bound.Bind(entry->literal_params[i], dqep::Value(normalized.literals[i]));
    }
    out.cache = 1;
  } else {
    out.cache = 0;
    const auto epochs = e.cache.epochs();
    dqep::Result<dqep::ParsedQuery> parsed = dqep::Status::Internal("unset");
    {
      SpanScope s(tr, "sql.parse", r, qid);
      parsed = dqep::ParseQueryParameterized(sql, e.db->catalog());
    }
    if (!parsed.ok()) {
      out.error = parsed.status().ToString();
      return out;
    }
    dqep::Result<dqep::OptimizedPlan> plan = dqep::Status::Internal("unset");
    {
      SpanScope s(tr, "optimizer.optimize", r, qid);
      dqep::Optimizer optimizer(e.model, dqep::OptimizerOptions::Dynamic());
      plan = optimizer.Optimize(parsed->query,
                                ParamEnv(dqep::Interval::Point(kGrantPages)));
    }
    if (!plan.ok()) {
      out.error = plan.status().ToString();
      return out;
    }
    {
      SpanScope s(tr, "plan_cache.insert", r, qid);
      DynamicPlanCache::Entry fresh;
      fresh.fingerprint = normalized.fingerprint;
      fresh.template_text = normalized.template_text;
      fresh.memory_pages = kGrantPages;
      fresh.root = plan->root;
      fresh.cost = plan->cost;
      fresh.cardinality = plan->cardinality;
      fresh.host_params.assign(parsed->params.begin(), parsed->params.end());
      fresh.literal_params = parsed->lifted_params;
      fresh.plan_params = dqep::PlanParams(*plan->root);
      fresh.stats_epoch = epochs.first;
      fresh.profile_epoch = epochs.second;
      entry = e.cache.Insert(std::move(fresh));
      for (size_t i = 0; i < parsed->lifted_params.size(); ++i) {
        bound.Bind(parsed->lifted_params[i],
                   dqep::Value(parsed->lifted_values[i]));
      }
    }
  }

  dqep::Result<StartupResult> startup = dqep::Status::Internal("unset");
  {
    SpanScope s(tr, "startup.resolve", r, qid);
    StartupOptions options;
    options.plan_params = &entry->plan_params;
    startup = dqep::ResolveDynamicPlan(entry->root, *e.model, bound, options);
  }
  if (!startup.ok()) {
    out.error = startup.status().ToString();
    return out;
  }

  auto admit = [&] {
    SpanScope s(tr, "admission.admit", sinks_outside ? -1 : r, qid);
    return sinks->admission.Admit(normalized.fingerprint,
                                  static_cast<int64_t>(kGrantPages),
                                  startup->execution_cost);
  };
  dqep::server::AdmitResult admitted;
  if (sinks != nullptr && !sinks_outside) {
    admitted = admit();
    if (admitted.outcome != dqep::server::AdmitOutcome::kAdmitted) {
      out.error = "admission: " + admitted.message;
      return out;
    }
  }

  std::unique_ptr<dqep::ExecContext> ctx;
  std::unique_ptr<dqep::Iterator> iter;
  {
    SpanScope s(tr, "exec.build", r, qid);
    ctx = dqep::MakeExecContext(bound, e.config);
    auto built = dqep::BuildExecutor(startup->resolved, *e.db, bound, ctx.get());
    if (!built.ok()) {
      out.error = built.status().ToString();
      return out;
    }
    iter = std::move(*built);
  }
  std::vector<Tuple> rows;
  const int64_t exec_start = NowNs();
  {
    SpanScope s(tr, "exec.drain", r, qid);
    iter->Open();
    Tuple tuple;
    while (iter->Next(&tuple)) {
      rows.push_back(std::move(tuple));
    }
    iter->Close();
  }
  const double exec_seconds = static_cast<double>(NowNs() - exec_start) / 1e9;

  auto side_work = [&](int32_t parent) {
    if (sinks_outside) {
      admitted = admit();
    }
    {
      SpanScope s(tr, "admission.record", parent, qid);
      sinks->admission.RecordExecution(normalized.fingerprint, exec_seconds);
      sinks->drift.Record(normalized.fingerprint, startup->execution_cost,
                          exec_seconds);
    }
    const std::string cache_status = out.cache == 1 ? "hit" : "miss";
    obs::AnalyzeInput input;
    PhysNodePtr annotated;
    {
      SpanScope s(tr, "obs.annotate", parent, qid);
      annotated = dqep::ClonePlan(e.db->catalog(), startup->resolved);
      dqep::AnnotatePlan(*annotated, *e.model,
                         ParamEnv(dqep::Interval::Point(kGrantPages)),
                         dqep::EstimationMode::kInterval);
      input.dynamic_root = entry->root.get();
      input.resolved_root = annotated.get();
      input.startup = &*startup;
      input.exec_root = iter.get();
      input.plan_cache = cache_status;
    }
    const int64_t log_before =
        facts == nullptr ? 0 : FileSize(sinks->log_path);
    {
      SpanScope s(tr, "obs.querylog", parent, qid);
      obs::QueryLogRecord record =
          obs::BuildQueryLogRecord(sql, input, *e.model, bound);
      record.plan_cache = cache_status;
      record.exec_mode = "tuple";
      record.threads = 1;
      record.memory_pages = kGrantPages;
      record.peak_memory_bytes = ctx->tracker().peak_bytes();
      record.spill_files = ctx->temp_files_created();
      record.spill_tuples = ctx->tuples_spilled();
      sinks->log.Append(record);
    }
    if (facts != nullptr) {
      facts->log_bytes =
          static_cast<double>(FileSize(sinks->log_path) - log_before);
    }
    {
      SpanScope s(tr, "obs.flight", parent, qid);
      obs::FlightRecord flight;
      flight.fingerprint = normalized.fingerprint;
      flight.query = sql;
      flight.template_text = normalized.template_text;
      flight.cache = cache_status;
      flight.seconds = static_cast<double>(NowNs() - t0) / 1e9;
      flight.rows = static_cast<int64_t>(rows.size());
      flight.peak_memory_bytes = ctx->tracker().peak_bytes();
      flight.decisions = startup->decisions;
      for (const obs::AnalyzeRow& row : obs::CollectAnalyzeRows(input)) {
        if (row.kind == obs::AnalyzeRow::Kind::kDecision) {
          if (row.have_regret) flight.regret_seconds += row.regret;
          continue;
        }
        obs::OperatorSample op;
        op.op = row.op;
        op.depth = row.depth;
        op.est_cost_lo = row.est_cost.lo();
        op.est_cost_hi = row.est_cost.hi();
        op.est_rows_lo = row.est_rows.lo();
        op.est_rows_hi = row.est_rows.hi();
        op.actual_seconds = row.actual_seconds;
        op.actual_rows = row.actual_rows;
        op.have_actual = row.have_actual;
        flight.operators.push_back(std::move(op));
      }
      flight.analyze_json = obs::RenderAnalyze(input, obs::AnalyzeFormat::kJson);
      sinks->flight.Record(std::move(flight));
    }
    if (!sinks_outside) {
      SpanScope s(tr, "server.format", parent, qid);
      std::string wire;
      for (const Tuple& row : rows) {
        wire += dqep::server::FormatRowLine(row.ToString());
      }
      wire += dqep::server::FormatOkLine(static_cast<int64_t>(rows.size()),
                                         0.0, cache_status);
    }
  };
  if (sinks != nullptr && !sinks_outside) {
    side_work(r);
  }
  root.End();
  out.latency_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (sinks != nullptr && sinks_outside) {
    side_work(-1);
  }

  OutcomeBuilder builder;
  std::vector<int64_t> values;
  for (const Tuple& row : rows) {
    values.clear();
    for (int32_t i = 0; i < row.size(); ++i) {
      values.push_back(row.value(i).AsInt64());
    }
    builder.AddRow(values.data(), values.size());
  }
  out.got = builder.outcome();
  out.shape = PlanShape(*startup->resolved);
  out.ok = true;
  if (facts != nullptr) {
    facts->hit = out.cache == 1;
    facts->plan_nodes = static_cast<double>(entry->root->CountNodes());
    facts->choose_nodes = static_cast<double>(entry->root->CountChooseNodes());
    facts->cost_evaluations = static_cast<double>(startup->cost_evaluations);
    facts->decisions = static_cast<double>(startup->decisions);
    facts->rows = static_cast<double>(rows.size());
    facts->spilled = static_cast<double>(ctx->tuples_spilled());
    facts->pool_hits = static_cast<double>(pool.hits() - pool_hits0);
    facts->pool_misses = static_cast<double>(pool.misses() - pool_misses0);
  }
  return out;
}

/// An in-process DqepServer with one connected client.
class ServerClient {
 public:
  explicit ServerClient(const std::string& dir) {
    options_.socket_path = dir + "/s.sock";
    options_.query_log_path = dir + "/querylog.jsonl";
  }
  ~ServerClient() { Stop(); }
  ServerClient(const ServerClient&) = delete;
  ServerClient& operator=(const ServerClient&) = delete;

  void Start() {
    std::remove(options_.query_log_path.c_str());
    server_ = std::make_unique<dqep::server::DqepServer>(options_);
    std::string error;
    if (!server_->Start(&error)) Die("server start: " + error);
    serve_ = std::thread([this] { server_->Serve(); });
    const int fd = dqep::server::ConnectUnix(options_.socket_path, &error);
    if (fd < 0) Die("connect: " + error);
    channel_ = std::make_unique<dqep::server::LineChannel>(fd);
  }

  void Stop() {
    channel_.reset();
    if (server_ != nullptr) {
      server_->Shutdown();
      if (serve_.joinable()) serve_.join();
      server_.reset();
    }
  }

  Executed Run(const std::string& sql) {
    Executed out;
    dqep::server::QueryResponse response;
    const int64_t t0 = NowNs();
    const bool alive =
        channel_->WriteAll(sql + "\n") && channel_->ReadResponse(&response);
    out.latency_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!alive) Die("server connection lost");
    out.ok = response.ok;
    out.error = response.error;
    out.server_s = response.seconds;
    out.cache = response.cache == "hit" ? 1 : response.cache == "miss" ? 0 : -1;
    OutcomeBuilder builder;
    for (const std::string& row : response.rows) {
      if (!builder.AddRowText(row)) {
        out.ok = false;
        out.error = "unparsable row: " + row;
      }
    }
    out.got = builder.outcome();
    return out;
  }

  const dqep::server::DqepServer& server() const { return *server_; }

 private:
  dqep::server::ServerOptions options_;
  std::unique_ptr<dqep::server::DqepServer> server_;
  std::thread serve_;
  std::unique_ptr<dqep::server::LineChannel> channel_;
};

// ---------------------------------------------------------------------------
// Timed phases.

/// Peak RSS is read once this many queries of the timed window have
/// completed, not at its end: cold_churn's memory grows with every new
/// template, so a reading at the end would rise whenever throughput does.
/// scaled_exec is measured at its first rounds instead (it sends ~300).
size_t RssQueries(Kind kind) {
  return kind == Kind::kScaledExec ? 96 : 10000;
}

using ExecFn = std::function<Executed(const std::string& sql, int64_t qid)>;

struct Round {
  size_t end = 0;  ///< one past the round's last query
  double cpu_s = 0.0;
};

struct Phase {
  std::vector<QuerySpec> specs;  ///< in the order sent
  std::vector<Executed> results;
  /// Per query: when it was sent and when its result was in (steady
  /// clock, ns); throughput windows are measured between them.
  std::vector<int64_t> sent_ns;
  std::vector<int64_t> done_ns;
  std::vector<Round> rounds;
  /// VmHWM (KB) once RssQueries() queries have completed, or at the end.
  double peak_rss_kb = 0.0;
};

/// Sends whole rounds until `seconds` have passed (closed loop, one
/// client, no think time).
Phase RunRounds(Stream* stream, const std::vector<QuerySpec>& probes,
                double seconds, const ExecFn& run) {
  const size_t rss_queries = RssQueries(stream->kind());
  Phase phase;
  const int64_t t0 = NowNs();
  while (static_cast<double>(NowNs() - t0) / 1e9 < seconds) {
    std::vector<QuerySpec> queries = stream->NextRound();
    queries.insert(queries.end(), probes.begin(), probes.end());
    const double cpu0 = CpuSeconds();
    for (QuerySpec& q : queries) {
      const int64_t qid = static_cast<int64_t>(phase.specs.size());
      const std::string sql = RenderSql(q);
      phase.sent_ns.push_back(NowNs());
      phase.results.push_back(run(sql, qid));
      phase.done_ns.push_back(NowNs());
      phase.specs.push_back(std::move(q));
    }
    phase.rounds.push_back({phase.results.size(), CpuSeconds() - cpu0});
    if (phase.peak_rss_kb == 0.0 && phase.results.size() >= rss_queries) {
      phase.peak_rss_kb = StatusKb("VmHWM:");
    }
  }
  if (phase.peak_rss_kb == 0.0) phase.peak_rss_kb = StatusKb("VmHWM:");
  return phase;
}

// ---------------------------------------------------------------------------
// Checks, outside every timed window.

/// The paper's guarantee: the start-up choice of the cached dynamic plan
/// (g) costs what run-time optimization under the same literals finds
/// (d).  Memoized by query text: both sides are deterministic functions
/// of it.
class GdChecker {
 public:
  GdChecker(const dqep::Catalog* catalog, const CostModel* model)
      : catalog_(catalog), model_(model), cache_(4096) {}

  /// True when g and d agree within tolerance.
  bool Holds(const std::string& sql) {
    auto it = memo_.find(sql);
    if (it != memo_.end()) return it->second;
    CachedPlanRequest request;
    request.catalog = catalog_;
    request.model = model_;
    request.cache = &cache_;
    request.memory_pages = kGrantPages;
    CachedPlanResult planned =
        MustOk(dqep::PlanQueryWithCache(sql, request), "g=d plan");
    StartupOptions options;
    options.plan_params = &planned.plan_params;
    StartupResult g = MustOk(
        dqep::ResolveDynamicPlan(planned.root, *model_, planned.bound, options),
        "g=d resolve");
    dqep::ParsedQuery parsed =
        MustOk(dqep::ParseQueryParameterized(sql, *catalog_), "g=d parse");
    dqep::InvocationResult d = MustOk(
        dqep::OptimizeAtRunTime(parsed.query, *model_, planned.bound),
        "g=d run-time optimize");
    const bool holds = std::fabs(g.execution_cost - d.execution_cost) <=
                       kGdTolerance * std::max(1.0, std::fabs(d.execution_cost));
    if (!holds) {
      std::fprintf(stderr, "g != d: g=%.12g d=%.12g (%+.3g%%) %s\n",
                   g.execution_cost, d.execution_cost,
                   100.0 * (g.execution_cost / d.execution_cost - 1.0),
                   sql.c_str());
    }
    memo_.emplace(sql, holds);
    return holds;
  }

 private:
  const dqep::Catalog* catalog_;
  const CostModel* model_;
  DynamicPlanCache cache_;
  std::unordered_map<std::string, bool> memo_;
};

struct Verdict {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t errors = 0;
  int64_t wrong = 0;
  int64_t gd_failed = 0;
  int64_t nonempty = 0;
  int64_t sample_checked = 0;
  int64_t sample_mismatch = 0;
  std::vector<std::string> self_check_failures;
  bool correct() const { return wrong == 0 && self_check_failures.empty(); }

  void Add(const Verdict& o) {
    attempted += o.attempted;
    failed += o.failed;
    errors += o.errors;
    wrong += o.wrong;
    gd_failed += o.gd_failed;
    nonempty += o.nonempty;
    sample_checked += o.sample_checked;
    sample_mismatch += o.sample_mismatch;
    self_check_failures.insert(self_check_failures.end(),
                               o.self_check_failures.begin(),
                               o.self_check_failures.end());
  }
};

Verdict Verify(const Workload& w, const Phase& phase, GdChecker* gd,
               const char* phase_name) {
  Verdict v;
  std::set<uint64_t> fingerprints;
  int64_t seeded = 0;
  int64_t bad_cache = 0;
  std::set<std::string> shapes;
  for (size_t i = 0; i < phase.specs.size(); ++i) {
    const QuerySpec& q = phase.specs[i];
    const Executed& r = phase.results[i];
    const std::string sql = RenderSql(q);
    ++v.attempted;
    if (!r.ok) {
      ++v.failed;
      ++v.errors;
      if (v.errors <= 3) std::fprintf(stderr, "error: %s: %s\n", r.error.c_str(), sql.c_str());
      continue;
    }
    const Outcome want = Evaluate(q, w.tables);
    if (!(r.got == want)) {
      ++v.failed;
      ++v.wrong;
      if (v.wrong <= 3) {
        std::fprintf(stderr, "wrong result: %lld rows, want %lld: %s\n",
                     static_cast<long long>(r.got.rows),
                     static_cast<long long>(want.rows), sql.c_str());
      }
      continue;
    }
    v.nonempty += want.rows > 0 ? 1 : 0;
    if (q.probe && !gd->Holds(sql)) {
      ++v.failed;
      ++v.gd_failed;
      continue;
    }
    if (!q.probe) {
      ++seeded;
      if (v.sample_checked < static_cast<int64_t>(kGdSample)) {
        ++v.sample_checked;
        v.sample_mismatch += gd->Holds(sql) ? 0 : 1;
      }
    }
    if (!r.shape.empty()) shapes.insert(r.shape);
    const int want_cache = w.kind == Kind::kWarmHits ? 1 : 0;
    if (w.kind != Kind::kScaledExec && r.cache != want_cache) ++bad_cache;
    if (w.kind == Kind::kColdChurn && !q.probe) {
      auto norm = dqep::NormalizeQuery(sql);
      if (norm.ok()) fingerprints.insert(norm->fingerprint);
    }
  }
  auto fail = [&](const std::string& what) {
    v.self_check_failures.push_back(std::string(phase_name) + ": " + what);
  };
  if (bad_cache > 0) {
    fail(std::to_string(bad_cache) + " queries did not report cache=" +
         (w.kind == Kind::kWarmHits ? "hit" : "miss"));
  }
  if (w.kind == Kind::kColdChurn &&
      static_cast<int64_t>(fingerprints.size()) != seeded) {
    fail("template fingerprints repeat (" + std::to_string(fingerprints.size()) +
         " distinct of " + std::to_string(seeded) + ")");
  }
  if (w.kind == Kind::kScaledExec && shapes.size() < 2 && !phase.specs.empty()) {
    fail("choose-plan resolved to a single plan shape");
  }
  return v;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Verdict& v, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& f : v.self_check_failures) {
    std::fprintf(stderr, "self-check failed: %s\n", f.c_str());
  }
  std::fprintf(stderr,
               "attempted %lld, failed %lld (errors %lld, wrong results %lld, "
               "g != d probes %lld); non-empty results %lld; seeded g = d "
               "sample: %lld checked, %lld mismatched\n",
               static_cast<long long>(v.attempted),
               static_cast<long long>(v.failed),
               static_cast<long long>(v.errors),
               static_cast<long long>(v.wrong),
               static_cast<long long>(v.gd_failed),
               static_cast<long long>(v.nonempty),
               static_cast<long long>(v.sample_checked),
               static_cast<long long>(v.sample_mismatch));
  std::string json = std::string("{\"correct\": ") +
                     (v.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(v.attempted) +
                     ", \"failed\": " + std::to_string(v.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Runs.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;
};

Kind ParseKind(const std::string& name) {
  if (name == "warm_hits") return Kind::kWarmHits;
  if (name == "cold_churn") return Kind::kColdChurn;
  if (name == "scaled_exec") return Kind::kScaledExec;
  Die("unknown workload '" + name + "'");
}

/// Reference copy of the workload's database, read once for the oracle
/// and the literal choice.  Server workloads keep the catalog and model
/// for the g = d checks.
struct Reference {
  Workload w;
  std::unique_ptr<dqep::PaperWorkload> paper;
};

Reference LoadReference(Kind kind, Engine* scaled_engine) {
  Reference ref;
  ref.w.kind = kind;
  if (kind == Kind::kScaledExec) {
    ref.w.prefix = "T";
    ref.w.tables = ReadBaseTables(*scaled_engine->db, "T", kScaledRelations);
  } else {
    ref.w.prefix = "R";
    ref.paper = MustOk(dqep::PaperWorkload::Create(kPaperDbSeed, true),
                       "reference database");
    ref.w.tables = ReadBaseTables(ref.paper->db(), "R", 10);
  }
  return ref;
}

/// Queries per throughput window: 16 consecutive queries of a round on
/// the server workloads (about 10 ms), the whole round of the stratified
/// mix on scaled_exec (about 2.5 s).
size_t QpsWindow(Kind kind, size_t round_queries) {
  return kind == Kind::kScaledExec ? round_queries : 16;
}

/// End-to-end metrics of one timed phase, all medians: throughput over
/// windows of consecutive queries within a round, CPU per query over
/// rounds.  A short stall of the shared host then moves one window, not
/// the figure.  Tail percentiles follow the host's stalls more than the
/// program, so they go to standard error only.
std::vector<Metric> EndToEnd(const Phase& phase, Kind kind, double setup_s) {
  std::vector<double> latencies_ms, window_qps, round_cpu_ms;
  for (const Executed& r : phase.results) {
    latencies_ms.push_back(r.latency_s * 1e3);
  }
  size_t begin = 0;
  for (const Round& r : phase.rounds) {
    const size_t window = QpsWindow(kind, r.end - begin);
    for (size_t first = begin; first + window <= r.end; first += window) {
      const double ns = static_cast<double>(phase.done_ns[first + window - 1] -
                                            phase.sent_ns[first]);
      window_qps.push_back(static_cast<double>(window) * 1e9 / ns);
    }
    round_cpu_ms.push_back(r.cpu_s * 1e3 / static_cast<double>(r.end - begin));
    begin = r.end;
  }
  std::fprintf(stderr,
               "  tail latency over %zu queries (not in the result): p90 %.4f "
               "ms, p99 %.4f ms\n",
               latencies_ms.size(), Quantile(latencies_ms, 0.90),
               Quantile(latencies_ms, 0.99));
  return {
      {"qps", Median(window_qps), "1/s"},
      {"latency_p50_ms", Median(latencies_ms), "ms"},
      {"cpu_ms_per_query", Median(round_cpu_ms), "ms"},
      {"peak_rss_mb", phase.peak_rss_kb / 1024.0, "MB"},
      {"setup_s", setup_s, "s"},
  };
}

/// Sums of span durations (ns) of one query, by span name, plus the
/// root span's self time.
struct QuerySpans {
  int64_t qid = -1;
  std::map<std::string, double> ns;
  double root_ns = 0.0;
  double root_self_ns = 0.0;
};

std::vector<QuerySpans> GroupSpans(const std::vector<Span>& spans) {
  std::vector<QuerySpans> out;
  int32_t root = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    if (out.empty() || out.back().qid != s.query) {
      out.push_back({});
      out.back().qid = s.query;
      root = -1;
    }
    QuerySpans& q = out.back();
    if (std::strcmp(s.name, "query") == 0) {
      root = static_cast<int32_t>(i);
      q.root_ns = ns;
      q.root_self_ns += ns;
      continue;
    }
    q.ns[s.name] += ns;
    if (root >= 0 && s.parent == root) {
      q.root_self_ns -= ns;
    }
  }
  return out;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "query,span,parent,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%lld,%zu,%d,%s,%lld,%lld\n",
                 static_cast<long long>(s.query), i, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fclose(f);
}

constexpr int64_t kWarmupQid = 1000000000;

struct TracedPhase {
  Phase phase;
  std::vector<Facts> facts;
  Tracer tracer;
  dqep::PlanCacheStats cache_before;
  dqep::PlanCacheStats cache_after;
};

/// Warm-up plus timed rounds through the in-process path with spans.
void RunTracedPhase(Engine& e, Sinks* sinks, bool sinks_outside,
                    Stream* stream, const std::vector<QuerySpec>& warmup,
                    const std::vector<QuerySpec>& probes, double seconds,
                    TracedPhase* out) {
  for (size_t i = 0; i < warmup.size(); ++i) {
    RunInProcess(e, sinks, sinks_outside, RenderSql(warmup[i]), &out->tracer,
                 kWarmupQid + static_cast<int64_t>(i), nullptr);
  }
  out->cache_before = e.cache.stats();
  out->phase = RunRounds(stream, probes, seconds,
                         [&](const std::string& sql, int64_t qid) {
                           out->facts.emplace_back();
                           return RunInProcess(e, sinks, sinks_outside, sql,
                                               &out->tracer, qid,
                                               &out->facts.back());
                         });
  out->cache_after = e.cache.stats();
}

std::vector<Metric> PerLayer(const TracedPhase& t, double untraced_query_s,
                             double gap_us, double rss_kb_per_1k) {
  std::map<std::string, std::vector<double>> timed;  // name -> per-query ns
  std::map<std::string, std::vector<double>> all;
  std::vector<double> hit_consult, miss_consult, ns_per_eval, root_ns,
      root_self_ns;
  for (const QuerySpans& q : GroupSpans(t.tracer.spans())) {
    for (const auto& [name, ns] : q.ns) {
      all[name].push_back(ns);
    }
    if (q.qid >= kWarmupQid) continue;
    for (const auto& [name, ns] : q.ns) {
      timed[name].push_back(ns);
    }
    auto get = [&](const char* name) {
      auto it = q.ns.find(name);
      return it == q.ns.end() ? 0.0 : it->second;
    };
    const double consult = get("sql.normalize") + get("plan_cache.lookup");
    if (q.ns.count("plan_cache.bind") != 0) {
      hit_consult.push_back(consult + get("plan_cache.bind"));
    } else {
      miss_consult.push_back(consult);
    }
    const Facts& f = t.facts[static_cast<size_t>(q.qid)];
    if (f.cost_evaluations > 0) {
      ns_per_eval.push_back(get("startup.resolve") / f.cost_evaluations);
    }
    root_ns.push_back(q.root_ns);
    root_self_ns.push_back(q.root_self_ns);
  }
  auto med = [](const std::map<std::string, std::vector<double>>& m,
                const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : Median(it->second);
  };
  std::vector<double> hits, plan_nodes, choose_nodes, evals, decisions, rows,
      spilled, pool_hits, pool_misses, fetches, log_bytes;
  for (const Facts& f : t.facts) {
    hits.push_back(f.hit ? 1.0 : 0.0);
    plan_nodes.push_back(f.plan_nodes);
    choose_nodes.push_back(f.choose_nodes);
    evals.push_back(f.cost_evaluations);
    decisions.push_back(f.decisions);
    rows.push_back(f.rows);
    spilled.push_back(f.spilled);
    pool_hits.push_back(f.pool_hits);
    pool_misses.push_back(f.pool_misses);
    fetches.push_back(f.pool_hits + f.pool_misses);
    log_bytes.push_back(f.log_bytes);
  }
  const double lookups = static_cast<double>(t.facts.size());
  const double evictions =
      static_cast<double>(t.cache_after.evictions - t.cache_before.evictions);
  const double fetch_mean = Mean(fetches);
  const double traced_query_s = Mean(root_ns) / 1e9;
  return {
      {"sql.normalize_us", med(timed, "sql.normalize") / 1e3, "us"},
      {"sql.parse_us", med(all, "sql.parse") / 1e3, "us"},
      {"plan_cache.hit_us",
       (hit_consult.empty() ? Median(miss_consult) : Median(hit_consult)) / 1e3,
       "us"},
      {"plan_cache.hit_ratio", Mean(hits), "ratio"},
      {"plan_cache.lookups", lookups, "count"},
      {"plan_cache.evictions_per_1k",
       lookups > 0 ? evictions / lookups * 1e3 : 0.0, "count"},
      {"optimizer.optimize_ms", med(all, "optimizer.optimize") / 1e6, "ms"},
      {"optimizer.plan_nodes", Median(plan_nodes), "count"},
      {"optimizer.choose_nodes", Median(choose_nodes), "count"},
      {"startup.resolve_us", med(timed, "startup.resolve") / 1e3, "us"},
      {"startup.cost_evaluations", Median(evals), "count"},
      {"startup.decisions", Median(decisions), "count"},
      {"startup.ns_per_evaluation", Median(ns_per_eval), "ns"},
      {"admission.admit_us", med(timed, "admission.admit") / 1e3, "us"},
      {"exec.build_us", med(timed, "exec.build") / 1e3, "us"},
      {"exec.drain_ms", med(timed, "exec.drain") / 1e6, "ms"},
      {"exec.rows_out", Mean(rows), "count"},
      {"exec.spilled_tuples", Mean(spilled), "count"},
      {"storage.pool_hit_ratio",
       fetch_mean > 0 ? Mean(pool_hits) / fetch_mean : 0.0, "ratio"},
      {"storage.pool_fetches", fetch_mean, "count"},
      {"storage.pool_misses", Mean(pool_misses), "count"},
      {"obs.querylog_us", med(timed, "obs.querylog") / 1e3, "us"},
      {"obs.querylog_bytes", Mean(log_bytes), "bytes"},
      {"obs.flight_us",
       (med(timed, "obs.annotate") + med(timed, "obs.flight")) / 1e3, "us"},
      {"obs.rss_kb_per_1k_templates", rss_kb_per_1k, "KB"},
      {"server.gap_us", gap_us < 0 ? Median(root_self_ns) / 1e3 : gap_us,
       "us"},
      {"trace.query_us", traced_query_s * 1e6, "us"},
      {"trace.overhead_pct",
       untraced_query_s > 0 ? (traced_query_s / untraced_query_s - 1.0) * 100.0
                            : 0.0,
       "%"},
  };
}

double MeanLatency(const Phase& p) {
  std::vector<double> v;
  for (const Executed& r : p.results) v.push_back(r.latency_s);
  return Mean(v);
}

double Seconds(int64_t from_ns) {
  return static_cast<double>(NowNs() - from_ns) / 1e9;
}

/// Times `setup` kSetups times, each in a forked child, and returns the
/// median.  The timed process then holds a single server or database, so
/// its peak RSS does not depend on how the allocator reuses the memory of
/// discarded set-ups.  Call it while the process has no other threads.
double MedianSetupSeconds(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) Die("pipe");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) Die("fork");
    if (pid == 0) {
      ::close(fds[0]);
      const int64_t t0 = NowNs();
      setup();
      const double elapsed = Seconds(t0);
      const bool sent =
          ::write(fds[1], &elapsed, sizeof(elapsed)) == sizeof(elapsed);
      ::_exit(sent ? 0 : 1);
    }
    ::close(fds[1]);
    double elapsed = 0.0;
    const bool got = ::read(fds[0], &elapsed, sizeof(elapsed)) == sizeof(elapsed);
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      Die("set-up child failed");
    }
    seconds.push_back(elapsed);
  }
  return Median(seconds);
}

/// Binds the process, and so every thread it starts later, to the last
/// CPU it may run on.  The client and the server session thread then hand
/// each query back and forth on one CPU: no cross-CPU wake-up of an idle
/// virtual CPU, whose delay follows the shared host's load, lies on the
/// critical path of a query.  The embedded path has no hand-off and is
/// left to the scheduler.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) Die("sched_getaffinity");
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) Die("no CPU to run on");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (::sched_setaffinity(0, sizeof(one), &one) != 0) Die("sched_setaffinity");
  std::fprintf(stderr, "perfbench: running on CPU %d\n", last);
}

std::unique_ptr<Sinks> MakeSinks(const std::string& path) {
  auto sinks = std::make_unique<Sinks>();
  sinks->log_path = path;
  std::remove(path.c_str());
  std::string error;
  if (!sinks->log.Open(path, &error)) Die("query log: " + error);
  return sinks;
}

int RunServerWorkload(Kind kind, const Args& a, const std::string& spans_out) {
  PinToOneCpu();
  Reference ref = LoadReference(kind, nullptr);
  GdChecker gd(&ref.paper->catalog(), &ref.paper->model());
  const std::vector<QuerySpec> probes = Probes(ref.w);
  Verdict verdict;

  if (!a.trace) {
    Stream stream(ref.w, a.seed);
    const std::vector<QuerySpec> warmup = stream.Warmup();
    ServerClient client(a.tmp_dir);
    auto setup = [&] {
      client.Start();
      for (const QuerySpec& q : warmup) client.Run(RenderSql(q));
    };
    const double setup_s = MedianSetupSeconds(setup);
    setup();
    Phase phase = RunRounds(&stream, probes, a.seconds,
                            [&](const std::string& sql, int64_t) {
                              return client.Run(sql);
                            });
    std::vector<Metric> metrics = EndToEnd(phase, kind, setup_s);
    client.Stop();
    verdict = Verify(ref.w, phase, &gd, "timed");
    PrintResult(verdict, metrics);
    return verdict.correct() ? 0 : 1;
  }

  // Phase A: the server, untraced — the client/server gap and RSS growth.
  const double third = a.seconds / 3.0;
  double gap_us = 0.0, rss_kb_per_1k = 0.0;
  {
    Stream stream(ref.w, a.seed);
    const std::vector<QuerySpec> warmup = stream.Warmup();
    ServerClient client(a.tmp_dir);
    client.Start();
    for (const QuerySpec& q : warmup) client.Run(RenderSql(q));
    const double rss0 = StatusKb("VmRSS:");
    Phase phase = RunRounds(&stream, probes, third,
                            [&](const std::string& sql, int64_t) {
                              return client.Run(sql);
                            });
    const double rss1 = StatusKb("VmRSS:");
    client.Stop();
    std::vector<double> gaps;
    int64_t templates = 0;
    for (const Executed& r : phase.results) {
      if (r.ok) gaps.push_back((r.latency_s - r.server_s) * 1e6);
      templates += r.cache == 0 ? 1 : 0;
    }
    gap_us = Median(gaps);
    rss_kb_per_1k = templates > 0 ? (rss1 - rss0) / static_cast<double>(templates) * 1e3 : 0.0;
    verdict.Add(Verify(ref.w, phase, &gd, "server"));
  }
  // Phase B1: the in-process replica of the session, untraced.
  double untraced_query_s = 0.0;
  {
    Stream stream(ref.w, a.seed);
    const std::vector<QuerySpec> warmup = stream.Warmup();
    auto engine = Engine::Create(kind);
    auto sinks = MakeSinks(a.tmp_dir + "/untraced.jsonl");
    for (const QuerySpec& q : warmup) {
      RunInProcess(*engine, sinks.get(), false, RenderSql(q), nullptr, 0, nullptr);
    }
    Phase phase = RunRounds(&stream, probes, third,
                            [&](const std::string& sql, int64_t qid) {
                              return RunInProcess(*engine, sinks.get(), false,
                                                  sql, nullptr, qid, nullptr);
                            });
    untraced_query_s = MeanLatency(phase);
    verdict.Add(Verify(ref.w, phase, &gd, "in-process"));
  }
  // Phase B2: the same replica with a span around every layer call.
  TracedPhase traced;
  {
    Stream stream(ref.w, a.seed);
    const std::vector<QuerySpec> warmup = stream.Warmup();
    auto engine = Engine::Create(kind);
    auto sinks = MakeSinks(a.tmp_dir + "/traced.jsonl");
    RunTracedPhase(*engine, sinks.get(), false, &stream, warmup, probes, third,
                   &traced);
    verdict.Add(Verify(ref.w, traced.phase, &gd, "traced"));
  }
  WriteSpans(traced.tracer.spans(), spans_out);
  PrintResult(verdict,
              PerLayer(traced, untraced_query_s, gap_us, rss_kb_per_1k));
  return verdict.correct() ? 0 : 1;
}

int RunScaledWorkload(const Args& a, const std::string& spans_out) {
  std::unique_ptr<Engine> engine = Engine::Create(Kind::kScaledExec);
  const Reference ref = LoadReference(Kind::kScaledExec, engine.get());
  Stream stream(ref.w, a.seed);
  const std::vector<QuerySpec> warmup = stream.Warmup();
  auto warm = [&](Engine& e) {
    for (const QuerySpec& q : warmup) {
      RunInProcess(e, nullptr, false, RenderSql(q), nullptr, 0, nullptr);
    }
  };
  const double setup_s = a.trace ? 0.0 : MedianSetupSeconds([&] {
    std::unique_ptr<Engine> fresh = Engine::Create(Kind::kScaledExec);
    warm(*fresh);
  });
  warm(*engine);
  GdChecker gd(&engine->db->catalog(), engine->model);
  const std::vector<QuerySpec> probes = Probes(ref.w);
  Verdict verdict;
  int64_t data_pages = 0;
  for (int32_t k = 1; k <= kScaledRelations; ++k) {
    const dqep::RelationId id = MustOk(
        engine->db->catalog().FindRelation("T" + std::to_string(k)), "relation");
    data_pages += engine->db->table(id).heap().NumPages();
  }
  if (data_pages < 3 * static_cast<int64_t>(kScaledPoolPages)) {
    verdict.self_check_failures.push_back(
        "data pages (" + std::to_string(data_pages) +
        ") are not at least 3x the buffer pool");
  }
  auto embedded = [&](const std::string& sql, int64_t qid) {
    return RunInProcess(*engine, nullptr, false, sql, nullptr, qid, nullptr);
  };

  if (!a.trace) {
    Phase phase = RunRounds(&stream, probes, a.seconds, embedded);
    std::vector<Metric> metrics = EndToEnd(phase, Kind::kScaledExec, setup_s);
    verdict.Add(Verify(ref.w, phase, &gd, "timed"));
    PrintResult(verdict, metrics);
    return verdict.correct() ? 0 : 1;
  }

  const double half = a.seconds / 2.0;
  Phase untraced = RunRounds(&stream, probes, half, embedded);
  verdict.Add(Verify(ref.w, untraced, &gd, "untraced"));
  // The traced half starts from an empty plan cache, so its warm-up
  // misses give the parse and optimize spans, and sends the same inputs.
  engine->cache.Clear();
  Stream traced_stream(ref.w, a.seed);
  const std::vector<QuerySpec> traced_warmup = traced_stream.Warmup();
  auto sinks = MakeSinks(a.tmp_dir + "/traced.jsonl");
  TracedPhase traced;
  RunTracedPhase(*engine, sinks.get(), true, &traced_stream, traced_warmup,
                 probes, half, &traced);
  verdict.Add(Verify(ref.w, traced.phase, &gd, "traced"));
  WriteSpans(traced.tracer.spans(), spans_out);
  PrintResult(verdict, PerLayer(traced, MeanLatency(untraced), -1.0, 0.0));
  return verdict.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  std::string spans_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(value.c_str());
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--tmp-dir") a.tmp_dir = value;
    else if (key == "--spans-out") spans_out = value;
    else Die("unknown argument " + key);
  }
  if (a.workload.empty() || a.tmp_dir.empty() || a.seconds <= 0) {
    Die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --tmp-dir <dir> [--spans-out <file>]");
  }
  const Kind kind = ParseKind(a.workload);
  return kind == Kind::kScaledExec ? RunScaledWorkload(a, spans_out)
                                   : RunServerWorkload(kind, a, spans_out);
}
