// Query descriptions, their SQL text, and the benchmark's own evaluator.
//
// Every query the benchmark sends is kept in structured form: a chain of
// relations joined next-to-previous (X<i>.b = X<i+1>.a) plus selection
// predicates with integer literals.  The form renders to the SQL the
// program receives and is evaluated here, by a hash-join fold over base
// rows read once at set-up, to the row count and an order-independent
// checksum of the projected rows.  Nothing here uses the optimizer, the
// start-up resolver or the executor, so a wrong plan or a wrong operator
// shows up as a mismatch.  Literals are chosen from the base rows' own
// value distribution (a quantile for a target selectivity), so the
// inputs do not move when the program's cost model changes.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's own generator, so its inputs depend on the
/// seed alone and not on the program's RNG.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

inline uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Folds one projected value into a row hash (order-sensitive within a
/// row; rows are combined by summing Mix(row hash), which is not).
inline uint64_t FoldValue(uint64_t h, int64_t v) {
  return (h ^ static_cast<uint64_t>(v)) * 0x100000001b3ULL + 0x9e37ULL;
}
constexpr uint64_t kRowHashSeed = 0xcbf29ce484222325ULL;

/// Columns of every benchmark relation, as the program names them.
enum Column : int32_t { kA = 0, kB = 1, kS = 2 };
inline const char* ColumnName(int32_t c) {
  return c == kA ? "a" : c == kB ? "b" : "s";
}

enum class Op { kLt, kLe, kGt, kGe, kEq };
inline const char* OpText(Op op) {
  switch (op) {
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kEq: return "=";
  }
  return "?";
}
inline bool Holds(int64_t v, Op op, int64_t lit) {
  switch (op) {
    case Op::kLt: return v < lit;
    case Op::kLe: return v <= lit;
    case Op::kGt: return v > lit;
    case Op::kGe: return v >= lit;
    case Op::kEq: return v == lit;
  }
  return false;
}

struct Pred {
  int32_t pos = 0;  ///< position in the chain, 0-based
  int32_t column = kS;
  Op op = Op::kLt;
  int64_t literal = 0;
};

/// A chain query over <prefix><first> .. <prefix><first+n-1>, projecting
/// (a, s) of every relation in chain order.
struct QuerySpec {
  std::string prefix;
  int32_t first = 1;
  int32_t n = 1;
  std::vector<Pred> preds;
  /// A fixed probe query (same text in every run, whatever the seed).
  bool probe = false;
};

inline std::string RenderSql(const QuerySpec& q) {
  auto rel = [&](int32_t pos) {
    return q.prefix + std::to_string(q.first + pos);
  };
  std::string sql = "SELECT ";
  for (int32_t i = 0; i < q.n; ++i) {
    sql += (i ? ", " : "") + rel(i) + ".a, " + rel(i) + ".s";
  }
  sql += " FROM ";
  for (int32_t i = 0; i < q.n; ++i) {
    sql += (i ? ", " : "") + rel(i);
  }
  bool first = true;
  auto conj = [&] {
    sql += first ? " WHERE " : " AND ";
    first = false;
  };
  for (int32_t i = 0; i + 1 < q.n; ++i) {
    conj();
    sql += rel(i) + ".b = " + rel(i + 1) + ".a";
  }
  for (const Pred& p : q.preds) {
    conj();
    sql += rel(p.pos) + "." + ColumnName(p.column) + " " + OpText(p.op) +
           " " + std::to_string(p.literal);
  }
  return sql;
}

/// One relation's base rows (a, b, s), plus each column's sorted values
/// for choosing literals by selectivity.
struct BaseTable {
  std::vector<std::array<int64_t, 3>> rows;
  std::array<std::vector<int64_t>, 3> sorted;

  void Finish() {
    for (int32_t c = 0; c < 3; ++c) {
      sorted[c].clear();
      sorted[c].reserve(rows.size());
      for (const auto& r : rows) {
        sorted[c].push_back(r[c]);
      }
      std::sort(sorted[c].begin(), sorted[c].end());
    }
  }

  /// A literal for `column op literal` selecting about `sel` of the rows
  /// (for '=' any present value; `sel` then picks which).
  int64_t LiteralFor(int32_t column, Op op, double sel) const {
    const std::vector<int64_t>& v = sorted[column];
    const size_t n = v.size();
    size_t k = std::min(n - 1, static_cast<size_t>(sel * static_cast<double>(n)));
    switch (op) {
      case Op::kLt: return v[k];            // about k rows below
      case Op::kLe: return v[k == 0 ? 0 : k - 1];
      case Op::kGt: return v[n - 1 - k];
      case Op::kGe: return k == 0 ? v[n - 1] + 1 : v[n - k];
      case Op::kEq: return v[k];
    }
    return 0;
  }
};

struct Outcome {
  int64_t rows = 0;
  uint64_t checksum = 0;
  bool operator==(const Outcome& o) const {
    return rows == o.rows && checksum == o.checksum;
  }
};

/// Accumulates program output rows into an Outcome.
class OutcomeBuilder {
 public:
  void AddRow(const int64_t* values, size_t count) {
    uint64_t h = kRowHashSeed;
    for (size_t i = 0; i < count; ++i) {
      h = FoldValue(h, values[i]);
    }
    out_.rows += 1;
    out_.checksum += Mix(h);
  }
  /// Parses a rendered row "(v1, v2, ...)".  Returns false on a value
  /// that is not an integer.
  bool AddRowText(const std::string& text) {
    values_.clear();
    const char* p = text.c_str();
    while (*p != '\0') {
      if (*p == '(' || *p == ',' || *p == ' ' || *p == ')') {
        ++p;
        continue;
      }
      char* end = nullptr;
      long long v = std::strtoll(p, &end, 10);
      if (end == p) {
        return false;
      }
      values_.push_back(v);
      p = end;
    }
    AddRow(values_.data(), values_.size());
    return true;
  }
  const Outcome& outcome() const { return out_; }

 private:
  Outcome out_;
  std::vector<int64_t> values_;
};

/// Evaluates `q` over `tables` (indexed by relation number: tables[k] is
/// <prefix>k).  A left-to-right hash-join fold; partial rows carry their
/// running row hash and the join key for the next relation.
inline Outcome Evaluate(const QuerySpec& q,
                        const std::vector<BaseTable>& tables) {
  struct Partial {
    uint64_t hash;
    int64_t next_key;
  };
  auto passes = [&](int32_t pos, const std::array<int64_t, 3>& r) {
    for (const Pred& p : q.preds) {
      if (p.pos == pos && !Holds(r[p.column], p.op, p.literal)) {
        return false;
      }
    }
    return true;
  };
  std::vector<Partial> partials;
  for (const auto& r : tables[static_cast<size_t>(q.first)].rows) {
    if (passes(0, r)) {
      partials.push_back(
          {FoldValue(FoldValue(kRowHashSeed, r[kA]), r[kS]), r[kB]});
    }
  }
  for (int32_t pos = 1; pos < q.n && !partials.empty(); ++pos) {
    std::unordered_map<int64_t, std::vector<const std::array<int64_t, 3>*>>
        by_a;
    for (const auto& r : tables[static_cast<size_t>(q.first + pos)].rows) {
      if (passes(pos, r)) {
        by_a[r[kA]].push_back(&r);
      }
    }
    std::vector<Partial> next;
    for (const Partial& p : partials) {
      auto it = by_a.find(p.next_key);
      if (it == by_a.end()) {
        continue;
      }
      for (const auto* r : it->second) {
        next.push_back({FoldValue(FoldValue(p.hash, (*r)[kA]), (*r)[kS]),
                        (*r)[kB]});
      }
    }
    partials = std::move(next);
  }
  Outcome out;
  for (const Partial& p : partials) {
    out.rows += 1;
    out.checksum += Mix(p.hash);
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
