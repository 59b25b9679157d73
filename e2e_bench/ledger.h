// The traced run's bookkeeping: spans the benchmark records around its
// calls into the program, and the per-layer ledger built from them.
#ifndef DAR_E2E_BENCH_LEDGER_H_
#define DAR_E2E_BENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sync/mutex.h"

namespace dar {
namespace e2e {

/// One timed call: which layer, for which request, when.
struct SpanRecord {
  std::string name;
  int64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans kept in memory for the whole run and written out at its end.
/// Record is thread-safe (the HTTP handler spans arrive from every server
/// worker).
class SpanLog {
 public:
  void Record(const std::string& name, int64_t request, int64_t start_ns,
              int64_t end_ns) DAR_EXCLUDES(mu_);

  /// Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const
      DAR_EXCLUDES(mu_);

  /// Per request that has a `name` span: its duration minus the durations
  /// of that request's `minus` spans (absent ones count 0), microseconds.
  /// When the `minus` spans nest inside `name` this is the layer's self
  /// time; for spans of one request on separate but equivalent stacks it
  /// is the paired difference.
  std::vector<double> DifferenceUs(const std::string& name,
                                   const std::vector<std::string>& minus) const
      DAR_EXCLUDES(mu_);

  /// Per request that has a `name` span, its duration in microseconds, 0
  /// for requests in `requests_of` that have none (a stage the request
  /// skipped, such as the encoders on a cache hit).
  std::vector<double> PerRequestUs(const std::string& name,
                                   const std::string& requests_of) const
      DAR_EXCLUDES(mu_);

  /// One JSON object per line: name, request, start_ns, dur_ns.
  bool WriteJsonl(const std::string& path) const DAR_EXCLUDES(mu_);

 private:
  /// request -> summed duration (ns) of the spans named `name`.
  std::map<int64_t, int64_t> ByRequestLocked(const std::string& name) const
      DAR_REQUIRES(mu_);

  mutable sync::Mutex mu_{sync::Rank::kLeaf, "e2e.spans"};
  std::vector<SpanRecord> spans_ DAR_GUARDED_BY(mu_);
};

struct LedgerRow {
  std::string name;
  double value = 0.0;
};

/// Splits one end-to-end number into per-layer rows plus an explicit
/// residual row (the total minus every other row), so the rows always add
/// up to the total. The residual holds what no row measures — and, since
/// each row is a median of its own, the gap between a sum of medians and
/// the median of a sum.
class Ledger {
 public:
  Ledger(double total, std::string residual_name);

  void Add(const std::string& name, double value);

  double total() const { return total_; }
  double residual() const;
  /// The added rows followed by the residual row.
  std::vector<LedgerRow> Rows() const;

  /// Prints the rows, their sum and the total to stdout.
  void Print(const char* title, const char* unit) const;

 private:
  double total_;
  std::string residual_name_;
  std::vector<LedgerRow> rows_;
};

}  // namespace e2e
}  // namespace dar

#endif  // DAR_E2E_BENCH_LEDGER_H_
