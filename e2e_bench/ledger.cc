#include "ledger.h"

#include <cstdio>

namespace dar {
namespace e2e {

void SpanLog::Record(const std::string& name, int64_t request,
                     int64_t start_ns, int64_t end_ns) {
  sync::MutexLock lock(mu_);
  spans_.push_back({name, request, start_ns, end_ns});
}

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  sync::MutexLock lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::map<int64_t, int64_t> SpanLog::ByRequestLocked(
    const std::string& name) const {
  std::map<int64_t, int64_t> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) out[span.request] += span.end_ns - span.start_ns;
  }
  return out;
}

std::vector<double> SpanLog::DifferenceUs(
    const std::string& name, const std::vector<std::string>& minus) const {
  sync::MutexLock lock(mu_);
  std::map<int64_t, int64_t> base = ByRequestLocked(name);
  for (const std::string& other : minus) {
    for (const auto& [request, ns] : ByRequestLocked(other)) {
      auto it = base.find(request);
      if (it != base.end()) it->second -= ns;
    }
  }
  std::vector<double> out;
  out.reserve(base.size());
  for (const auto& [request, ns] : base) {
    out.push_back(static_cast<double>(ns) / 1e3);
  }
  return out;
}

std::vector<double> SpanLog::PerRequestUs(
    const std::string& name, const std::string& requests_of) const {
  sync::MutexLock lock(mu_);
  const std::map<int64_t, int64_t> stage = ByRequestLocked(name);
  std::vector<double> out;
  for (const auto& [request, unused] : ByRequestLocked(requests_of)) {
    auto it = stage.find(request);
    out.push_back(it == stage.end() ? 0.0
                                    : static_cast<double>(it->second) / 1e3);
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  sync::MutexLock lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& span : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%lld,\"start_ns\":%lld,"
                 "\"dur_ns\":%lld}\n",
                 span.name.c_str(), static_cast<long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns - span.start_ns));
  }
  return std::fclose(f) == 0;
}

Ledger::Ledger(double total, std::string residual_name)
    : total_(total), residual_name_(std::move(residual_name)) {}

void Ledger::Add(const std::string& name, double value) {
  rows_.push_back({name, value});
}

double Ledger::residual() const {
  double sum = 0.0;
  for (const LedgerRow& row : rows_) sum += row.value;
  return total_ - sum;
}

std::vector<LedgerRow> Ledger::Rows() const {
  std::vector<LedgerRow> rows = rows_;
  rows.push_back({residual_name_, residual()});
  return rows;
}

void Ledger::Print(const char* title, const char* unit) const {
  std::printf("\n%s (%s)\n", title, unit);
  double sum = 0.0;
  for (const LedgerRow& row : Rows()) {
    std::printf("  %-30s %12.3f  %5.1f%%\n", row.name.c_str(), row.value,
                total_ != 0.0 ? 100.0 * row.value / total_ : 0.0);
    sum += row.value;
  }
  std::printf("  %-30s %12.3f\n  %-30s %12.3f\n", "sum of rows", sum,
              "traced p50 (total)", total_);
}

}  // namespace e2e
}  // namespace dar
