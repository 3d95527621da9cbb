#ifndef TOPKDUP_BENCH_BENCH_COMMON_H_
#define TOPKDUP_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "dedup/pruned_dedup.h"
#include "obs/explain.h"

namespace topkdup::bench {

/// Minimal --key=value flag parser shared by the figure harnesses.
class Flags {
 public:
  Flags(int argc, char** argv);

  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Comma-separated integer list.
  std::vector<int> GetIntList(const std::string& key,
                              const std::vector<int>& fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Fixed-width table printer producing paper-style rows.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers,
                        std::vector<int> widths);
  void PrintHeader() const;
  void PrintRow(const std::vector<std::string>& cells) const;
  void PrintRule() const;

 private:
  std::vector<std::string> headers_;
  std::vector<int> widths_;
};

/// "12.34" style helpers.
std::string Pct(double numerator, double denominator);
std::string Num(double v, int decimals = 2);

/// Applies the shared --threads=N flag (0 = keep the TOPKDUP_THREADS /
/// hardware default) and returns the effective parallelism level.
int ApplyThreadsFlag(const Flags& flags);

/// The shared query-budget flags (both default off):
///   --deadline-ms=N    wall-clock budget per query run
///   --work-budget=N    work-unit budget per query run (deterministic)
/// Budgets are per run: call Make() for a fresh Deadline before each
/// query and keep it alive until the run returns. When both flags are
/// given the work budget wins (it is the reproducible mode). The flags
/// stay out of the params JSON on purpose — the perf gate matches
/// baselines by params, and a budgeted run is not comparable to an
/// unbudgeted one.
struct DeadlineFlags {
  int64_t deadline_ms = 0;
  uint64_t work_budget = 0;

  bool active() const { return deadline_ms > 0 || work_budget > 0; }
  /// Fresh budget for one run; only meaningful when active().
  Deadline Make() const;
};

DeadlineFlags ApplyDeadlineFlags(const Flags& flags);

/// One-line console note for a degraded run ("K=50 degraded: ..."); no-op
/// when the run completed exactly.
void PrintDegradation(int k, const DegradationInfo& info);

/// One PrunedDedup invocation in a fig harness: the query K, its wall
/// time, and the per-level stats (columns + instrumentation counters).
struct BenchRun {
  int k = 0;
  double seconds = 0.0;
  std::vector<dedup::LevelStats> levels;
};

/// The shared observability flags (all default off):
///   --metrics-json=PATH   uniform bench JSON (WriteBenchJson schema)
///   --metrics-prom=PATH   Prometheus text exposition of the registry
///   --trace-json=PATH     Chrome trace (recording starts immediately)
///   --explain-json=PATH   per-query explain reports, JSON
///   --explain-text=PATH   same reports, human-readable text
///   --explain-sample-rate=R  detail-event sampling rate (default 1.0)
/// ApplyObservabilityFlags starts trace recording when a trace path is
/// given; ExportBenchArtifacts writes the requested files after the
/// workload. Whenever `explain_enabled()`, harnesses hand each query an
/// obs::ExplainRecorder at `explain_sample_rate` in its QueryContext and
/// the finished reports to WriteExplainJson / WriteExplainText.
struct Observability {
  std::string metrics_path;
  std::string prom_path;
  std::string trace_path;
  std::string explain_json_path;
  std::string explain_text_path;
  double explain_sample_rate = 1.0;

  bool explain_enabled() const {
    return !explain_json_path.empty() || !explain_text_path.empty();
  }
};

Observability ApplyObservabilityFlags(const Flags& flags);

/// One explain-enabled query in a fig harness: the query K and the report
/// its recorder finished.
struct ExplainRun {
  int k = 0;
  std::shared_ptr<const obs::ExplainReport> report;
};

/// Writes the collected explain reports as one JSON document:
///   { "schema_version": 1, "figure": ...,
///     "reports": [ {"k": K, "report": {...ExplainReport::ToJson...}} ] }
/// Null reports are skipped. No-op when `path` is empty.
void WriteExplainJson(const std::string& path, const std::string& figure,
                      const std::vector<ExplainRun>& runs);

/// Text rendering of the same reports, one block per K. No-op when `path`
/// is empty.
void WriteExplainText(const std::string& path, const std::string& figure,
                      const std::vector<ExplainRun>& runs);

/// Writes the uniform fig-harness JSON schema backed by the metrics
/// registry:
///   { "schema_version": 1, "figure": ..., "params": {...},
///     "scalars": {...}, "runs": [ {"k", "seconds", "levels": [...] } ],
///     "metrics": { "counters": ..., "gauges": ..., "histograms": ... } }
/// `params` values are numeric; `scalars` carries figure-specific totals
/// (e.g. fig6's per-method times; empty for the pruning figures). The
/// embedded metrics object is the process-wide registry snapshot taken at
/// write time.
void WriteBenchJson(
    const std::string& path, const std::string& figure,
    const std::vector<std::pair<std::string, double>>& params,
    const std::vector<std::pair<std::string, double>>& scalars,
    const std::vector<BenchRun>& runs);

/// Writes the uniform schema to the --json= path (when non-empty) and the
/// --metrics-json= path (when set), then writes the Chrome trace when
/// requested. Call once, after the workload.
void ExportBenchArtifacts(
    const std::string& json_path, const Observability& obs,
    const std::string& figure,
    const std::vector<std::pair<std::string, double>>& params,
    const std::vector<std::pair<std::string, double>>& scalars,
    const std::vector<BenchRun>& runs);

/// Prints each run's per-level instrumentation counters (records
/// collapsed, groups pruned, CPN growth iterations/edges, blocking probes,
/// predicate evaluations) — the console counterpart of the JSON export.
void PrintLevelCounters(const std::vector<BenchRun>& runs);

}  // namespace topkdup::bench

#endif  // TOPKDUP_BENCH_BENCH_COMMON_H_
