#pragma once
// Shared pieces of the repository benchmark (see README.md in this
// directory): run options, the raw-result record each workload returns,
// the benchmark's own span log, and host facts.
//
// The C++ program measures: it returns raw samples, counters, span totals
// and a few ratios of totals. run.py turns them into the named metrics;
// every statistic over samples (median, quartiles, percentiles) is taken
// there.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/types.hpp"

namespace perfbench {

using parhuff::u64;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Mode {
  kMeasure,  ///< end-to-end metrics, tracing off
  kTrace,    ///< untraced pass + traced pass + per-layer breakdown
  kSetup,    ///< one cold set-up: construct, first request, exit
};

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  Mode mode = Mode::kMeasure;
  /// Relative directory for sockets and the span dump; created by run.py.
  std::string workdir = ".bench_build/run";
};

/// Spans recorded by the benchmark around its calls into the program.
/// Disabled spans cost one branch. A span's self time is its duration
/// minus the time its children cover; stage children reported by the
/// program (PipelineReport, FusedReport) are added with add_child().
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1; ///< index into spans(), -1 for an operation root
    double start_s = 0;
    double dur_s = 0;
    double child_s = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Record a finished span; returns its index (or -1 when disabled).
  int add(std::string name, int parent, Clock::time_point t0,
          Clock::time_point t1);
  /// Record a child known only by its duration, placed after the
  /// parent's previously added children.
  int add_child(std::string name, int parent, double dur_s);

  /// Sum of self seconds per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Sum of root-span durations (the end-to-end total of all operations).
  [[nodiscard]] double root_seconds() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Copy every span into `rec` (category "perfbench", on the calling
  /// thread's track), so one trace file holds the benchmark's spans beside
  /// the program's own.
  void emit(parhuff::obs::TraceRecorder& rec) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Raw outcome of one workload run. Samples are lists of per-operation
/// values; values are single numbers (counters, ratios, sizes).
struct Result {
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  parhuff::obs::Json info = parhuff::obs::Json::object();

  void sample(const std::string& name, double v) { samples[name].push_back(v); }
  /// Count one verified operation; `ok` false counts it failed.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Fold the span log's self times into values as "self.<name>", the
  /// total root time as "self.total", and the self time of every span
  /// that belongs to a layer as "accounted_s". Spans named "op.*" are the
  /// benchmark's own glue (operation roots, wrappers); their self time is
  /// what no layer accounts for.
  void add_spans(const SpanLog& log);

  [[nodiscard]] parhuff::obs::Json to_json() const;
};

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// nproc, compiler, build type, LLC size, OpenMP team size — recorded in
/// every result.
[[nodiscard]] parhuff::obs::Json host_info();

/// The traced half of a trace run: switches the program's own trace
/// recorder on for its lifetime, so the half pays the program's tracing
/// cost as well as the benchmark's span log. finish() switches it off and
/// writes both span sets to `path` as Chrome trace_event JSON.
class TracedHalf {
 public:
  TracedHalf();
  ~TracedHalf();
  TracedHalf(const TracedHalf&) = delete;
  TracedHalf& operator=(const TracedHalf&) = delete;

  SpanLog& log() { return log_; }
  void finish(const std::string& path);

 private:
  SpanLog log_{true};
};

/// Workload entry points.
Result run_bulk(const Options& opt);
Result run_serve(const Options& opt);
Result run_lossy(const Options& opt);

}  // namespace perfbench
