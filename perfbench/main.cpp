// Repository benchmark program (see README.md in this directory). Runs one
// workload and prints its raw result as one JSON line on stdout; run.py
// builds this program, calls it and derives the named metrics.
//
//   perfbench --workload bulk_paper|serve_mixed|lossy_fields --seed N
//             --seconds S --mode measure|trace|setup [--workdir DIR]

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using parhuff::obs::Json;

int SpanLog::add(std::string name, int parent, Clock::time_point t0,
                 Clock::time_point t1) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_s = seconds_between(epoch_, t0);
  s.dur_s = seconds_between(t0, t1);
  if (parent >= 0) spans_[static_cast<std::size_t>(parent)].child_s += s.dur_s;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

int SpanLog::add_child(std::string name, int parent, double dur_s) {
  if (!enabled_ || parent < 0) return -1;
  Span& p = spans_[static_cast<std::size_t>(parent)];
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_s = p.start_s + p.child_s;
  s.dur_s = dur_s;
  p.child_s += dur_s;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.dur_s - s.child_s;
  return out;
}

double SpanLog::root_seconds() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.dur_s;
  }
  return total;
}

void SpanLog::emit(parhuff::obs::TraceRecorder& rec) const {
  // Both clocks are steady: place the log's epoch on the recorder's axis.
  const double epoch_us =
      rec.now_us() - seconds_between(epoch_, Clock::now()) * 1e6;
  for (const Span& s : spans_) {
    rec.complete(s.name, "perfbench", epoch_us + s.start_s * 1e6,
                 s.dur_s * 1e6);
  }
}

TracedHalf::TracedHalf() {
  parhuff::obs::TraceRecorder& rec = parhuff::obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
}

TracedHalf::~TracedHalf() { parhuff::obs::TraceRecorder::global().disable(); }

void TracedHalf::finish(const std::string& path) {
  parhuff::obs::TraceRecorder& rec = parhuff::obs::TraceRecorder::global();
  log_.emit(rec);  // before disable(): a disabled recorder drops events
  rec.disable();
  rec.write(path);
  rec.clear();
}

void Result::add_spans(const SpanLog& log) {
  double accounted = 0;
  for (const auto& [name, s] : log.self_seconds()) {
    values["self." + name] = s;
    if (name.rfind("op.", 0) != 0) accounted += s;
  }
  values["accounted_s"] = accounted;
  values["self.total"] = log.root_seconds();
}

Json Result::to_json() const {
  Json s = Json::object();
  for (const auto& [name, xs] : samples) {
    Json arr = Json::array();
    for (double x : xs) arr.push(x);
    s.set(name, std::move(arr));
  }
  Json v = Json::object();
  for (const auto& [name, x] : values) v.set(name, x);
  return Json::object()
      .set("attempted", attempted)
      .set("failed", failed)
      .set("samples", std::move(s))
      .set("values", std::move(v))
      .set("info", info);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Json host_info() {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return Json::object()
      .set("nproc", static_cast<u64>(std::thread::hardware_concurrency()))
      .set("compiler", "g++ " __VERSION__)
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("llc_bytes", static_cast<u64>(llc > 0 ? llc : 0))
      .set("openmp_max_threads", static_cast<u64>(parhuff::max_threads()));
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "bulk_paper|serve_mixed|lossy_fields --seed N --seconds S "
               "--mode measure|trace|setup [--workdir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = val;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (flag == "--workdir") {
        opt.workdir = val;
      } else if (flag == "--mode") {
        if (val == "measure") {
          opt.mode = Mode::kMeasure;
        } else if (val == "trace") {
          opt.mode = Mode::kTrace;
        } else if (val == "setup") {
          opt.mode = Mode::kSetup;
        } else {
          usage("unknown mode " + val);
        }
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + val);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  try {
    Result r;
    if (opt.workload == "bulk_paper") {
      r = run_bulk(opt);
    } else if (opt.workload == "serve_mixed") {
      r = run_serve(opt);
    } else if (opt.workload == "lossy_fields") {
      r = run_lossy(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
    r.values.try_emplace("peak_rss_mb", peak_rss_mb());
    r.info.set("host", host_info());
    std::printf("%s\n", r.to_json().dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
