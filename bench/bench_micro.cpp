// Google-benchmark microbenchmarks + ablations for the design choices
// DESIGN.md calls out: bitstream throughput, merge-path partitioning,
// histogram privatization degree, codebook construction strategies, and
// the encoders' host-side cost.

#include <benchmark/benchmark.h>
#include <omp.h>

#include <span>
#include <sstream>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/bitstream.hpp"
#include "core/decode.hpp"
#include "core/decode_selfsync.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/entropy.hpp"
#include "core/encode_serial.hpp"
#include "core/executor.hpp"
#include "core/histogram.hpp"
#include "core/merge_path.hpp"
#include "core/par_codebook.hpp"
#include "core/pipeline.hpp"
#include "core/sort.hpp"
#include "core/tree.hpp"
#include "data/datasets.hpp"
#include "data/quant.hpp"
#include "data/synth_hist.hpp"
#include "data/textgen.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

// --- Bitstream. -------------------------------------------------------------

void BM_BitWriterPut(benchmark::State& state) {
  const unsigned len = static_cast<unsigned>(state.range(0));
  Xoshiro256 rng(1);
  std::vector<u64> vals(4096);
  for (auto& v : vals) v = rng.next() & ((u64{1} << len) - 1);
  for (auto _ : state) {
    BitWriter bw;
    for (u64 v : vals) bw.put(v, len);
    benchmark::DoNotOptimize(bw.finish());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BitWriterPut)->Arg(1)->Arg(5)->Arg(16)->Arg(31);

// --- Merge path: partition-count ablation. ----------------------------------

void BM_MergePathPartitions(benchmark::State& state) {
  const std::size_t parts = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(2);
  std::vector<u64> a(8192), b(8192);
  for (auto& x : a) x = rng.below(1 << 20);
  for (auto& x : b) x = rng.below(1 << 20);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<u64> out(a.size() + b.size());
  OmpExec exec(0);
  for (auto _ : state) {
    merge_path(
        exec, a.size(), b.size(),
        [&](std::size_t i, std::size_t j) { return a[i] <= b[j]; },
        [&](std::size_t k, bool fa, std::size_t s) {
          out[k] = fa ? a[s] : b[s];
        },
        parts);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MergePathPartitions)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// --- Radix sort vs std::sort (the Thrust-substitute justification). ----------

void BM_RadixSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(3);
  std::vector<u64> keys(n);
  std::vector<u32> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.below(u64{1} << 40);
    vals[i] = static_cast<u32>(i);
  }
  for (auto _ : state) {
    auto k = keys;
    auto v = vals;
    radix_sort_by_key(k, v);
    benchmark::DoNotOptimize(k.data());
  }
}
BENCHMARK(BM_RadixSort)->Arg(1024)->Arg(8192)->Arg(65536);

// --- Histogram ablation: privatized vs direct. --------------------------------

void BM_HistogramSimt(benchmark::State& state) {
  const auto data = data::generate_text(4u << 20, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram_simt<u8>(data, 256, nullptr));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_HistogramSimt);

void BM_HistogramSerial(benchmark::State& state) {
  const auto data = data::generate_text(4u << 20, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram_serial<u8>(data, 256));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_HistogramSerial);

// --- Codebook construction strategies. ---------------------------------------

void BM_CodebookSerial(benchmark::State& state) {
  const auto freq = data::normal_histogram(
      static_cast<std::size_t>(state.range(0)), u64{1} << 26, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_codebook_serial(freq));
  }
}
BENCHMARK(BM_CodebookSerial)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_CodebookParallelSeqExec(benchmark::State& state) {
  const auto freq = data::normal_histogram(
      static_cast<std::size_t>(state.range(0)), u64{1} << 26, 1);
  SeqExec exec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_codebook_parallel(exec, freq));
  }
}
BENCHMARK(BM_CodebookParallelSeqExec)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_CodebookParallelOmp(benchmark::State& state) {
  const auto freq = data::normal_histogram(
      static_cast<std::size_t>(state.range(0)), u64{1} << 26, 1);
  OmpExec exec(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_codebook_parallel(exec, freq));
  }
}
BENCHMARK(BM_CodebookParallelOmp)
    ->Args({1024, 2})
    ->Args({8192, 2})
    ->Args({65536, 2});

// --- Encoders (host wall time; the GPU numbers live in bench_table*). ---------

void BM_EncodeSerial(benchmark::State& state) {
  const auto codes = data::generate_nyx_quant(1u << 21, 5);
  const auto freq = histogram_serial<u16>(codes, 1024);
  const Codebook cb = build_codebook_serial(freq);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_serial<u16>(codes, cb, 1024));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_EncodeSerial);

/// The three bulk stand-ins the repository benchmark round-trips.
constexpr const char* kBulkSets[] = {"ENWIK8", "NCI", "NYX-QUANT"};

/// Runs the calling thread's OpenMP regions on `threads` threads (0 keeps
/// the library default) for the guard's lifetime.
class TeamSize {
 public:
  explicit TeamSize(int threads) : saved_(omp_get_max_threads()) {
    if (threads > 0) omp_set_num_threads(threads);
  }
  TeamSize(const TeamSize&) = delete;
  TeamSize& operator=(const TeamSize&) = delete;
  ~TeamSize() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

template <typename Sym>
void encode_bulk(benchmark::State& state, std::span<const Sym> data,
                 std::size_t nbins) {
  // The default pipeline's encode: the Fig. 3 reduce factor, tallied.
  const auto freq = histogram_serial<Sym>(data, nbins);
  const Codebook cb = build_codebook_serial(freq);
  const ReduceShuffleConfig cfg{
      10, decide_reduce_factor(average_bitwidth(cb, freq), 10)};
  std::size_t overflow_groups = 0;
  for (auto _ : state) {
    simt::MemTally tally;
    const EncodedStream s =
        encode_reduceshuffle_simt<Sym>(data, cb, cfg, &tally);
    overflow_groups = s.overflow.size();
    benchmark::DoNotOptimize(s.payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(data.size_bytes()));
  state.counters["reduce_factor"] = static_cast<double>(cfg.reduce_factor);
  state.counters["overflow_groups"] = static_cast<double>(overflow_groups);
}

/// REDUCE/SHUFFLE encode of one bulk stand-in (~2 MiB). Args: {dataset
/// index, threads}; threads 0 is the library's default team size.
void BM_EncodeReduceShuffle(benchmark::State& state) {
  const auto ds = data::generate(kBulkSets[state.range(0)], 2 * MiB, 1);
  const TeamSize team(static_cast<int>(state.range(1)));
  state.SetLabel(ds.info.name);
  if (ds.syms16.empty()) {
    encode_bulk<u8>(state, std::span<const u8>(ds.bytes8), ds.info.nbins);
  } else {
    encode_bulk<u16>(state, std::span<const u16>(ds.syms16), ds.info.nbins);
  }
}
BENCHMARK(BM_EncodeReduceShuffle)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->UseRealTime();

// --- Decoders. ----------------------------------------------------------------

template <typename Sym>
void decode_bulk(benchmark::State& state, std::span<const Sym> data,
                 std::size_t nbins, int threads) {
  PipelineConfig cfg;  // default encoder: chunks carry overflow groups
  cfg.nbins = nbins;
  const Compressed<Sym> blob = compress<Sym>(data, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        decode_stream<Sym>(blob.stream, blob.codebook, threads));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(data.size_bytes()));
  state.counters["overflow_groups"] =
      static_cast<double>(blob.stream.overflow.size());
}

/// Host decode of one bulk stand-in (~2 MiB). Args: {dataset index,
/// threads}; threads 0 is the library's default team size.
void BM_Decode(benchmark::State& state) {
  const auto ds = data::generate(kBulkSets[state.range(0)], 2 * MiB, 1);
  const int threads = static_cast<int>(state.range(1));
  state.SetLabel(ds.info.name);
  if (ds.syms16.empty()) {
    decode_bulk<u8>(state, std::span<const u8>(ds.bytes8), ds.info.nbins,
                    threads);
  } else {
    decode_bulk<u16>(state, std::span<const u16>(ds.syms16), ds.info.nbins,
                     threads);
  }
}
BENCHMARK(BM_Decode)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->UseRealTime();

void BM_DecodeSelfSync(benchmark::State& state) {
  const auto codes = data::generate_nyx_quant(1u << 21, 5);
  const auto freq = histogram_serial<u16>(codes, 1024);
  const Codebook cb = build_codebook_serial(freq);
  const auto enc = encode_serial<u16>(codes, cb, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_selfsync<u16>(enc, cb, {}));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_DecodeSelfSync);

}  // namespace
}  // namespace parhuff

// Custom main instead of BENCHMARK_MAIN(): the driver flags
// (--json-out/--no-json/--trace-out) are peeled off before
// benchmark::Initialize sees argv, and the google-benchmark JSON report is
// captured and embedded record-by-record in the parhuff-metrics-v1 envelope
// (BENCH_micro.json) so all bench outputs share one schema.
int main(int argc, char** argv) {
  using namespace parhuff;
  std::vector<char*> ours{argv[0]}, gb_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool takes_value = a == "--json-out" || a == "--trace-out";
    const bool is_ours = takes_value || a == "--no-json" ||
                         a.substr(0, 11) == "--json-out=" ||
                         a.substr(0, 12) == "--trace-out=";
    if (is_ours) {
      ours.push_back(argv[i]);
      if (takes_value && i + 1 < argc) ours.push_back(argv[++i]);
    } else {
      gb_args.push_back(argv[i]);
    }
  }
  bench::Driver run("micro", static_cast<int>(ours.size()), ours.data());

  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());
  if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) {
    return 1;
  }

  // The JSON reporter must be the *display* reporter — a file reporter
  // makes google-benchmark demand --benchmark_out. Its stream is captured
  // so the console keeps quiet and the JSON lands in our document.
  std::ostringstream captured;
  benchmark::JSONReporter json_reporter;
  json_reporter.SetOutputStream(&captured);
  json_reporter.SetErrorStream(&captured);
  benchmark::RunSpecifiedBenchmarks(&json_reporter);
  benchmark::Shutdown();

  try {
    const obs::Json gb = obs::Json::parse(captured.str());
    if (gb.has("context")) run.config().set("google_benchmark", gb.at("context"));
    if (gb.has("benchmarks")) {
      for (const obs::Json& b : gb.at("benchmarks").elements()) run.record(b);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: could not embed google-benchmark JSON: %s\n",
                 e.what());
  }
  return run.finish();
}
