// Pins of the modeled cost of the REDUCE/SHUFFLE and adaptive encoders.
//
// The encode kernels execute one fused word-at-a-time pass per chunk but
// charge the MemTally exactly what the paper's pairwise REDUCE tree and
// log-step SHUFFLE batch moves would cost (docs/model.md). These pins freeze
// every MemTally field, the encoder statistics and a digest of the encoded
// stream for seeded bulk stand-ins (ENWIK8 / NCI / NYX-QUANT, sized so the
// last chunk is partial) across magnitudes, reduce factors that range from
// unbroken to breaking-heavy, and both adaptive cell widths. The values were
// recorded from the cell-by-cell REDUCE/SHUFFLE replay the fused pass
// replaced; a drift here moves Tables I-VI and must be deliberate.
//
// On a mismatch the failure prints the actual line ready to paste.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/tree.hpp"
#include "data/datasets.hpp"
#include "util/hash.hpp"

namespace parhuff {
namespace {

template <typename T>
u64 digest_of(const std::vector<T>& v, u64 seed) {
  return fnv1a(std::span<const u8>(reinterpret_cast<const u8*>(v.data()),
                                   v.size() * sizeof(T)),
               seed);
}

/// Digest of everything an encoder decides: main payload and its chunk
/// layout, per-chunk reduce factors, and the overflow section.
u64 stream_digest(const EncodedStream& s) {
  u64 h = kFnv1aSeed;
  h = digest_of(s.payload, h);
  h = digest_of(s.chunk_bits, h);
  h = digest_of(s.chunk_reduce, h);
  h = digest_of(s.overflow_payload, h);
  for (const OverflowEntry& e : s.overflow) {
    const u64 fields[] = {e.chunk, e.group, e.bit_offset, e.bit_len,
                          e.n_symbols};
    h = fnv1a(std::span<const u8>(reinterpret_cast<const u8*>(fields),
                                  sizeof(fields)),
              h);
  }
  return h;
}

std::string describe(const simt::MemTally& t) {
  std::ostringstream o;
  o << "grb=" << t.global_read_bytes << " gwb=" << t.global_write_bytes
    << " grs=" << t.global_read_sectors << " gws=" << t.global_write_sectors
    << " sh=" << t.shared_bytes << " ga=" << t.global_atomics << "/"
    << t.global_atomic_conflicts << " sa=" << t.shared_atomics << "/"
    << t.shared_atomic_conflicts << " kl=" << t.kernel_launches
    << " gs=" << t.grid_syncs << " bs=" << t.block_syncs
    << " div=" << t.divergent_branches << " ops=" << t.scalar_ops
    << " ser=" << t.serial_dependent_ops;
  return o.str();
}

struct Input {
  data::GeneratedDataset ds;
  Codebook cb;
};

/// 100000 bytes: 100000 byte symbols or 50000 u16 codes, so every
/// magnitude below leaves a partial last chunk.
const Input& input(const std::string& name) {
  static std::map<std::string, Input> cache;
  const auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  Input in{data::generate(name, 100000, 13), {}};
  std::vector<u64> freq(in.ds.info.nbins, 0);
  for (const u8 s : in.ds.bytes8) ++freq[s];
  for (const u16 s : in.ds.syms16) ++freq[s];
  in.cb = build_codebook_serial(freq);
  return cache.emplace(name, std::move(in)).first->second;
}

std::string run_reduceshuffle(const std::string& name, u32 M, u32 r) {
  const Input& in = input(name);
  simt::MemTally tally;
  ReduceShuffleStats st;
  const ReduceShuffleConfig cfg{M, r};
  const EncodedStream s =
      in.ds.syms16.empty()
          ? encode_reduceshuffle_simt<u8>(in.ds.bytes8, in.cb, cfg, &tally,
                                          &st)
          : encode_reduceshuffle_simt<u16>(in.ds.syms16, in.cb, cfg, &tally,
                                           &st);
  std::ostringstream o;
  o << describe(tally) << " | bg=" << st.breaking_groups
    << " bsym=" << st.breaking_symbols << " ri=" << st.reduce_iterations
    << " si=" << st.shuffle_iterations << std::hex
    << " digest=" << stream_digest(s);
  return o.str();
}

template <unsigned Width>
std::string run_adaptive(const std::string& name, const AdaptiveConfig& cfg) {
  const Input& in = input(name);
  simt::MemTally tally;
  AdaptiveStats st;
  const EncodedStream s =
      in.ds.syms16.empty()
          ? encode_adaptive_simt<u8, Width>(in.ds.bytes8, in.cb, cfg, &tally,
                                            &st)
          : encode_adaptive_simt<u16, Width>(in.ds.syms16, in.cb, cfg,
                                             &tally, &st);
  std::ostringstream o;
  o << describe(tally) << " | bg=" << st.breaking_groups
    << " bsym=" << st.breaking_symbols << " bits=" << st.total_code_bits
    << " rh=";
  for (std::size_t r = 0; r < st.r_histogram.size(); ++r) {
    if (st.r_histogram[r]) o << r << ":" << st.r_histogram[r] << ",";
  }
  o << std::hex << " digest=" << stream_digest(s);
  return o.str();
}

struct RsPin {
  const char* dataset;
  u32 M, r;
  const char* expect;
};

// r = 1 merges too little, the Fig. 3 rule's r fits, and r = 5 breaks
// nearly every group on all three stand-ins.
const RsPin kRsPins[] = {
    {"ENWIK8", 6, 1,
     "grb=170516 gwb=66420 grs=9505 gws=6252 sh=4617432 ga=0/0 sa=0/0 kl=2 gs=0 bs=12504 div=48453 ops=8952864 ser=0 | bg=0 bsym=0 ri=1 si=5 digest=6b609c2f6cf51b12"},
    {"ENWIK8", 10, 1,
     "grb=167724 gwb=63628 grs=5569 gws=2316 sh=5017972 ga=0/0 sa=0/0 kl=2 gs=0 bs=1176 div=50078 ops=15404032 ser=0 | bg=0 bsym=0 ri=1 si=9 digest=b397d5855b879881"},
    {"ENWIK8", 10, 3,
     "grb=202888 gwb=69018 grs=101193 gws=68166 sh=4578568 ga=0/0 sa=0/0 kl=2 gs=0 bs=1176 div=12446 ops=5720064 ser=0 | bg=12198 bsym=97584 ri=3 si=7 digest=d191c1bb393a3fee"},
    {"ENWIK8", 12, 2,
     "grb=167560 gwb=63507 grs=5477 gws=2267 sh=5493760 ga=0/0 sa=0/0 kl=2 gs=0 bs=350 div=25575 ops=9779200 ser=0 | bg=43 bsym=172 ri=2 si=10 digest=b39a515eae133bdf"},
    {"ENWIK8", 12, 5,
     "grb=204096 gwb=64828 grs=103253 gws=64828 sh=4851200 ga=0/0 sa=0/0 kl=2 gs=0 bs=350 div=3175 ops=9984000 ser=0 | bg=3125 bsym=100000 ri=5 si=7 digest=8664d1af7aae5f9a"},
    {"NCI", 6, 1,
     "grb=138356 gwb=34260 grs=9505 gws=6252 sh=4450968 ga=0/0 sa=0/0 kl=2 gs=0 bs=12504 div=48453 ops=8952864 ser=0 | bg=0 bsym=0 ri=1 si=5 digest=129478b94ce03759"},
    {"NCI", 10, 1,
     "grb=134672 gwb=30576 grs=4425 gws=1172 sh=4654972 ga=0/0 sa=0/0 kl=2 gs=0 bs=1176 div=50078 ops=15404032 ser=0 | bg=0 bsym=0 ri=1 si=9 digest=b5ca0853c70dc892"},
    {"NCI", 10, 3,
     "grb=134712 gwb=30595 grs=4753 gws=1479 sh=4954144 ga=0/0 sa=0/0 kl=2 gs=0 bs=1176 div=12446 ops=5720064 ser=0 | bg=41 bsym=328 ri=3 si=7 digest=64182592fd714fb1"},
    {"NCI", 12, 2,
     "grb=134504 gwb=30441 grs=4377 gws=1157 sh=5032984 ga=0/0 sa=0/0 kl=2 gs=0 bs=350 div=25575 ops=9779200 ser=0 | bg=31 bsym=124 ri=2 si=10 digest=a2245d36590b8964"},
    {"NCI", 12, 5,
     "grb=204096 gwb=31770 grs=103253 gws=31770 sh=4851200 ga=0/0 sa=0/0 kl=2 gs=0 bs=350 div=3175 ops=9984000 ser=0 | bg=3125 bsym=100000 ri=5 si=7 digest=215dd3b67405e7e"},
    {"NYX-QUANT", 6, 1,
     "grb=124316 gwb=7932 grs=6766 gws=3128 sh=2196628 ga=0/0 sa=0/0 kl=2 gs=0 bs=6256 div=24242 ops=4479296 ser=0 | bg=0 bsym=0 ri=1 si=5 digest=2383a9c58d4befb7"},
    {"NYX-QUANT", 10, 1,
     "grb=123264 gwb=6880 grs=4026 gws=388 sh=2245508 ga=0/0 sa=0/0 kl=2 gs=0 bs=588 div=25039 ops=7702016 ser=0 | bg=0 bsym=0 ri=1 si=9 digest=19b99d1149a263a4"},
    {"NYX-QUANT", 10, 3,
     "grb=123264 gwb=6880 grs=4026 gws=388 sh=2396828 ga=0/0 sa=0/0 kl=2 gs=0 bs=588 div=6223 ops=2860032 ser=0 | bg=0 bsym=0 ri=3 si=7 digest=19b99d1149a263a4"},
    {"NYX-QUANT", 12, 2,
     "grb=123184 gwb=6800 grs=3882 gws=244 sh=2498764 ga=0/0 sa=0/0 kl=2 gs=0 bs=182 div=13299 ops=5085184 ser=0 | bg=0 bsym=0 ri=2 si=10 digest=f057f566374abcf6"},
    {"NYX-QUANT", 12, 5,
     "grb=164876 gwb=7108 grs=26298 gws=3804 sh=2558168 ga=0/0 sa=0/0 kl=2 gs=0 bs=182 div=1651 ops=5191680 ser=0 | bg=704 bsym=22528 ri=5 si=7 digest=91dadf14dec3d543"},
};

TEST(EncodeTallyPin, ReduceShuffle) {
  for (const RsPin& p : kRsPins) {
    const std::string got = run_reduceshuffle(p.dataset, p.M, p.r);
    EXPECT_EQ(got, p.expect)
        << "    {\"" << p.dataset << "\", " << p.M << ", " << p.r << ",\n     \""
        << got << "\"},";
  }
}

struct AdaptivePin {
  const char* dataset;
  unsigned width;
  AdaptiveConfig cfg;
  const char* expect;
};

const AdaptivePin kAdaptivePins[] = {
    {"ENWIK8", 32, {10, 1, 6},
     "grb=167716 gwb=63761 grs=5725 gws=2519 sh=5016412 ga=0/0 sa=0/0 kl=2 gs=0 bs=1176 div=24990 ops=8078336 ser=0 | bg=43 bsym=172 bits=507476 rh=2:98, digest=641872acc64621a4"},
    {"ENWIK8", 32, {7, 2, 4},
     "grb=168984 gwb=65713 grs=6553 gws=3368 sh=4717868 ga=0/0 sa=0/0 kl=2 gs=0 bs=7038 div=24242 ops=5655424 ser=0 | bg=43 bsym=172 bits=507476 rh=2:782, digest=88e4ce8a8c6e339b"},
    {"ENWIK8", 64, {10, 1, 6},
     "grb=167724 gwb=63727 grs=5577 gws=2329 sh=5320276 ga=0/0 sa=0/0 kl=2 gs=0 bs=1176 div=12446 ops=8630272 ser=0 | bg=1 bsym=8 bits=507476 rh=3:98, digest=699a5a4bff88e2df"},
    {"ENWIK8", 64, {7, 2, 4},
     "grb=168992 gwb=65679 grs=6389 gws=3162 sh=5019776 ga=0/0 sa=0/0 kl=2 gs=0 bs=7038 div=11730 ops=6205952 ser=0 | bg=1 bsym=8 bits=507476 rh=3:782, digest=315cf249ece0a3f0"},
    {"NCI", 32, {10, 1, 6},
     "grb=134712 gwb=30693 grs=4753 gws=1483 sh=4853792 ga=0/0 sa=0/0 kl=2 gs=0 bs=1176 div=12446 ops=5820416 ser=0 | bg=41 bsym=328 bits=243051 rh=3:98, digest=62a1e551bde691b3"},
    {"NCI", 32, {7, 2, 4},
     "grb=135932 gwb=32614 grs=6617 gws=3385 sh=4700936 ga=0/0 sa=0/0 kl=2 gs=0 bs=7038 div=11906 ops=4619200 ser=0 | bg=43 bsym=236 bits=243051 rh=2:11,3:771, digest=77906f301f9b9cb6"},
    {"NCI", 64, {10, 1, 6},
     "grb=134744 gwb=30677 grs=4793 gws=1475 sh=5004704 ga=0/0 sa=0/0 kl=2 gs=0 bs=1176 div=6174 ops=7827456 ser=0 | bg=23 bsym=368 bits=243051 rh=4:98, digest=424c63378eccb7e8"},
    {"NCI", 64, {7, 2, 4},
     "grb=135920 gwb=32605 grs=6565 gws=3336 sh=4853624 ga=0/0 sa=0/0 kl=2 gs=0 bs=7038 div=5562 ops=6600704 ser=0 | bg=18 bsym=184 bits=243051 rh=3:11,4:771, digest=99531d12f0cce019"},
    {"NYX-QUANT", 32, {10, 1, 6},
     "grb=123264 gwb=6929 grs=4026 gws=390 sh=2396960 ga=0/0 sa=0/0 kl=2 gs=0 bs=588 div=3087 ops=3311616 ser=0 | bg=0 bsym=0 bits=54196 rh=4:49, digest=8fb8a96a5f7b7020"},
    {"NYX-QUANT", 32, {7, 2, 4},
     "grb=123768 gwb=7775 grs=5202 gws=1577 sh=2358916 ga=0/0 sa=0/0 kl=2 gs=0 bs=3519 div=2737 ops=3002880 ser=0 | bg=0 bsym=0 bits=54196 rh=4:391, digest=2e79f27cd49d9427"},
    {"NYX-QUANT", 64, {10, 1, 6},
     "grb=123264 gwb=6929 grs=4026 gws=390 sh=2434664 ga=0/0 sa=0/0 kl=2 gs=0 bs=588 div=1519 ops=5092864 ser=0 | bg=0 bsym=0 bits=54196 rh=5:49, digest=8f12a038e0440203"},
    {"NYX-QUANT", 64, {7, 2, 4},
     "grb=123768 gwb=7775 grs=5202 gws=1577 sh=2383940 ga=0/0 sa=0/0 kl=2 gs=0 bs=3519 div=2737 ops=3303168 ser=0 | bg=0 bsym=0 bits=54196 rh=4:391, digest=2e79f27cd49d9427"},
};

TEST(EncodeTallyPin, Adaptive) {
  for (const AdaptivePin& p : kAdaptivePins) {
    const std::string got = p.width == 32
                                ? run_adaptive<32>(p.dataset, p.cfg)
                                : run_adaptive<64>(p.dataset, p.cfg);
    EXPECT_EQ(got, p.expect)
        << "    {\"" << p.dataset << "\", " << p.width << ", {"
        << p.cfg.magnitude << ", " << p.cfg.min_reduce << ", "
        << p.cfg.max_reduce << "},\n     \"" << got << "\"},";
  }
}

}  // namespace
}  // namespace parhuff
