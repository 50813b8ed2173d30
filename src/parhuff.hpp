#pragma once
// Umbrella header: the public API surface of parhuff.
//
// Typical use needs only:
//   #include <parhuff.hpp>
//   auto blob  = parhuff::compress<parhuff::u8>(bytes, cfg, &report);
//   auto bytes = parhuff::serialize(blob);
//   auto back  = parhuff::decompress(parhuff::deserialize<parhuff::u8>(bytes));
//
// Finer-grained entry points (individual encoders/decoders, the SIMT
// substrate, dataset generators, performance models) are exported too;
// see README.md for the architecture map.

#include "core/canonical.hpp"      // Codebook, canonize_from_lengths
#include "core/decode.hpp"         // decode_stream, decode_range
#include "core/decode_gaparray.hpp"  // annotate_gaps, decode_gaparray
#include "core/decode_selfsync.hpp"
#include "core/decode_simt.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/encode_simt.hpp"
#include "core/entropy.hpp"
#include "core/format.hpp"         // serialize/deserialize, file helpers
#include "core/histogram.hpp"
#include "core/par_codebook.hpp"
#include "core/pipeline.hpp"       // compress/decompress, PipelineConfig
#include "core/streaming.hpp"
#include "core/tree.hpp"
#include "lossy/lossy.hpp"         // cuSZ-style lossy compressor
#include "obs/metrics.hpp"         // MetricsRegistry, ScopedStageTimer
#include "obs/report.hpp"          // to_json(PipelineReport), MetricsDocument
#include "obs/trace.hpp"           // TraceRecorder, TraceSpan
#include "perf/cpu_model.hpp"
#include "perf/gpu_model.hpp"
#include "simt/spec.hpp"
