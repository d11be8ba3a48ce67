#include "core/trace.h"

#include <algorithm>
#include <functional>
#include <ostream>
#include <string_view>

#include "util/json.h"

namespace sqz::core {

namespace {

/// One complete ("X") event. Chrome timestamps are microseconds; we map one
/// cycle to one microsecond (see trace.h).
void emit_complete(util::JsonWriter& w, const char* cat, std::string_view name,
                   int tid, std::int64_t start, std::int64_t dur,
                   const std::function<void()>& args = nullptr) {
  w.begin_object();
  w.member("name", name);
  w.member("cat", cat);
  w.member("ph", "X");
  w.member("ts", start);
  w.member("dur", dur);
  w.member("pid", kTracePidSim);
  w.member("tid", tid);
  if (args) {
    w.key("args");
    w.begin_object();
    args();
    w.end_object();
  }
  w.end_object();
}

void emit_metadata(util::JsonWriter& w, const char* what, int tid,
                   const std::string& name) {
  w.begin_object();
  w.member("name", what);
  w.member("ph", "M");
  w.member("pid", kTracePidSim);
  w.member("tid", tid);
  w.key("args");
  w.begin_object();
  w.member("name", name);
  w.end_object();
  w.end_object();
}

std::string chrome_trace_json(const nn::Model& model,
                              const sim::NetworkResult& result) {
  std::string out;
  util::JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.member("displayTimeUnit", "ms");

  w.key("otherData");
  w.begin_object();
  w.member("generator", "sqzsim");
  w.member("model", result.model_name);
  w.member("config", result.config.to_string());
  w.member("time_unit", "1 trace us == 1 cycle (1 ns at 1 GHz)");
  w.member("total_cycles", result.total_cycles());
  w.end_object();

  w.key("traceEvents");
  w.begin_array();

  emit_metadata(w, "process_name", kTraceTidPeArray,
                "sqzsim: " + result.model_name);
  emit_metadata(w, "thread_name", kTraceTidPeArray, "PE array");
  emit_metadata(w, "thread_name", kTraceTidSimd, "SIMD unit");
  emit_metadata(w, "thread_name", kTraceTidDma, "DMA");

  std::int64_t t0 = 0;  // layers execute back-to-back
  for (const sim::LayerResult& l : result.layers) {
    if (l.total_cycles <= 0) continue;  // e.g. fused-away pools cost nothing
    const int engine_tid = l.on_pe_array ? kTraceTidPeArray : kTraceTidSimd;
    const std::string kind = nn::layer_kind_name(model.layer(l.layer_idx).kind);
    std::string label = l.layer_name;
    if (l.on_pe_array)
      label += std::string(" [") + sim::dataflow_abbrev(l.dataflow) + "]";

    emit_complete(w, "layer", label, engine_tid, t0, l.total_cycles, [&] {
      w.member("index", l.layer_idx);
      w.member("kind", kind);
      w.member("engine", l.on_pe_array ? "pe-array" : "simd");
      if (l.on_pe_array) w.member("dataflow", sim::dataflow_abbrev(l.dataflow));
      w.member("compute_cycles", l.compute_cycles);
      w.member("dram_cycles", l.dram_cycles);
      w.member("dram_words", l.counts.dram_words);
    });

    if (!l.timeline.empty()) {
      // Timeline-mode run: the retained tile events, shifted to the layer's
      // slot. DMA intervals go to the DMA track; computes nest in the span.
      for (const sim::TimelineEvent& e : l.timeline) {
        const bool dma = e.engine == sim::TimelineEvent::Engine::Dma;
        emit_complete(w, "tile", e.what, dma ? kTraceTidDma : engine_tid,
                      t0 + e.start, e.end - e.start, [&] {
                        w.member("tile", e.tile);
                        w.member("layer", l.layer_name);
                      });
      }
    } else {
      // Flat analytic model: total = max(compute, transfer) + latency. Show
      // the transfer start-aligned on the DMA track and the compute
      // end-aligned inside the layer span (ideal double buffering).
      const std::int64_t compute = std::min(l.compute_cycles, l.total_cycles);
      if (compute > 0)
        emit_complete(w, "phase", "compute", engine_tid,
                      t0 + l.total_cycles - compute, compute, [&] {
                        w.member("layer", l.layer_name);
                      });
      const std::int64_t dma = std::min(l.dram_cycles, l.total_cycles);
      if (dma > 0)
        emit_complete(w, "phase", "transfer", kTraceTidDma, t0, dma, [&] {
          w.member("layer", l.layer_name);
        });
    }
    t0 += l.total_cycles;
  }

  w.end_array();
  w.end_object();
  out += '\n';
  return out;
}

}  // namespace

void write_chrome_trace(const nn::Model& model, const sim::NetworkResult& result,
                        std::ostream& out) {
  out << chrome_trace_json(model, result);
}

}  // namespace sqz::core
