#include "sched/compile.h"

#include <sstream>
#include <stdexcept>

#include "sched/fusion.h"
#include "sched/residency.h"
#include "sim/tiling.h"
#include "util/strings.h"

namespace sqz::sched {

std::string LayerCommand::to_string() const {
  const char* unit_str = unit == Unit::PeArray             ? "pe-array"
                         : unit == Unit::Simd              ? "simd"
                         : unit == Unit::FusedIntoProducer ? "fused"
                                                           : "view";
  std::string s = util::format(
      "[%3d] %-26s %-8s", layer_idx, layer_name.c_str(), unit_str);
  if (unit == Unit::PeArray)
    s += util::format(" %s", sim::dataflow_abbrev(dataflow));
  else
    s += "   ";
  s += util::format(
      "  in:%-5s out:%-5s  dma %8s/%-8s  tiles %-3d  ~%s cycles",
      input_from_dram ? "DRAM" : "GB", output_to_dram ? "DRAM" : "GB",
      util::si(static_cast<double>(dma_in_words), 1).c_str(),
      util::si(static_cast<double>(dma_out_words), 1).c_str(), tile_count,
      util::si(static_cast<double>(expected_cycles), 1).c_str());
  return s;
}

std::int64_t Program::expected_total_cycles() const noexcept {
  std::int64_t total = 0;
  for (const LayerCommand& c : commands) total += c.expected_cycles;
  return total;
}

std::int64_t Program::total_dma_words() const noexcept {
  std::int64_t total = 0;
  for (const LayerCommand& c : commands) total += c.dma_in_words + c.dma_out_words;
  return total;
}

std::string Program::listing() const {
  std::ostringstream out;
  out << "program " << model_name << " on " << config.to_string() << "\n";
  for (const LayerCommand& c : commands) out << c.to_string() << "\n";
  out << util::format("expected total: %s cycles, %s DMA words\n",
                      util::with_commas(expected_total_cycles()).c_str(),
                      util::with_commas(total_dma_words()).c_str());
  return out.str();
}

void Program::validate(int expected_layer_count) const {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument("program: " + why);
  };
  if (model_name.empty()) fail("empty model name");
  config.validate();  // throws its own invalid_argument on bad parameters
  if (expected_layer_count >= 0 &&
      commands.size() != static_cast<std::size_t>(expected_layer_count) - 1)
    fail("command count " + std::to_string(commands.size()) +
         " does not match model layer count " +
         std::to_string(expected_layer_count) + " (want layers - 1)");
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const LayerCommand& c = commands[i];
    const std::string at = "command " + std::to_string(i) + " (" +
                           c.layer_name + "): ";
    if (c.layer_idx != static_cast<int>(i) + 1)
      fail(at + "layer index " + std::to_string(c.layer_idx) +
           " out of sequence (want " + std::to_string(i + 1) + ")");
    if (c.layer_name.empty()) fail(at + "empty layer name");
    if (c.tile_count < 1)
      fail(at + "tile count " + std::to_string(c.tile_count) + " < 1");
    if (c.weight_words < 0) fail(at + "negative weight words");
    if (c.dma_in_words < 0 || c.dma_out_words < 0)
      fail(at + "negative DMA words");
    if (c.expected_cycles < 0) fail(at + "negative expected cycles");
  }
}

Program compile(const nn::Model& model, const sim::AcceleratorConfig& config,
                const SimulationOptions& options) {
  // The simulator is the single source of truth for the schedule: compile
  // runs it and reads the decisions back out, attaching the DMA/tiling
  // detail a sequencer needs.
  return compile_from_result(model, config, options,
                             simulate_network(model, config, options));
}

Program compile_from_result(const nn::Model& model,
                            const sim::AcceleratorConfig& config,
                            const SimulationOptions& options,
                            const sim::NetworkResult& result) {
  const ResidencyPlan plan = plan_residency(model, config);

  const std::vector<Fusion> fusions =
      options.fuse_pool_drain ? find_pool_fusions(model) : std::vector<Fusion>{};

  Program prog;
  prog.model_name = model.name();
  prog.config = config;
  prog.commands.reserve(result.layers.size());

  for (const sim::LayerResult& l : result.layers) {
    const nn::Layer& layer = model.layer(l.layer_idx);
    LayerCommand cmd;
    cmd.layer_idx = l.layer_idx;
    cmd.layer_name = l.layer_name;
    cmd.expected_cycles = l.total_cycles;

    const Fusion* fusion = fusion_of(fusions, l.layer_idx);
    if (fusion && fusion->pool_idx == l.layer_idx) {
      cmd.unit = LayerCommand::Unit::FusedIntoProducer;
      prog.commands.push_back(std::move(cmd));
      continue;
    }
    if (layer.kind == nn::LayerKind::Concat) {
      cmd.unit = LayerCommand::Unit::View;
    } else if (layer.is_macs_layer()) {
      cmd.unit = LayerCommand::Unit::PeArray;
      cmd.dataflow = l.dataflow;
      cmd.weight_words = layer.params();
    } else {
      cmd.unit = LayerCommand::Unit::Simd;
    }

    const sim::TensorPlacement placement =
        fused_placement(model, plan, fusions, l.layer_idx);
    cmd.input_from_dram = !placement.input_in_gb;
    cmd.output_to_dram = !placement.output_in_gb;

    // DMA descriptors from the tiler, at the band count the timeline ran
    // (searched under tile_search); a flat run gets the streaming default.
    const sim::TilePlan tiles =
        l.tile_bands > 0
            ? sim::plan_layer_tiles_with_bands(model, l.layer_idx, config,
                                               placement, l.compute_cycles,
                                               l.tile_bands)
            : sim::plan_layer_tiles(model, l.layer_idx, config, placement,
                                    l.compute_cycles);
    cmd.tile_count = static_cast<int>(tiles.tiles.size());
    for (const sim::TileJob& t : tiles.tiles) {
      cmd.dma_in_words += t.dma_in_words;
      cmd.dma_out_words += t.dma_out_words;
    }
    prog.commands.push_back(std::move(cmd));
  }
  return prog;
}

sim::NetworkResult simulate_with_plan(const nn::Model& model,
                                      const sim::AcceleratorConfig& config,
                                      const SimulationOptions& options,
                                      const Program& program) {
  program.validate(model.layer_count());
  // Pins default to WS; entries for non-PE layers are ignored by the
  // selector, so only PE-array commands need to speak.
  std::vector<sim::Dataflow> pins(
      static_cast<std::size_t>(model.layer_count()),
      sim::Dataflow::WeightStationary);
  for (const LayerCommand& c : program.commands)
    if (c.unit == LayerCommand::Unit::PeArray)
      pins[static_cast<std::size_t>(c.layer_idx)] = c.dataflow;
  return simulate_network_pinned(model, config, options, pins);
}

}  // namespace sqz::sched
