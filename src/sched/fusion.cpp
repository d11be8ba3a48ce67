#include "sched/fusion.h"

namespace sqz::sched {

std::vector<Fusion> find_pool_fusions(const nn::Model& model) {
  // Consumer counts: a conv feeding anything besides its pool can't fuse
  // (the full tensor must exist for the other consumer).
  std::vector<int> consumers(static_cast<std::size_t>(model.layer_count()), 0);
  for (int i = 1; i < model.layer_count(); ++i)
    for (int in : model.layer(i).inputs)
      ++consumers[static_cast<std::size_t>(in)];

  std::vector<Fusion> fusions;
  for (int i = 1; i < model.layer_count(); ++i) {
    const nn::Layer& pool = model.layer(i);
    if (pool.kind != nn::LayerKind::MaxPool && pool.kind != nn::LayerKind::AvgPool)
      continue;
    const int producer = pool.inputs.at(0);
    const nn::Layer& conv = model.layer(producer);
    if (!conv.is_conv()) continue;
    if (consumers[static_cast<std::size_t>(producer)] != 1) continue;
    // Overlapping pool windows (stride < kernel) re-read drained values; the
    // drain-path pooling unit holds one window row, which covers the zoo's
    // 3x3/stride-2 and 2x2/stride-2 pools alike.
    fusions.push_back(Fusion{producer, i});
  }
  return fusions;
}

const Fusion* fusion_of(const std::vector<Fusion>& fusions, int layer_idx) {
  for (const Fusion& f : fusions)
    if (f.conv_idx == layer_idx || f.pool_idx == layer_idx) return &f;
  return nullptr;
}

sim::TensorPlacement fused_placement(const nn::Model& model,
                                     const ResidencyPlan& plan,
                                     const std::vector<Fusion>& fusions,
                                     int layer_idx) {
  sim::TensorPlacement placement = plan.placement_for(model, layer_idx);
  const Fusion* f = fusion_of(fusions, layer_idx);
  if (f && f->conv_idx == layer_idx) {
    placement.output_in_gb = plan.kept.at(static_cast<std::size_t>(f->pool_idx));
    placement.output_words_override = model.layer(f->pool_idx).out_shape.elems();
  }
  return placement;
}

}  // namespace sqz::sched
