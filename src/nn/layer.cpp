#include "nn/layer.h"

#include "util/checked.h"

namespace sqz::nn {

const char* layer_kind_name(LayerKind kind) noexcept {
  switch (kind) {
    case LayerKind::Input: return "input";
    case LayerKind::Conv: return "conv";
    case LayerKind::FullyConnected: return "fc";
    case LayerKind::MaxPool: return "maxpool";
    case LayerKind::AvgPool: return "avgpool";
    case LayerKind::GlobalAvgPool: return "gavgpool";
    case LayerKind::ReLU: return "relu";
    case LayerKind::Concat: return "concat";
    case LayerKind::Add: return "add";
  }
  return "?";
}

std::int64_t Layer::taps_per_output() const noexcept {
  if (!is_conv()) return 0;
  const std::int64_t cin_per_group = in_shape.c / conv.groups;
  return static_cast<std::int64_t>(conv.kh) * conv.kw * cin_per_group;
}

std::int64_t Layer::macs() const {
  switch (kind) {
    case LayerKind::Conv:
      return util::checked_mul(out_shape.elems(), taps_per_output(),
                               "Layer::macs");
    case LayerKind::FullyConnected:
      return util::checked_mul(in_shape.elems(), fc.out_features,
                               "Layer::macs");
    default:
      return 0;
  }
}

std::int64_t Layer::params() const {
  switch (kind) {
    case LayerKind::Conv: {
      const std::int64_t cin_per_group = in_shape.c / conv.groups;
      const std::int64_t weights =
          static_cast<std::int64_t>(conv.out_channels) * conv.kh * conv.kw * cin_per_group;
      return weights + conv.out_channels;  // + bias
    }
    case LayerKind::FullyConnected:
      return in_shape.elems() * fc.out_features + fc.out_features;
    default:
      return 0;
  }
}

}  // namespace sqz::nn
