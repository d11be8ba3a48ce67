// Layer definitions for the DNN intermediate representation.
//
// The IR covers exactly the operator set needed by the paper's six networks:
// convolution (including grouped / depthwise / pointwise), fully-connected,
// max/avg/global-average pooling, ReLU, channel concatenation (SqueezeNet fire
// modules) and elementwise addition (SqueezeNext residuals).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/shape.h"

namespace sqz::nn {

enum class LayerKind {
  Input,           ///< Placeholder producing the model input tensor.
  Conv,            ///< 2-D convolution, optionally grouped/depthwise.
  FullyConnected,  ///< Dense matrix-vector layer.
  MaxPool,
  AvgPool,
  GlobalAvgPool,   ///< Pools each channel to 1x1.
  ReLU,
  Concat,          ///< Channel-wise concatenation of >=2 inputs.
  Add,             ///< Elementwise sum of exactly 2 inputs (residual).
};

const char* layer_kind_name(LayerKind kind) noexcept;

/// Convolution hyper-parameters. A depthwise convolution is expressed as
/// groups == in_channels (with out_channels a multiple of groups).
struct ConvParams {
  int out_channels = 0;
  int kh = 0, kw = 0;
  int stride = 1;
  int pad_h = 0, pad_w = 0;
  int groups = 1;
  bool relu = true;  ///< Fused activation; affects numerics, not timing.
};

struct PoolParams {
  int kh = 0, kw = 0;
  int stride = 1;
  int pad = 0;
};

struct FcParams {
  int out_features = 0;
  bool relu = true;
};

/// One node of the layer graph. `inputs` are indices of producer layers in
/// the owning Model; shape and derived quantities are filled by
/// Model::finalize().
struct Layer {
  std::string name;
  LayerKind kind = LayerKind::Input;
  std::vector<int> inputs;

  ConvParams conv;
  PoolParams pool;
  FcParams fc;

  // Derived by Model::finalize():
  TensorShape in_shape;   ///< Shape of inputs[0] (Concat: first input).
  TensorShape out_shape;

  bool is_conv() const noexcept { return kind == LayerKind::Conv; }
  bool is_fc() const noexcept { return kind == LayerKind::FullyConnected; }
  /// Layers that run on the PE array (everything else uses the 1-D SIMD unit).
  bool is_macs_layer() const noexcept { return is_conv() || is_fc(); }

  /// True for a depthwise convolution (each input channel filtered alone).
  bool is_depthwise() const noexcept {
    return is_conv() && conv.groups > 1 && conv.groups == in_shape.c;
  }
  /// True for a 1x1 (pointwise) non-depthwise convolution.
  bool is_pointwise() const noexcept {
    return is_conv() && conv.kh == 1 && conv.kw == 1 && !is_depthwise();
  }

  /// Multiply-accumulate count for this layer (0 for non-MAC layers);
  /// throws std::overflow_error rather than wrapping.
  std::int64_t macs() const;
  /// Weight + bias parameter count (0 for parameterless layers).
  std::int64_t params() const;
  /// Filter-tap count per output channel (kh*kw*in_c/groups); 0 if not conv.
  std::int64_t taps_per_output() const noexcept;
};

}  // namespace sqz::nn
