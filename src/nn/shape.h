// Tensor shapes for batch-1 inference (the paper evaluates batch size 1,
// which is "typical usage in embedded vision applications").
#pragma once

#include <cstdint>
#include <string>

#include "util/checked.h"

namespace sqz::nn {

/// Channel-major 3-D activation shape (C, H, W). Batch is implicitly 1.
struct TensorShape {
  int c = 0;
  int h = 0;
  int w = 0;

  /// Overflow-checked (util/checked.h): a hostile shape throws
  /// std::overflow_error instead of wrapping.
  std::int64_t elems() const {
    return util::checked_mul(util::checked_mul(c, h, "TensorShape::elems"), w,
                             "TensorShape::elems");
  }
  /// Size in bytes at the given word size (the accelerator uses 16-bit data).
  std::int64_t bytes(int bytes_per_word) const {
    return elems() * bytes_per_word;
  }

  bool operator==(const TensorShape&) const = default;

  std::string to_string() const;
};

/// Output extent of a strided, padded sliding window:
/// floor((in + 2*pad - kernel) / stride) + 1. Throws std::invalid_argument
/// if the window does not fit (misconfigured layer).
int conv_out_extent(int in, int kernel, int stride, int pad);

}  // namespace sqz::nn
