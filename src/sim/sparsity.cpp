#include "sim/sparsity.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/checked.h"

namespace sqz::sim {

namespace {

std::int64_t layer_weight_words(const nn::Layer& layer) {
  if (layer.is_conv()) {
    return static_cast<std::int64_t>(layer.conv.out_channels) *
           (layer.in_shape.c / layer.conv.groups) * layer.conv.kh * layer.conv.kw;
  }
  if (layer.is_fc())
    return layer.in_shape.elems() * layer.fc.out_features;
  return 0;
}

int layer_taps(const nn::Layer& layer) {
  if (layer.is_conv()) return layer.conv.kh * layer.conv.kw;
  if (layer.is_fc()) return 1;
  return 0;
}

}  // namespace

SparsityInfo SparsityInfo::expected(const nn::Layer& layer, double sparsity) {
  if (sparsity < 0.0 || sparsity >= 1.0)
    throw std::invalid_argument("SparsityInfo: sparsity must be in [0,1)");
  SparsityInfo s;
  s.taps_ = layer_taps(layer);
  s.expected_plane_nnz_ = s.taps_ * (1.0 - sparsity);
  s.total_words_ = layer_weight_words(layer);
  s.total_nnz_ = static_cast<std::int64_t>(
      std::llround(static_cast<double>(s.total_words_) * (1.0 - sparsity)));
  return s;
}

SparsityInfo SparsityInfo::measured(const runtime::WeightTensor& weights) {
  SparsityInfo s;
  s.exact_ = &weights;
  s.taps_ = weights.kh() * weights.kw();
  s.total_words_ = weights.size();
  s.total_nnz_ = weights.nonzero_count();
  return s;
}

SparsityInfo SparsityInfo::dense(const nn::Layer& layer) {
  return expected(layer, 0.0);
}

std::int64_t SparsityInfo::nnz_chunk(int oc0, int count, int ic) const {
  if (exact_ != nullptr) {
    std::int64_t nnz = 0;
    for (int oc = oc0; oc < oc0 + count; ++oc) nnz += exact_->nonzero_count(oc, ic);
    return nnz;
  }
  (void)ic;  // expected mode is uniform over input channels
  return static_cast<std::int64_t>(std::llround(expected_plane_nnz_ * count));
}

std::vector<SparsityInfo::BroadcastRun> SparsityInfo::os_broadcasts(
    int groups, int cout_pg, int cin_pg, int chunk) const {
  std::vector<BroadcastRun> runs;
  if (exact_ == nullptr) {
    // Uniform over channels: only the chunk width sets the broadcast count.
    const std::int64_t planes =
        util::checked_mul(groups, cin_pg, "os broadcast planes");
    if (cout_pg / chunk > 0)
      runs.push_back({nnz_chunk(0, chunk, 0),
                      util::checked_mul(planes, cout_pg / chunk,
                                        "os broadcast passes")});
    if (cout_pg % chunk > 0)
      runs.push_back({nnz_chunk(0, cout_pg % chunk, 0), planes});
    return runs;
  }
  for (int grp = 0; grp < groups; ++grp)
    for (int oc0 = 0; oc0 < cout_pg; oc0 += chunk)
      for (int ic = 0; ic < cin_pg; ++ic)
        runs.push_back({nnz_chunk(grp * cout_pg + oc0,
                                  std::min(chunk, cout_pg - oc0), ic),
                        1});
  return runs;
}

}  // namespace sqz::sim
