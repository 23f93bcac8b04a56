// Convenience driver for the offline phase: extract shape-space segments
// from the (normalized) training region and fit prototypes (Algorithm 1),
// plus the freeze-time images of the fitted prototype bank that ProtoAttn
// assigns tokens against: the f32 panel and row statistics of the dense
// Eq. 6 distance, and the int8 quantization for the
// FOCUS_PRECISION=int8proto inference path (DESIGN §13).
#ifndef FOCUS_CORE_OFFLINE_H_
#define FOCUS_CORE_OFFLINE_H_

#include <cstdint>
#include <vector>

#include "cluster/segment_clustering.h"
#include "tensor/tensor.h"

namespace focus {
namespace core {

struct OfflineConfig {
  int64_t patch_len = 16;       // p
  int64_t num_prototypes = 16;  // k
  float alpha = 0.2f;
  bool use_correlation = true;  // Fig. 8 ablation switch
  int64_t max_iters = 25;
  int64_t refine_steps = 10;
  uint64_t seed = 1;
};

// `train_values` is the z-scored (N, T_train) training region.
cluster::ClusteringResult RunOfflineClustering(const Tensor& train_values,
                                               const OfflineConfig& config);

// Freeze-time f32 image of a (k, p) prototype bank for the dense Eq. 6
// assignment (DESIGN: ProtoAttn): the bank transposed into the (p, k)
// B panel of the token x prototype cross-term matmul, plus the
// prototype-side terms of the distance, computed once in double and
// stored as f32: sq_norm (sum of squares), mean, and inv_root =
// 1/sqrt(sum of (x - mean)^2), which is 0 for a (near-)constant row so
// its Pearson term vanishes exactly as in cluster::PearsonCorrelation.
struct PrototypeBankStats {
  int64_t k = 0, p = 0;
  std::vector<float> panel;     // (p, k) row-major: panel[d*k + j]
  std::vector<float> sq_norm;   // (k)
  std::vector<float> mean;      // (k)
  std::vector<float> inv_root;  // (k)
};

PrototypeBankStats ComputePrototypeBankStats(const Tensor& prototypes);

// Per-prototype affine int8 quantization of a frozen (k, p) prototype
// bank, computed ONCE at freeze time: q = clamp(round(x / scale) + zp,
// -128, 127) with one (scale, zero_point) pair per prototype row, plus
// the row statistics the int8 assignment path needs to evaluate the
// Eq. 6 composite distance from a single int32 dot product per
// (token, prototype) pair: sq_norm (sum of dequantized squares), mean
// and inv_root (Pearson terms, as in PrototypeBankStats), row_sum_q
// (zero-point correction of the raw dot). All statistics are over the
// DEQUANTIZED values, so the int8 distance is exactly the f32 composite
// distance of the dequantized bank against the quantized-then-dequantized
// token.
struct QuantizedPrototypeBank {
  int64_t k = 0, p = 0;
  std::vector<int8_t> q;            // (k, p) row-major quantized values
  std::vector<float> scale;         // (k) dequantize: scale*(q - zp)
  std::vector<int32_t> zero_point;  // (k)
  std::vector<int32_t> row_sum_q;   // (k) sum of q over the row
  std::vector<float> sq_norm;       // (k) sum of dequant(q)^2
  std::vector<float> mean;          // (k) mean of dequant(q)
  // (k) 1/sqrt(sum of (dequant(q) - mean)^2), 0 for a constant row
  std::vector<float> inv_root;
};

QuantizedPrototypeBank QuantizePrototypeBank(const Tensor& prototypes);

}  // namespace core
}  // namespace focus

#endif  // FOCUS_CORE_OFFLINE_H_
