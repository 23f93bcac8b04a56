// Convenience driver for the offline phase: extract shape-space segments
// from the (normalized) training region and fit prototypes (Algorithm 1),
// plus the freeze-time image of the fitted prototype bank that ProtoAttn
// assigns tokens against: the f32 panel and row statistics of the dense
// Eq. 6 distance.
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

}  // namespace core
}  // namespace focus

#endif  // FOCUS_CORE_OFFLINE_H_
