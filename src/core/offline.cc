#include "core/offline.h"

#include <cmath>

#include "utils/check.h"

namespace focus {
namespace core {

cluster::ClusteringResult RunOfflineClustering(const Tensor& train_values,
                                               const OfflineConfig& config) {
  Tensor segments = cluster::ExtractSegments(train_values, config.patch_len,
                                             /*normalize=*/true);
  cluster::ClusteringConfig cc;
  cc.segment_length = config.patch_len;
  cc.num_prototypes = config.num_prototypes;
  cc.alpha = config.alpha;
  cc.use_correlation = config.use_correlation;
  cc.max_iters = config.max_iters;
  cc.refine_steps = config.refine_steps;
  cc.seed = config.seed;
  return cluster::SegmentClustering(cc).Fit(segments);
}

PrototypeBankStats ComputePrototypeBankStats(const Tensor& prototypes) {
  FOCUS_CHECK_EQ(prototypes.dim(), 2) << "prototype bank must be (k, p)";
  PrototypeBankStats bank;
  bank.k = prototypes.size(0);
  bank.p = prototypes.size(1);
  bank.panel.resize(static_cast<size_t>(bank.k * bank.p));
  bank.sq_norm.resize(static_cast<size_t>(bank.k));
  bank.mean.resize(static_cast<size_t>(bank.k));
  bank.inv_root.resize(static_cast<size_t>(bank.k));
  for (int64_t j = 0; j < bank.k; ++j) {
    const float* row = prototypes.data() + j * bank.p;
    double sum = 0.0, sq = 0.0;
    for (int64_t d = 0; d < bank.p; ++d) {
      bank.panel[static_cast<size_t>(d * bank.k + j)] = row[d];
      sum += row[d];
      sq += static_cast<double>(row[d]) * row[d];
    }
    const double mean = sum / static_cast<double>(bank.p);
    double var = 0.0;
    for (int64_t d = 0; d < bank.p; ++d) {
      var += (row[d] - mean) * (row[d] - mean);
    }
    const size_t sj = static_cast<size_t>(j);
    bank.sq_norm[sj] = static_cast<float>(sq);
    bank.mean[sj] = static_cast<float>(mean);
    // cluster::PearsonCorrelation's cut-off: a (near-)constant row
    // contributes no correlation.
    bank.inv_root[sj] =
        var >= 1e-12 ? static_cast<float>(1.0 / std::sqrt(var)) : 0.0f;
  }
  return bank;
}

}  // namespace core
}  // namespace focus
