#include "core/offline.h"

#include <algorithm>
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

namespace {

// Shared Pearson-denominator rule: a row whose centred sum of squares is
// below cluster::PearsonCorrelation's 1e-12 cut-off contributes no
// correlation.
float InvRoot(double var) {
  return var >= 1e-12 ? static_cast<float>(1.0 / std::sqrt(var)) : 0.0f;
}

}  // namespace

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
    bank.inv_root[sj] = InvRoot(var);
  }
  return bank;
}

QuantizedPrototypeBank QuantizePrototypeBank(const Tensor& prototypes) {
  FOCUS_CHECK_EQ(prototypes.dim(), 2) << "prototype bank must be (k, p)";
  QuantizedPrototypeBank bank;
  bank.k = prototypes.size(0);
  bank.p = prototypes.size(1);
  bank.q.resize(static_cast<size_t>(bank.k * bank.p));
  bank.scale.resize(static_cast<size_t>(bank.k));
  bank.zero_point.resize(static_cast<size_t>(bank.k));
  bank.row_sum_q.resize(static_cast<size_t>(bank.k));
  bank.sq_norm.resize(static_cast<size_t>(bank.k));
  bank.mean.resize(static_cast<size_t>(bank.k));
  bank.inv_root.resize(static_cast<size_t>(bank.k));
  for (int64_t j = 0; j < bank.k; ++j) {
    const float* row = prototypes.data() + j * bank.p;
    float lo = row[0], hi = row[0];
    for (int64_t d = 1; d < bank.p; ++d) {
      lo = std::min(lo, row[d]);
      hi = std::max(hi, row[d]);
    }
    // 254 quantization steps leave one code of slack on each end so
    // round(hi/scale)+zp cannot clip. A constant row degenerates to a
    // symmetric scale around its magnitude.
    float scale = (hi - lo) / 254.0f;
    int32_t zp = 0;
    if (scale > 0.0f) {
      zp = -128 - static_cast<int32_t>(std::lrintf(lo / scale));
    } else {
      scale = std::max(std::fabs(lo), 1e-8f) / 127.0f;
    }
    int8_t* q = bank.q.data() + j * bank.p;
    int32_t sum_q = 0;
    double sum = 0.0, sq = 0.0;
    for (int64_t d = 0; d < bank.p; ++d) {
      const int32_t qi = std::clamp(
          static_cast<int32_t>(std::lrintf(row[d] / scale)) + zp, -128,
          127);
      q[d] = static_cast<int8_t>(qi);
      sum_q += qi;
      const double deq = static_cast<double>(scale) * (qi - zp);
      sum += deq;
      sq += deq * deq;
    }
    const double mean = sum / static_cast<double>(bank.p);
    bank.scale[static_cast<size_t>(j)] = scale;
    bank.zero_point[static_cast<size_t>(j)] = zp;
    bank.row_sum_q[static_cast<size_t>(j)] = sum_q;
    bank.sq_norm[static_cast<size_t>(j)] = static_cast<float>(sq);
    bank.mean[static_cast<size_t>(j)] = static_cast<float>(mean);
    bank.inv_root[static_cast<size_t>(j)] =
        InvRoot(sq - static_cast<double>(bank.p) * mean * mean);
  }
  return bank;
}

}  // namespace core
}  // namespace focus
