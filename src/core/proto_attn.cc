#include "core/proto_attn.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/trace.h"
#include "tensor/flops.h"
#include "tensor/ops.h"
#include "tensor/plan_hooks.h"
#include "tensor/simd/vec.h"

namespace focus {
namespace core {

namespace {

// Rows are scored a block at a time: the block's z-normalized shapes and
// its (rows x k) cross terms live in caller scratch, so one block stays
// in L1 and a plan replay allocates nothing.
constexpr int64_t kAssignBlock = 32;

// Scratch floats AssignRows needs: block shapes and block cross terms.
int64_t AssignScratchFloats(int64_t rows, int64_t k, int64_t p) {
  return std::min(rows, kAssignBlock) * (p + k);
}

// Token-side terms of the dense Eq. 6 distance.
struct TokenTerms {
  float sq_norm, mean, inv_root;
};

TokenTerms MakeTokenTerms(float sq_norm, float sum, int64_t p) {
  const float mean = sum / static_cast<float>(p);
  const float var = sq_norm - static_cast<float>(p) * mean * mean;
  return {sq_norm, mean, var >= 1e-12f ? 1.0f / std::sqrt(var) : 0.0f};
}

// Eq. 6 argmin from one token's k cross terms t.c_j:
//   ||t||^2 + ||c||^2 - 2 t.c + alpha (1 - (t.c - p m_t m_c) / sqrt(da dc))
// with the prototype terms frozen at construction and the inverse roots
// replacing the per-pair sqrt. The strict < keeps the first minimum, so
// an exact tie goes to the lower prototype index.
int64_t ArgminEq6(const float* cross, const TokenTerms& t,
                  const float* sq_norm, const float* mean,
                  const float* inv_root, int64_t k, int64_t p,
                  float alpha) {
  const float pm = static_cast<float>(p) * t.mean;
  float best = std::numeric_limits<float>::max();
  int64_t best_j = 0;
  for (int64_t j = 0; j < k; ++j) {
    float dist = t.sq_norm + sq_norm[j] - 2.0f * cross[j];
    if (alpha != 0.0f) {
      const float corr = (cross[j] - pm * mean[j]) * (t.inv_root * inv_root[j]);
      dist += alpha * (1.0f - corr);
    }
    if (dist < best) {
      best = dist;
      best_j = j;
    }
  }
  return best_j;
}

// Assignment sweep: z-normalize each raw segment and emit(row, argmin)
// over the prototype bank. A block's cross terms come from one call of
// the 4x8 matmul kernel against the frozen (p, k) panel. Serial over
// rows; eager training, AssignTokens and the plan replay closure all
// call exactly this function, so eager and planned forwards are
// bit-identical, and every kernel it uses is backend-invariant.
template <typename Emit>
void AssignRows(const float* raw, int64_t rows,
                const PrototypeBankStats& bank, float alpha, float* scratch,
                Emit&& emit) {
  const int64_t k = bank.k, p = bank.p;
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t block = std::min(rows, kAssignBlock);
  float* shapes = scratch;
  float* cross = shapes + block * p;
  for (int64_t r0 = 0; r0 < rows; r0 += block) {
    const int64_t n = std::min(block, rows - r0);
    for (int64_t i = 0; i < n; ++i) {
      const float* seg = raw + (r0 + i) * p;
      float* shape = shapes + i * p;
      // Match the offline clustering's shape space: z-normalize.
      double mean = 0;
      for (int64_t d = 0; d < p; ++d) mean += seg[d];
      mean /= p;
      double var = 0;
      for (int64_t d = 0; d < p; ++d) var += (seg[d] - mean) * (seg[d] - mean);
      const float inv_std =
          1.0f / (static_cast<float>(std::sqrt(var / p)) + 1e-4f);
      for (int64_t d = 0; d < p; ++d) {
        shape[d] = (seg[d] - static_cast<float>(mean)) * inv_std;
      }
    }
    kt.matmul_row_block(shapes, bank.panel.data(), cross, 0, n, p, k);
    for (int64_t i = 0; i < n; ++i) {
      const float* shape = shapes + i * p;
      const TokenTerms t = MakeTokenTerms(kt.dot(shape, shape, p),
                                          kt.row_sum(shape, p), p);
      emit(r0 + i, ArgminEq6(cross + i * k, t, bank.sq_norm.data(),
                             bank.mean.data(), bank.inv_root.data(), k, p,
                             alpha));
    }
  }
}

}  // namespace

ProtoAttn::ProtoAttn(Tensor prototypes, std::shared_ptr<nn::Linear> embed,
                     int64_t d_model, float alpha, Rng& rng)
    : prototypes_(std::move(prototypes)),
      embed_(std::move(embed)),
      d_model_(d_model),
      alpha_(alpha) {
  FOCUS_CHECK_EQ(prototypes_.dim(), 2) << "prototypes must be (k, p)";
  FOCUS_CHECK_EQ(embed_->in_features(), prototypes_.size(1))
      << "embedding input dim must equal segment length p";
  FOCUS_CHECK_EQ(embed_->out_features(), d_model);
  // Freeze time: the bank is fixed for the module's lifetime, so its f32
  // panel and row statistics are computed once.
  bank_ = std::make_shared<const PrototypeBankStats>(
      ComputePrototypeBankStats(prototypes_));
  we_ = std::make_shared<nn::Linear>(d_model, d_model, rng);
  wk_ = std::make_shared<nn::Linear>(d_model, d_model, rng);
  wv_ = std::make_shared<nn::Linear>(d_model, d_model, rng);
  wo_ = std::make_shared<nn::Linear>(d_model, d_model, rng);
  RegisterModule("we", we_);
  RegisterModule("wk", wk_);
  RegisterModule("wv", wv_);
  RegisterModule("wo", wo_);
  // NOTE: `embed` is registered by the owning model, not here, to avoid
  // double-counting shared parameters.
}

std::vector<int64_t> ProtoAttn::AssignTokens(const Tensor& tokens_raw) const {
  FOCUS_CHECK_EQ(tokens_raw.dim(), 3);
  const int64_t p = bank_->p;
  FOCUS_CHECK_EQ(tokens_raw.size(2), p);
  const int64_t rows = tokens_raw.size(0) * tokens_raw.size(1);
  const int64_t k = bank_->k;
  std::vector<int64_t> assignments(static_cast<size_t>(rows));
  std::vector<float> scratch(
      static_cast<size_t>(AssignScratchFloats(rows, k, p)));
  AssignRows(tokens_raw.data(), rows, *bank_, alpha_, scratch.data(),
             [&](int64_t r, int64_t j) {
               assignments[static_cast<size_t>(r)] = j;
             });
  // Assignment cost (counted so the FLOPs metric reflects Algorithm 2's
  // O(l * k * p) step).
  FlopCounter::Add(3 * rows * k * p);
  return assignments;
}

Tensor ProtoAttn::Forward(const Tensor& tokens_raw, const Tensor& tokens_emb) {
  obs::TraceSpan span("focus/proto_attn");
  FOCUS_CHECK_EQ(tokens_emb.dim(), 3);
  FOCUS_CHECK_EQ(tokens_emb.size(-1), d_model_);
  const int64_t b = tokens_emb.size(0), l = tokens_emb.size(1);
  FOCUS_CHECK_EQ(tokens_raw.size(0), b);
  FOCUS_CHECK_EQ(tokens_raw.size(1), l);
  const int64_t k = prototypes_.size(0);

  // One-hot assignment matrix A (constant wrt autograd; Algorithm 2 l.1-4).
  const std::vector<int64_t> assign = AssignTokens(tokens_raw);
  Tensor a = Tensor::Zeros({b, l, k});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t li = 0; li < l; ++li) {
      a.data()[(bi * l + li) * k +
               assign[static_cast<size_t>(bi * l + li)]] = 1.0f;
    }
  }
  last_assignment_ = a;
  if (plan_hooks::CaptureActive()) {
    // A is built by value-DEPENDENT raw writes, so without this step a
    // capture would pin one assignment pattern as a constant. The
    // closure reruns AssignTokens' sweep (AssignRows) on the live token
    // buffer — same kernels, same accumulation order, same bits.
    // The sweep's scratch is a slab slot and the argmin writes the
    // one-hot row directly, so a replay makes no heap allocation.
    // The shared_ptr keeps the bank alive past the module. Member
    // diagnostics (last_assignment_/last_attention_) are NOT replayed by
    // plans.
    std::shared_ptr<const PrototypeBankStats> bank = bank_;
    const float alpha = alpha_;
    const int64_t rows = b * l;
    plan_hooks::StepRecord rec;
    rec.name = "ProtoAssign";
    rec.inputs = {tokens_raw};
    rec.output = a;
    rec.scratch_numels = {AssignScratchFloats(rows, k, bank->p)};
    rec.fn = [bank, alpha, rows, k](float* const* bufs) {
      float* pa = bufs[1];
      std::fill_n(pa, rows * k, 0.0f);
      AssignRows(bufs[0], rows, *bank, alpha, bufs[2],
                 [pa, k](int64_t r, int64_t j) { pa[r * k + j] = 1.0f; });
    };
    plan_hooks::RecordStep(std::move(rec));
  }

  // Projections (Eq. 14).
  Tensor c_emb = embed_->Forward(prototypes_);  // (k, d)
  Tensor c_q = we_->Forward(c_emb);             // (k, d)
  Tensor key = wk_->Forward(tokens_emb);        // (b, l, d)
  Tensor value = wv_->Forward(tokens_emb);      // (b, l, d)

  // Attention of prototype queries over tokens (Eq. 16): (b, k, l).
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_model_));
  Tensor scores = MulScalar(MatMul(c_q, Transpose(key, 1, 2)), scale);
  Tensor attn = SoftmaxLastDim(scores);
  last_attention_ = attn.Detach();

  // Per-prototype context, then scatter back to tokens via A (Eq. 17-18).
  Tensor context = MatMul(attn, value);  // (b, k, d)
  Tensor out = MatMul(a, context);       // (b, l, d)
  return wo_->Forward(out);
}

}  // namespace core
}  // namespace focus
