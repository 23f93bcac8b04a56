// Mixed-precision inference contracts (DESIGN §13):
//   * routing — the bf16 matmul path engages only for parameter (B)
//     operands with grad mode off and a non-f32 ambient precision; the
//     default f32 path stays byte-identical to the plain kernel.
//   * eager/planned bit-identity per precision mode — a plan captured
//     under bf16/int8proto replays the exact eager kernels, and
//     ExecutionPlan::Matches() pins the precision the plan was captured
//     at, so a mode switch recaptures instead of replaying wrong math.
//   * int8 prototype bank — freeze-time quantization statistics agree
//     with a brute-force dequantized reference; assignments are
//     backend-invariant and agree with f32 on separated prototypes.
//   * serving — per-tenant engines serve bit-identically to the eager
//     forward at their own precision.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/focus_model.h"
#include "core/offline.h"
#include "core/proto_attn.h"
#include "plan/plan.h"
#include "serve/engine.h"
#include "tensor/bf16.h"
#include "tensor/ops.h"
#include "tensor/precision.h"
#include "tensor/simd/vec.h"
#include "tensor/tensor.h"
#include "utils/rng.h"

namespace focus {
namespace {

void ExpectSameBytes(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.defined());
  ASSERT_TRUE(b.defined());
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.numel()) * sizeof(float)))
      << what;
}

TEST(PrecisionModeTest, GuardRestoresAndNamesRoundTrip) {
  // Ambient mode comes from FOCUS_PRECISION (check.sh's precision leg
  // sweeps it), so assert restoration, not a specific starting mode.
  const Precision ambient = PrecisionMode::Get();
  {
    PrecisionGuard guard(Precision::kBf16);
    EXPECT_EQ(PrecisionMode::Get(), Precision::kBf16);
    EXPECT_STREQ("bf16", PrecisionName(PrecisionMode::Get()));
    {
      PrecisionGuard inner(Precision::kInt8Proto);
      EXPECT_STREQ("int8proto", PrecisionName(PrecisionMode::Get()));
    }
    EXPECT_EQ(PrecisionMode::Get(), Precision::kBf16);
  }
  EXPECT_EQ(PrecisionMode::Get(), ambient);
  EXPECT_STREQ("f32", PrecisionName(Precision::kF32));
}

TEST(Bf16MatMulTest, RoutesOnlyForParameterOperands) {
  Rng rng(3);
  Tensor a = Tensor::Randn({9, 33}, rng);
  Tensor w = Tensor::Randn({33, 17}, rng);
  NoGradGuard no_grad;
  PrecisionGuard ambient_f32(Precision::kF32);
  const Tensor f32_out = MatMul(a, w);

  // Non-parameter B: bf16 mode must leave the op on the f32 kernel.
  {
    PrecisionGuard guard(Precision::kBf16);
    ExpectSameBytes(MatMul(a, w), f32_out, "activation @ activation");
  }

  // Parameter B: the bf16 route rounds the weights, so some output
  // bits must change — and equal the explicit unpack-then-f32-matmul.
  w.SetRequiresGrad(true);
  Tensor bf16_out;
  {
    PrecisionGuard guard(Precision::kBf16);
    bf16_out = MatMul(a, w);
  }
  EXPECT_NE(0, std::memcmp(bf16_out.data(), f32_out.data(),
                           static_cast<size_t>(f32_out.numel()) *
                               sizeof(float)))
      << "bf16 weight rounding changed no bits — route not taken?";
  Tensor w_rounded = Tensor::Empty(w.shape());
  for (int64_t i = 0; i < w.numel(); ++i) {
    w_rounded.data()[i] = F32FromBf16(Bf16FromF32(w.data()[i]));
  }
  ExpectSameBytes(bf16_out, MatMul(a, w_rounded),
                  "bf16 matmul vs f32 matmul of rounded weights");

  // int8proto is a superset of bf16: matmuls take the same bf16 path.
  {
    PrecisionGuard guard(Precision::kInt8Proto);
    ExpectSameBytes(MatMul(a, w), bf16_out, "int8proto matmul vs bf16");
  }
}

// A small parameterized function with one foldable weight matmul.
struct SmallNet {
  Tensor w1, w2, bias;
  explicit SmallNet(uint64_t seed) {
    Rng rng(seed);
    w1 = Tensor::Randn({24, 16}, rng);
    w2 = Tensor::Randn({16, 8}, rng);
    bias = Tensor::Randn({8}, rng);
    w1.SetRequiresGrad(true);
    w2.SetRequiresGrad(true);
    bias.SetRequiresGrad(true);
  }
  Tensor Forward(const Tensor& x) const {
    return Add(MatMul(Gelu(MatMul(x, w1)), w2), bias);
  }
};

TEST(Bf16PlanTest, EagerAndPlannedBitIdentical) {
  SmallNet net(7);
  Rng rng(8);
  Tensor x = Tensor::Randn({5, 24}, rng);
  PrecisionGuard guard(Precision::kBf16);
  Tensor eager;
  {
    InferenceModeGuard inference;
    eager = net.Forward(x);
  }
  auto plan = plan::ExecutionPlan::Capture(
      [&](const Tensor& in) { return net.Forward(in); }, x);
  ASSERT_NE(plan, nullptr);
  ExpectSameBytes(plan->Run(x), eager, "planned bf16 vs eager bf16");
  // With folding on, the weight packs fold into pinned bf16 constants:
  // the replayed program must move fewer bytes than its f32 twin.
  {
    PrecisionGuard f32(Precision::kF32);
    auto f32_plan = plan::ExecutionPlan::Capture(
        [&](const Tensor& in) { return net.Forward(in); }, x);
    ASSERT_NE(f32_plan, nullptr);
    EXPECT_LT(plan->stats().bytes_per_run, f32_plan->stats().bytes_per_run)
        << "bf16 weight folding did not reduce per-run operand traffic";
  }
}

TEST(Bf16PlanTest, UnfoldedPackGetsByteSizedSlabValue) {
  // Folding off keeps the PackBf16 step alive, so the packed weight
  // must live in the slab as a 2-byte-element value (the ":bf16"
  // layout suffix plan_test's overlap checker also parses).
  SmallNet net(9);
  Rng rng(10);
  Tensor x = Tensor::Randn({3, 24}, rng);
  PrecisionGuard guard(Precision::kBf16);
  plan::Options opts;
  opts.fold = false;
  auto plan = plan::ExecutionPlan::Capture(
      [&](const Tensor& in) { return net.Forward(in); }, x, opts);
  ASSERT_NE(plan, nullptr);
  EXPECT_NE(plan->DebugLayout().find(":bf16]"), std::string::npos)
      << plan->DebugLayout();
  Tensor eager;
  {
    InferenceModeGuard inference;
    eager = net.Forward(x);
  }
  ExpectSameBytes(plan->Run(x), eager, "unfolded planned bf16 vs eager");
}

TEST(Bf16PlanTest, MatchesPinsCapturePrecision) {
  SmallNet net(11);
  Rng rng(12);
  Tensor x = Tensor::Randn({4, 24}, rng);
  std::unique_ptr<plan::ExecutionPlan> plan;
  {
    PrecisionGuard guard(Precision::kBf16);
    plan = plan::ExecutionPlan::Capture(
        [&](const Tensor& in) { return net.Forward(in); }, x);
    ASSERT_NE(plan, nullptr);
    EXPECT_TRUE(plan->Matches(x));
  }
  // Ambient precision back to f32: the bf16 plan must refuse to replay
  // (PlannedForecaster then drops and recaptures).
  {
    PrecisionGuard guard(Precision::kF32);
    EXPECT_FALSE(plan->Matches(x));
  }
  {
    PrecisionGuard guard(Precision::kInt8Proto);
    EXPECT_FALSE(plan->Matches(x));
  }
}

// --- int8 prototype bank ----------------------------------------------------

Tensor MakeSeparatedPrototypes(int64_t k, int64_t p, uint64_t seed) {
  // Orthogonal-ish spike patterns: far apart in both Euclidean and
  // correlation distance, so the nearest prototype is unambiguous.
  Tensor protos = Tensor::Zeros({k, p});
  Rng rng(seed);
  Tensor noise = Tensor::Randn({k, p}, rng);
  for (int64_t j = 0; j < k; ++j) {
    for (int64_t d = 0; d < p; ++d) {
      float v = 0.05f * noise.data()[j * p + d];
      if (d % k == j) v += (j % 2 == 0) ? 3.0f : -3.0f;
      protos.data()[j * p + d] = v;
    }
  }
  return protos;
}

TEST(QuantBankTest, StatisticsMatchDequantizedReference) {
  Tensor protos = MakeSeparatedPrototypes(6, 16, 21);
  const core::QuantizedPrototypeBank bank =
      core::QuantizePrototypeBank(protos);
  ASSERT_EQ(bank.k, 6);
  ASSERT_EQ(bank.p, 16);
  for (int64_t j = 0; j < bank.k; ++j) {
    const size_t sj = static_cast<size_t>(j);
    int32_t row_sum_q = 0;
    double sq = 0.0, sum = 0.0;
    float max_err = 0.0f;
    for (int64_t d = 0; d < bank.p; ++d) {
      const int8_t q = bank.q[static_cast<size_t>(j * bank.p + d)];
      const float deq =
          bank.scale[sj] * static_cast<float>(q - bank.zero_point[sj]);
      const float orig = protos.data()[j * bank.p + d];
      max_err = std::max(max_err, std::fabs(deq - orig));
      row_sum_q += q;
      sq += static_cast<double>(deq) * deq;
      sum += deq;
    }
    // Affine quantization error is bounded by half a step.
    EXPECT_LE(max_err, 0.5f * bank.scale[sj] + 1e-6f) << "row " << j;
    EXPECT_EQ(bank.row_sum_q[sj], row_sum_q) << "row " << j;
    const float mean = static_cast<float>(sum) / bank.p;
    EXPECT_FLOAT_EQ(bank.sq_norm[sj], static_cast<float>(sq));
    EXPECT_FLOAT_EQ(bank.mean[sj], mean);
    const double dmean = sum / bank.p;
    EXPECT_FLOAT_EQ(bank.inv_root[sj],
                    static_cast<float>(1.0 / std::sqrt(sq - bank.p * dmean *
                                                            dmean)));
  }
}

TEST(QuantBankTest, ConstantRowQuantizesExactly) {
  Tensor protos = Tensor::Full({2, 8}, 1.25f);
  const core::QuantizedPrototypeBank bank =
      core::QuantizePrototypeBank(protos);
  for (int64_t j = 0; j < 2; ++j) {
    const size_t sj = static_cast<size_t>(j);
    EXPECT_EQ(bank.zero_point[sj], 0);
    for (int64_t d = 0; d < 8; ++d) {
      const int8_t q = bank.q[static_cast<size_t>(j * 8 + d)];
      EXPECT_NEAR(bank.scale[sj] * static_cast<float>(q), 1.25f, 1e-2f);
    }
  }
}

std::unique_ptr<core::ProtoAttn> MakeAttn(const Tensor& protos,
                                          uint64_t seed) {
  Rng rng(seed);
  auto embed =
      std::make_shared<nn::Linear>(protos.size(1), /*d_model=*/16, rng);
  return std::make_unique<core::ProtoAttn>(protos, embed, 16, 0.2f, rng);
}

TEST(Int8AssignTest, AgreesWithF32OnSeparatedPrototypes) {
  const int64_t k = 6, p = 16;
  Tensor protos = MakeSeparatedPrototypes(k, p, 22);
  auto attn = MakeAttn(protos, 23);
  // Tokens are noisy copies of the prototypes: the argmin is clear-cut,
  // so requantization error cannot flip it.
  Tensor tokens = Tensor::Zeros({2, k, p});
  Rng rng(24);
  Tensor noise = Tensor::Randn({2, k, p}, rng);
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t j = 0; j < k; ++j) {
      for (int64_t d = 0; d < p; ++d) {
        tokens.data()[(b * k + j) * p + d] =
            protos.data()[j * p + d] +
            0.02f * noise.data()[(b * k + j) * p + d];
      }
    }
  }
  InferenceModeGuard inference;
  std::vector<int64_t> f32_assign;
  {
    PrecisionGuard f32(Precision::kF32);
    f32_assign = attn->AssignTokens(tokens);
  }
  PrecisionGuard guard(Precision::kInt8Proto);
  const std::vector<int64_t> int8_assign = attn->AssignTokens(tokens);
  ASSERT_EQ(f32_assign.size(), int8_assign.size());
  for (size_t i = 0; i < f32_assign.size(); ++i) {
    EXPECT_EQ(f32_assign[i], static_cast<int64_t>(i % k)) << "token " << i;
    EXPECT_EQ(int8_assign[i], f32_assign[i]) << "token " << i;
  }
}

TEST(Int8AssignTest, BackendInvariant) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 unavailable";
  Tensor protos = MakeSeparatedPrototypes(8, 16, 25);
  auto attn = MakeAttn(protos, 26);
  Rng rng(27);
  Tensor tokens = Tensor::Randn({3, 10, 16}, rng);
  InferenceModeGuard inference;
  PrecisionGuard guard(Precision::kInt8Proto);
  ASSERT_TRUE(simd::SetBackend(simd::Backend::kScalar));
  const std::vector<int64_t> scalar_assign = attn->AssignTokens(tokens);
  ASSERT_TRUE(simd::SetBackend(simd::Backend::kAvx2));
  const std::vector<int64_t> avx2_assign = attn->AssignTokens(tokens);
  simd::ReinitFromEnv();
  EXPECT_EQ(scalar_assign, avx2_assign);
}

// --- end-to-end + serving ---------------------------------------------------

constexpr int64_t kEntities = 3;
constexpr int64_t kLookback = 32;
constexpr int64_t kHorizon = 8;

std::unique_ptr<core::FocusModel> ServableModel() {
  core::FocusConfig cfg;
  cfg.lookback = kLookback;
  cfg.horizon = kHorizon;
  cfg.num_entities = kEntities;
  cfg.patch_len = 8;
  cfg.d_model = 16;
  cfg.readout_queries = 2;
  cfg.seed = 31;
  Rng rng(37);
  auto model = std::make_unique<core::FocusModel>(
      cfg, Tensor::Randn({4, 8}, rng));
  model->SetTraining(false);
  return model;
}

Tensor EagerReference(core::FocusModel& model, const Tensor& window,
                      Precision precision) {
  InferenceModeGuard inference;
  PrecisionGuard guard(precision);
  Tensor out = model.Forward(window.Reshape({1, kEntities, kLookback}));
  Tensor ref = Tensor::Empty({kEntities, kHorizon});
  std::memcpy(ref.data(), out.data(),
              static_cast<size_t>(kEntities * kHorizon) * sizeof(float));
  return ref;
}

TEST(QuantServeTest, PerTenantPrecisionBitIdenticalToEager) {
  auto model = ServableModel();
  Rng rng(41);
  Tensor window = Tensor::Randn({kEntities, kLookback}, rng);
  const Tensor f32_ref = EagerReference(*model, window, Precision::kF32);
  const Tensor bf16_ref = EagerReference(*model, window, Precision::kBf16);
  const Tensor int8_ref =
      EagerReference(*model, window, Precision::kInt8Proto);
  // bf16 must actually change the forecast bits on this model, else the
  // three tenants below would be indistinguishable.
  ASSERT_NE(0, std::memcmp(f32_ref.data(), bf16_ref.data(),
                           static_cast<size_t>(f32_ref.numel()) *
                               sizeof(float)));
  const struct {
    Precision precision;
    const Tensor* ref;
    const char* what;
  } kTenants[] = {
      {Precision::kF32, &f32_ref, "f32 tenant"},
      {Precision::kBf16, &bf16_ref, "bf16 tenant"},
      {Precision::kInt8Proto, &int8_ref, "int8proto tenant"},
  };
  for (const auto& tenant : kTenants) {
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.batch_window_us = 0;
    opts.max_batch = 4;
    opts.precision = tenant.precision;
    serve::ForecastEngine engine(model.get(), kEntities, kLookback, opts);
    EXPECT_EQ(engine.precision(), tenant.precision);
    Tensor served = engine.Forecast(window);
    ExpectSameBytes(served, *tenant.ref, tenant.what);
    const serve::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.planned_batches, 1) << tenant.what;
    engine.Shutdown();
  }
}

}  // namespace
}  // namespace focus
