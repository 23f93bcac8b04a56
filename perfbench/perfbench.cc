// Repo benchmark: runs one named workload against the FOCUS library
// through its public functions only and prints one JSON result line.
//
//   perfbench --workload <serve_light|serve_saturated|offline_build>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Workloads (README.md in this directory says why each exists):
//   serve_light      open-loop Poisson arrivals at kLightRate/s, one
//                    generator thread, TrySubmit; latency from due time.
//   serve_saturated  closed loop from one thread keeping kOutstanding
//                    requests in flight; latency from Submit.
//   offline_build    cluster -> build -> train -> freeze -> evaluate,
//                    repeated until --seconds is spent.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// A traced run records a span around every call into the library (kept in
// memory, written to --trace-out when the run ends), alternates traced and
// untraced stretches of the measured phase to report the tracing overhead,
// and runs the per-layer probes (plans, ProtoAssign, eager forward, metrics
// registry, thread pool) after the measured phase, never during it: plan
// captures are process-global.
//
// Every served forecast is compared bit for bit (memcmp) with the eager
// batch-1 forward of the same window; offline_build requires a finite test
// MSE that beats the repeat-last-value forecast and repeats exactly across
// builds. Each violation counts as a failed operation and makes the exit
// code nonzero.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/segment_clustering.h"
#include "core/focus_model.h"
#include "core/offline.h"
#include "core/planned_forecaster.h"
#include "data/generator.h"
#include "data/registry.h"
#include "harness/experiments.h"
#include "harness/trainer.h"
#include "obs/metrics_registry.h"
#include "parallel/thread_pool.h"
#include "serve/engine.h"
#include "tensor/allocator.h"
#include "tensor/memory.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace focus {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// ---------------------------------------------------------------------------
// Fixed geometry: the Traffic-shaped quick-profile FOCUS (N=16, L=192,
// H=96, d=32, p=24, k=16) on the registry's Traffic draw. --seed drives the
// workload's own randomness: request arrivals and window picks (serve), and
// the training batch order (offline_build).

constexpr char kDataset[] = "Traffic";
constexpr int64_t kHorizon = 96;
constexpr uint64_t kModelSeed = 1;
// Set-ups per run; setup_s is their median. Half run before the measured
// phase and half after it, so the median samples the machine at both ends
// of the run.
constexpr int kServeSetupReps = 16;
constexpr int kOfflineSetupReps = 6;
constexpr int kPoolWindows = 64;   // distinct served windows
constexpr int kServeWorkers = 2;   // engine workers (serve workloads)
constexpr int kServePool = 1;      // kernel pool (serve workloads)
// Kernel pool of offline_build's builds. A pool of 2 trains no faster at
// this geometry, but wakes the second thread about 20k times per build, so
// on a shared host its build time follows the scheduler (see README.md).
constexpr int kOfflinePool = 1;
constexpr int kProbePool = 2;  // pool the parallel.dispatch_us probe forks
constexpr double kLightRate = 200.0;  // serve_light arrivals per second
constexpr int kOutstanding = 32;      // serve_saturated requests in flight
constexpr double kWarmupS = 1.0;      // serve warm-up excluded from metrics
constexpr int64_t kTrainSteps = 100;  // offline_build, no early stopping
constexpr int kMinBuilds = 2;         // offline_build repeats (>= 2 so the
                                      // exact-repeat check always runs)
constexpr int64_t kTraceBlockNs = 500'000'000;  // traced/untraced stretches

harness::ExperimentProfile Profile() {
  return harness::MakeProfile(data::Profile::kQuick);
}

const std::vector<int64_t> kLadder = {1, 2, 4, 8, 16};  // engine default

// ---------------------------------------------------------------------------
// Spans recorded from this file around calls into the library.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t id;
  int32_t parent;
  int64_t request;  // serve request id, -1 otherwise
};

class SpanLog {
 public:
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int32_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int32_t parent, int64_t request = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, start_ns, end_ns, id, parent, request});
    return id;
  }

  // Reserves an id for a span whose end is not known yet (a parent).
  int32_t Open(const char* name, int32_t parent, int64_t start_ns = NowNs(),
               int64_t request = -1) {
    return Record(name, start_ns, 0, parent, request);
  }
  void Close(int32_t id, int64_t end_ns = NowNs()) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = end_ns;
  }

  size_t size() const { return spans_.size(); }

  // JSON lines, one span each, times in microseconds from the first span.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    char line[256];
    for (const Span& s : spans_) {
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"id\":%d,\"parent\":%d,"
                    "\"request\":%lld,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                    s.name, s.id, s.parent, static_cast<long long>(s.request),
                    Micros(s.start_ns - t0), Micros(s.end_ns - t0));
      out << line;
    }
    return static_cast<bool>(out);
  }

  // Per-name count, total and self time (duration minus the time covered
  // by direct children), printed as a table on stdout.
  void PrintSummary() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::vector<std::string> names;
    for (const Span& s : spans_) {
      if (std::find(names.begin(), names.end(), s.name) == names.end()) {
        names.push_back(s.name);
      }
    }
    std::printf("%-24s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const std::string& name : names) {
      int64_t count = 0, total = 0, self = 0;
      for (size_t i = 0; i < spans_.size(); ++i) {
        if (name != spans_[i].name) continue;
        ++count;
        total += spans_[i].end_ns - spans_[i].start_ns;
        self += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
      }
      std::printf("%-24s %8lld %12.3f %12.3f\n", name.c_str(),
                  static_cast<long long>(count), Micros(total) * 1e-3,
                  Micros(self) * 1e-3);
    }
  }

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

// Times one call; records a span when tracing is on.
class Timed {
 public:
  explicit Timed(const char* name, int32_t parent = -1)
      : name_(name), parent_(parent), start_(NowNs()) {}
  // Ends the interval; returns its length in seconds.
  double Stop() {
    const int64_t end = NowNs();
    g_spans.Record(name_, start_, end, parent_);
    return Seconds(end - start_);
  }

 private:
  const char* name_;
  int32_t parent_;
  int64_t start_;
};

// ---------------------------------------------------------------------------
// Statistics and output.

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))), 1,
      v.size());
  return v[rank - 1];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Tail latency that one disturbed stretch of a run cannot set on its own:
// the median of the p99s of kTailChunks consecutive, equal-count chunks of
// the samples, which are in arrival order.
constexpr size_t kTailChunks = 3;
double ChunkedP99(const std::vector<double>& v) {
  std::vector<double> p99s;
  for (size_t c = 0; c < kTailChunks; ++c) {
    p99s.push_back(Quantile(
        std::vector<double>(v.begin() + v.size() * c / kTailChunks,
                            v.begin() + v.size() * (c + 1) / kTailChunks),
        0.99));
  }
  return Median(p99s);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Fail(const std::string& why) {
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  }
  void E2E(const char* name, double value, const char* unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const char* name, double value, const char* unit) {
    per_layer.push_back({name, value, unit});
  }
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Layers driven from outside.

harness::PreparedData MakeData(int32_t parent) {
  Timed gen("data/generate", parent);
  data::TimeSeriesDataset dataset = data::Generate(
      data::PaperDatasetConfig(kDataset, data::Profile::kQuick));
  gen.Stop();
  Timed prep("data/prepare", parent);
  harness::PreparedData prepared = harness::PrepareDataset(std::move(dataset));
  prep.Stop();
  return prepared;
}

core::FocusConfig ModelConfig(const harness::PreparedData& data) {
  const harness::ExperimentProfile profile = Profile();
  core::FocusConfig cfg;
  cfg.lookback = profile.lookback;
  cfg.horizon = kHorizon;
  cfg.num_entities = data.dataset.num_entities();
  cfg.patch_len = harness::FocusPatchLenFor(kDataset, profile);
  cfg.d_model = profile.d_model;
  cfg.readout_queries = harness::ReadoutQueriesFor(kHorizon);
  cfg.alpha = profile.alpha;
  cfg.seed = kModelSeed;
  return cfg;
}

cluster::ClusteringResult Cluster(const harness::PreparedData& data,
                                  int32_t parent) {
  const harness::ExperimentProfile profile = Profile();
  core::OfflineConfig off;
  off.patch_len = harness::FocusPatchLenFor(kDataset, profile);
  off.num_prototypes = harness::FocusPrototypesFor(kDataset, profile);
  off.alpha = profile.alpha;
  off.seed = kModelSeed;
  Tensor train_region = Slice(data.normalized, 1, 0, data.splits.train_end);
  Timed t("cluster/fit", parent);
  cluster::ClusteringResult result =
      core::RunOfflineClustering(train_region, off);
  t.Stop();
  return result;
}

double FinalObjective(const cluster::ClusteringResult& c) {
  return c.objective_history.empty() ? 0.0 : c.objective_history.back();
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Median wall time of `reps` calls of fn, in microseconds.
template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    us.push_back(Micros(NowNs() - t0));
  }
  return Median(us);
}

// Per-layer probes that need only a frozen model and sample windows. They
// capture plans, so no other thread may be doing tensor work.
struct ModelProbes {
  double capture_ms = 0, run_b1_us = 0, run_bmax_us = 0;
  plan::PlanStats b1, bmax;
  double assign_temporal_us = 0, assign_entity_us = 0;
};

ModelProbes ProbeModel(core::FocusModel& model, const Tensor& window) {
  const int64_t n = window.size(0), l = window.size(1);
  const int64_t bmax = kLadder.back();
  ModelProbes p;
  core::PlannedForecaster forecaster(&model);
  Timed capture("plan/capture");
  forecaster.PrewarmBatchSizes({1, n, l}, kLadder);
  p.capture_ms = capture.Stop() * 1e3;
  const plan::ExecutionPlan* plan1 = forecaster.plan_for({1, n, l});
  const plan::ExecutionPlan* planm = forecaster.plan_for({bmax, n, l});
  if (plan1 != nullptr) p.b1 = plan1->stats();
  if (planm != nullptr) p.bmax = planm->stats();

  Tensor x1 = window.Reshape({1, n, l}).Clone();
  Tensor xm = Tensor::Empty({bmax, n, l});
  for (int64_t b = 0; b < bmax; ++b) {
    std::memcpy(xm.data() + b * n * l, window.data(),
                static_cast<size_t>(n * l) * sizeof(float));
  }
  (void)forecaster.Forward(x1);
  p.run_b1_us = MedianUs(300, [&] { (void)forecaster.Forward(x1); });
  (void)forecaster.Forward(xm);
  p.run_bmax_us = MedianUs(40, [&] { (void)forecaster.Forward(xm); });

  // ProtoAssign on the two branches' raw-token shapes at batch 1:
  // temporal (N, l, p), entity (l, N, p).
  const core::ProtoAttn* attn = model.temporal_proto_attn();
  if (attn != nullptr) {
    const int64_t pl = model.config().patch_len, segs = l / pl;
    Tensor temporal = window.Reshape({n, segs, pl}).Clone();
    Tensor entity = Permute(window.Reshape({n, segs, pl}), {1, 0, 2});
    p.assign_temporal_us =
        MedianUs(300, [&] { (void)attn->AssignTokens(temporal); });
    p.assign_entity_us =
        MedianUs(300, [&] { (void)attn->AssignTokens(entity); });
  }
  return p;
}

void ReportModelProbes(const ModelProbes& p, Result& r) {
  r.Layer("plan.capture_ms", p.capture_ms, "ms");
  r.Layer("plan.steps.b1", static_cast<double>(p.b1.steps), "count");
  r.Layer("plan.steps.bmax", static_cast<double>(p.bmax.steps), "count");
  r.Layer("plan.flops_per_run.b1", static_cast<double>(p.b1.flops_per_run),
          "flop");
  r.Layer("plan.flops_per_run.bmax",
          static_cast<double>(p.bmax.flops_per_run), "flop");
  r.Layer("plan.bytes_per_run.b1", static_cast<double>(p.b1.bytes_per_run),
          "B");
  r.Layer("plan.bytes_per_run.bmax",
          static_cast<double>(p.bmax.bytes_per_run), "B");
  r.Layer("plan.slab_bytes.b1", static_cast<double>(p.b1.slab_bytes), "B");
  r.Layer("plan.slab_bytes.bmax", static_cast<double>(p.bmax.slab_bytes),
          "B");
  r.Layer("plan.run_us.b1", p.run_b1_us, "us");
  r.Layer("plan.run_us.bmax", p.run_bmax_us, "us");
  r.Layer("core.assign_us.temporal", p.assign_temporal_us, "us");
  r.Layer("core.assign_us.entity", p.assign_entity_us, "us");
}

// MetricsRegistry::Observe from the bench thread, ns per call (median of
// blocks), on a histogram of the benchmark's own.
double ProbeObserveNs() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  constexpr int kBlock = 2000;
  std::vector<double> per_call;
  for (int b = 0; b < 25; ++b) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < kBlock; ++i) {
      registry.Observe("perfbench/observe_probe", static_cast<double>(i));
    }
    per_call.push_back(static_cast<double>(NowNs() - t0) / kBlock);
  }
  registry.ResetHistogram("perfbench/observe_probe");
  return Median(per_call);
}

// Fork/join cost of one ThreadPool::RunShards over the current pool.
double ProbeDispatchUs() {
  ThreadPool& pool = ThreadPool::Global();
  std::atomic<int> sink{0};
  return MedianUs(2000, [&] {
    pool.RunShards(pool.num_threads(),
                   [&](int shard) { sink.fetch_add(shard); });
  });
}

// Per-layer metrics of layers a workload leaves idle read 0, so every
// traced run prints the same metric set.
void ReportIdle(Result& r, std::initializer_list<const char*> names,
                const char* unit) {
  for (const char* name : names) r.Layer(name, 0.0, unit);
}

// ---------------------------------------------------------------------------
// Serve workloads.

struct ServeState {
  harness::PreparedData data;
  cluster::ClusteringResult clustering;
  std::unique_ptr<core::FocusModel> model;
  std::unique_ptr<serve::ForecastEngine> engine;
};

struct SetupTimes {
  std::vector<double> total_s, offline_s, data_s, cluster_s;
};

// Data -> clustering -> model build -> engine construction (which prewarms
// the plan ladder). The previous state is torn down first so set-ups do
// not overlap in memory.
void ServeSetup(ServeState& st, SetupTimes& times) {
  st.engine.reset();
  st.model.reset();
  const int64_t t0 = NowNs();
  const int32_t root = g_spans.Open("setup", -1);
  st.data = MakeData(root);
  const int64_t t1 = NowNs();
  st.clustering = Cluster(st.data, root);
  const int64_t t2 = NowNs();
  Timed build("model/build", root);
  st.model = std::make_unique<core::FocusModel>(ModelConfig(st.data),
                                                st.clustering.prototypes);
  st.model->SetTraining(false);
  build.Stop();
  serve::ServeOptions opts;
  opts.threads = kServeWorkers;
  Timed engine("serve/engine_ctor", root);
  st.engine = std::make_unique<serve::ForecastEngine>(
      st.model.get(), st.model->config().num_entities,
      st.model->config().lookback, opts);
  engine.Stop();
  g_spans.Close(root);
  const int64_t t3 = NowNs();
  times.total_s.push_back(Seconds(t3 - t0));
  times.offline_s.push_back(Seconds(t3 - t1));
  times.data_s.push_back(Seconds(t1 - t0));
  times.cluster_s.push_back(Seconds(t2 - t1));
}

struct Pool {
  std::vector<Tensor> windows;  // (N, L)
  std::vector<Tensor> refs;     // eager batch-1 forecasts, (1, N, H)
  double eager_forward_us = 0;  // median eager batch-1 forward
  double mse = 0;               // refs against the true horizons
};

Pool MakePool(ServeState& st) {
  const int64_t lookback = st.model->config().lookback;
  data::WindowDataset test =
      harness::TestWindows(st.data, lookback, kHorizon);
  Pool pool;
  std::vector<double> us;
  double sq = 0;
  int64_t count = 0;
  for (int i = 0; i < kPoolWindows; ++i) {
    const int64_t index = test.NumWindows() * i / kPoolWindows;
    data::Batch b = test.GetWindow(index);
    const int64_t n = b.x.size(1);
    pool.windows.push_back(b.x.Reshape({n, lookback}).Clone());
    const int64_t t0 = NowNs();
    {
      InferenceModeGuard inference;
      pool.refs.push_back(st.model->Forward(b.x));
    }
    us.push_back(Micros(NowNs() - t0));
    const float* f = pool.refs.back().data();
    for (int64_t k = 0; k < b.y.numel(); ++k, ++count) {
      const double diff = static_cast<double>(f[k]) - b.y.data()[k];
      sq += diff * diff;
    }
  }
  pool.eager_forward_us = Median(us);
  pool.mse = sq / static_cast<double>(count);
  return pool;
}

serve::EngineStats Delta(const serve::EngineStats& a,
                         const serve::EngineStats& b) {
  serve::EngineStats d;
  d.requests = b.requests - a.requests;
  d.batches = b.batches - a.batches;
  d.planned_batches = b.planned_batches - a.planned_batches;
  d.eager_batches = b.eager_batches - a.eager_batches;
  d.padded_rows = b.padded_rows - a.padded_rows;
  d.rejected = b.rejected - a.rejected;
  return d;
}

// Everything a serve run measures, collected by the request loops.
struct ServeSamples {
  std::vector<double> latency_us, traced_latency_us;  // measured phase
  std::vector<double> submit_us, lateness_us;
  int64_t completed = 0;  // in the measured phase
  double elapsed_s = 0;
  serve::EngineStats stats;
  obs::MetricsRegistry::HistogramSummary engine_latency;
  AllocatorStats alloc_before, alloc_after;
  int64_t peak_tensor_bytes = 0;
};

bool TracedAt(int64_t t_ns, int64_t origin_ns) {
  return g_spans.enabled() && ((t_ns - origin_ns) / kTraceBlockNs) % 2 == 1;
}

void CheckServed(const Tensor& served, const Pool& pool, int w, int64_t id,
                 Result& r) {
  if (!served.defined() ||
      !SameBits(served, pool.refs[static_cast<size_t>(w)])) {
    r.Fail("request " + std::to_string(id) + ": served forecast differs "
           "from the eager forward of window " + std::to_string(w));
  }
}

void BeginMeasure(ServeState& st, ServeSamples& s,
                  serve::EngineStats& stats0) {
  obs::MetricsRegistry::Get().ResetHistogram(
      serve::ForecastEngine::kLatencyMetric);
  stats0 = st.engine->stats();
  s.alloc_before = Allocator::Get().Stats();
  MemoryStats::ResetPeak();
}

void EndMeasure(ServeState& st, ServeSamples& s,
                const serve::EngineStats& stats0) {
  s.stats = Delta(stats0, st.engine->stats());
  s.engine_latency = st.engine->LatencySummary();
  s.alloc_after = Allocator::Get().Stats();
  s.peak_tensor_bytes = MemoryStats::PeakBytes();
}

// Open loop: one generator thread (this one) sends on a Poisson schedule
// with TrySubmit; a collector thread waits for answers in submission order.
// Latency runs from each request's due time, so a stall that delays later
// sends is charged to them; a refusal is a failure, never retried.
void RunOpenLoop(ServeState& st, const Pool& pool, uint64_t seed,
                 double seconds, ServeSamples& s, Result& r) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::exponential_distribution<double> gap(kLightRate);
  std::uniform_int_distribution<int> pick(0, kPoolWindows - 1);
  const double horizon_s = kWarmupS + seconds;
  std::vector<int64_t> due;  // ns from origin
  std::vector<int> window;
  for (double t = gap(rng); t < horizon_s; t += gap(rng)) {
    due.push_back(static_cast<int64_t>(t * 1e9));
    window.push_back(pick(rng));
  }
  const size_t n = due.size();
  const int64_t warm_ns = static_cast<int64_t>(kWarmupS * 1e9);
  // A slot holds its answer until destroyed, so the collector frees each
  // one once checked; keeping them all would keep every answer alive.
  std::vector<std::unique_ptr<serve::PendingForecast>> slots(n);
  for (auto& slot : slots) slot = std::make_unique<serve::PendingForecast>();
  std::vector<int64_t> send_ns(n, 0), sent_end_ns(n, 0), done_ns(n, 0);
  std::vector<int32_t> span(n, -1);
  std::vector<char> accepted(n, 0);
  std::atomic<size_t> published{0};
  serve::EngineStats stats0;
  const int64_t origin = NowNs() + 1'000'000;

  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      size_t seen = published.load(std::memory_order_acquire);
      while (seen <= i) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
      if (!accepted[i]) continue;
      Tensor served = slots[i]->Wait();
      done_ns[i] = NowNs();
      if (span[i] >= 0) {
        g_spans.Record("serve/wait", sent_end_ns[i], done_ns[i], span[i],
                       static_cast<int64_t>(i));
        g_spans.Close(span[i], done_ns[i]);
      }
      CheckServed(served, pool, window[i], static_cast<int64_t>(i), r);
      slots[i].reset();
    }
  });

  bool measuring = false;
  for (size_t i = 0; i < n; ++i) {
    const int64_t target = origin + due[i];
    if (!measuring && due[i] >= warm_ns) {
      BeginMeasure(st, s, stats0);
      measuring = true;
    }
    // Sleep most of the gap, spin the rest for an on-time send.
    const int64_t coarse = target - 200'000;
    if (NowNs() < coarse) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(coarse - NowNs()));
    }
    while (NowNs() < target) {
    }
    send_ns[i] = NowNs();
    if (TracedAt(target, origin)) {
      span[i] = g_spans.Open("serve/request", -1, target,
                             static_cast<int64_t>(i));
    }
    accepted[i] = st.engine->TrySubmit(
        pool.windows[static_cast<size_t>(window[i])], -1, slots[i].get());
    sent_end_ns[i] = NowNs();
    if (span[i] >= 0) {
      g_spans.Record("serve/try_submit", send_ns[i], sent_end_ns[i], span[i],
                     static_cast<int64_t>(i));
    }
    published.store(i + 1, std::memory_order_release);
    published.notify_one();
  }
  collector.join();
  if (!measuring) BeginMeasure(st, s, stats0);
  EndMeasure(st, s, stats0);

  for (size_t i = 0; i < n; ++i) {
    ++r.attempted;
    if (!accepted[i]) {
      r.Fail("request " + std::to_string(i) + " refused by TrySubmit");
      continue;
    }
    if (due[i] < warm_ns) continue;
    const int64_t due_abs = origin + due[i];
    const double latency = Micros(done_ns[i] - due_abs);
    s.lateness_us.push_back(Micros(send_ns[i] - due_abs));
    s.submit_us.push_back(Micros(sent_end_ns[i] - send_ns[i]));
    (span[i] >= 0 ? s.traced_latency_us : s.latency_us).push_back(latency);
    ++s.completed;
  }
  s.elapsed_s = seconds;
}

// Closed loop: this thread keeps kOutstanding requests in flight, waiting
// for the oldest and resubmitting its slot. Latency runs from Submit.
void RunClosedLoop(ServeState& st, const Pool& pool, uint64_t seed,
                   double seconds, ServeSamples& s, Result& r) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 2);
  std::uniform_int_distribution<int> pick(0, kPoolWindows - 1);
  struct Slot {
    std::unique_ptr<serve::PendingForecast> done;
    int window = 0;
    int64_t id = 0;
    int64_t submit_ns = 0;
    int64_t submitted_ns = 0;
    int32_t span = -1;
  };
  std::vector<Slot> slots(kOutstanding);
  const int64_t origin = NowNs();
  const int64_t measure_begin = origin + static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t measure_end =
      measure_begin + static_cast<int64_t>(seconds * 1e9);
  int64_t next_id = 0;
  auto submit = [&](Slot& slot) {
    slot.done = std::make_unique<serve::PendingForecast>();
    slot.window = pick(rng);
    slot.id = next_id++;
    slot.submit_ns = NowNs();
    slot.span = TracedAt(slot.submit_ns, origin)
                    ? g_spans.Open("serve/request", -1, slot.submit_ns,
                                   slot.id)
                    : -1;
    const bool ok = st.engine->Submit(
        pool.windows[static_cast<size_t>(slot.window)], slot.done.get());
    slot.submitted_ns = NowNs();
    if (slot.span >= 0) {
      g_spans.Record("serve/submit", slot.submit_ns, slot.submitted_ns,
                     slot.span, slot.id);
    }
    ++r.attempted;
    if (!ok) {
      r.Fail("request " + std::to_string(slot.id) + " refused by Submit");
      slot.done.reset();
    }
  };
  // Waits for the slot's answer, checks it and returns when it arrived.
  auto collect = [&](Slot& slot) {
    Tensor served = slot.done->Wait();
    const int64_t done = NowNs();
    if (slot.span >= 0) {
      g_spans.Record("serve/wait", slot.submitted_ns, done, slot.span,
                     slot.id);
      g_spans.Close(slot.span, done);
    }
    CheckServed(served, pool, slot.window, slot.id, r);
    slot.done.reset();
    return done;
  };

  serve::EngineStats stats0;
  bool measuring = false;
  for (Slot& slot : slots) submit(slot);
  for (size_t i = 0;; i = (i + 1) % slots.size()) {
    Slot& slot = slots[i];
    if (slot.done != nullptr) {
      const int64_t done = collect(slot);
      if (slot.submit_ns >= measure_begin && done <= measure_end) {
        s.submit_us.push_back(Micros(slot.submitted_ns - slot.submit_ns));
        (slot.span >= 0 ? s.traced_latency_us : s.latency_us)
            .push_back(Micros(done - slot.submit_ns));
      }
      if (done >= measure_begin && done <= measure_end) ++s.completed;
    }
    const int64_t now = NowNs();
    if (!measuring && now >= measure_begin) {
      BeginMeasure(st, s, stats0);
      measuring = true;
    }
    if (now >= measure_end) break;
    submit(slot);
  }
  EndMeasure(st, s, stats0);
  s.elapsed_s = seconds;
  // Drain: every accepted request must still be answered correctly.
  for (Slot& slot : slots) {
    if (slot.done != nullptr) collect(slot);
  }
}

int64_t AllocMisses(const ServeSamples& s) {
  return s.alloc_after.misses - s.alloc_before.misses;
}

double HitRatio(const AllocatorStats& a, const AllocatorStats& b) {
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

double OverheadPct(const std::vector<double>& untraced,
                   const std::vector<double>& traced) {
  const double base = Median(untraced);
  return base > 0 && !traced.empty() ? (Median(traced) - base) / base * 100.0
                                     : 0.0;
}

void RunServe(bool open_loop, uint64_t seed, double seconds, Result& r) {
  ThreadPool::Global().Resize(kServePool);
  ServeState st;
  SetupTimes times;
  for (int i = 0; i < kServeSetupReps / 2; ++i) ServeSetup(st, times);
  Pool pool = MakePool(st);
  r.attempted += kPoolWindows;  // one eager reference each
  for (size_t i = 0; i < pool.refs.size(); ++i) {
    const Tensor& ref = pool.refs[i];
    if (!std::all_of(ref.data(), ref.data() + ref.numel(),
                     [](float v) { return std::isfinite(v); })) {
      r.Fail("eager reference " + std::to_string(i) + " is not finite");
    }
  }

  ServeSamples s;
  const int64_t attempted0 = r.attempted, failed0 = r.failed;
  if (open_loop) {
    RunOpenLoop(st, pool, seed, seconds, s, r);
  } else {
    RunClosedLoop(st, pool, seed, seconds, s, r);
  }
  const int64_t sent = r.attempted - attempted0, failed = r.failed - failed0;
  std::printf("requests sent=%lld succeeded=%lld failed=%lld\n",
              static_cast<long long>(sent),
              static_cast<long long>(sent - failed),
              static_cast<long long>(failed));
  if (s.completed == 0) r.Fail("no request completed in the measured phase");
  st.engine->Shutdown();
  // The rebuilt model is the same deterministic model the pool was made
  // from, so the probes below may use either.
  for (int i = kServeSetupReps / 2; i < kServeSetupReps; ++i) {
    ServeSetup(st, times);
  }

  const double p50 = Median(s.latency_us);
  std::printf("latency_us n=%zu p50=%.1f p90=%.1f p95=%.1f p99=%.1f "
              "p99.9=%.1f max=%.1f\n",
              s.latency_us.size(), p50, Quantile(s.latency_us, 0.90),
              Quantile(s.latency_us, 0.95), Quantile(s.latency_us, 0.99),
              Quantile(s.latency_us, 0.999), Quantile(s.latency_us, 1.0));
  r.E2E("setup_s", Median(times.total_s), "s");
  r.E2E("offline_s", Median(times.offline_s), "s");
  r.E2E("latency_p50_us", p50, "us");
  r.E2E("throughput_fps", static_cast<double>(s.completed) / s.elapsed_s,
        "1/s");
  r.E2E("test_mse", pool.mse, "mse");
  r.E2E("peak_rss_mb", PeakRssMb(), "MB");
  if (!g_spans.enabled()) return;

  // Per-layer probes run after the engine stopped serving.
  const ModelProbes probes = ProbeModel(*st.model, pool.windows.front());
  const serve::EngineStats& d = s.stats;
  r.Layer("data.generate_s", Median(times.data_s), "s");
  r.Layer("cluster.fit_s", Median(times.cluster_s), "s");
  r.Layer("cluster.iterations",
          static_cast<double>(st.clustering.iterations), "count");
  r.Layer("cluster.objective", FinalObjective(st.clustering), "objective");
  ReportIdle(r, {"train.step_ms", "train.step_p99_ms"}, "ms");
  ReportIdle(r, {"eval.s"}, "s");
  r.Layer("core.eager_forward_us", pool.eager_forward_us, "us");
  r.Layer("alloc.hit_ratio", HitRatio(s.alloc_before, s.alloc_after),
          "ratio");
  r.Layer("alloc.misses_per_req",
          d.requests > 0 ? static_cast<double>(AllocMisses(s)) /
                               static_cast<double>(d.requests)
                         : 0.0,
          "count");
  r.Layer("mem.peak_tensor_mb",
          static_cast<double>(s.peak_tensor_bytes) / (1 << 20), "MB");
  ReportModelProbes(probes, r);
  r.Layer("serve.overhead_us", open_loop ? p50 - probes.run_b1_us : 0.0,
          "us");
  r.Layer("serve.latency_p99_us", ChunkedP99(s.latency_us), "us");
  r.Layer("serve.submit_us", Quantile(s.submit_us, 0.99), "us");
  r.Layer("serve.engine_p50_us", s.engine_latency.p50, "us");
  r.Layer("serve.engine_p99_us", s.engine_latency.p99, "us");
  r.Layer("serve.mean_batch",
          d.batches > 0 ? static_cast<double>(d.requests) /
                              static_cast<double>(d.batches)
                        : 0.0,
          "count");
  r.Layer("serve.padded_ratio",
          d.requests + d.padded_rows > 0
              ? static_cast<double>(d.padded_rows) /
                    static_cast<double>(d.requests + d.padded_rows)
              : 0.0,
          "ratio");
  r.Layer("serve.planned_ratio",
          d.batches > 0 ? static_cast<double>(d.planned_batches) /
                              static_cast<double>(d.batches)
                        : 0.0,
          "ratio");
  r.Layer("serve.rejected", static_cast<double>(d.rejected), "count");
  r.Layer("obs.observe_ns", ProbeObserveNs(), "ns");
  r.Layer("parallel.dispatch_us", ProbeDispatchUs(), "us");
  r.Layer("gen.lateness_p99_us",
          open_loop ? Quantile(s.lateness_us, 0.99) : 0.0, "us");
  r.Layer("gen.lateness_max_us",
          open_loop ? Quantile(s.lateness_us, 1.0) : 0.0, "us");
  r.Layer("trace.overhead_pct",
          OverheadPct(s.latency_us, s.traced_latency_us), "%");
}

// ---------------------------------------------------------------------------
// offline_build.

struct Build {
  double offline_s = 0, cluster_s = 0, train_s = 0, eval_s = 0;
  double step_p50_us = 0, step_p99_us = 0, train_wps = 0, mse = 0;
  int64_t cluster_iterations = 0;
  double cluster_objective = 0;
  int64_t peak_tensor_bytes = 0;
  AllocatorStats alloc_before, alloc_after;
};

// Repeat-last-value forecast MSE over the windows EvaluateModel scores.
double NaiveMse(const data::WindowDataset& test, int64_t stride) {
  double sq = 0;
  int64_t count = 0;
  for (int64_t w = 0; w < test.NumWindows(); w += stride) {
    data::Batch b = test.GetWindow(w);
    const int64_t n = b.x.size(1), l = b.x.size(2), h = b.y.size(2);
    for (int64_t e = 0; e < n; ++e) {
      const float last = b.x.data()[e * l + l - 1];
      for (int64_t t = 0; t < h; ++t, ++count) {
        const double diff = b.y.data()[e * h + t] - last;
        sq += diff * diff;
      }
    }
  }
  return sq / static_cast<double>(count);
}

Build RunBuild(uint64_t seed, const harness::PreparedData& data,
               const data::WindowDataset& train,
               const data::WindowDataset& test,
               std::unique_ptr<core::FocusModel>& model) {
  const harness::ExperimentProfile profile = Profile();
  Build b;
  b.alloc_before = Allocator::Get().Stats();
  MemoryStats::ResetPeak();
  const int64_t t0 = NowNs();
  const int32_t root = g_spans.Open("offline/build", -1);
  cluster::ClusteringResult clustering = Cluster(data, root);
  b.cluster_s = Seconds(NowNs() - t0);
  b.cluster_iterations = clustering.iterations;
  b.cluster_objective = FinalObjective(clustering);

  Timed build("model/build", root);
  model.reset();
  model = std::make_unique<core::FocusModel>(ModelConfig(data),
                                             clustering.prototypes);
  build.Stop();

  harness::TrainConfig tc;
  tc.max_steps = kTrainSteps;
  tc.batch_size = profile.batch_size;
  tc.lr = profile.lr;
  tc.seed = seed;
  Timed train_span("train", root);
  harness::TrainModel(*model, train, tc);
  b.train_s = train_span.Stop();
  b.train_wps = static_cast<double>(kTrainSteps * tc.batch_size) / b.train_s;
  const auto steps =
      obs::MetricsRegistry::Get().Summarize("train/step_ms");
  b.step_p50_us = steps.p50 * 1e3;
  b.step_p99_us = steps.p99 * 1e3;

  Timed freeze("freeze", root);
  model->SetTraining(false);
  {
    core::PlannedForecaster forecaster(model.get());
    forecaster.PrewarmBatchSizes(
        {1, model->config().num_entities, model->config().lookback},
        kLadder);
  }
  freeze.Stop();

  Timed eval("eval", root);
  const metrics::ForecastMetrics m =
      harness::EvaluateModel(*model, test, profile.eval_batch,
                             profile.eval_stride);
  b.eval_s = eval.Stop();
  g_spans.Close(root);
  b.offline_s = Seconds(NowNs() - t0);
  b.mse = m.mse;
  b.peak_tensor_bytes = MemoryStats::PeakBytes();
  b.alloc_after = Allocator::Get().Stats();
  return b;
}

// Everything offline_build does before its first build: the data, its
// windows and the two reference MSEs a trained model has to beat.
struct OfflineInputs {
  harness::PreparedData data;
  data::WindowDataset train, test;
  double naive = 0;      // repeat-last-value forecast
  double untrained = 0;  // the same build, evaluated before any training
  double generate_s = 0;
};

OfflineInputs OfflineSetup() {
  const harness::ExperimentProfile profile = Profile();
  const int64_t t0 = NowNs();
  harness::PreparedData data = MakeData(-1);
  const double generate_s = Seconds(NowNs() - t0);
  data::WindowDataset train =
      harness::TrainWindows(data, profile.lookback, kHorizon);
  data::WindowDataset test =
      harness::TestWindows(data, profile.lookback, kHorizon);
  const double naive = NaiveMse(test, profile.eval_stride);
  core::FocusModel fresh(ModelConfig(data), Cluster(data, -1).prototypes);
  const double untrained = harness::EvaluateModel(fresh, test,
                                                  profile.eval_batch,
                                                  profile.eval_stride)
                               .mse;
  return {std::move(data), std::move(train), std::move(test), naive,
          untrained, generate_s};
}

void RunOffline(uint64_t seed, double seconds, Result& r) {
  ThreadPool::Global().Resize(kOfflinePool);
  const harness::ExperimentProfile profile = Profile();
  std::vector<double> setup_s, generate_s;
  auto timed_setup = [&] {
    const int64_t t0 = NowNs();
    OfflineInputs in = OfflineSetup();
    setup_s.push_back(Seconds(NowNs() - t0));
    generate_s.push_back(in.generate_s);
    return in;
  };
  const OfflineInputs inputs = timed_setup();
  const harness::PreparedData& data = inputs.data;
  const data::WindowDataset& train = inputs.train;
  const data::WindowDataset& test = inputs.test;
  const double naive = inputs.naive, untrained = inputs.untrained;
  // The set-up is deterministic: every later set-up must reproduce the
  // reference MSEs the builds are checked against.
  auto repeat_setup = [&](int rep) {
    const OfflineInputs again = timed_setup();
    ++r.attempted;
    if (std::memcmp(&again.naive, &naive, sizeof(double)) != 0 ||
        std::memcmp(&again.untrained, &untrained, sizeof(double)) != 0) {
      r.Fail("set-up " + std::to_string(rep + 1) +
             ": reference MSEs differ from the first set-up's");
    }
  };
  for (int i = 1; i < kOfflineSetupReps / 2; ++i) repeat_setup(i);

  std::vector<Build> builds;
  std::vector<double> untraced_s, traced_s;
  std::unique_ptr<core::FocusModel> model;
  const bool trace = g_spans.enabled();
  // Builds repeat while the next one is expected to end within --seconds.
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (static_cast<int>(builds.size()) < kMinBuilds ||
         NowNs() + static_cast<int64_t>(builds.back().offline_s * 1e9) <=
             end) {
    // Traced runs alternate untraced and traced builds.
    g_spans.Enable(trace && builds.size() % 2 == 1);
    builds.push_back(RunBuild(seed, data, train, test, model));
    (g_spans.enabled() ? traced_s : untraced_s)
        .push_back(builds.back().offline_s);
    g_spans.Enable(trace);
    const Build& b = builds.back();
    ++r.attempted;
    if (!std::isfinite(b.mse)) {
      r.Fail("build " + std::to_string(builds.size()) + ": test MSE is not "
             "finite");
    } else if (!(b.mse < naive && b.mse < untrained)) {
      r.Fail("build " + std::to_string(builds.size()) + ": test MSE " +
             std::to_string(b.mse) + " does not beat repeat-last-value (" +
             std::to_string(naive) + ") and the untrained model (" +
             std::to_string(untrained) + ")");
    } else if (std::memcmp(&b.mse, &builds.front().mse, sizeof(double)) !=
               0) {
      r.Fail("build " + std::to_string(builds.size()) +
             ": test MSE differs from the first build's");
    }
  }

  for (int i = kOfflineSetupReps / 2; i < kOfflineSetupReps; ++i) {
    repeat_setup(i);
  }

  auto median_of = [&](double Build::*field) {
    std::vector<double> v;
    for (const Build& b : builds) v.push_back(b.*field);
    return Median(v);
  };
  r.E2E("setup_s", Median(setup_s), "s");
  r.E2E("offline_s", median_of(&Build::offline_s), "s");
  r.E2E("latency_p50_us", median_of(&Build::step_p50_us), "us");
  r.E2E("throughput_fps", median_of(&Build::train_wps), "1/s");
  r.E2E("test_mse", builds.front().mse, "mse");
  r.E2E("peak_rss_mb", PeakRssMb(), "MB");
  if (!trace) return;

  const Build& last = builds.back();
  int64_t steps = 0, misses = 0;
  std::vector<double> peak_mb;
  for (const Build& b : builds) {
    steps += kTrainSteps;
    misses += b.alloc_after.misses - b.alloc_before.misses;
    peak_mb.push_back(static_cast<double>(b.peak_tensor_bytes) / (1 << 20));
  }
  r.Layer("data.generate_s", Median(generate_s), "s");
  r.Layer("cluster.fit_s", median_of(&Build::cluster_s), "s");
  r.Layer("cluster.iterations", static_cast<double>(last.cluster_iterations),
          "count");
  r.Layer("cluster.objective", last.cluster_objective, "objective");
  r.Layer("train.step_ms", median_of(&Build::train_s) * 1e3 / kTrainSteps,
          "ms");
  r.Layer("train.step_p99_ms", median_of(&Build::step_p99_us) * 1e-3, "ms");
  r.Layer("eval.s", median_of(&Build::eval_s), "s");
  data::Batch sample = test.GetWindow(0);
  const int64_t n = sample.x.size(1);
  r.Layer("core.eager_forward_us", MedianUs(50, [&] {
            InferenceModeGuard inference;
            (void)model->Forward(sample.x);
          }),
          "us");
  r.Layer("alloc.hit_ratio",
          HitRatio(builds.front().alloc_before, last.alloc_after), "ratio");
  r.Layer("alloc.misses_per_req",
          static_cast<double>(misses) / static_cast<double>(steps), "count");
  r.Layer("mem.peak_tensor_mb", Median(peak_mb), "MB");
  ReportModelProbes(
      ProbeModel(*model, sample.x.Reshape({n, profile.lookback})), r);
  ReportIdle(r,
             {"serve.overhead_us", "serve.latency_p99_us", "serve.submit_us",
              "serve.engine_p50_us", "serve.engine_p99_us"},
             "us");
  ReportIdle(r, {"serve.mean_batch"}, "count");
  ReportIdle(r, {"serve.padded_ratio", "serve.planned_ratio"}, "ratio");
  ReportIdle(r, {"serve.rejected"}, "count");
  r.Layer("obs.observe_ns", ProbeObserveNs(), "ns");
  ThreadPool::Global().Resize(kProbePool);
  r.Layer("parallel.dispatch_us", ProbeDispatchUs(), "us");
  ReportIdle(r, {"gen.lateness_p99_us", "gen.lateness_max_us"}, "us");
  r.Layer("trace.overhead_pct", OverheadPct(untraced_s, traced_s), "%");
}

// ---------------------------------------------------------------------------

void PrintResult(const Result& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const std::vector<Metric>& metrics = trace ? r.per_layer : r.end_to_end;
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_light|serve_saturated|"
               "offline_build> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(seconds > 0 && seconds <= 600)) return Usage();

  Result r;
  g_spans.Enable(trace);
  if (workload == "serve_light") {
    RunServe(/*open_loop=*/true, seed, seconds, r);
  } else if (workload == "serve_saturated") {
    RunServe(/*open_loop=*/false, seed, seconds, r);
  } else if (workload == "offline_build") {
    RunOffline(seed, seconds, r);
  } else {
    return Usage();
  }

  if (trace) {
    g_spans.PrintSummary();
    r.Layer("trace.spans", static_cast<double>(g_spans.size()), "count");
    if (!trace_out.empty() && !g_spans.Write(trace_out)) {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   trace_out.c_str());
    }
  }
  PrintResult(r, trace);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace focus

int main(int argc, char** argv) { return focus::perfbench::Main(argc, argv); }
