// Predictor throughput: queries/sec of the online feasibility service
// under three regimes over the same CM query stream:
//
//  * scalar  — the legacy per-query path: build one feature vector, walk
//    every boosting stage with the pointer-chasing TreeModel traversal,
//    sigmoid, threshold. This is what every scheduler paid per candidate
//    before the batched inference engine.
//  * batch   — GAugurPredictor::PredictQosOkBatch with the prediction
//    cache disabled: one row-major feature matrix per chunk and one
//    flattened-kernel PredictProbBatch call over it.
//  * cached  — the same entry point with the LRU PredictionCache warmed,
//    the regime a scheduler sees when arrivals revisit open servers.
//
// Decisions are cross-checked for agreement across all three regimes.
// On a multi-core host the batch regime's 512-row chunks fan out over
// the global pool.
//
// On top of the regimes, three kernel axes, all timed over one prebuilt
// feature matrix of the whole stream (rows blocked, trees inner, exactly
// AccumulateBatch's loop structure), each reporting its fastest of
// several rounds, and all cross-checked bit for bit:
//
//  * float descent (kernel_float_descent_rps): the portable float
//    descent, the path for forests quantization cannot represent;
//  * quantized descent: kernel_quant_<scalar|avx2>_rps times the descent
//    over a pre-binned batch for each kernel the host runs. Binning is
//    the quantized path's batch prep the way feature materialization is
//    the float path's, so it is timed as its own number
//    (quant_bin_rows_ps), and kernel_quant_<k>_e2e_rps times binning
//    plus descent. speedup_quant_vs_float_kernel = best quantized
//    descent / float descent; speedup_simd_vs_scalar_kernel = AVX2 /
//    scalar quantized descent (1 on hosts without AVX2);
//  * multi-core (--threads k1,k2,...): AccumulateBatchMt over explicit
//    ThreadPool(k) instances (kernel_mt_<k>_rps), with results checked
//    bit-identical across every k and per-core scaling efficiency
//    reported (mt_scaling_efficiency).
//
// Emits bench_results/BENCH_predictor.json with the QPS numbers and the
// speedup ratios CI tracks.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_world.h"
#include "common/check.h"
#include "common/mathutil.h"
#include "common/thread_pool.h"
#include "gaugur/predictor.h"
#include "gaugur/training.h"
#include "ml/gradient_boosting.h"
#include "ml/tree_kernel.h"
#include "obs/switch.h"
#include "sched/enumeration.h"
#include "sched/study.h"

using namespace gaugur;

namespace {

constexpr double kQos = 60.0;
constexpr std::size_t kChunk = 512;  // queries per batched call

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The pre-batching predictor hot path, replicated verbatim: fresh
/// feature vector, per-stage scalar tree walks, sigmoid, threshold.
std::vector<char> RunScalarBaseline(
    const core::FeatureBuilder& features,
    const ml::GradientBoostedClassifier& gbdt, double threshold,
    std::span<const core::QosQuery> queries) {
  std::vector<char> decisions(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::vector<double> x =
        features.CmFeatures(kQos, queries[i].victim, queries[i].corunners);
    double log_odds = gbdt.BaseValue();
    for (const ml::TreeModel& tree : gbdt.Stages()) {
      log_odds += gbdt.Config().learning_rate * tree.Predict(x);
    }
    decisions[i] = common::Sigmoid(log_odds) >= threshold ? 1 : 0;
  }
  return decisions;
}

/// Rows/s of the fastest of `rounds` timings of `reps` calls of `pass`
/// each. A shared host's speed comes and goes in spells of seconds; the
/// multi-core axis suffers most (extra workers fall back to about the
/// one-worker rate while the host is busy). The fastest round is what
/// the code does when nothing else interferes.
template <typename Pass>
double FastestRate(std::size_t rows, int reps, int rounds, Pass&& pass) {
  double best = 0.0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < reps; ++rep) pass();
    best = std::max(best, static_cast<double>(rows) * reps / SecondsSince(t0));
  }
  return best;
}

std::vector<char> RunPredictorChunked(
    const core::GAugurPredictor& predictor,
    std::span<const core::QosQuery> queries) {
  std::vector<char> decisions;
  decisions.reserve(queries.size());
  for (std::size_t begin = 0; begin < queries.size(); begin += kChunk) {
    const std::size_t count = std::min(kChunk, queries.size() - begin);
    const auto chunk = predictor.PredictQosOkBatch(
        kQos, queries.subspan(begin, count));
    decisions.insert(decisions.end(), chunk.begin(), chunk.end());
  }
  return decisions;
}

/// Parses "--threads 1,2,4" (or "--threads=1,2,4"). Default: powers of
/// two up to the hardware thread count, so the scaling claim is
/// measured against what the machine actually has.
std::vector<std::size_t> ParseThreadsAxis(int argc, char** argv) {
  std::string spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--threads=", 0) == 0) {
      spec = arg.substr(10);
    } else if (arg == "--threads" && i + 1 < argc) {
      spec = argv[++i];
    }
  }
  std::vector<std::size_t> axis;
  if (spec.empty()) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    for (std::size_t k = 1; k <= hw; k *= 2) axis.push_back(k);
    return axis;
  }
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const unsigned long k = std::stoul(tok);
    GAUGUR_CHECK_MSG(k >= 1 && k <= 256, "--threads entry out of range");
    axis.push_back(static_cast<std::size_t>(k));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return axis;
}

}  // namespace

int main(int argc, char** argv) {
  const auto& world = bench::BenchWorld::Get();
  const std::vector<std::size_t> threads_axis = ParseThreadsAxis(argc, argv);
  const auto wall_start = std::chrono::steady_clock::now();

  // Two predictors trained identically (same config/seed/data): one with
  // the cache off, one with it on. The bare GBDT below is constructed
  // with the same seed and dataset as their CM, so all regimes evaluate
  // the exact same model.
  core::PredictorConfig config;
  config.cm_decision_threshold = 0.8;
  core::PredictorConfig uncached_config = config;
  uncached_config.prediction_cache_capacity = 0;
  core::GAugurPredictor uncached(world.features(), uncached_config);
  core::GAugurPredictor cached(world.features(), config);

  const std::vector<double> qos_grid{40.0, 50.0, 55.0, 60.0,
                                     65.0, 70.0, 80.0};
  const auto cm_dataset = core::BuildCmDatasetMultiQos(
      world.features(), world.train_colocations(), qos_grid);
  uncached.TrainCmOnDataset(cm_dataset);
  cached.TrainCmOnDataset(cm_dataset);

  ml::BoostConfig boost;
  boost.seed = config.seed + 1;  // the seed MakeClassifier gives the CM
  ml::GradientBoostedClassifier gbdt(boost);
  gbdt.Fit(cm_dataset);

  // Query stream: every (victim, colocation) pair of the study
  // enumeration, replayed round-robin — schedulers re-scoring the same
  // open-server candidates across arrivals.
  const auto setup = sched::SelectStudyGames(world.lab(), 10, kQos, 5);
  const auto colocations = sched::EnumerateColocations(setup.pool, 4);
  std::vector<core::SessionRequest> pool;
  std::size_t slots = 0;
  for (const auto& c : colocations) slots += c.size() * (c.size() - 1);
  pool.reserve(slots);
  std::vector<core::QosQuery> distinct;
  for (const auto& colocation : colocations) {
    for (std::size_t v = 0; v < colocation.size(); ++v) {
      const std::size_t begin = pool.size();
      for (std::size_t j = 0; j < colocation.size(); ++j) {
        if (j != v) pool.push_back(colocation[j]);
      }
      distinct.push_back(
          {colocation[v],
           std::span<const core::SessionRequest>(pool.data() + begin,
                                                 pool.size() - begin)});
    }
  }
  const std::size_t target = world.fast_mode() ? 2000 : 20000;
  std::vector<core::QosQuery> queries;
  queries.reserve(target);
  while (queries.size() < target) {
    const std::size_t take =
        std::min(distinct.size(), target - queries.size());
    queries.insert(queries.end(), distinct.begin(),
                   distinct.begin() + static_cast<std::ptrdiff_t>(take));
  }
  std::printf("query stream: %zu queries (%zu distinct), %zu-query chunks\n",
              queries.size(), distinct.size(), kChunk);

  double scalar_s = 0.0, batch_s = 0.0, cached_s = 0.0;
  std::vector<char> scalar_dec, batch_dec, cached_dec;
  {
    // Timed sections run with observability off: measure inference, not
    // audit bookkeeping.
    const obs::EnabledScope obs_off(false);

    auto t0 = std::chrono::steady_clock::now();
    scalar_dec = RunScalarBaseline(world.features(), gbdt,
                                   config.cm_decision_threshold, queries);
    scalar_s = SecondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    batch_dec = RunPredictorChunked(uncached, queries);
    batch_s = SecondsSince(t0);

    RunPredictorChunked(cached, queries);  // warm the cache
    t0 = std::chrono::steady_clock::now();
    cached_dec = RunPredictorChunked(cached, queries);
    cached_s = SecondsSince(t0);
  }

  GAUGUR_CHECK_MSG(scalar_dec == batch_dec && batch_dec == cached_dec,
                   "regimes disagree on decisions");
  const auto stats = cached.PredictionCacheStats();
  GAUGUR_CHECK_MSG(stats.hits > 0, "cached regime never hit the cache");

  // Kernel axes over one prebuilt feature matrix of the whole stream.
  GAUGUR_CHECK_MSG(gbdt.Kernel().QuantizedBuilt(),
                   "the CM forest did not quantize");
  std::vector<double> matrix;
  for (const core::QosQuery& q : queries) {
    const std::vector<double> x =
        world.features().CmFeatures(kQos, q.victim, q.corunners);
    matrix.insert(matrix.end(), x.begin(), x.end());
  }
  const std::size_t rows = queries.size();
  const std::size_t cols = matrix.size() / rows;
  const ml::MatrixView view{matrix.data(), rows, cols};
  const ml::FlatForest& flat = gbdt.Kernel();
  const double lr = gbdt.Config().learning_rate;
  const int kernel_reps = world.fast_mode() ? 4 : 8;
  const int kernel_rounds = world.fast_mode() ? 2 : 5;

  std::vector<ml::SimdTier> tiers{ml::SimdTier::kScalar};
  if (ml::FlatForest::ActiveTier() == ml::SimdTier::kAvx2) {
    tiers.push_back(ml::SimdTier::kAvx2);
  }
  std::vector<double> quant_kernel_rps;
  std::vector<double> quant_e2e_rps;
  std::vector<double> mt_kernel_rps(threads_axis.size());
  double float_descent_rps = 0.0;
  double quant_bin_rows_ps = 0.0;
  {
    const obs::EnabledScope obs_off(false);
    // FastestRate of passes that each run `prep`, then `tree_pass` for
    // every 512-row block and tree, leaving their sums in `sums`.
    constexpr std::size_t kRowBlock = 512;  // mirrors AccumulateBatch
    const auto time_descent = [&](std::vector<double>& sums, auto&& prep,
                                  auto&& tree_pass) {
      sums.resize(rows);
      return FastestRate(rows, kernel_reps, kernel_rounds, [&] {
        prep();
        std::fill(sums.begin(), sums.end(), 0.0);
        for (std::size_t rb = 0; rb < rows; rb += kRowBlock) {
          const std::size_t brows = std::min(kRowBlock, rows - rb);
          for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
            tree_pass(t, rb, brows,
                      std::span<double>(sums).subspan(rb, brows));
          }
        }
      });
    };
    const auto no_prep = [] {};

    std::vector<double> float_sums;
    float_descent_rps = time_descent(
        float_sums, no_prep,
        [&](std::size_t t, std::size_t rb, std::size_t brows,
            std::span<double> o) {
          flat.AccumulateTreeBatch(t, {matrix.data() + rb * cols, brows, cols},
                                   o, lr);
        });

    std::vector<std::uint16_t> bins;
    quant_bin_rows_ps = FastestRate(rows, kernel_reps, kernel_rounds,
                                    [&] { flat.BinBatch(view, bins); });

    for (ml::SimdTier tier : tiers) {
      const auto quant_pass = [&](std::size_t t, std::size_t rb,
                                  std::size_t brows, std::span<double> o) {
        flat.AccumulateTreeQuantTier(t, bins.data() + rb * cols, brows, cols,
                                     o, lr, tier);
      };
      std::vector<double> sums;
      quant_kernel_rps.push_back(time_descent(sums, no_prep, quant_pass));
      GAUGUR_CHECK_MSG(sums == float_sums,
                       ml::SimdTierName(tier)
                           << " quantized descent changed the sums");
      quant_e2e_rps.push_back(time_descent(
          sums, [&] { flat.BinBatch(view, bins); }, quant_pass));
    }

    // Multi-core axis: the raw kernel over explicit pools, one per
    // --threads entry, every worker count checked bit-identical against
    // the single-threaded accumulation (enforced here so the JSON never
    // ships numbers from a run that broke it). Rounds run every worker
    // count in turn, so a busy spell hits them alike.
    std::vector<double> sums(rows);
    std::vector<double> reference(rows, gbdt.BaseValue());
    common::ThreadPool single(1);
    flat.AccumulateBatchMt(view, reference, lr, single);
    std::vector<std::unique_ptr<common::ThreadPool>> pools;
    for (std::size_t k : threads_axis) {
      pools.push_back(std::make_unique<common::ThreadPool>(k));
    }
    for (int round = 0; round < kernel_rounds; ++round) {
      for (std::size_t k = 0; k < threads_axis.size(); ++k) {
        mt_kernel_rps[k] = std::max(
            mt_kernel_rps[k], FastestRate(rows, kernel_reps, 1, [&] {
              std::fill(sums.begin(), sums.end(), gbdt.BaseValue());
              flat.AccumulateBatchMt(view, sums, lr, *pools[k]);
            }));
        GAUGUR_CHECK_MSG(sums == reference,
                         threads_axis[k]
                             << " workers changed the accumulation bits");
      }
    }
  }

  const double n = static_cast<double>(queries.size());
  const double scalar_qps = n / scalar_s;
  const double batch_qps = n / batch_s;
  const double cached_qps = n / cached_s;
  std::printf("scalar  : %10.0f queries/sec\n", scalar_qps);
  std::printf("batch   : %10.0f queries/sec  (%.2fx scalar)\n", batch_qps,
              batch_qps / scalar_qps);
  std::printf("cached  : %10.0f queries/sec  (%.2fx batch)\n", cached_qps,
              cached_qps / batch_qps);
  std::printf("float descent     : %12.0f rows/sec\n", float_descent_rps);
  std::printf("quant binning     : %12.0f rows/sec  (batch prep)\n",
              quant_bin_rows_ps);
  for (std::size_t k = 0; k < tiers.size(); ++k) {
    std::printf(
        "quant %-6s      : %12.0f rows/sec  (%.2fx float descent, "
        "%.2fx quant scalar, %.0f rows/sec with binning)\n",
        ml::SimdTierName(tiers[k]), quant_kernel_rps[k],
        quant_kernel_rps[k] / float_descent_rps,
        quant_kernel_rps[k] / quant_kernel_rps.front(), quant_e2e_rps[k]);
  }
  for (std::size_t k = 0; k < threads_axis.size(); ++k) {
    const double eff = mt_kernel_rps[k] / mt_kernel_rps.front() /
                       static_cast<double>(threads_axis[k]);
    std::printf("kernel mt %2zu thr : %12.0f rows/sec  (%.0f%% per-core)\n",
                threads_axis[k], mt_kernel_rps[k], 100.0 * eff);
  }

  obs::JsonObject json_config;
  json_config["qos_fps"] = kQos;
  json_config["queries"] = static_cast<unsigned long long>(queries.size());
  json_config["distinct_queries"] =
      static_cast<unsigned long long>(distinct.size());
  json_config["chunk"] = static_cast<unsigned long long>(kChunk);
  json_config["cache_capacity"] = static_cast<unsigned long long>(
      config.prediction_cache_capacity);
  json_config["fast_mode"] = world.fast_mode();
  json_config["simd_active"] =
      std::string(ml::SimdTierName(ml::FlatForest::ActiveTier()));
  json_config["hardware_threads"] = static_cast<unsigned long long>(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::string axis_str;
  for (std::size_t k : threads_axis) {
    if (!axis_str.empty()) axis_str += ",";
    axis_str += std::to_string(k);
  }
  json_config["threads_axis"] = axis_str;
  obs::JsonObject counters;
  counters["scalar_qps"] = scalar_qps;
  counters["batch_qps"] = batch_qps;
  counters["cached_qps"] = cached_qps;
  counters["speedup_batch_vs_scalar"] = batch_qps / scalar_qps;
  counters["speedup_cached_vs_batch"] = cached_qps / batch_qps;
  counters["cache_hits"] = static_cast<unsigned long long>(stats.hits);
  counters["cache_misses"] = static_cast<unsigned long long>(stats.misses);
  counters["kernel_float_descent_rps"] = float_descent_rps;
  counters["quant_bin_rows_ps"] = quant_bin_rows_ps;
  for (std::size_t k = 0; k < tiers.size(); ++k) {
    const std::string name =
        std::string("kernel_quant_") + ml::SimdTierName(tiers[k]);
    counters[name + "_rps"] = quant_kernel_rps[k];
    counters[name + "_e2e_rps"] = quant_e2e_rps[k];
  }
  // The two ratios CI gates on the committed artifact (>= 2 each): the
  // quantized descent over the float one, and the AVX2 quantized kernel
  // over the portable scalar one.
  counters["speedup_quant_vs_float_kernel"] =
      *std::max_element(quant_kernel_rps.begin(), quant_kernel_rps.end()) /
      float_descent_rps;
  counters["speedup_simd_vs_scalar_kernel"] =
      quant_kernel_rps.back() / quant_kernel_rps.front();
  for (std::size_t k = 0; k < threads_axis.size(); ++k) {
    counters["kernel_mt_" + std::to_string(threads_axis[k]) + "_rps"] =
        mt_kernel_rps[k];
  }
  // Per-core efficiency at the widest measured worker count: 1.0 is
  // perfect linear scaling over the 1-worker entry.
  counters["mt_scaling_efficiency"] =
      mt_kernel_rps.back() / mt_kernel_rps.front() /
      static_cast<double>(threads_axis.back());
  bench::WriteBenchJson("predictor",
                        1000.0 * SecondsSince(wall_start),
                        std::move(json_config), std::move(counters));

  std::printf(
      "\nThe flattened-kernel batch path should clear 3x the legacy "
      "scalar QPS,\nthe warmed cache should beat the batch path again, "
      "and the quantized descent\nshould clear 2x the float descent's "
      "rows/sec.\n");
  return 0;
}
