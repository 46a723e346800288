// Property suite for the quantized and multi-core FlatForest paths:
//
//  * the quantized descent is EXPECT_EQ-equal (bitwise, not
//    approximate) to the float descent over random forests x random
//    row blocks, including NaN/inf rows and rows holding exact
//    bin-edge (threshold) values — the exactness-by-construction
//    contract: bin edges ARE the split thresholds, so `bin(x) >
//    rank(t)` decides identically to `x > t`;
//  * the bin tables themselves honor the contract: edges sorted and
//    distinct, a threshold's own bin equals its rank (so equality
//    descends left), the next representable value above it bins one
//    higher (descends right), NaN bins to 0;
//  * the batch paths match a per-tree PredictTree reference for every
//    worker count and row count (row sharding keeps each row's tree
//    order), for quantized forests and for the float fallback a forest
//    FinalizeQuantized declines;
//  * dispatch state is derived from the global pool, Add() invalidates the quantized tables, and concurrent
//    multi-core batches stay bit-identical (the TSan job runs this
//    suite).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/decision_tree.h"
#include "ml/tree_kernel.h"
#include "tests/ml/synthetic.h"

namespace gaugur::ml {
namespace {

/// Every quantized kernel this host runs.
std::vector<SimdTier> HostTiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (FlatForest::ActiveTier() == SimdTier::kAvx2) {
    tiers.push_back(SimdTier::kAvx2);
  }
  return tiers;
}

/// Varied-depth trees (stumps through depth 12) fit on noisy data.
std::vector<TreeModel> MakeTrees(std::uint64_t seed) {
  const Dataset train = testing::MakeRegressionData(260, seed, 0.2);
  std::vector<TreeModel> trees;
  for (int depth : {1, 2, 4, 7, 12}) {
    TreeConfig config;
    config.max_depth = depth;
    config.seed = seed * 131 + static_cast<std::uint64_t>(depth);
    config.min_samples_leaf = depth >= 7 ? 2 : 5;
    trees.emplace_back(config);
    trees.back().Fit(train);
  }
  return trees;
}

/// The forest of MakeTrees, finalized for the quantized descent unless
/// `quantize` is false (the float descent then serves every batch).
FlatForest MakeForest(std::uint64_t seed, bool quantize = true) {
  FlatForest flat;
  for (const TreeModel& tree : MakeTrees(seed)) flat.Add(tree);
  if (quantize) flat.FinalizeQuantized();
  return flat;
}

/// Random row block with adversarial values: +/-inf, NaN, and — the
/// quantized path's sharpest edge — values copied EXACTLY from the
/// forest's own split thresholds, where `x > t` is false and the bin
/// compare must agree.
Dataset MakeRowBlock(const FlatForest& flat, std::size_t rows,
                     std::uint64_t seed) {
  std::vector<double> thresholds;
  for (const FlatNode& n : flat.Nodes()) {
    if (std::isfinite(n.threshold)) thresholds.push_back(n.threshold);
  }
  common::Rng rng(seed);
  Dataset data(5);
  std::vector<double> row(5);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : row) v = rng.Uniform(-0.25, 1.25);
    if (i % 3 == 1 && !thresholds.empty()) {
      row[i % 5] = thresholds[static_cast<std::size_t>(
          rng.UniformInt(thresholds.size()))];
    }
    if (i % 7 == 3) row[i % 5] = std::numeric_limits<double>::infinity();
    if (i % 11 == 5) row[(i + 1) % 5] = -row[(i + 1) % 5];
    if (i % 13 == 8) {
      row[(i + 2) % 5] = std::numeric_limits<double>::quiet_NaN();
    }
    data.Add(row, 0.0);
  }
  return data;
}

/// init + scale * tree_t(row) per row, trees in index order, by the
/// single-row walk — the reference every batch path must reproduce.
std::vector<double> PerTreeReference(const FlatForest& flat, MatrixView x,
                                     double init, double scale) {
  std::vector<double> out(x.rows, init);
  for (std::size_t i = 0; i < x.rows; ++i) {
    for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
      out[i] += scale * flat.PredictTree(t, x.Row(i));
    }
  }
  return out;
}

TEST(QuantKernel, QuantizedMatchesFloatBitwiseOnEveryTier) {
  for (std::uint64_t seed : {17u, 31u, 59u}) {
    const FlatForest flat = MakeForest(seed);
    ASSERT_TRUE(flat.QuantizedBuilt());
    // Block sizes straddle the 128-row AVX2 main block, the 16-row mid
    // block, and the scalar tail (plus the scalar kernel's 4-row
    // unroll).
    for (std::size_t rows : {1u, 3u, 5u, 15u, 16u, 17u, 127u, 128u, 131u}) {
      const Dataset block = MakeRowBlock(flat, rows, seed * 977 + rows);
      std::vector<double> reference(rows, 0.5);
      for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
        flat.AccumulateTreeBatch(t, block.Matrix(), reference, 0.375);
      }
      std::vector<std::uint16_t> bins;
      flat.BinBatch(block.Matrix(), bins);
      for (SimdTier tier : HostTiers()) {
        SCOPED_TRACE(SimdTierName(tier));
        std::vector<double> out(rows, 0.5);
        for (std::size_t t = 0; t < flat.NumTrees(); ++t) {
          flat.AccumulateTreeQuantTier(t, bins.data(), rows, 5, out, 0.375,
                                       tier);
        }
        for (std::size_t i = 0; i < rows; ++i) {
          // Bitwise, not approximate: EXPECT_EQ on doubles.
          EXPECT_EQ(reference[i], out[i])
              << "seed " << seed << " rows " << rows << " row " << i;
        }
      }
    }
  }
}

TEST(QuantKernel, BinEdgesAreTheThresholdsAndDecideIdentically) {
  const FlatForest flat = MakeForest(43);
  ASSERT_TRUE(flat.QuantizedBuilt());
  const double inf = std::numeric_limits<double>::infinity();
  for (const FlatNode& n : flat.Nodes()) {
    if (!(n.threshold < inf)) continue;  // leaf record
    const auto f = static_cast<std::size_t>(n.feature);
    // x == t bins to t's own rank (the float compare `t > t` is false,
    // so equality must descend left), and the next representable double
    // above t must cross into the next bin (float `above > t` is true).
    const std::uint16_t rank = flat.BinValue(f, n.threshold);
    const double above = std::nextafter(n.threshold, inf);
    EXPECT_GT(flat.BinValue(f, above), rank)
        << "feature " << f << " threshold " << n.threshold;
    EXPECT_LE(rank, flat.NumBinEdges(f));
  }
  // NaN sorts below every edge (descends left, like the float NaN rule);
  // +inf above every edge.
  EXPECT_EQ(flat.BinValue(0, std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(flat.BinValue(0, -inf), 0);
  EXPECT_EQ(flat.BinValue(0, inf), flat.NumBinEdges(0));
}

TEST(QuantKernel, WorkerCountNeverChangesABit) {
  for (bool quantize : {true, false}) {
    SCOPED_TRACE(quantize ? "quantized" : "float");
    const FlatForest flat = MakeForest(71, quantize);
    ASSERT_EQ(flat.QuantizedBuilt(), quantize);
    // Empty; fewer rows than workers; a count neither 2 nor 5 divides;
    // several 512-row blocks plus a remainder.
    for (std::size_t rows : {0u, 3u, 1001u, 2050u}) {
      SCOPED_TRACE(rows);
      const Dataset block = MakeRowBlock(flat, rows, 4242 + rows);
      const MatrixView x{block.Matrix().data, rows, 5};
      const std::vector<double> reference =
          PerTreeReference(flat, x, 0.25, 0.75);
      for (std::size_t workers : {1u, 2u, 5u}) {
        SCOPED_TRACE(workers);
        common::ThreadPool pool(workers);
        std::vector<double> out(rows, 0.25);
        flat.AccumulateBatchMt(x, out, 0.75, pool);
        for (std::size_t i = 0; i < rows; ++i) {
          EXPECT_EQ(reference[i], out[i]) << "row " << i;
        }
      }
    }
  }
}

TEST(QuantKernel, AutoParallelDispatchMatchesSequential) {
  const FlatForest flat = MakeForest(83);
  const Dataset block = MakeRowBlock(flat, 512, 9191);
  const std::vector<double> reference =
      PerTreeReference(flat, block.Matrix(), 0.0, 1.0);

  // 512 rows is past the fan-out cutoff, so on a multi-core host the
  // public entry point runs on the global pool.
  common::ThreadPool& global = common::ThreadPool::Global();
  const std::uint64_t tasks0 = global.TasksExecuted();
  std::vector<double> out(block.NumRows(), 0.0);
  flat.AccumulateBatch(block.Matrix(), out, 1.0);
  EXPECT_EQ(reference, out);
  if (FlatForest::ParallelActive()) {
    EXPECT_GT(global.TasksExecuted(), tasks0);
  }

  std::fill(out.begin(), out.end(), 0.0);
  flat.AccumulateBatchMt(block.Matrix(), out, 1.0, global);
  EXPECT_EQ(reference, out);
}

TEST(QuantKernel, FallbackFloatForestMatchesPerTreeReference) {
  // A complete binary tree of 65535 splits on feature 0, every threshold
  // distinct: more edges than the quantized tables take on one feature
  // (at most 65534), so FinalizeQuantized declines and batches take the
  // float descent.
  constexpr int kDepth = 16;
  constexpr int kSplits = (1 << kDepth) - 1;
  std::vector<TreeNode> nodes;
  const auto build = [&](auto&& self, int lo, int hi) -> int {
    const int id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    if (lo == hi) {
      nodes[static_cast<std::size_t>(id)].value = 0.5 * lo;
      return id;
    }
    const int mid = (lo + hi) / 2;
    const int left = self(self, lo, mid);
    const int right = self(self, mid + 1, hi);
    TreeNode& node = nodes[static_cast<std::size_t>(id)];
    node.feature = 0;
    node.threshold = (mid + 0.5) / kSplits;
    node.left = left;
    node.right = right;
    return id;
  };
  build(build, 0, kSplits);
  FlatForest flat;
  flat.Add(TreeModel::FromNodes({}, std::move(nodes)));
  for (const TreeModel& tree : MakeTrees(5)) flat.Add(tree);
  flat.FinalizeQuantized();
  ASSERT_FALSE(flat.QuantizedBuilt());

  // Past the fan-out cutoff, and a count no pool size below divides.
  const Dataset block = MakeRowBlock(flat, 301, 777);
  const std::vector<double> reference =
      PerTreeReference(flat, block.Matrix(), 0.125, 0.5);

  std::vector<double> out(block.NumRows(), 0.125);
  flat.AccumulateBatch(block.Matrix(), out, 0.5);
  EXPECT_EQ(reference, out);
  for (std::size_t workers : {2u, 4u}) {
    SCOPED_TRACE(workers);
    common::ThreadPool pool(workers);
    std::fill(out.begin(), out.end(), 0.125);
    flat.AccumulateBatchMt(block.Matrix(), out, 0.5, pool);
    EXPECT_EQ(reference, out);
  }
}

TEST(QuantKernel, DispatchStateIsDerivedNotConfigured) {
  // Nothing switches these: the quantized descent serves every forest
  // FinalizeQuantized accepts, and batches fan out whenever the global
  // pool has workers to fan out to. ActiveTier() is checked by
  // SimdKernel.ActiveTierIsTheDetectedTier.
  EXPECT_TRUE(FlatForest::QuantizedActive());
  EXPECT_EQ(FlatForest::ParallelActive(),
            common::ThreadPool::Global().NumThreads() >= 2);
}

TEST(QuantKernel, AddInvalidatesTheQuantizedTables) {
  const std::vector<TreeModel> trees = MakeTrees(3);
  FlatForest flat = MakeForest(3);
  ASSERT_TRUE(flat.QuantizedBuilt());
  flat.Add(trees.front());
  EXPECT_FALSE(flat.QuantizedBuilt());
  flat.FinalizeQuantized();
  EXPECT_TRUE(flat.QuantizedBuilt());
  flat.Clear();
  EXPECT_FALSE(flat.QuantizedBuilt());
}

TEST(QuantKernel, ConcurrentMultiCoreBatchesStayBitIdentical) {
  // Four callers outside the pool fan 300-row batches out over the
  // global pool at once: every worker bins into its own buffer, and
  // each caller's rows come back exactly as the single-row walk.
  for (bool quantize : {true, false}) {
    SCOPED_TRACE(quantize ? "quantized" : "float");
    const FlatForest flat = MakeForest(61, quantize);
    const Dataset block = MakeRowBlock(flat, 300, 8888);
    const std::vector<double> reference =
        PerTreeReference(flat, block.Matrix(), 0.0, 1.0);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> callers;
    for (int w = 0; w < 4; ++w) {
      callers.emplace_back([&] {
        std::vector<double> out(block.NumRows());
        for (int iter = 0; iter < 20; ++iter) {
          std::fill(out.begin(), out.end(), 0.0);
          flat.AccumulateBatch(block.Matrix(), out, 1.0);
          for (std::size_t i = 0; i < out.size(); ++i) {
            const bool same =
                out[i] == reference[i] ||
                (std::isnan(out[i]) && std::isnan(reference[i]));
            if (!same) mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& caller : callers) caller.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
}

}  // namespace
}  // namespace gaugur::ml
