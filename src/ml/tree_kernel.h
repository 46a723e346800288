// Contiguous inference kernel for CART tree ensembles.
//
// TreeModel stores an AoS node vector that is convenient to build and
// serialize but slow to query: every ensemble prediction pointer-chases
// 24-byte nodes scattered per tree, and the left-or-right choice compiles
// to a data-dependent branch that mispredicts roughly half the time on
// real feature data. FlatForest re-lays fitted trees into one contiguous
// array shared by the whole ensemble and traverses it without branches:
//
//  * nodes are renumbered **level by level**: all nodes of descent depth
//    d of a tree occupy one contiguous segment (LevelSpan), each split's
//    two children sit in adjacent slots of the next segment, and leaves
//    that end shallower than the tree's depth are chained downward (one
//    16-byte copy per deeper level, threshold +inf so the step adds 0).
//    Every root-to-leaf walk is therefore exactly the same fixed number
//    of steps, and step d of a whole row block touches only level d's
//    segment;
//  * the child choice collapses to integer arithmetic:
//    `idx = child + (x[feature] > threshold)` — NaN compares false and
//    descends left (TreeModel::Predict's `x <= threshold` would send it
//    right, which is why the ensembles route their scalar paths through
//    FlatForest too);
//  * leaf values live in a separate array indexed by the final position
//    and accumulate as `out += scale * leaf` (separate multiply and add,
//    never an FMA).
//
// Batch entry points block **rows outer, trees inner**: a 512-row block
// stays cache-resident while every tree sweeps it, and each row still
// adds its trees in index order — so a batch is bit-identical to the
// per-row scalar loops (tree 0, tree 1, ...). That is the contract the
// PredictionCache and obs::ModelMonitor rely on: a memoized or audited
// value never depends on which path produced it.
//
// The batch descent is **quantized** (FinalizeQuantized): every distinct
// split threshold of feature f becomes a bin edge, a batch's values are
// binned once to uint16 ids, and nodes shrink to 8-byte SoA words, which
// the AVX2 kernel descends 8 rows per vector. Thresholds ARE the bin
// edges, so `bin(x) > rank(t)` decides exactly like `x > t` and the
// result is EXPECT_EQ-equal to the float descent. The portable scalar
// float descent remains for forests quantization cannot represent and
// as the reference the exactness tests compare against.
//
// Large batches from outside the global pool run **multi-core**
// (AccumulateBatchMt): each worker takes one contiguous row range, so
// every row keeps its tree order and the result is bit-identical for
// any worker count.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "ml/dataset.h"

namespace gaugur::common {
class ThreadPool;
}

namespace gaugur::ml {

class TreeModel;

/// Quantized descent kernels, weakest to strongest. The build (the
/// GAUGUR_NO_SIMD gate) and the CPU decide which one batches run; every
/// tier returns bit-identical predictions.
enum class SimdTier : int { kScalar = 0, kAvx2 = 1 };

const char* SimdTierName(SimdTier tier);

/// One packed split/leaf record. `child` is the index of the left child;
/// the right child is `child + 1` (children adjacent in the next level's
/// segment). Leaves carry threshold == +inf so the descent step adds 0:
/// at the tree's last level they self-loop (child == own index), at
/// shallower levels `child` points at the leaf's copy one level down.
struct alignas(16) FlatNode {
  double threshold = 0.0;
  std::int32_t feature = 0;  // leaves use feature 0
  std::int32_t child = 0;
};
static_assert(sizeof(FlatNode) == 16);

class FlatForest {
 public:
  /// Appends a fitted tree to the ensemble.
  void Add(const TreeModel& tree);

  void Clear();

  bool Empty() const { return roots_.empty(); }
  std::size_t NumTrees() const { return roots_.size(); }
  std::size_t NumNodes() const { return nodes_.size(); }

  /// Largest feature index any node compares on; batch calls CHECK the
  /// row width against this once instead of per node.
  std::size_t MaxFeature() const { return max_feature_; }

  /// The packed node array in level order; read-only structural view for
  /// tests and inspection tooling.
  std::span<const FlatNode> Nodes() const { return nodes_; }

  /// Number of node levels of tree `t` (tree depth); descents take one
  /// step fewer.
  std::int32_t NumLevels(std::size_t t) const;

  /// Half-open node-index span [begin, end) of descent level `d` of
  /// tree `t`: the contiguous segment a row block's step `d` reads.
  std::pair<std::int32_t, std::int32_t> LevelSpan(std::size_t t,
                                                  std::int32_t d) const;

  /// Leaf value of tree `t` for one row (the batch-of-one scalar path).
  double PredictTree(std::size_t t, std::span<const double> x) const;

  /// Sum of all trees' leaf values for one row, accumulated in tree
  /// order (matches the scalar ensemble loops bit for bit).
  double PredictRowSum(std::span<const double> x) const;

  /// out[i] += scale * tree_t(x.Row(i)) for every row, by the portable
  /// float descent (the boosting fit's per-stage update).
  void AccumulateTreeBatch(std::size_t t, MatrixView x,
                           std::span<double> out, double scale) const;

  /// out[i] += scale * sum of every tree over row i, trees in index
  /// order. Takes the quantized descent when the tables are built, the
  /// float descent otherwise, and AccumulateBatchMt over the global pool
  /// for batches of 256+ rows when ParallelActive(). Every path is
  /// bit-identical, so the dispatch is not observable in the outputs.
  void AccumulateBatch(MatrixView x, std::span<double> out,
                       double scale) const;

  /// AccumulateBatch with rows sharded over `pool`: each worker runs the
  /// sequential path on one contiguous row range. Runs inline when the
  /// pool has a single worker or when called from one of its own workers
  /// (a shard worker's decision batch must not re-enter its own queue).
  void AccumulateBatchMt(MatrixView x, std::span<double> out, double scale,
                         common::ThreadPool& pool) const;

  // --- Quantized descent -------------------------------------------

  /// Builds the quantized tables from the current trees: per-feature
  /// sorted bin edges (the distinct split thresholds) plus the packed
  /// per-level SoA node arrays. Idempotent; call after the last Add.
  /// A forest the scheme cannot represent exactly (a feature with more
  /// than 65534 distinct thresholds, or a feature index beyond 16 bits)
  /// simply leaves QuantizedBuilt() false and every batch on the float
  /// descent.
  void FinalizeQuantized();

  /// True when FinalizeQuantized built exact tables for this forest.
  bool QuantizedBuilt() const { return quant_built_; }

  /// Always true: every finalized forest's batches take the quantized
  /// descent. Kept so run fingerprints can record it.
  static bool QuantizedActive() { return true; }

  /// Number of bin edges (distinct split thresholds) of feature `f`;
  /// bin ids for that feature range over [0, NumBinEdges(f)].
  /// Inspection hook for tests and docs tooling.
  std::size_t NumBinEdges(std::size_t f) const;

  /// The bin id the quantized descent compares for value `x` of
  /// feature `f`: the count of edges strictly below `x` (NaN -> 0).
  std::uint16_t BinValue(std::size_t f, double x) const;

  /// Bins one row-major batch into `bins` (resized to rows * cols plus
  /// two elements of gather-overread padding). Test/bench hook for the
  /// exact front half of the quantized batch path.
  void BinBatch(MatrixView x, std::vector<std::uint16_t>& bins) const;

  /// out[i] += scale * tree_t(row i) over a pre-binned batch with the
  /// given kernel (`tier` <= ActiveTier()). Requires QuantizedBuilt().
  void AccumulateTreeQuantTier(std::size_t t, const std::uint16_t* bins,
                               std::size_t rows, std::size_t cols,
                               std::span<double> out, double scale,
                               SimdTier tier) const;

  // --- Dispatch state -----------------------------------------------

  /// Whether AccumulateBatch fans large batches out: the global pool has
  /// at least two workers.
  static bool ParallelActive();

  /// The quantized kernel batches run: kAvx2 when the build compiled it
  /// and the CPU supports it, else kScalar.
  static SimdTier ActiveTier();

 private:
  void CheckWidth(std::size_t cols) const;

  /// The sequential rows-outer path AccumulateBatch and each
  /// AccumulateBatchMt worker run.
  void AccumulateRows(MatrixView x, std::span<double> out,
                      double scale) const;

  std::vector<FlatNode> nodes_;
  std::vector<double> value_;         // leaf value; 0 for splits
  std::vector<std::int32_t> roots_;   // per-tree root node index
  std::vector<std::int32_t> levels_;  // per-tree descent count
  /// Flat list of level-segment start offsets; tree t's levels begin at
  /// level_index_[t] and segments are contiguous, so a segment's end is
  /// the next entry's start (or nodes_.size() for the very last one).
  std::vector<std::int32_t> level_base_;
  std::vector<std::int32_t> level_index_;
  std::size_t max_feature_ = 0;

  // Quantized tables (valid iff quant_built_; any Add invalidates).
  // Per-feature sorted distinct split thresholds: bin(x) for feature f
  // is the count of edges_[f] entries strictly below x.
  std::vector<std::vector<double>> edges_;
  /// The same edges flattened into one contiguous slab for the hot
  /// BinBatch sweep: feature f's slice is
  /// edge_flat_[edge_off_[f] .. edge_off_[f + 1]).
  std::vector<double> edge_flat_;
  std::vector<std::uint32_t> edge_off_;
  /// SoA node words, parallel to nodes_ (same level-contiguous index
  /// space): qmeta_[i] packs (feature << 16) | threshold_rank, with
  /// rank 0xFFFF marking a leaf record; qchild_[i] is the left-child
  /// index. 8 bytes per node -> 8 nodes per cache line.
  std::vector<std::int32_t> qmeta_;
  std::vector<std::int32_t> qchild_;
  bool quant_built_ = false;
};

}  // namespace gaugur::ml
