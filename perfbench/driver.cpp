// End-to-end benchmark of the GAugur placement service.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <path>]
//
// One invocation sets the service up (profile -> corpus -> RM/CM training)
// three times and reports the median; after each set-up it drives one
// workload for a third of `--seconds` of wall time. It then re-checks a
// seeded sample of the service's outputs, replays a fixed set of inputs
// untimed for the quality metrics, and prints its metrics. The last
// stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. All timing is
// taken by this file around its own calls into each layer's public
// functions; every counter is read through an existing public accessor.
// See README.md beside this file for the workloads and metric map.

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gamesim/catalog.h"
#include "gamesim/server_sim.h"
#include "gaugur/corpus.h"
#include "gaugur/lab.h"
#include "gaugur/predictor.h"
#include "gaugur/training.h"
#include "ml/tree_kernel.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/latency_profiler.h"
#include "obs/switch.h"
#include "profiling/profiler.h"
#include "sched/dynamic.h"
#include "sched/enumeration.h"
#include "sched/packing.h"
#include "sched/study.h"
#include "spans.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gaugur;
using perfbench::NowS;
using perfbench::Span;
using perfbench::SpanLog;

// Seeds: claims measured with kDefaultSeed must also hold on
// kHeldOutSeed, which is not used while tuning a change.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 2;

constexpr double kQosFps = 60.0;
// The game pool is part of a workload's definition, drawn once with this
// selection seed (bench_fleet_scale's study pool); the run seed varies
// the arrival traces and request mixes over that pool. A pool drawn per
// seed moves packing density and QoS violations by more than any bound
// a regression gate could use.
constexpr std::uint64_t kPoolSeed = 5;
// Setup repetitions per invocation; setup_s is their median.
constexpr std::size_t kSetupRepeats = 3;
// DynamicOptions::max_policy_candidates for serve_hot_armed.
constexpr std::size_t kCandidateCap = 64;
constexpr double kMeanPlayMin = 30.0;
constexpr double kTickWindowMin = 5.0;
// serve_hot_armed: the paper's §5 study mix (10 games at 1080p), 20
// arrivals a minute for 150 minutes a trace.
constexpr std::size_t kServeGames = 10;
constexpr double kServeHorizonMin = 150.0;
constexpr double kServeArrivalsPerMin = 20.0;
// plan_offline: game pool, colocation size cap and request mix.
constexpr std::size_t kPlanGames = 30;
constexpr std::size_t kPlanMaxColocation = 4;
constexpr int kPlanRequests = 5000;
// Correctness sampling: one in kCaptureOneIn decisions is re-judged
// with the scalar PredictFeasible, at most kCapturesPerWindow in each
// measurement window (so decisions after every set-up are judged).
constexpr std::uint64_t kCaptureOneIn = 64;
constexpr std::size_t kCapturesPerWindow = 32;
constexpr std::size_t kPlanVerdictChecks = 256;
// The quality metrics (violated_sessions_pct, servers_per_session) cover
// inputs 0..kQualityInputs-1 of the seed's stream, whatever number of
// rounds the timed windows fit, so a seed always gives the same value.
constexpr std::size_t kQualityInputs = 16;
// Latency chunks: decision_p50_us is the lowest p50 of any kP50Chunk
// consecutive calls, decision_p99_us the median over kP99Chunk-call
// chunks of their p99 (1000 leaves exactly ten samples beyond it). Not a
// median p50 over the run: on the shared VM the benchmark was tuned on, a
// thread ran at one of two speeds (about 550 or 850 us a plan_offline
// call) in spells of a few seconds, and the share of slow spells ranged
// from a third to nearly all of a run, so a p50 over the run followed the
// other tenants' load (ten-seed spread up to 0.3). Another tenant only
// ever adds time, so the quietest stretch is the program's own cost, and
// a change to the program moves it as much as any other quantile. For
// the same reason decisions_per_s is the rate of the fastest round.
constexpr std::size_t kP50Chunk = 500;
constexpr std::size_t kP99Chunk = 1000;
// serve_hot_armed: the five in-decision LatencyProfiler phases must sum
// to within this share of the benchmark's own serve.decision spans. The
// phases time the policy call from just outside the span (ShardSim's
// policy_select timer wraps the instrumented policy), so the remainder
// is std::function dispatch and the span's own clock reads (measured
// +0.05% to +0.09%).
constexpr double kReconcileTolerance = 0.01;
// serve_hot_armed runs one shard: with two, a shard the machine stalls
// holds the other at the tick barrier and the timings spread past any
// usable bound (README.md, "What was left out").
constexpr std::size_t kShards = 1;
// Colocations per ScoreCandidates call on plan_offline's timed passes: at
// most 252 model rows, under the 256 at which FlatForest fans a batch out
// over the global thread pool (AccumulateBatchMt). A fanned-out call waits
// for its slowest worker, and on a shared 4-core VM one preempted worker
// spread the p99 of 128-colocation calls 0.27 to 1.67 of the median
// across ten seeds (0.09 at 63). The pool path is still run and checked
// on every invocation, untimed for the end-to-end metrics, with
// kPlanPoolBatch (about 1,950 rows a call).
constexpr std::size_t kPlanBatch = 63;
constexpr std::size_t kPlanPoolBatch = 512;

struct WorkloadSpec {
  const char* name;
  bool plan = false;  // plan_offline; otherwise the serve workload, obs on
};

// Why each workload exists: README.md, "Workloads".
const WorkloadSpec kWorkloads[] = {
    {.name = "serve_hot_armed"},
    {.name = "plan_offline", .plan = true},
};

/// Span-log request ids carry their kind in the top byte, so set-up
/// repetitions, replay rounds, decisions and planning passes never share
/// an id.
enum class RequestKind : std::uint64_t {
  kSetup = 1,
  kReplay = 2,
  kDecision = 3,
  kPlan = 4,
};
std::uint64_t RequestId(RequestKind kind, std::uint64_t n) {
  return (static_cast<std::uint64_t>(kind) << 56) | n;
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a * 0x9e3779b97f4a7c15ULL + b;
  return common::SplitMix64(state);
}

struct Digest {
  std::uint64_t value = 0xcbf29ce484222325ULL;  // FNV-1a
  void Add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      value ^= (x >> (8 * i)) & 0xffU;
      value *= 0x100000001b3ULL;
    }
  }
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Running tally of correctness checks; every failure counts.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Expect(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what);
    }
  }
};

// ---------------------------------------------------------------------------
// Setup: the fixed measurement world (catalog 42, corpus 99, 400/300
// split) and a predictor trained on it, as bench_fleet_scale does.

struct Service {
  std::unique_ptr<gamesim::GameCatalog> catalog;
  std::unique_ptr<gamesim::ServerSim> server;
  std::unique_ptr<core::ColocationLab> lab;
  std::unique_ptr<core::FeatureBuilder> features;
  std::unique_ptr<core::GAugurPredictor> predictor;
  std::vector<core::MeasuredColocation> test;
  double profile_s = 0.0;
  double corpus_s = 0.0;
  double train_rm_s = 0.0;
  double train_cm_s = 0.0;
  double total_s = 0.0;
};

Service SetUp(SpanLog* log, std::uint64_t repetition) {
  Service s;
  const double t0 = NowS();
  s.catalog = std::make_unique<gamesim::GameCatalog>(
      gamesim::GameCatalog::MakeDefault(42));
  s.server = std::make_unique<gamesim::ServerSim>();
  s.lab = std::make_unique<core::ColocationLab>(*s.catalog, *s.server);
  const profiling::Profiler profiler(*s.server);
  s.features = std::make_unique<core::FeatureBuilder>(
      profiler.ProfileCatalog(*s.catalog, &common::ThreadPool::Global()));
  const double t1 = NowS();

  core::CorpusOptions corpus_options;
  corpus_options.seed = 99;
  auto corpus = core::GenerateCorpus(*s.lab, corpus_options);
  common::Rng split(4242);
  split.Shuffle(corpus);
  const std::size_t train_count = corpus.size() * 4 / 7;
  const auto split_at =
      corpus.begin() + static_cast<std::ptrdiff_t>(train_count);
  const std::vector<core::MeasuredColocation> train(corpus.begin(), split_at);
  s.test.assign(split_at, corpus.end());
  const double t2 = NowS();

  core::PredictorConfig config;
  config.cm_decision_threshold = 0.8;
  s.predictor = std::make_unique<core::GAugurPredictor>(*s.features, config);
  const ml::Dataset rm_full = core::BuildRmDataset(*s.features, train);
  common::Rng pick(7);
  const auto rows = pick.SampleWithoutReplacement(
      rm_full.NumRows(), std::min<std::size_t>(1000, rm_full.NumRows()));
  s.predictor->TrainRmOnDataset(rm_full.Subset(rows));
  const double t3 = NowS();
  // The service answers at one QoS floor, so the CM trains on that one
  // grid point (bench_fleet_scale's three-point grid triples the cost).
  const std::array<double, 1> qos_grid{kQosFps};
  s.predictor->TrainCm(train, qos_grid);
  const double t4 = NowS();

  s.profile_s = t1 - t0;
  s.corpus_s = t2 - t1;
  s.train_rm_s = t3 - t2;
  s.train_cm_s = t4 - t3;
  s.total_s = t4 - t0;
  if (log != nullptr) {
    const std::uint64_t root = log->NewId();
    const std::uint64_t request = RequestId(RequestKind::kSetup, repetition);
    log->Add({.name = "setup", .id = root, .request = request,
              .start_s = t0, .end_s = t4});
    const char* names[] = {"setup.profile", "setup.corpus", "setup.train_rm",
                           "setup.train_cm"};
    const double edges[] = {t0, t1, t2, t3, t4};
    for (int i = 0; i < 4; ++i) {
      log->Add({.name = names[i], .parent = root, .request = request,
                .start_s = edges[i], .end_s = edges[i + 1]});
    }
  }
  return s;
}

struct ModelCheck {
  double false_feasible_pct = 0.0;
  std::size_t infeasible = 0;
  std::uint64_t digest = 0;
};

/// Judges the held-out test colocations: the CM's false-feasible rate
/// against ground truth, and a digest of CM verdicts plus RM outputs that
/// must not differ between setup repetitions (training is seeded).
ModelCheck CheckModel(const Service& s) {
  const obs::EnabledScope quiet(false);
  const core::GAugurPredictor checker = s.predictor->MakeReplica(false);
  ModelCheck out;
  Digest digest;
  std::size_t false_feasible = 0;
  for (const auto& measured : s.test) {
    const core::Colocation& c = measured.sessions;
    const bool predicted = checker.PredictFeasible(kQosFps, c);
    digest.Add(predicted ? 1 : 0);
    if (!s.lab->TrulyFeasible(c, kQosFps)) {
      ++out.infeasible;
      if (predicted) ++false_feasible;
    }
    const std::span<const core::SessionRequest> corunners(c.data() + 1,
                                                          c.size() - 1);
    const double fps = checker.PredictFps(c.front(), corunners);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &fps, sizeof bits);
    digest.Add(bits);
  }
  out.false_feasible_pct =
      out.infeasible > 0 ? 100.0 * static_cast<double>(false_feasible) /
                               static_cast<double>(out.infeasible)
                         : 0.0;
  out.digest = digest.value;
  return out;
}

// ---------------------------------------------------------------------------
// Measurements shared by the serve and plan workloads.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One replay of a trace, or one planning pass.
struct RoundStats {
  bool traced = false;
  double wall_s = 0.0;
  std::size_t decisions = 0;
  std::size_t candidates = 0;
  double policy_busy_s = 0.0;
  core::PredictionCache::Stats cache;
  std::size_t cache_size = 0;
  std::size_t ticks = 0;
  std::size_t peak_servers = 0;
  std::uint64_t events = 0;
  obs::LatencyProfileSummary profile;
  std::size_t colocations = 0;  // plan_offline only
};

/// Latency per decision (plan: per batch call), chunked for each metric.
struct LatencyChunks {
  perfbench::ChunkedQuantile p50{kP50Chunk, 5000};
  perfbench::ChunkedQuantile p99{kP99Chunk, 9900};
  void Add(double us) {
    p50.Add(us);
    p99.Add(us);
  }
};

struct RunResult {
  std::vector<RoundStats> rounds;
  LatencyChunks latency_us;
  double violated_pct = 0.0;
  double servers_per_session = 0.0;
  std::uint64_t placement_digest = 0;  // of input 0
  std::size_t input_size = 0;  // arrivals, or colocations per pass
  // Global-pool tasks run by plan_offline's untimed pool-path scoring.
  std::uint64_t pool_tasks = 0;
};

std::uint64_t PlacementDigest(const sched::DynamicResult& result) {
  Digest digest;
  for (const long long server : result.placements) {
    digest.Add(static_cast<std::uint64_t>(server));
  }
  return digest.value;
}

/// A workload's measurement, spread over several windows (one after each
/// set-up) so that a slow spell of the machine lands in part of a run
/// rather than all of it. A window runs steps until `seconds` are spent;
/// a step is one round on the next input of the seed's stream or, when
/// tracing, an untraced round and a traced round on the same input (in
/// alternating order), so the tracing overhead compares like with like.
/// Finish() runs the correctness checks and the quality replays, outside
/// every timed span.
class Workload {
 public:
  Workload(const WorkloadSpec& spec, std::uint64_t seed, bool tracing,
           SpanLog& log, Checks& checks)
      : spec_(spec), seed_(seed), tracing_(tracing), log_(log),
        checks_(checks) {}
  virtual ~Workload() = default;

  void Measure(const Service& service, double seconds) {
    StartWindow(service);
    const double start = NowS();
    double last_step_s = 0.0;
    // Every window runs at least one step, and a step starts only while
    // the elapsed time plus half the previous step fits, so a window ends
    // close to `seconds` instead of overshooting by a whole slow step.
    for (std::size_t n = 0;
         n == 0 || NowS() - start + 0.5 * last_step_s < seconds; ++n) {
      const double t0 = NowS();
      const std::uint64_t input = inputs_++;
      const bool traced_first = tracing_ && input % 2 == 1;
      Round(service, input, traced_first);
      if (tracing_) Round(service, input, !traced_first);
      last_step_s = NowS() - t0;
    }
  }

  virtual RunResult Finish(const Service& service) = 0;

 protected:
  virtual void StartWindow(const Service&) {}
  virtual void Round(const Service& service, std::uint64_t input,
                     bool traced) = 0;

  const WorkloadSpec& spec_;
  const std::uint64_t seed_;
  const bool tracing_;
  SpanLog& log_;
  Checks& checks_;
  RunResult run_;
  std::uint64_t inputs_ = 0;  // inputs measured so far
};

// ---------------------------------------------------------------------------
// serve_hot_armed: the trained service replays a seeded arrival trace
// through SimulateShardedFleet. The shard handles its next arrival only
// after its previous decision returns (closed loop).

struct Capture {
  std::vector<core::Colocation> open;
  core::SessionRequest arrival;
  int chosen = -1;
};

/// A replay round's view of its decisions, written only by the shard's
/// worker thread and read after the replay has joined it.
struct DecisionRecord {
  LatencyChunks* latency_us = nullptr;
  std::vector<Span> spans;
  std::vector<Capture> captures;
  std::size_t capture_budget = 0;
  std::size_t decisions = 0;
  std::size_t candidates = 0;
  double busy_s = 0.0;
};

sched::ShardPolicyFactory Instrument(sched::ShardPolicyFactory inner,
                                     DecisionRecord& rec,
                                     std::uint64_t capture_seed,
                                     std::uint64_t round, bool traced,
                                     std::uint64_t replay_span) {
  return [inner = std::move(inner), &rec, capture_seed, round, traced,
          replay_span](std::size_t shard) -> sched::PlacementPolicy {
    return [policy = inner(shard), &rec, capture_seed, round, traced,
            replay_span](std::span<const core::Colocation> open,
                         const core::SessionRequest& arrival) -> int {
      const double t0 = NowS();
      const int chosen = policy(open, arrival);
      const double t1 = NowS();
      const std::size_t index = rec.decisions++;
      rec.latency_us->Add((t1 - t0) * 1e6);
      rec.busy_s += t1 - t0;
      rec.candidates += open.size();
      if (traced) {
        rec.spans.push_back(
            {.name = "serve.decision", .parent = replay_span,
             .request = RequestId(RequestKind::kDecision,
                                  (round << 32) | index),
             .start_s = t0, .end_s = t1, .shard = 0,
             .candidates = static_cast<int>(open.size())});
      }
      if (rec.capture_budget > 0 &&
          Mix(capture_seed, index) % kCaptureOneIn == 0) {
        --rec.capture_budget;
        rec.captures.push_back(
            {std::vector<core::Colocation>(open.begin(), open.end()),
             arrival, chosen});
      }
      return chosen;
    };
  };
}

/// Input `input`'s arrival trace: Poisson arrivals over the workload's
/// fixed pool, each input drawn from its own stream of the run seed.
std::vector<sched::DynamicRequest> MakeTrace(const core::ColocationLab& lab,
                                             std::uint64_t seed,
                                             std::uint64_t input) {
  const auto study =
      sched::SelectStudyGames(lab, kServeGames, kQosFps, kPoolSeed);
  return sched::GenerateDynamicTrace(study.game_ids, kServeHorizonMin,
                                     kServeArrivalsPerMin, kMeanPlayMin,
                                     Mix(Mix(seed, input), 1));
}

class ServeRun final : public Workload {
 public:
  ServeRun(const WorkloadSpec& spec, std::uint64_t seed, bool tracing,
           SpanLog& log, Checks& checks)
      : Workload(spec, seed, tracing, log, checks) {
    options_.num_shards = kShards;
    options_.tick_window_min = kTickWindowMin;
    options_.seed = seed;
    options_.dynamic.qos_fps = kQosFps;
    options_.dynamic.max_policy_candidates = kCandidateCap;
  }

  RunResult Finish(const Service& service) override;

 private:
  void StartWindow(const Service&) override {
    window_captures_ = kCapturesPerWindow;
  }
  void Round(const Service& service, std::uint64_t input,
             bool traced) override;

  sched::ShardedFleetOptions options_;
  std::size_t window_captures_ = 0;
  std::vector<Capture> captures_;
  std::map<std::uint64_t, std::uint64_t> digests_;  // input -> placements
  std::size_t unplaced_ = 0;
};

void ServeRun::Round(const Service& service, std::uint64_t input,
                     bool traced) {
  const auto trace = MakeTrace(*service.lab, seed_, input);
  const std::uint64_t r = run_.rounds.size();
  RoundStats round;
  round.traced = traced;
  // A cold private cache per round: no round inherits another's hits.
  const core::GAugurPredictor group = service.predictor->MakeReplica(false);
  DecisionRecord rec;
  rec.latency_us = &run_.latency_us;
  rec.capture_budget = window_captures_;
  obs::EventLog::Global().Clear();
  obs::HealthEngine::Global().Reset();
  obs::HealthEngine::Global().InstallDefaultRules(kQosFps);
  obs::LatencyProfiler::Global().Reset();
  const std::uint64_t replay_span = log_.NewId();
  const auto factory = Instrument(
      sched::MakeReplicatedProvenanceFactory(group, kQosFps), rec,
      Mix(seed_, input), r, traced, replay_span);
  const double t0 = NowS();
  const sched::ShardedFleetResult fleet =
      sched::SimulateShardedFleet(*service.lab, trace, factory, options_);
  const double t1 = NowS();
  round.wall_s = t1 - t0;
  round.cache = group.PredictionCacheStats();
  round.cache_size = group.PredictionCacheSize();
  round.ticks = fleet.ticks;
  round.peak_servers = fleet.total.peak_servers;
  round.events = obs::EventLog::Global().TotalAppended();
  round.profile = obs::LatencyProfiler::Global().Summary();
  round.decisions = rec.decisions;
  round.candidates = rec.candidates;
  round.policy_busy_s = rec.busy_s;
  window_captures_ -= rec.captures.size();
  for (auto& capture : rec.captures) captures_.push_back(std::move(capture));
  if (traced) {
    log_.Add({.name = "serve.replay", .id = replay_span,
              .request = RequestId(RequestKind::kReplay, r), .start_s = t0,
              .end_s = t1});
    log_.Absorb(rec.spans);
  }

  for (const long long server : fleet.total.placements) {
    if (server < 0) ++unplaced_;
  }
  if (input == 0) run_.input_size = trace.size();
  checks_.Expect(fleet.total.sessions == trace.size(),
                 "every arrival became a session");
  const auto [it, first] =
      digests_.try_emplace(input, PlacementDigest(fleet.total));
  if (!first) {
    checks_.Expect(it->second == PlacementDigest(fleet.total),
                   "tracing changes no placement");
  }
  run_.rounds.push_back(std::move(round));
}

RunResult ServeRun::Finish(const Service& service) {
  const obs::EnabledScope quiet(false);
  std::size_t decisions = 0;
  for (const auto& round : run_.rounds) decisions += round.decisions;
  checks_.attempted += decisions;
  checks_.failed += unplaced_;
  if (unplaced_ > 0) {
    std::fprintf(stderr, "check failed: %zu arrivals unplaced\n", unplaced_);
  }

  // Quality over a fixed set of inputs, replayed with observability off.
  // An input the timed windows measured must replay to the same
  // placements; on serve_hot_armed that shows obs on and off place
  // identically.
  std::size_t sessions = 0;
  std::size_t violated = 0;
  double server_minutes = 0.0;
  double session_minutes = 0.0;
  for (std::uint64_t input = 0; input < kQualityInputs; ++input) {
    const auto trace = MakeTrace(*service.lab, seed_, input);
    const core::GAugurPredictor group = service.predictor->MakeReplica(false);
    const sched::ShardedFleetResult fleet = sched::SimulateShardedFleet(
        *service.lab, trace,
        sched::MakeReplicatedProvenanceFactory(group, kQosFps), options_);
    const std::uint64_t digest = PlacementDigest(fleet.total);
    if (input == 0) run_.placement_digest = digest;
    if (const auto it = digests_.find(input); it != digests_.end()) {
      checks_.Expect(it->second == digest,
                     "a quiet replay of a measured trace places identically");
    }
    for (const auto& request : trace) session_minutes += request.duration_min;
    sessions += fleet.total.sessions;
    violated += fleet.total.violated_sessions;
    server_minutes += fleet.total.server_minutes;
  }
  run_.violated_pct = 100.0 * static_cast<double>(violated) /
                      static_cast<double>(std::max<std::size_t>(1, sessions));
  run_.servers_per_session = server_minutes / session_minutes;

  const core::GAugurPredictor checker = service.predictor->MakeReplica(false);
  for (const Capture& capture : captures_) {
    int first_feasible = -1;
    for (std::size_t c = 0; c < capture.open.size(); ++c) {
      core::Colocation extended = capture.open[c];
      extended.push_back(capture.arrival);
      if (checker.PredictFeasible(kQosFps, extended)) {
        first_feasible = static_cast<int>(c);
        break;
      }
    }
    checks_.Expect(capture.chosen == first_feasible,
                   "decision picks the first candidate PredictFeasible "
                   "accepts");
  }
  // The inside view (profiler phases) against the outside view (this
  // benchmark's serve.decision spans).
  std::array<double, obs::kNumPhases> phase_us{};
  double spans_us = 0.0;
  for (const auto& round : run_.rounds) {
    for (std::size_t ph = 0; ph < obs::kNumPhases; ++ph) {
      phase_us[ph] += round.profile.fleet[ph].total_us;
    }
    spans_us += round.policy_busy_s * 1e6;
  }
  const auto us = [&](obs::Phase phase) {
    return phase_us[static_cast<std::size_t>(phase)];
  };
  const double inner = us(obs::Phase::kColocationHash) +
                       us(obs::Phase::kFeatureBuild) +
                       us(obs::Phase::kCacheLookup) +
                       us(obs::Phase::kKernelEval);
  const double in_decision = inner + us(obs::Phase::kPolicySelect);
  const double ratio = spans_us > 0.0 ? in_decision / spans_us : 0.0;
  std::printf("reconcile in-decision phases / serve.decision spans = "
              "%.4f (tolerance +-%.2f); inner phases %.4f of spans\n",
              ratio, kReconcileTolerance,
              spans_us > 0.0 ? inner / spans_us : 0.0);
  checks_.Expect(std::abs(ratio - 1.0) <= kReconcileTolerance,
                 "profiler phases reconcile with decision spans");
  // The inner phases are timed inside the policy call, so they must be
  // there and must fit inside the spans around it.
  checks_.Expect(us(obs::Phase::kColocationHash) > 0.0 &&
                     us(obs::Phase::kCacheLookup) > 0.0 && inner < spans_us,
                 "inner profiler phases lie inside the decision spans");
  return std::move(run_);
}

// ---------------------------------------------------------------------------
// plan_offline: paper §5.1 capacity planning from the main thread.

/// Every pass scores the same enumeration (so verdicts must repeat) and
/// packs the request mix of its input.
class PlanRun final : public Workload {
 public:
  using Workload::Workload;

  RunResult Finish(const Service& service) override;

 private:
  struct PackQuality {
    std::size_t violated = 0;
    std::size_t placed = 0;
    std::size_t servers = 0;
  };

  void StartWindow(const Service& service) override {
    if (study_.game_ids.empty()) {
      study_ = sched::SelectStudyGames(*service.lab, kPlanGames, kQosFps,
                                       kPoolSeed);
    }
  }
  void Round(const Service& service, std::uint64_t input,
             bool traced) override;
  std::vector<int> RequestCounts(const Service& service,
                                 std::uint64_t input) const {
    return sched::GenerateRequestCounts(service.catalog->size(),
                                        study_.game_ids, kPlanRequests,
                                        Mix(Mix(seed_, input), 3));
  }
  /// Checks a pack against its request counts and the first pass's
  /// feasible set, and scores it on the ground truth.
  PackQuality CheckPack(const Service& service,
                        const sched::PackingResult& pack,
                        const std::vector<int>& counts);

  sched::StudySetup study_;
  std::vector<core::Colocation> first_colocations_;
  std::vector<char> first_verdicts_;
  std::vector<core::Colocation> first_feasible_;
  std::set<std::string> feasible_keys_;
  std::map<std::string, std::size_t> below_qos_;  // per distinct colocation
  std::map<std::uint64_t, std::size_t> servers_;  // input -> servers used
};

void PlanRun::Round(const Service& service, std::uint64_t input,
                    bool traced) {
  const std::vector<int> counts = RequestCounts(service, input);
  const std::uint64_t p = run_.rounds.size();
  RoundStats round;
  round.traced = traced;
  // A cold private cache per pass: no pass inherits another's hits.
  const core::GAugurPredictor group = service.predictor->MakeReplica(false);
  const std::uint64_t pass_span = log_.NewId();
  const std::uint64_t request = RequestId(RequestKind::kPlan, p);

  const double t0 = NowS();
  std::vector<core::Colocation> colocations =
      sched::EnumerateColocations(study_.pool, kPlanMaxColocation);
  const double t1 = NowS();
  std::vector<char> verdicts;
  verdicts.reserve(colocations.size());
  std::vector<Span> score_spans;
  for (std::size_t b = 0; b < colocations.size(); b += kPlanBatch) {
    const std::size_t n = std::min(kPlanBatch, colocations.size() - b);
    const double tb0 = NowS();
    const std::vector<char> batch = group.ScoreCandidates(
        kQosFps, std::span<const core::Colocation>(&colocations[b], n));
    const double tb1 = NowS();
    run_.latency_us.Add((tb1 - tb0) * 1e6);
    round.decisions += 1;
    if (traced) {
      score_spans.push_back({.name = "plan.score", .parent = pass_span,
                             .request = request, .start_s = tb0,
                             .end_s = tb1});
    }
    verdicts.insert(verdicts.end(), batch.begin(), batch.end());
  }
  const double t2 = NowS();
  std::vector<core::Colocation> feasible;
  std::vector<bool> has_singleton(service.catalog->size(), false);
  for (std::size_t i = 0; i < colocations.size(); ++i) {
    if (!verdicts[i]) continue;
    if (colocations[i].size() == 1) {
      has_singleton[static_cast<std::size_t>(colocations[i][0].game_id)] =
          true;
    }
    feasible.push_back(colocations[i]);
  }
  // A game alone on a server is always placeable; keep its singleton
  // even where the CM doubts it, as PackRequests requires.
  for (const auto& session : study_.pool) {
    if (!has_singleton[static_cast<std::size_t>(session.game_id)]) {
      feasible.push_back({session});
    }
  }
  const sched::PackingResult pack = sched::PackRequests(feasible, counts);
  const double t3 = NowS();

  round.wall_s = t3 - t0;
  round.colocations = colocations.size();
  round.cache = group.PredictionCacheStats();
  round.cache_size = group.PredictionCacheSize();
  if (traced) {
    log_.Add({.name = "plan.pass", .id = pass_span, .request = request,
              .start_s = t0, .end_s = t3});
    log_.Add({.name = "plan.enumerate", .parent = pass_span,
              .request = request, .start_s = t0, .end_s = t1});
    log_.Absorb(score_spans);
    log_.Add({.name = "plan.pack", .parent = pass_span, .request = request,
              .start_s = t2, .end_s = t3});
  }
  if (first_verdicts_.empty()) {
    run_.input_size = colocations.size();
    first_colocations_ = std::move(colocations);
    for (const auto& c : feasible) {
      feasible_keys_.insert(core::ColocationKey(c));
    }
    first_feasible_ = std::move(feasible);
    first_verdicts_ = std::move(verdicts);
  } else {
    checks_.Expect(verdicts == first_verdicts_,
                   "every pass judges the enumeration identically");
  }
  run_.rounds.push_back(std::move(round));

  // Check the pack now, outside the timed spans, so nothing per pass is
  // kept but its server count.
  CheckPack(service, pack, counts);
  if (const auto it = servers_.find(input); it != servers_.end()) {
    checks_.Expect(it->second == pack.servers_used,
                   "a repeated pass packs identically");
  }
  servers_[input] = pack.servers_used;
}

PlanRun::PackQuality PlanRun::CheckPack(const Service& service,
                                        const sched::PackingResult& pack,
                                        const std::vector<int>& counts) {
  PackQuality quality;
  std::vector<int> placed(counts.size(), 0);
  bool all_feasible = true;
  for (const auto& assignment : pack.assignments) {
    const std::string key = core::ColocationKey(assignment);
    all_feasible = all_feasible && feasible_keys_.count(key) == 1;
    auto it = below_qos_.find(key);
    if (it == below_qos_.end()) {
      std::size_t below = 0;
      for (const double fps : service.lab->TrueFps(assignment)) {
        if (fps < kQosFps) ++below;
      }
      it = below_qos_.emplace(key, below).first;
    }
    quality.violated += it->second;
    for (const auto& session : assignment) {
      ++placed[static_cast<std::size_t>(session.game_id)];
      ++quality.placed;
    }
  }
  quality.servers = pack.servers_used;
  checks_.Expect(all_feasible, "every packed colocation was judged feasible");
  checks_.Expect(placed == counts, "every planned request is packed");
  checks_.Expect(pack.servers_used == pack.assignments.size(),
                 "one assignment per server");
  return quality;
}

RunResult PlanRun::Finish(const Service& service) {
  const obs::EnabledScope quiet(false);
  for (const auto& round : run_.rounds) checks_.attempted += round.colocations;
  const core::GAugurPredictor checker = service.predictor->MakeReplica(false);
  common::Rng pick(Mix(seed_, 4));
  for (std::size_t k = 0; k < kPlanVerdictChecks; ++k) {
    const std::size_t i = pick.UniformInt(first_colocations_.size());
    checks_.Expect(
        checker.PredictFeasible(kQosFps, first_colocations_[i]) ==
            static_cast<bool>(first_verdicts_[i]),
        "batched verdict matches PredictFeasible");
  }
  Digest digest;
  for (const char v : first_verdicts_) {
    digest.Add(static_cast<std::uint64_t>(v));
  }

  // The multi-core kernel path: judge the enumeration again in batches
  // large enough for FlatForest to fan out over the global pool. It must
  // agree verdict for verdict with the timed single-threaded passes.
  const core::GAugurPredictor pooled = service.predictor->MakeReplica(false);
  const std::uint64_t tasks0 = common::ThreadPool::Global().TasksExecuted();
  const double t0 = NowS();
  std::vector<char> pooled_verdicts;
  pooled_verdicts.reserve(first_colocations_.size());
  for (std::size_t b = 0; b < first_colocations_.size();
       b += kPlanPoolBatch) {
    const std::size_t n =
        std::min(kPlanPoolBatch, first_colocations_.size() - b);
    const std::vector<char> batch = pooled.ScoreCandidates(
        kQosFps, std::span<const core::Colocation>(&first_colocations_[b], n));
    pooled_verdicts.insert(pooled_verdicts.end(), batch.begin(), batch.end());
  }
  const double t1 = NowS();
  run_.pool_tasks = common::ThreadPool::Global().TasksExecuted() - tasks0;
  if (common::ThreadPool::Global().NumThreads() >= 2 &&
      ml::FlatForest::ParallelActive()) {
    checks_.Expect(run_.pool_tasks > 0,
                   "large batches fan out over the global thread pool");
  }
  checks_.Expect(pooled_verdicts == first_verdicts_,
                 "the multi-core kernel path judges identically");
  if (tracing_) {
    log_.Add({.name = "plan.pool_score",
              .request = RequestId(RequestKind::kPlan, run_.rounds.size()),
              .start_s = t0, .end_s = t1});
  }

  // Quality over a fixed set of request mixes, packed again untimed
  // against the enumeration's feasible set (every pass judged it alike).
  PackQuality total;
  for (std::uint64_t input = 0; input < kQualityInputs; ++input) {
    const std::vector<int> counts = RequestCounts(service, input);
    const sched::PackingResult pack =
        sched::PackRequests(first_feasible_, counts);
    const PackQuality q = CheckPack(service, pack, counts);
    if (const auto it = servers_.find(input); it != servers_.end()) {
      checks_.Expect(it->second == pack.servers_used,
                     "an untimed pack of a measured mix packs identically");
    }
    if (input == 0) digest.Add(pack.servers_used);
    total.violated += q.violated;
    total.placed += q.placed;
    total.servers += q.servers;
  }
  run_.placement_digest = digest.value;
  const double placed =
      static_cast<double>(std::max<std::size_t>(1, total.placed));
  run_.violated_pct = 100.0 * static_cast<double>(total.violated) / placed;
  run_.servers_per_session = static_cast<double>(total.servers) / placed;
  return std::move(run_);
}

// ---------------------------------------------------------------------------
// Reporting.

/// A non-finite value prints as null, which run.py rejects as malformed.
void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              checks.failed == 0 ? "true" : "false", checks.attempted,
              checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                metrics[i].name.c_str());
    PrintJsonNumber(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct SetupTimes {
  std::vector<double> total_s, profile_s, corpus_s, train_rm_s, train_cm_s;
};

struct Latency {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Prints the latency chunks and returns the lowest chunk p50 and the
/// median chunk p99.
Latency SummarizeLatency(RunResult& run) {
  perfbench::ChunkedQuantile& p50 = run.latency_us.p50;
  perfbench::ChunkedQuantile& p99 = run.latency_us.p99;
  p50.Close();
  const auto partial_tail = p99.Close();
  const auto p50_sorted = perfbench::Sorted(p50.Values());
  const auto p99_sorted = perfbench::Sorted(p99.Values());
  const Latency latency{p50_sorted.front(),
                        perfbench::SortedQuantile(p99_sorted, 0.5)};
  const auto p50s = perfbench::SortedQuartiles(p50_sorted);
  const auto p99s = perfbench::SortedQuartiles(p99_sorted);
  std::printf("latency %" PRIu64 " samples; p50 of %zu chunks of %zu: "
              "lowest %.2f, quartiles %.2f %.2f %.2f us; p99 of %zu chunks "
              "of %zu (%zu beyond each): median %.2f, quartiles %.2f %.2f "
              "%.2f us\n",
              p99.Seen(), p50.Chunks(), p50.ChunkSize(), latency.p50_us,
              p50s.q1, p50s.median, p50s.q3, p99.Chunks(), p99.ChunkSize(),
              perfbench::SamplesBeyond(p99.ChunkSize(), 9900),
              latency.p99_us, p99s.q1, p99s.median, p99s.q3);
  if (p99.Seen() < p99.ChunkSize()) {
    std::printf("[p99 unsupported: one partial chunk, < %zu beyond]",
                perfbench::kMinTailSamples);
    if (partial_tail.has_value()) {
      std::printf(" highest supported tail p%g %.2f us (%zu beyond)",
                  partial_tail->percentile, partial_tail->value,
                  partial_tail->beyond);
    }
    std::printf("\n");
  }
  return latency;
}

std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec,
                                    const RunResult& run,
                                    const SetupTimes& setups,
                                    const ModelCheck& model,
                                    const Latency& latency) {
  // Like decision_p50_us, the rate of the run's quietest stretch: the
  // fastest round (one replay, or one planning pass).
  std::vector<double> rates;
  for (const auto& round : run.rounds) {
    const double work =
        static_cast<double>(spec.plan ? round.colocations : round.decisions);
    rates.push_back(work / round.wall_s);
  }
  const auto sorted_rates = perfbench::Sorted(rates);
  const auto quartiles = perfbench::SortedQuartiles(sorted_rates);
  std::printf("rate of %zu rounds: highest %.1f, quartiles %.1f %.1f %.1f "
              "/s\n",
              rates.size(), sorted_rates.back(), quartiles.q1,
              quartiles.median, quartiles.q3);
  return {
      {"setup_s", perfbench::Median(setups.total_s), "s"},
      {"decisions_per_s", sorted_rates.back(), "1/s"},
      {"decision_p50_us", latency.p50_us, "us"},
      {"decision_p99_us", latency.p99_us, "us"},
      {"violated_sessions_pct", run.violated_pct, "%"},
      {"servers_per_session", run.servers_per_session, "ratio"},
      {"cm_false_feasible_pct", model.false_feasible_pct, "%"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-layer metrics from the traced rounds, per round (one replay of a
/// trace, or one planning pass) unless named per decision. Layer times
/// come from the span log; counts from the accessors read per round.
/// Tracing runs rounds in pairs, so there is at least one traced round
/// and one untraced round on the same input.
std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec,
                                    const RunResult& run,
                                    const SetupTimes& setups,
                                    const SpanLog& log) {
  RoundStats sum;
  double untraced_wall = 0.0;
  double traced = 0.0;
  std::array<double, obs::kNumPhases> phase_us{};
  for (const auto& round : run.rounds) {
    if (!round.traced) {
      untraced_wall += round.wall_s;
      continue;
    }
    traced += 1.0;
    sum.wall_s += round.wall_s;
    sum.decisions += round.decisions;
    sum.candidates += round.candidates;
    sum.cache.hits += round.cache.hits;
    sum.cache.misses += round.cache.misses;
    sum.cache.evictions += round.cache.evictions;
    sum.cache_size += round.cache_size;
    sum.ticks += round.ticks;
    sum.peak_servers += round.peak_servers;
    sum.events += round.events;
    for (std::size_t ph = 0; ph < obs::kNumPhases; ++ph) {
      phase_us[ph] += round.profile.fleet[ph].total_us;
    }
  }
  const auto totals = log.Totals();
  const auto span_total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanLog::NameTotals{} : it->second;
  };
  const auto span_s = [&](const char* name) {
    return span_total(name).total_s / traced;
  };
  const auto per_round = [&](double v) { return v / traced; };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double decisions = spec.plan ? 0.0 : static_cast<double>(sum.decisions);
  const double rows = static_cast<double>(sum.cache.misses);
  const double lookups = static_cast<double>(sum.cache.hits + sum.cache.misses);
  std::vector<Metric> metrics = {
      {"profiling.profile_s", perfbench::Median(setups.profile_s), "s"},
      {"corpus.generate_s", perfbench::Median(setups.corpus_s), "s"},
      {"ml.train_rm_s", perfbench::Median(setups.train_rm_s), "s"},
      {"ml.train_cm_s", perfbench::Median(setups.train_cm_s), "s"},
      {"sched.replay_s", span_s("serve.replay"), "s"},
      {"sched.self_us_per_decision",
       ratio(span_total("serve.replay").self_s * 1e6, decisions), "us"},
      {"sched.candidates_per_decision",
       ratio(static_cast<double>(sum.candidates), decisions), "count"},
      {"sched.peak_servers", per_round(static_cast<double>(sum.peak_servers)),
       "count"},
      {"sched.ticks", per_round(static_cast<double>(sum.ticks)), "count"},
      {"predictor.policy_busy_s", span_s("serve.decision"), "s"},
      {"predictor.queries_per_decision", ratio(lookups, decisions), "count"},
      {"cache.hit_rate", ratio(static_cast<double>(sum.cache.hits), lookups),
       "ratio"},
      {"cache.misses", per_round(rows), "count"},
      {"cache.evictions", per_round(static_cast<double>(sum.cache.evictions)),
       "count"},
      {"cache.size", per_round(static_cast<double>(sum.cache_size)), "count"},
      {"kernel.rows", per_round(rows), "count"},
      {"kernel.rows_per_decision", ratio(rows, decisions), "count"},
      {"plan.enumerate_s", span_s("plan.enumerate"), "s"},
      {"plan.score_s", span_s("plan.score"), "s"},
      {"plan.pack_s", span_s("plan.pack"), "s"},
      {"plan.rows_per_s", ratio(per_round(rows), span_s("plan.score")),
       "1/s"},
      {"plan.pool_score_s", span_total("plan.pool_score").total_s, "s"},
      {"pool.tasks_executed", static_cast<double>(run.pool_tasks), "count"},
      {"obs.events", per_round(static_cast<double>(sum.events)), "count"},
  };
  for (std::size_t ph = 0; ph < obs::kNumPhases; ++ph) {
    metrics.push_back(
        {"obs.phase." +
             std::string(obs::PhaseName(static_cast<obs::Phase>(ph))) + "_us",
         ratio(phase_us[ph], decisions), "us"});
  }
  metrics.push_back({"trace.overhead_pct",
                     100.0 * (sum.wall_s / untraced_wall - 1.0), "%"});
  metrics.push_back(
      {"trace.spans", static_cast<double>(log.spans().size()), "count"});
  return metrics;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<serve_hot_armed|plan_offline> "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool tracing = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      tracing = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (workload_name == candidate.name) spec = &candidate;
  }
  if (spec == nullptr || !(seconds > 0.0)) return Usage();

  obs::SetEnabled(!spec->plan);
  const ml::SimdTier tier = ml::FlatForest::ActiveTier();
  std::printf(
      "fingerprint {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"default_seed\": %" PRIu64 ", \"held_out_seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"nproc\": %u, \"simd_tier\": "
      "\"%s\", \"quant_active\": %s, \"build_type\": \"%s\", \"shards\": %zu, "
      "\"obs\": %s, \"pool_threads\": %zu}\n",
      spec->name, seed, kDefaultSeed, kHeldOutSeed, seconds, tracing ? 1 : 0,
      std::thread::hardware_concurrency(), ml::SimdTierName(tier),
      ml::FlatForest::QuantizedActive() ? "true" : "false",
      PERFBENCH_BUILD_TYPE, spec->plan ? std::size_t{0} : kShards,
      spec->plan ? "off" : "on", common::ThreadPool::Global().NumThreads());

  SpanLog log;
  Checks checks;
  SetupTimes setups;
  const std::unique_ptr<Workload> workload =
      spec->plan
          ? std::unique_ptr<Workload>(
                std::make_unique<PlanRun>(*spec, seed, tracing, log, checks))
          : std::make_unique<ServeRun>(*spec, seed, tracing, log, checks);
  std::optional<Service> service;
  std::optional<ModelCheck> model;
  for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();  // free the previous setup before timing the next
    service.emplace(SetUp(tracing ? &log : nullptr, rep));
    setups.total_s.push_back(service->total_s);
    setups.profile_s.push_back(service->profile_s);
    setups.corpus_s.push_back(service->corpus_s);
    setups.train_rm_s.push_back(service->train_rm_s);
    setups.train_cm_s.push_back(service->train_cm_s);
    const ModelCheck check = CheckModel(*service);
    if (model.has_value()) {
      checks.Expect(check.digest == model->digest,
                    "setup repetitions train identical models");
    }
    model = check;
    workload->Measure(*service, seconds / kSetupRepeats);
  }
  std::printf("setup_s per repetition:");
  for (const double s : setups.total_s) std::printf(" %.3f", s);
  std::printf("\ncm_false_feasible_pct %.4f (%zu truly infeasible test "
              "colocations)\n",
              model->false_feasible_pct, model->infeasible);

  RunResult run = workload->Finish(*service);

  std::printf("input %zu %s, %zu rounds, placement_digest %016" PRIx64 "\n",
              run.input_size, spec->plan ? "colocations" : "arrivals",
              run.rounds.size(), run.placement_digest);
  const Latency latency = SummarizeLatency(run);

  std::vector<Metric> metrics;
  if (tracing) {
    metrics = PerLayerMetrics(*spec, run, setups, log);
    std::printf("span totals (name: count, total ms, self ms):\n");
    for (const auto& [name, t] : log.Totals()) {
      std::printf("  %-16s %8zu %12.3f %12.3f\n", name.c_str(), t.count,
                  t.total_s * 1e3, t.self_s * 1e3);
    }
    if (!trace_out.empty()) {
      if (log.WriteJsonl(trace_out)) {
        std::printf("spans written to %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "could not write spans to %s\n",
                     trace_out.c_str());
      }
    }
  } else {
    metrics = EndToEndMetrics(*spec, run, setups, *model, latency);
  }
  for (const auto& m : metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_pct %.4f (%" PRIu64 " of %" PRIu64 ")\n",
              checks.attempted > 0
                  ? 100.0 * static_cast<double>(checks.failed) /
                        static_cast<double>(checks.attempted)
                  : 0.0,
              checks.failed, checks.attempted);
  std::fflush(stdout);
  PrintResult(checks, metrics);
  return 0;
}
