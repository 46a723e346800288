// Sharded fleet service tests on a cheap world (default catalog + server
// sim, no profiling pass): single-shard runs must reproduce golden
// placements exactly and tick health once per window, multi-shard runs
// must reconcile event counts / monitor totals / sched.* metrics across
// shards, per-shard event streams must stay tick-monotonic, and the
// candidate cap must bound what policies see without breaking admission.
//
// This suite is its own binary (tests_sched) so the TSan CI job can build
// and run just it: the multi-shard tests genuinely race shard workers
// against the shared registry, event log, and fleet time series.

#include "sched/dynamic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <map>
#include <vector>

#include "gamesim/catalog.h"
#include "gamesim/server_sim.h"
#include "gaugur/lab.h"
#include "obs/event_log.h"
#include "obs/health.h"
#include "obs/latency_profiler.h"
#include "obs/metrics.h"
#include "obs/switch.h"

namespace gaugur::sched {
namespace {

using core::Colocation;

/// Shared cheap world: catalog + server sim + lab, no profiling.
const core::ColocationLab& Lab() {
  static const gamesim::GameCatalog catalog =
      gamesim::GameCatalog::MakeDefault(42);
  static const gamesim::ServerSim server;
  static const core::ColocationLab lab(catalog, server);
  return lab;
}

std::vector<DynamicRequest> Trace(std::size_t n, std::uint64_t seed,
                                  double horizon_min = 300.0) {
  const std::vector<int> ids{0, 1, 2, 3};
  auto trace = GenerateDynamicTrace(
      ids, horizon_min, static_cast<double>(n) / horizon_min, 25.0, seed);
  if (trace.size() > n) trace.resize(n);
  return trace;
}

PlacementPolicy AlwaysColocate() {
  return MakeFirstFeasiblePolicy([](const Colocation&) { return true; });
}

/// FNV-1a over the placement vector: a compact fingerprint for a golden
/// pin.
std::uint64_t PlacementHash(const std::vector<long long>& placements) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (long long p : placements) {
    h ^= static_cast<std::uint64_t>(p);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ShardedFleet, SingleShardReproducesGoldenPlacements) {
  // Golden values recorded from the single-threaded simulator that the
  // one-shard engine replaced: retiring it must not move one placement,
  // violation, power-on, or billed server-minute.
  const auto trace = Trace(250, 21);
  const DynamicResult result =
      SimulateDynamicFleet(Lab(), trace, AlwaysColocate());
  ASSERT_EQ(result.placements.size(), 250u);
  EXPECT_EQ(PlacementHash(result.placements), 0x2e3284a947053d16ULL);
  EXPECT_EQ(result.sessions, 250u);
  EXPECT_EQ(result.peak_servers, 8u);
  EXPECT_EQ(result.powerons, 17u);
  EXPECT_EQ(result.violated_sessions, 72u);
  EXPECT_EQ(result.server_minutes, 2006.3657732525287);
}

TEST(ShardedFleet, DynamicFleetTicksPerWindowAndTagsShardZero) {
  // SimulateDynamicFleet is the one-shard engine: health and the sink
  // tick once per 5-minute window plus one final pass, every event is
  // tagged shard 0, and the per-shard metrics move.
  obs::EnabledScope on(true);
  obs::EventLog::Global().Clear();
  obs::HealthEngine& engine = obs::HealthEngine::Global();
  engine.Reset();
  struct EngineGuard {
    ~EngineGuard() { obs::HealthEngine::Global().Reset(); }
  } guard;
  obs::AlertRule rule;  // never true: counts passes, emits nothing
  rule.name = "never";
  rule.signal.kind = obs::SignalKind::kGauge;
  rule.signal.name = "sched.shards";
  rule.threshold = 1e9;
  engine.AddRule(rule);
  obs::Counter& shard0 =
      obs::Registry::Global().GetCounter("sched.shard.0.placements");
  const std::uint64_t shard0_before = shard0.Value();

  const auto trace = Trace(120, 47);
  const DynamicResult result =
      SimulateDynamicFleet(Lab(), trace, AlwaysColocate());

  double last_arrival = 0.0;
  for (const DynamicRequest& r : trace) {
    last_arrival = std::max(last_arrival, r.arrival_min);
  }
  const double window_min = ShardedFleetOptions{}.tick_window_min;
  const auto windows =
      static_cast<std::uint64_t>(std::floor(last_arrival / window_min)) + 1;
  EXPECT_EQ(engine.Summary().evaluations, windows + 1);
  EXPECT_EQ(shard0.Value() - shard0_before, result.sessions);

  std::map<obs::EventKind, std::size_t> tagged;
  for (const obs::Event& event : obs::EventLog::Global().Snapshot()) {
    const auto shard_field = event.fields.find("shard");
    ASSERT_NE(shard_field, event.fields.end())
        << obs::EventKindName(event.kind) << " event has no shard tag";
    EXPECT_EQ(shard_field->second.AsNumber(), 0.0);
    ++tagged[event.kind];
  }
  EXPECT_EQ(tagged[obs::EventKind::kArrival], trace.size());
  EXPECT_EQ(tagged[obs::EventKind::kDecision], trace.size());
  EXPECT_EQ(tagged[obs::EventKind::kDeparture], trace.size());
  EXPECT_EQ(tagged[obs::EventKind::kPowerOn], result.powerons);
  EXPECT_EQ(tagged[obs::EventKind::kPowerOff], result.powerons);
  obs::EventLog::Global().Clear();
}

TEST(ShardedFleet, DynamicFleetRethrowsPolicyExceptions) {
  // The policy runs on the shard worker; its exception must still reach
  // the caller, and the backlog gauge must not keep the unadmitted rest.
  obs::EnabledScope on(true);
  obs::Gauge& backlog = obs::Registry::Global().GetGauge("sched.shard_backlog");
  const std::int64_t backlog_before = backlog.Value();
  int calls = 0;
  const PlacementPolicy throws_on_tenth =
      [&calls](std::span<const Colocation>, const core::SessionRequest&) {
        if (++calls == 10) throw std::runtime_error("policy failed");
        return -1;
      };
  EXPECT_THROW(
      (void)SimulateDynamicFleet(Lab(), Trace(40, 5), throws_on_tenth),
      std::runtime_error);
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(backlog.Value(), backlog_before);
  obs::EventLog::Global().Clear();
}

TEST(ShardedFleet, EveryRequestIsPlacedOnItsOwnShard) {
  const std::size_t shards = 3;
  const auto trace = Trace(200, 33);
  ShardedFleetOptions options;
  options.num_shards = shards;
  const auto result = SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);

  // Arrivals route round-robin over the time-sorted order; recompute that
  // routing and check each placement's server id decodes to the routed
  // shard (the id scheme interleaves: local * num_shards + shard).
  std::vector<std::size_t> order(trace.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return trace[a].arrival_min < trace[b].arrival_min;
                   });
  ASSERT_EQ(result.total.placements.size(), trace.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const long long placed = result.total.placements[order[i]];
    ASSERT_GE(placed, 0) << "request " << order[i] << " never placed";
    EXPECT_EQ(ShardOfServer(static_cast<std::uint64_t>(placed), shards),
              i % shards);
  }
  // Per-shard results partition the workload exactly.
  std::size_t sessions = 0;
  for (const auto& shard : result.per_shard) sessions += shard.sessions;
  EXPECT_EQ(sessions, trace.size());
  EXPECT_EQ(result.total.sessions, trace.size());
}

TEST(ShardedFleet, MultiShardRunsReconcileEventsAndMetrics) {
  obs::EnabledScope on(true);
  obs::EventLog::Global().Clear();
  auto& registry = obs::Registry::Global();
  const obs::Snapshot before = registry.Snap();

  const std::size_t shards = 4;
  const auto trace = Trace(300, 55);
  ShardedFleetOptions options;
  options.num_shards = shards;
  const auto result = SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);

  const obs::Snapshot after = registry.Snap();
  const auto counter_delta = [&](const std::string& name) -> std::uint64_t {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    return after.counters.at(name) - base;
  };

  // sched.placements sums exactly across shards...
  EXPECT_EQ(counter_delta("sched.placements"), trace.size());
  // ...and the per-shard counters partition it.
  std::uint64_t per_shard_total = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    const std::uint64_t shard_count = counter_delta(
        "sched.shard." + std::to_string(k) + ".placements");
    EXPECT_GT(shard_count, 0u);
    per_shard_total += shard_count;
  }
  EXPECT_EQ(per_shard_total, trace.size());
  EXPECT_EQ(counter_delta("sched.powerons"), result.total.powerons);

  // The run's gauges returned to rest: no shards in flight, no backlog.
  EXPECT_EQ(after.gauges.at("sched.shards"),
            before.gauges.count("sched.shards")
                ? before.gauges.at("sched.shards")
                : 0);
  EXPECT_EQ(after.gauges.at("sched.shard_backlog"),
            before.gauges.count("sched.shard_backlog")
                ? before.gauges.at("sched.shard_backlog")
                : 0);

  // Event-log decision count reconciles with admissions, and every
  // sharded event carries its shard tag.
  std::size_t decisions = 0;
  for (const obs::Event& event : obs::EventLog::Global().Snapshot()) {
    if (event.kind == obs::EventKind::kDecision) {
      ++decisions;
      const auto shard_field = event.fields.find("shard");
      ASSERT_NE(shard_field, event.fields.end());
      const auto shard = static_cast<std::size_t>(
          shard_field->second.AsNumber());
      EXPECT_LT(shard, shards);
    }
  }
  EXPECT_EQ(decisions, trace.size());
  obs::EventLog::Global().Clear();
}

TEST(ShardedFleet, PerShardEventStreamsAreTickMonotonic) {
  obs::EnabledScope on(true);
  obs::EventLog::Global().Clear();

  ShardedFleetOptions options;
  options.num_shards = 3;
  const auto trace = Trace(200, 77);
  (void)SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);

  // Within one shard, events ordered by seq must have non-decreasing
  // ticks — the invariant that makes per-shard segments globally
  // mergeable by sorted merge (trace_explorer enforces the same check on
  // manifest reads).
  std::vector<obs::Event> events = obs::EventLog::Global().Snapshot();
  std::sort(events.begin(), events.end(),
            [](const obs::Event& a, const obs::Event& b) {
              return a.seq < b.seq;
            });
  std::map<std::size_t, double> last_tick;
  std::map<std::size_t, std::uint64_t> last_seq;
  for (const obs::Event& event : events) {
    const auto shard_field = event.fields.find("shard");
    if (shard_field == event.fields.end()) continue;
    const auto shard =
        static_cast<std::size_t>(shard_field->second.AsNumber());
    if (last_tick.count(shard)) {
      EXPECT_GE(event.tick, last_tick[shard])
          << "shard " << shard << " ticks regressed at seq " << event.seq;
      EXPECT_GT(event.seq, last_seq[shard]);
    }
    last_tick[shard] = event.tick;
    last_seq[shard] = event.seq;
  }
  EXPECT_GE(last_tick.size(), 2u) << "expected events from several shards";
  obs::EventLog::Global().Clear();
}

TEST(ShardedFleet, ArmedProfilerAttributesEveryShardAndWindow) {
  // Races the decision flight recorder's shared slabs, exemplar ring, and
  // window-imbalance accounting across four genuinely concurrent shard
  // workers — the TSan target for obs/latency_profiler.h.
  obs::EnabledScope on(true);
  obs::LatencyProfiler& profiler = obs::LatencyProfiler::Global();
  profiler.Reset();

  const std::size_t shards = 4;
  const auto trace = Trace(300, 63);
  ShardedFleetOptions options;
  options.num_shards = shards;
  const auto result = SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);

  const obs::LatencyProfileSummary summary = profiler.Summary();
  // Every arrival was attributed exactly once, spread over all shards.
  EXPECT_EQ(summary.decisions, trace.size());
  ASSERT_EQ(summary.shards.size(), shards);
  for (const obs::ShardProfile& shard : summary.shards) {
    EXPECT_LT(shard.shard, shards);
    EXPECT_GT(shard.decisions, 0u);
    // One barrier wait per tick window per shard.
    EXPECT_EQ(shard.barrier_waits, result.ticks);
    EXPECT_GE(shard.barrier_wait_us, 0.0);
  }
  // The policy invocation is timed once per decision; candidate
  // enumeration and event emission bracket it outside the policy span.
  EXPECT_EQ(
      summary.fleet[static_cast<std::size_t>(obs::Phase::kPolicySelect)]
          .count,
      trace.size());
  EXPECT_EQ(
      summary.fleet[static_cast<std::size_t>(obs::Phase::kCandidateEnum)]
          .count,
      trace.size());
  // One imbalance sample per tick window.
  EXPECT_EQ(summary.imbalance.windows, result.ticks);
  EXPECT_GE(summary.imbalance.spread_max_us,
            summary.imbalance.windows > 0
                ? summary.imbalance.spread_total_us /
                      static_cast<double>(summary.imbalance.windows)
                : 0.0);
  // The tail ring filled and sorted slowest-first.
  EXPECT_EQ(summary.exemplars.size(),
            obs::LatencyProfiler::kTailExemplars);
  profiler.Reset();
}

TEST(ShardedFleet, DeterministicAcrossRunsForFixedSeed) {
  const auto trace = Trace(150, 91);
  ShardedFleetOptions options;
  options.num_shards = 2;
  options.seed = 1234;
  options.dynamic.max_policy_candidates = 4;  // exercises the seeded sampler
  const auto factory = [](std::size_t) { return AlwaysColocate(); };
  const auto a = SimulateShardedFleet(Lab(), trace, factory, options);
  const auto b = SimulateShardedFleet(Lab(), trace, factory, options);
  EXPECT_EQ(a.total.placements, b.total.placements);
  EXPECT_EQ(a.total.powerons, b.total.powerons);
  EXPECT_DOUBLE_EQ(a.total.server_minutes, b.total.server_minutes);
}

TEST(ShardedFleet, CandidateCapBoundsWhatPoliciesSee) {
  // A policy that always declines makes every server a 1-session open
  // server, so the open set grows far past the cap — the simulator must
  // still never offer more than the cap.
  std::atomic<std::size_t> max_seen{0};
  std::atomic<std::size_t> calls{0};
  const auto counting = [&max_seen, &calls]() -> PlacementPolicy {
    return [&max_seen, &calls](std::span<const Colocation> open_servers,
                               const core::SessionRequest&) -> int {
      std::size_t prev = max_seen.load();
      while (open_servers.size() > prev &&
             !max_seen.compare_exchange_weak(prev, open_servers.size())) {
      }
      calls.fetch_add(1);
      return -1;
    };
  };

  std::vector<DynamicRequest> burst;
  for (int i = 0; i < 120; ++i) {
    burst.push_back({0.1 * i, 500.0, {0, resources::k1080p}});
  }
  ShardedFleetOptions options;
  options.num_shards = 1;
  options.dynamic.max_policy_candidates = 8;
  const auto result = SimulateShardedFleet(
      Lab(), burst, [&](std::size_t) { return counting(); }, options);
  EXPECT_EQ(calls.load(), burst.size());
  EXPECT_LE(max_seen.load(), 8u);
  EXPECT_EQ(result.total.sessions, burst.size());
  // Everyone declined, so the fleet is one server per session.
  EXPECT_EQ(result.total.peak_servers, burst.size());
}

TEST(ShardedFleet, UncappedSingleShardOffersEveryOpenServer) {
  std::atomic<std::size_t> max_seen{0};
  std::vector<DynamicRequest> burst;
  for (int i = 0; i < 40; ++i) {
    burst.push_back({0.1 * i, 500.0, {0, resources::k1080p}});
  }
  ShardedFleetOptions options;
  options.num_shards = 1;
  const auto result = SimulateShardedFleet(
      Lab(), burst,
      [&](std::size_t) -> PlacementPolicy {
        return [&max_seen](std::span<const Colocation> open_servers,
                           const core::SessionRequest&) -> int {
          std::size_t prev = max_seen.load();
          while (open_servers.size() > prev &&
                 !max_seen.compare_exchange_weak(prev,
                                                 open_servers.size())) {
          }
          return -1;
        };
      },
      options);
  EXPECT_EQ(result.total.sessions, burst.size());
  EXPECT_EQ(max_seen.load(), burst.size() - 1);  // all prior servers open
}

TEST(ShardedFleet, ShardOfServerInvertsTheIdScheme) {
  for (const std::size_t shards : {1u, 2u, 5u, 8u}) {
    for (std::uint64_t local = 0; local < 20; ++local) {
      for (std::size_t shard = 0; shard < shards; ++shard) {
        const std::uint64_t global = local * shards + shard;
        EXPECT_EQ(ShardOfServer(global, shards), shard);
      }
    }
  }
}

TEST(ShardedFleet, ZeroShardOptionClampsToOne) {
  const auto trace = Trace(40, 5);
  ShardedFleetOptions options;
  options.num_shards = 0;
  const auto result = SimulateShardedFleet(
      Lab(), trace, [](std::size_t) { return AlwaysColocate(); }, options);
  EXPECT_EQ(result.num_shards, 1u);
  EXPECT_EQ(result.total.sessions, trace.size());
}

TEST(ShardedFleet, PeakConcurrentSessionsSampledAtBarriers) {
  // A block of long overlapping sessions: at some barrier all of them are
  // live, so the sampled peak must reach the full count.
  std::vector<DynamicRequest> burst;
  for (int i = 0; i < 60; ++i) {
    burst.push_back({0.05 * i, 400.0, {0, resources::k1080p}});
  }
  ShardedFleetOptions options;
  options.num_shards = 2;
  options.tick_window_min = 10.0;
  const auto result = SimulateShardedFleet(
      Lab(), burst, [](std::size_t) { return AlwaysColocate(); }, options);
  EXPECT_EQ(result.peak_concurrent_sessions, burst.size());
  EXPECT_GT(result.ticks, 0u);
}

}  // namespace
}  // namespace gaugur::sched
