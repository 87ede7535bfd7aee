// Schedule-equivalence harness for the parallel execution layer.
//
// The sharded sync_round promises bit-identical registers and identical
// SimulationStats to the serial sweep at every thread count, for both the
// seeded `step` path and the zero-copy `step_into` path; BatchRunner
// promises per-job results independent of thread count and execution
// order. These tests are what makes the threaded simulator trustworthy —
// they are the ones CI also runs under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "graph/generators.hpp"
#include "labels/marker.hpp"
#include "mstalgo/sync_mst.hpp"
#include "sim/batch.hpp"
#include "sim/simulation.hpp"
#include "util/thread_pool.hpp"
#include "verify/verifier.hpp"

namespace ssmst {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 4, 7};

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(97);
  pool.run(97, [&](std::uint32_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, IsReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.run(10, [&](std::uint32_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(ThreadPool, TaskExceptionsPropagateAndPoolSurvives) {
  for (unsigned threads : {1u, 4u}) {  // serial and parallel paths agree
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run(20,
                          [&](std::uint32_t i) {
                            ran.fetch_add(1);
                            if (i == 7) throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 20);  // the barrier still completed every task
    std::atomic<int> after{0};
    pool.run(10, [&](std::uint32_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 10);  // and the pool is reusable afterwards
  }
}

TEST(ThreadPool, SingleLaneAndEmptyJobsWork) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  int calls = 0;
  pool.run(0, [&](std::uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.run(5, [&](std::uint32_t) { ++calls; });  // serial: no races possible
  EXPECT_EQ(calls, 5);
}

// ------------------------------------------------- generic equivalence rig

/// Runs a serial and a pool-sharded simulation from the same initial
/// configuration in lock-step for `rounds` rounds and asserts bit-equal
/// registers plus identical SimulationStats after every round, for every
/// tested thread count. The factory returns a fresh protocol per sim so
/// any protocol-internal bookkeeping cannot couple the twins.
template <typename State, typename MakeProto>
void ExpectScheduleEquivalence(const WeightedGraph& g,
                               const std::vector<State>& init,
                               MakeProto make_proto, int rounds) {
  for (unsigned t : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << t);
    auto serial_proto = make_proto();
    auto sharded_proto = make_proto();
    Simulation<State> serial(g, *serial_proto, init);
    Simulation<State> sharded(g, *sharded_proto, init);
    ThreadPool pool(t);
    sharded.set_thread_pool(&pool);
    for (int r = 0; r < rounds; ++r) {
      serial.sync_round();
      sharded.sync_round();
      ASSERT_TRUE(serial.states() == sharded.states())
          << "registers diverged at round " << r;
      ASSERT_TRUE(serial.stats() == sharded.stats())
          << "stats diverged at round " << r;
    }
    ASSERT_EQ(serial.stats().first_alarm, sharded.stats().first_alarm);
    ASSERT_EQ(serial.stats().peak_bits, sharded.stats().peak_bits);
    ASSERT_EQ(serial.alarm_times(), sharded.alarm_times());
  }
}

// ----------------------------------------------- toy protocols, both paths

/// Seeded-path protocol with data-dependent state_bits and a late alarm,
/// so the peak-bits and alarm reductions are genuinely exercised.
struct ToyState {
  std::uint64_t value = 0;
  bool alarm = false;

  friend bool operator==(const ToyState&, const ToyState&) = default;
};

class SeededToy final : public Protocol<ToyState> {
 public:
  void step(NodeId v, ToyState& self, const NeighborReader<ToyState>& nbr,
            std::uint64_t) override {
    std::uint64_t m = self.value;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      m = std::max(m, nbr.at_port(p).value);
    }
    self.value = m + 1;
    if (self.value > 40 && v % 5 == 0) self.alarm = true;
  }
  std::size_t state_bits(const ToyState& s, NodeId) const override {
    return 8 + static_cast<std::size_t>(s.value % 57);
  }
  bool alarmed(const ToyState& s) const override { return s.alarm; }
  void corrupt(ToyState& s, NodeId, Rng& rng) const override {
    s.value = rng.next() % 97;
    s.alarm = rng.chance(0.5);
  }
};

class ZeroCopyToy final : public Protocol<ToyState> {
 public:
  void step(NodeId v, ToyState& self, const NeighborReader<ToyState>& nbr,
            std::uint64_t time) override {
    step_into(v, self, self, nbr, time);
  }
  void step_into(NodeId v, const ToyState& prev, ToyState& next,
                 const NeighborReader<ToyState>& nbr,
                 std::uint64_t) override {
    std::uint64_t m = prev.value;
    for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
      m = std::max(m, nbr.at_port(p).value);
    }
    next.value = m + 1;
    next.alarm = prev.alarm || (next.value > 40 && v % 5 == 0);
  }
  bool rewrites_register() const override { return true; }
  std::size_t state_bits(const ToyState& s, NodeId) const override {
    return 8 + static_cast<std::size_t>(s.value % 57);
  }
  bool alarmed(const ToyState& s) const override { return s.alarm; }
  void corrupt(ToyState& s, NodeId, Rng& rng) const override {
    s.value = rng.next() % 97;
    s.alarm = rng.chance(0.5);
  }
};

std::vector<WeightedGraph> equivalence_graphs() {
  Rng rng(17);
  std::vector<WeightedGraph> gs;
  gs.push_back(gen::random_connected(48, 40, rng));
  gs.push_back(gen::star(33, rng));
  gs.push_back(gen::path(40, rng));
  return gs;
}

TEST(ParallelSim, SeededPathMatchesSerial) {
  for (const auto& g : equivalence_graphs()) {
    SCOPED_TRACE(g.summary());
    std::vector<ToyState> init(g.n());
    init[0].value = 3;
    ExpectScheduleEquivalence<ToyState>(
        g, init, [] { return std::make_unique<SeededToy>(); }, 100);
  }
}

TEST(ParallelSim, ZeroCopyPathMatchesSerial) {
  for (const auto& g : equivalence_graphs()) {
    SCOPED_TRACE(g.summary());
    std::vector<ToyState> init(g.n());
    init[g.n() - 1].value = 9;
    ExpectScheduleEquivalence<ToyState>(
        g, init, [] { return std::make_unique<ZeroCopyToy>(); }, 100);
  }
}

// ------------------------------------------------------- VerifierProtocol

void ExpectVerifierEquivalence(const WeightedGraph& g, bool corrupted) {
  VerifierConfig cfg;
  const MarkerOutput marker = make_labels(g, cfg.pack);
  VerifierProtocol ref(g, cfg);
  std::vector<VerifierState> init = ref.initial_states(marker);
  if (corrupted) {
    // Deterministic adversarial start so alarms (first_alarm, alarmed
    // node sets, trace-triggering paths) are exercised under sharding.
    Rng crng(99);
    ref.corrupt(init[0], 0, crng);
    ref.corrupt(init[g.n() / 2], g.n() / 2, crng);
  }
  ExpectScheduleEquivalence<VerifierState>(
      g, init,
      [&] { return std::make_unique<VerifierProtocol>(g, cfg); }, 110);
}

TEST(ParallelSim, VerifierMatchesSerialOnRandomGraph) {
  Rng rng(21);
  auto g = gen::random_connected(40, 30, rng);
  ExpectVerifierEquivalence(g, false);
  ExpectVerifierEquivalence(g, true);
}

TEST(ParallelSim, VerifierMatchesSerialOnStar) {
  Rng rng(22);
  auto g = gen::star(25, rng);
  ExpectVerifierEquivalence(g, false);
  ExpectVerifierEquivalence(g, true);
}

TEST(ParallelSim, VerifierMatchesSerialOnPath) {
  Rng rng(23);
  auto g = gen::path(32, rng);
  ExpectVerifierEquivalence(g, false);
  ExpectVerifierEquivalence(g, true);
}

// ------------------------------------------------------------- SyncMst

void ExpectSyncMstEquivalence(const WeightedGraph& g) {
  SyncMstProtocol ref(g);
  ExpectScheduleEquivalence<SyncMstState>(
      g, ref.initial_states(),
      [&] { return std::make_unique<SyncMstProtocol>(g); }, 120);
}

TEST(ParallelSim, SyncMstMatchesSerial) {
  Rng rng(31);
  ExpectSyncMstEquivalence(gen::random_connected(36, 24, rng));
  ExpectSyncMstEquivalence(gen::star(20, rng));
  ExpectSyncMstEquivalence(gen::path(28, rng));
}

// ------------------------------------ sparse sync rounds ≡ dense rounds

/// Forwards step, state_bits and next_wake — the SyncMstProtocol overrides
/// a clean run reaches — to a real protocol and counts the steps executed.
/// With `declare_clock` false it hides next_wake, so the engine keeps the
/// dense every-node round — the reference the sparse path is pinned
/// against, with no production knob.
class CountingSyncMst final : public Protocol<SyncMstState> {
 public:
  CountingSyncMst(SyncMstProtocol& inner, bool declare_clock)
      : inner_(&inner), declare_clock_(declare_clock) {}
  void step(NodeId v, SyncMstState& self,
            const NeighborReader<SyncMstState>& nbr,
            std::uint64_t time) override {
    steps_.fetch_add(1, std::memory_order_relaxed);
    inner_->step(v, self, nbr, time);
  }
  std::size_t state_bits(const SyncMstState& s, NodeId v) const override {
    return inner_->state_bits(s, v);
  }
  std::optional<std::uint64_t> next_wake(std::uint64_t time) const override {
    if (!declare_clock_) return std::nullopt;
    return inner_->next_wake(time);
  }
  std::uint64_t steps() const { return steps_.load(); }

 private:
  SyncMstProtocol* inner_;
  bool declare_clock_;
  std::atomic<std::uint64_t> steps_{0};
};

using ActiveTrace = std::multiset<std::tuple<int, NodeId, std::uint32_t>>;

ActiveTrace trace_of(const SyncMstProtocol& p) {
  return {p.active_trace().begin(), p.active_trace().end()};
}

/// Runs SYNC_MST to termination twice in lock-step — sparse and dense,
/// each with a `threads`-lane pool — and asserts equal registers after
/// every round, then equal stats (time, rounds, peak_bits, activations)
/// and active-trace multisets. Also pins run_sync_mst itself to the
/// sparse run. Returns the sparse run's executed steps as a share of the
/// dense path's n * rounds.
double ExpectSparseSyncMstMatchesDense(const WeightedGraph& g,
                                       unsigned threads) {
  ThreadPool pool(threads);
  SyncMstProtocol sparse_inner(g);
  SyncMstProtocol dense_inner(g);
  CountingSyncMst sparse_proto(sparse_inner, /*declare_clock=*/true);
  CountingSyncMst dense_proto(dense_inner, /*declare_clock=*/false);
  Simulation<SyncMstState> sparse(g, sparse_proto,
                                  sparse_inner.initial_states(), &pool);
  Simulation<SyncMstState> dense(g, dense_proto,
                                 dense_inner.initial_states(), &pool);
  const auto& sparse_regs = std::as_const(sparse).states();
  const auto& dense_regs = std::as_const(dense).states();
  const std::uint64_t max_rounds = 44ULL * g.n() + 64;
  bool done = false;
  while (!done) {
    EXPECT_LE(dense.time(), max_rounds);
    if (dense.time() > max_rounds) return 1.0;
    sparse.sync_round();
    dense.sync_round();
    if (!(sparse_regs == dense_regs)) {
      ADD_FAILURE() << "registers diverged after round " << dense.time();
      return 1.0;
    }
    done = std::all_of(dense_regs.begin(), dense_regs.end(),
                       [](const SyncMstState& s) { return s.done; });
  }
  EXPECT_TRUE(sparse.stats() == dense.stats());
  EXPECT_EQ(sparse.stats().time, dense.stats().time);
  EXPECT_EQ(sparse.stats().rounds, dense.stats().rounds);
  EXPECT_EQ(sparse.stats().peak_bits, dense.stats().peak_bits);
  EXPECT_EQ(sparse.stats().activations, dense.stats().activations);
  EXPECT_EQ(trace_of(sparse_inner), trace_of(dense_inner));

  const SyncMstRun run = run_sync_mst(g);
  EXPECT_TRUE(run.sim == sparse.stats());
  EXPECT_EQ(ActiveTrace(run.active_trace.begin(), run.active_trace.end()),
            trace_of(sparse_inner));

  const std::uint64_t dense_steps =
      std::uint64_t{g.n()} * dense.stats().rounds;
  EXPECT_EQ(dense_proto.steps(), dense_steps);
  return static_cast<double>(sparse_proto.steps()) /
         static_cast<double>(dense_steps);
}

TEST(ParallelSim, SparseSyncMstMatchesDenseOnSuite) {
  for (unsigned threads : {1u, 4u}) {
    for (const auto& [name, g] : gen::standard_suite(2024)) {
      SCOPED_TRACE(::testing::Message() << name << " threads=" << threads);
      ExpectSparseSyncMstMatchesDense(g, threads);
    }
  }
}

TEST(ParallelSim, SparseSyncMstMatchesDenseOnRandomGraphs) {
  for (unsigned threads : {1u, 4u}) {
    for (NodeId n : {256u, 1024u}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n
                                        << " threads=" << threads);
      Rng rng(1);
      const auto g = gen::random_connected(n, n / 2, rng);
      const double share = ExpectSparseSyncMstMatchesDense(g, threads);
      // The point of sparse rounds: at n=1024 the dense engine's n*rounds
      // node-steps shrink to under 1% (0.89% measured) actually executed.
      if (n == 1024) {
        EXPECT_LT(share, 0.02);
      }
    }
  }
}

// -------------------------------------- zero-copy pin: step_into ≡ step

/// Forces the engine's seeded path while delegating all behaviour to a
/// real VerifierProtocol — pins the verifier's step_into override (and
/// the rewrites_register() fast path) to the in-place step semantics.
class ForceSeededVerifier final : public Protocol<VerifierState> {
 public:
  explicit ForceSeededVerifier(const WeightedGraph& g, VerifierConfig cfg)
      : inner_(g, cfg) {}
  void step(NodeId v, VerifierState& self,
            const NeighborReader<VerifierState>& nbr,
            std::uint64_t time) override {
    inner_.step(v, self, nbr, time);
  }
  bool rewrites_register() const override { return false; }
  // The arena hooks must match the real protocol's, or the per-simulation
  // label storage (and the peak_register_bytes stat) would diverge from
  // the zero-copy sim this one is compared against.
  std::shared_ptr<void> adopt_register_file(
      std::vector<VerifierState>& regs) override {
    return inner_.adopt_register_file(regs);
  }
  std::size_t state_phys_bytes(const VerifierState& s) const override {
    return inner_.state_phys_bytes(s);
  }
  std::size_t state_bits(const VerifierState& s, NodeId v) const override {
    return inner_.state_bits(s, v);
  }
  bool alarmed(const VerifierState& s) const override {
    return inner_.alarmed(s);
  }

 private:
  VerifierProtocol inner_;
};

TEST(ParallelSim, VerifierStepIntoPinnedToStep) {
  Rng rng(41);
  auto g = gen::random_connected(36, 28, rng);
  VerifierConfig cfg;
  const MarkerOutput marker = make_labels(g, cfg.pack);
  VerifierProtocol zc_proto(g, cfg);
  ASSERT_TRUE(zc_proto.rewrites_register());
  ForceSeededVerifier seeded_proto(g, cfg);
  std::vector<VerifierState> init = zc_proto.initial_states(marker);
  Rng crng(5);
  zc_proto.corrupt(init[3], 3, crng);

  VerifierSim zc(g, zc_proto, init);
  VerifierSim seeded(g, seeded_proto, init);
  for (int r = 0; r < 120; ++r) {
    zc.sync_round();
    seeded.sync_round();
    ASSERT_TRUE(zc.states() == seeded.states()) << "round " << r;
    ASSERT_TRUE(zc.stats() == seeded.stats()) << "round " << r;
  }
}

// ---------------------------------------------------------- BatchRunner

/// A sweep cell with rng-driven work of job-dependent length: runs a
/// small async simulation under the job's daemon rng and fingerprints
/// the trajectory. Any leakage of execution order into seeding or any
/// cross-job state would change the fingerprint.
std::uint64_t sweep_cell(const WeightedGraph& g, std::size_t i, Rng& rng) {
  class Flood final : public Protocol<ToyState> {
   public:
    void step(NodeId, ToyState& self, const NeighborReader<ToyState>& nbr,
              std::uint64_t) override {
      for (std::uint32_t p = 0; p < nbr.degree(); ++p) {
        self.value = std::max(self.value, nbr.at_port(p).value);
      }
    }
    std::size_t state_bits(const ToyState&, NodeId) const override {
      return 64;
    }
  };
  Flood proto;
  std::vector<ToyState> init(g.n());
  init[i % g.n()].value = 1000 + i;
  Simulation<ToyState> sim(g, proto, init);
  const int units = 2 + static_cast<int>(i % 5);
  for (int u = 0; u < units; ++u) sim.async_unit(rng);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId v = 0; v < g.n(); ++v) {
    h = (h ^ sim.state(v).value) * 0x100000001b3ULL;
  }
  h = (h ^ rng.next()) * 0x100000001b3ULL;  // rng position matters too
  return h;
}

TEST(BatchRunner, SweepIsDeterministicAcrossThreadCountsAndReruns) {
  Rng grng(55);
  auto g = gen::random_connected(30, 25, grng);
  auto sweep = [&](unsigned threads) {
    BatchRunner runner(threads);
    return runner.map<std::uint64_t>(
        23, /*sweep_seed=*/0xfeedULL,
        [&](std::size_t i, Rng& rng) { return sweep_cell(g, i, rng); });
  };
  const auto base = sweep(1);
  ASSERT_EQ(base.size(), 23u);
  for (unsigned t : {2u, 4u, 7u}) {
    EXPECT_EQ(base, sweep(t)) << "threads=" << t;
  }
  EXPECT_EQ(base, sweep(4)) << "rerun at the same width";
}

TEST(BatchRunner, ResultsLandInJobOrder) {
  BatchRunner runner(4);
  const auto out = runner.map<std::size_t>(
      50, 1, [](std::size_t i, Rng&) { return i * 3 + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 3 + 1);
}

TEST(BatchRunner, JobRngDependsOnlyOnSeedAndIndex) {
  Rng a = BatchRunner::job_rng(7, 0);
  Rng b = BatchRunner::job_rng(7, 0);
  Rng c = BatchRunner::job_rng(7, 1);
  Rng d = BatchRunner::job_rng(8, 0);
  const std::uint64_t a0 = a.next();
  EXPECT_EQ(a0, b.next());
  EXPECT_NE(a0, c.next());
  EXPECT_NE(a0, d.next());
}

// ----------------------------------- sharding respects tiny/odd graphs

TEST(ParallelSim, MoreThreadsThanNodes) {
  Rng rng(61);
  auto g = gen::path(3, rng);
  std::vector<ToyState> init(g.n());
  init[0].value = 5;
  SeededToy serial_proto, sharded_proto;
  Simulation<ToyState> serial(g, serial_proto, init);
  Simulation<ToyState> sharded(g, sharded_proto, init);
  ThreadPool pool(7);
  sharded.set_thread_pool(&pool);
  for (int r = 0; r < 20; ++r) {
    serial.sync_round();
    sharded.sync_round();
    ASSERT_TRUE(serial.states() == sharded.states()) << "round " << r;
    ASSERT_TRUE(serial.stats() == sharded.stats()) << "round " << r;
  }
}

TEST(ParallelSim, DetachingPoolRestoresSerialSweep) {
  Rng rng(62);
  auto g = gen::cycle(12, rng);
  SeededToy proto_a, proto_b;
  std::vector<ToyState> init(g.n());
  Simulation<ToyState> a(g, proto_a, init);
  Simulation<ToyState> b(g, proto_b, init);
  ThreadPool pool(4);
  b.set_thread_pool(&pool);
  for (int r = 0; r < 10; ++r) b.sync_round();
  b.set_thread_pool(nullptr);
  for (int r = 0; r < 10; ++r) b.sync_round();
  for (int r = 0; r < 20; ++r) a.sync_round();
  ASSERT_TRUE(a.states() == b.states());
  ASSERT_TRUE(a.stats() == b.stats());
}

TEST(ParallelSim, ConstructorPoolShardsLikeSetThreadPool) {
  // Passing the pool at construction (which also shards the
  // construction-time accounting pass) must be indistinguishable from
  // attaching it afterwards — and from the serial sweep.
  Rng rng(63);
  auto g = gen::random_connected(40, 30, rng);
  VerifierConfig cfg;
  const MarkerOutput marker = make_labels(g, cfg.pack);
  VerifierProtocol pa(g, cfg), pb(g, cfg), pc(g, cfg);
  const auto init = pa.initial_states(marker);

  ThreadPool pool(4);
  Simulation<VerifierState> at_ctor(g, pa, init, &pool);
  Simulation<VerifierState> after(g, pb, init);
  after.set_thread_pool(&pool);
  Simulation<VerifierState> serial(g, pc, init);
  ASSERT_TRUE(at_ctor.stats() == serial.stats());  // sharded record_pass
  for (int r = 0; r < 30; ++r) {
    at_ctor.sync_round();
    after.sync_round();
    serial.sync_round();
    ASSERT_TRUE(std::as_const(at_ctor).states() ==
                std::as_const(serial).states())
        << "round " << r;
    ASSERT_TRUE(std::as_const(after).states() ==
                std::as_const(serial).states())
        << "round " << r;
    ASSERT_TRUE(at_ctor.stats() == serial.stats()) << "round " << r;
    ASSERT_TRUE(after.stats() == serial.stats()) << "round " << r;
  }
}

// ----------------------- coherent zero-copy pin: step_into_coherent ≡ step
//
// With no external register access between rounds, the engine promotes
// zero-copy protocols to step_into_coherent (the verifier then skips
// copying its step-invariant label payload entirely). These tests compare
// registers through *const* access only, so the coherent path genuinely
// engages — and then corrupt registers mid-run through the mutable
// accessor to prove the engine demotes to the full rewrite exactly when
// the coherence guarantee breaks.

void ExpectCoherentEquivalence(const WeightedGraph& g, unsigned threads) {
  VerifierConfig cfg;
  const MarkerOutput marker = make_labels(g, cfg.pack);
  VerifierProtocol zc_proto(g, cfg);
  ASSERT_TRUE(zc_proto.rewrites_register());
  ForceSeededVerifier seeded_proto(g, cfg);
  const auto init = zc_proto.initial_states(marker);

  ThreadPool pool(threads);
  Simulation<VerifierState> zc(g, zc_proto, init,
                               threads > 1 ? &pool : nullptr);
  Simulation<VerifierState> seeded(g, seeded_proto, init);
  auto run_and_compare = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      zc.sync_round();
      seeded.sync_round();
      ASSERT_TRUE(std::as_const(zc).states() ==
                  std::as_const(seeded).states())
          << "round " << r;
      ASSERT_TRUE(zc.stats() == seeded.stats()) << "round " << r;
    }
  };
  run_and_compare(60);
  // Identical mid-run corruption through the mutable accessor on both
  // sims: labels change behind the engine's back, so the next zc round
  // must fall back to the full step_into rewrite.
  Rng ca(77), cb(77);
  const NodeId victim = g.n() / 3;
  zc_proto.corrupt(zc.state(victim), victim, ca);
  zc_proto.corrupt(seeded.state(victim), victim, cb);
  run_and_compare(60);
}

TEST(ParallelSim, CoherentVerifierPathMatchesStep) {
  Rng rng(71);
  auto g = gen::random_connected(40, 30, rng);
  ExpectCoherentEquivalence(g, 1);
  ExpectCoherentEquivalence(g, 4);
}

TEST(ParallelSim, CoherentVerifierPathMatchesStepOnStar) {
  Rng rng(72);
  auto g = gen::star(25, rng);
  ExpectCoherentEquivalence(g, 1);
  ExpectCoherentEquivalence(g, 4);
}

TEST(ParallelSim, CoherentVerifierPathMatchesStepOnPath) {
  Rng rng(73);
  auto g = gen::path(32, rng);
  ExpectCoherentEquivalence(g, 1);
  ExpectCoherentEquivalence(g, 4);
}

TEST(ParallelSim, AsyncUnitsDemoteCoherence) {
  // Async units mutate the front buffer in place; a following sync round
  // must not trust the stale back buffer. Equivalence against the seeded
  // protocol (which never relies on coherence) proves the demotion.
  Rng rng(74);
  auto g = gen::random_connected(30, 20, rng);
  VerifierConfig cfg;
  const MarkerOutput marker = make_labels(g, cfg.pack);
  VerifierProtocol zc_proto(g, cfg);
  ForceSeededVerifier seeded_proto(g, cfg);
  const auto init = zc_proto.initial_states(marker);
  Simulation<VerifierState> zc(g, zc_proto, init);
  Simulation<VerifierState> seeded(g, seeded_proto, init);
  for (std::uint64_t cycle = 0; cycle < 5; ++cycle) {
    for (int r = 0; r < 7; ++r) {
      zc.sync_round();
      seeded.sync_round();
    }
    Rng da(100 + cycle), db(100 + cycle);
    zc.async_unit(da, DaemonOrder::kRoundRobin);
    seeded.async_unit(db, DaemonOrder::kRoundRobin);
    zc.sync_round();
    seeded.sync_round();
    ASSERT_TRUE(std::as_const(zc).states() == std::as_const(seeded).states())
        << "cycle " << cycle;
  }
}

TEST(BatchRunner, ThrowingJobIsContainedPerSlot) {
  // Satellite of the fleet-service PR: one bad sweep cell records its
  // error in its own slot; the other N-1 results are bit-identical to a
  // sweep where nothing threw (same index-derived rngs, any thread count).
  Rng grng(56);
  auto g = gen::random_connected(30, 25, grng);
  BatchRunner runner(4);
  const std::size_t kJobs = 16;
  const std::size_t kBad = 5;
  const auto clean = runner.map<std::uint64_t>(
      kJobs, 90, [&](std::size_t i, Rng& rng) { return sweep_cell(g, i, rng); });
  const auto outcomes = runner.map_outcomes<std::uint64_t>(
      kJobs, 90, [&](std::size_t i, Rng& rng) -> std::uint64_t {
        if (i == kBad) throw std::runtime_error("cell 5 exploded");
        return sweep_cell(g, i, rng);
      });
  ASSERT_EQ(outcomes.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    if (i == kBad) {
      EXPECT_FALSE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].error, "cell 5 exploded");
    } else {
      ASSERT_TRUE(outcomes[i].ok()) << "job " << i << ": " << outcomes[i].error;
      EXPECT_EQ(*outcomes[i].value, clean[i]) << "job " << i;
    }
  }
}

TEST(BatchRunner, MapRethrowsTheLowestIndexFailureAndPoolSurvives) {
  BatchRunner runner(4);
  // Two failures: map must rethrow job 2's (the lowest index) at every
  // thread count — not whichever the scheduler happened to finish first.
  try {
    runner.map<int>(10, 7, [](std::size_t i, Rng&) -> int {
      if (i == 2) throw std::runtime_error("first");
      if (i == 8) throw std::runtime_error("second");
      return static_cast<int>(i);
    });
    FAIL() << "map must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("job 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("first"), std::string::npos)
        << e.what();
  }
  // The whole sweep ran to the barrier before the rethrow: the pool is
  // immediately reusable.
  const auto out = runner.map<std::size_t>(
      12, 7, [](std::size_t i, Rng&) { return i + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(BatchRunner, ThreadsFromArgvRejectsGarbageLoudly) {
  const unsigned hw = ThreadPool::hardware_threads();
  auto probe = [](const char* arg1) {
    char prog[] = "bench";
    // threads_from_argv takes char** (main's signature), so the probe
    // needs writable storage.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s", arg1);
    char* argv[] = {prog, buf, nullptr};
    return threads_from_argv(2, argv);
  };
  char prog[] = "bench";
  char* no_args[] = {prog, nullptr};
  EXPECT_EQ(threads_from_argv(1, no_args), hw);
  EXPECT_EQ(probe("7"), 7u);
  EXPECT_EQ(probe("1"), 1u);
  // Garbage used to go through atoi() -> 0 -> silently floored to 1,
  // serializing the bench; now it falls back to the hardware default.
  EXPECT_EQ(probe("abc"), hw);
  EXPECT_EQ(probe("12x"), hw);
  EXPECT_EQ(probe("0"), hw);
  EXPECT_EQ(probe("9999999"), hw);
  // A leading --flag is not a thread count: positional default applies.
  EXPECT_EQ(probe("--json=out.json"), hw);
}

}  // namespace
}  // namespace ssmst
