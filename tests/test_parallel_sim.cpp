// Schedule-equivalence harness for the parallel execution layer.
//
// The sharded sync_round promises bit-identical registers and identical
// SimulationStats to the serial sweep at every thread count, including
// across external register writes and async units between rounds;
// BatchRunner promises per-job results independent of thread count and
// execution order. These tests are what makes the threaded simulator
// trustworthy — they are the ones CI also runs under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
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
/// any protocol-internal bookkeeping cannot couple the twins. The optional
/// `before_round(r, sim)` hook runs on both sims before round r — the
/// place for identical mid-run register writes or async units.
template <typename State, typename MakeProto>
void ExpectScheduleEquivalence(
    const WeightedGraph& g, const std::vector<State>& init,
    MakeProto make_proto, int rounds,
    const std::function<void(int, Simulation<State>&)>& before_round = {}) {
  for (unsigned t : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << t);
    auto serial_proto = make_proto();
    auto sharded_proto = make_proto();
    Simulation<State> serial(g, *serial_proto, init);
    Simulation<State> sharded(g, *sharded_proto, init);
    ThreadPool pool(t);
    sharded.set_thread_pool(&pool);
    for (int r = 0; r < rounds; ++r) {
      if (before_round) {
        before_round(r, serial);
        before_round(r, sharded);
      }
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

// ------------------------------------------------------------ toy protocol

/// Toy protocol with data-dependent state_bits and a late alarm,
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

// ------------------------------------------------------- VerifierProtocol

/// What happens to both sims between rounds of a verifier equivalence run.
enum class MidRun {
  kNone,
  kCorruption,  ///< two registers corrupted through state(v) before round 60
  kAsyncUnits,  ///< a kRoundRobin async unit before every 8th round
};

void ExpectVerifierEquivalence(const WeightedGraph& g, bool corrupted,
                               MidRun mid = MidRun::kNone) {
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
  auto before_round = [&](int r, Simulation<VerifierState>& sim) {
    if (mid == MidRun::kCorruption && r == 60) {
      // On these graphs seed 77 hits only label stripe payload (shared by
      // both buffers) and seed 78 also the register header.
      Rng payload_rng(77), header_rng(78);
      const NodeId a = g.n() / 3, b = 2 * g.n() / 3;
      ref.corrupt(sim.state(a), a, payload_rng);
      ref.corrupt(sim.state(b), b, header_rng);
    } else if (mid == MidRun::kAsyncUnits && r % 8 == 7) {
      Rng daemon(100 + static_cast<std::uint64_t>(r));
      sim.async_unit(daemon, DaemonOrder::kRoundRobin);
    }
  };
  ExpectScheduleEquivalence<VerifierState>(
      g, init, [&] { return std::make_unique<VerifierProtocol>(g, cfg); },
      110, before_round);
}

TEST(ParallelSim, VerifierMatchesSerialOnRandomGraph) {
  Rng rng(21);
  auto g = gen::random_connected(40, 30, rng);
  ExpectVerifierEquivalence(g, false);
  ExpectVerifierEquivalence(g, true);
  ExpectVerifierEquivalence(g, false, MidRun::kCorruption);
  ExpectVerifierEquivalence(g, false, MidRun::kAsyncUnits);
}

TEST(ParallelSim, VerifierMatchesSerialOnStar) {
  Rng rng(22);
  auto g = gen::star(25, rng);
  ExpectVerifierEquivalence(g, false);
  ExpectVerifierEquivalence(g, true);
  ExpectVerifierEquivalence(g, false, MidRun::kCorruption);
  ExpectVerifierEquivalence(g, false, MidRun::kAsyncUnits);
}

TEST(ParallelSim, VerifierMatchesSerialOnPath) {
  Rng rng(23);
  auto g = gen::path(32, rng);
  ExpectVerifierEquivalence(g, false);
  ExpectVerifierEquivalence(g, true);
  ExpectVerifierEquivalence(g, false, MidRun::kCorruption);
  ExpectVerifierEquivalence(g, false, MidRun::kAsyncUnits);
}

// ------------------------------------------------------------- SyncMst

/// Owns a SyncMstProtocol and forwards step, state_bits and next_wake — the
/// overrides a clean run reaches — counting the steps executed. With
/// `declare_clock` false it hides next_wake, so the engine keeps the dense
/// every-node round — the reference the sparse path is pinned against,
/// with no production knob.
class CountingSyncMst final : public Protocol<SyncMstState> {
 public:
  CountingSyncMst(const WeightedGraph& g, bool declare_clock)
      : inner_(g), declare_clock_(declare_clock) {}
  void step(NodeId v, SyncMstState& self,
            const NeighborReader<SyncMstState>& nbr,
            std::uint64_t time) override {
    steps_.fetch_add(1, std::memory_order_relaxed);
    inner_.step(v, self, nbr, time);
  }
  std::size_t state_bits(const SyncMstState& s, NodeId v) const override {
    return inner_.state_bits(s, v);
  }
  std::optional<std::uint64_t> next_wake(std::uint64_t time) const override {
    if (!declare_clock_) return std::nullopt;
    return inner_.next_wake(time);
  }
  const SyncMstProtocol& inner() const { return inner_; }
  std::uint64_t steps() const { return steps_.load(); }

 private:
  SyncMstProtocol inner_;
  bool declare_clock_;
  std::atomic<std::uint64_t> steps_{0};
};

/// Serial ≡ sharded for SYNC_MST on both engine paths: the protocol as
/// shipped (sparse rounds) and with its clock hidden (the dense sweep).
void ExpectSyncMstEquivalence(const WeightedGraph& g) {
  SyncMstProtocol ref(g);
  ExpectScheduleEquivalence<SyncMstState>(
      g, ref.initial_states(),
      [&] { return std::make_unique<SyncMstProtocol>(g); }, 120);
  ExpectScheduleEquivalence<SyncMstState>(
      g, ref.initial_states(),
      [&] { return std::make_unique<CountingSyncMst>(g, false); }, 120);
}

TEST(ParallelSim, SyncMstMatchesSerial) {
  Rng rng(31);
  ExpectSyncMstEquivalence(gen::random_connected(36, 24, rng));
  ExpectSyncMstEquivalence(gen::star(20, rng));
  ExpectSyncMstEquivalence(gen::path(28, rng));
}

// ------------------------------------ sparse sync rounds ≡ dense rounds

using ActiveTrace = std::multiset<std::tuple<int, NodeId, std::uint32_t>>;

ActiveTrace trace_of(const SyncMstProtocol& p) {
  return {p.active_trace().begin(), p.active_trace().end()};
}

/// One sparse SYNC_MST run on its own pool (declared first: it must
/// outlive the simulation).
struct SparseSyncMstRun {
  SparseSyncMstRun(const WeightedGraph& g, unsigned threads)
      : pool(threads),
        proto(g, /*declare_clock=*/true),
        sim(g, proto, proto.inner().initial_states(), &pool) {}
  ThreadPool pool;
  CountingSyncMst proto;
  Simulation<SyncMstState> sim;
};

/// Runs SYNC_MST to termination on one serial dense reference and, in
/// lock-step with it, on sparse sims with 1- and 4-lane pools. Asserts
/// equal registers after every round, then equal stats (time, rounds,
/// peak_bits, activations) and active-trace multisets, and pins
/// run_sync_mst itself to the sparse runs. Returns the larger sparse
/// run's executed steps as a share of the dense path's n * rounds.
double ExpectSparseSyncMstMatchesDense(const WeightedGraph& g) {
  CountingSyncMst dense_proto(g, /*declare_clock=*/false);
  Simulation<SyncMstState> dense(g, dense_proto,
                                 dense_proto.inner().initial_states());
  SparseSyncMstRun sparse[] = {{g, 1}, {g, 4}};
  const auto& dense_regs = std::as_const(dense).states();
  const std::uint64_t max_rounds = 44ULL * g.n() + 64;
  bool done = false;
  while (!done) {
    EXPECT_LE(dense.time(), max_rounds);
    if (dense.time() > max_rounds) return 1.0;
    dense.sync_round();
    for (SparseSyncMstRun& run : sparse) {
      run.sim.sync_round();
      if (!(std::as_const(run.sim).states() == dense_regs)) {
        ADD_FAILURE() << "threads=" << run.pool.threads()
                      << ": registers diverged after round " << dense.time();
        return 1.0;
      }
    }
    done = std::all_of(dense_regs.begin(), dense_regs.end(),
                       [](const SyncMstState& s) { return s.done; });
  }
  const std::uint64_t dense_steps =
      std::uint64_t{g.n()} * dense.stats().rounds;
  EXPECT_EQ(dense_proto.steps(), dense_steps);
  const SyncMstRun mst_run = run_sync_mst(g);
  const ActiveTrace mst_trace(mst_run.active_trace.begin(),
                              mst_run.active_trace.end());
  double share = 0.0;
  for (const SparseSyncMstRun& run : sparse) {
    SCOPED_TRACE(::testing::Message() << "threads=" << run.pool.threads());
    const SimulationStats& st = run.sim.stats();
    EXPECT_TRUE(st == dense.stats());
    EXPECT_EQ(st.time, dense.stats().time);
    EXPECT_EQ(st.rounds, dense.stats().rounds);
    EXPECT_EQ(st.peak_bits, dense.stats().peak_bits);
    EXPECT_EQ(st.activations, dense.stats().activations);
    EXPECT_EQ(trace_of(run.proto.inner()), trace_of(dense_proto.inner()));
    EXPECT_TRUE(mst_run.sim == st);
    EXPECT_EQ(mst_trace, trace_of(run.proto.inner()));
    share = std::max(share, static_cast<double>(run.proto.steps()) /
                                static_cast<double>(dense_steps));
  }
  return share;
}

TEST(ParallelSim, SparseSyncMstMatchesDenseOnSuite) {
  for (const auto& [name, g] : gen::standard_suite(2024)) {
    SCOPED_TRACE(name);
    ExpectSparseSyncMstMatchesDense(g);
  }
}

TEST(ParallelSim, SparseSyncMstMatchesDenseOnRandomGraphs) {
  for (NodeId n : {256u, 1024u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng(1);
    const auto g = gen::random_connected(n, n / 2, rng);
    const double share = ExpectSparseSyncMstMatchesDense(g);
    // The point of sparse rounds: at n=1024 the dense engine's n*rounds
    // node-steps shrink to under 1% (0.89% measured) actually executed.
    if (n == 1024) {
      EXPECT_LT(share, 0.02);
    }
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
