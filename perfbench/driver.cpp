// Workload driver of the repository benchmark (README.md in this
// directory). It runs one workload for one seed and a time budget, gates
// every operation's output, and writes the raw samples as JSON; run.py
// turns them into the end-to-end and per-layer metrics.
//
// Every layer is measured from outside: the driver times calls into the
// library's public functions and records them as spans. Nothing under
// src/ knows it is being measured.
//
// Usage: perfbench_driver --workload W --seed S --seconds T --trace 0|1
//                         --out RAW.json [--trace-out TRACE.json]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ssmst.hpp"
#include "sim/service.hpp"
#include "verify/oracle.hpp"

using namespace ssmst;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Process CPU time (user + system, all threads), in nanoseconds.
std::uint64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& t) {
    return static_cast<std::uint64_t>(t.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(t.tv_usec) * 1000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// splitmix64 finaliser: derives independent per-instance seeds from the
/// workload seed, so instance i depends only on (seed, i).
std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- tracing

/// In-memory span log. A span is one public library call (or one op that
/// groups them); spans of one op share `op`. Spans are written out as a
/// Chrome trace_event file when the run ends.
class Tracer {
 public:
  struct Rec {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int64_t parent;  ///< index of the enclosing span, -1 at top level
    std::uint64_t op;
  };

  bool on = false;        ///< record spans (toggled between ops only)
  std::uint64_t op = 0;   ///< id given to spans opened from now on

  std::int64_t begin(const char* name) {
    if (!on) return -1;
    const auto idx = static_cast<std::int64_t>(recs_.size());
    recs_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back(), op});
    open_.push_back(idx);
    return idx;
  }
  void end(std::int64_t idx) {
    if (idx < 0) return;
    recs_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    open_.pop_back();
  }

  bool write_chrome(const std::string& path, std::uint64_t origin_ns) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const Rec& r = recs_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%lld,\"op\":%llu}}",
                   i == 0 ? "" : ",", r.name,
                   static_cast<int>(std::strcspn(r.name, ".")), r.name,
                   double(r.start_ns - origin_ns) / 1e3,
                   double(r.end_ns - r.start_ns) / 1e3, i,
                   static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.op));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Rec> recs_;
  std::vector<std::int64_t> open_;
};

class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), idx_(t.begin(name)) {}
  ~Span() { t_.end(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  std::int64_t idx_;
};

// ------------------------------------------------------------ raw results

/// Everything a run measured, before any statistics.
struct Raw {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t min_ops = 0;  ///< ops every run completes (tail rule input)
  std::vector<double> setup_s;
  std::vector<double> op_wall_ns;
  std::vector<int> op_traced;
  std::uint64_t timed_wall_ns = 0;
  std::uint64_t timed_cpu_ns = 0;
  std::uint64_t node_steps = 0;  ///< activations over the timed phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> detect_units;
  std::uint64_t state_bits_max = 0;
  /// Exact-repeat records: a key may appear several times (once per pass,
  /// setup or drain) and every value under one key must be equal.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> samples;

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(why));
  }
  void count(std::string key, std::uint64_t v) {
    counts.emplace_back(std::move(key), v);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

void put_array(std::ostringstream& o, const std::vector<double>& v) {
  o << '[';
  for (std::size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << v[i];
  o << ']';
}

bool write_raw(const Raw& r, const std::string& path) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"workload\":\"" << r.workload << "\",\"seed\":" << r.seed
    << ",\"min_ops\":" << r.min_ops << ",\"setup_s\":";
  put_array(o, r.setup_s);
  o << ",\"op_wall_ns\":";
  put_array(o, r.op_wall_ns);
  o << ",\"op_traced\":[";
  for (std::size_t i = 0; i < r.op_traced.size(); ++i) {
    o << (i ? "," : "") << r.op_traced[i];
  }
  o << "],\"timed_wall_ns\":" << r.timed_wall_ns
    << ",\"timed_cpu_ns\":" << r.timed_cpu_ns
    << ",\"node_steps\":" << r.node_steps << ",\"attempted\":" << r.attempted
    << ",\"failed\":" << r.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    o << (i ? "," : "") << '"' << json_escape(r.failures[i]) << '"';
  }
  o << "],\"detect_units\":";
  put_array(o, r.detect_units);
  o << ",\"state_bits_max\":" << r.state_bits_max
    << ",\"peak_rss_mb\":" << peak_rss_mb() << ",\"counts\":[";
  for (std::size_t i = 0; i < r.counts.size(); ++i) {
    o << (i ? "," : "") << "[\"" << r.counts[i].first << "\","
      << r.counts[i].second << ']';
  }
  o << "],\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : r.counters) {
    o << (first ? "" : ",") << '"' << k << "\":" << v;
    first = false;
  }
  o << "},\"samples\":{";
  first = true;
  for (const auto& [k, v] : r.samples) {
    o << (first ? "" : ",") << '"' << k << "\":";
    put_array(o, v);
    first = false;
  }
  o << "}}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string s = o.str();
  const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
  return std::fclose(f) == 0 && ok;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

/// Closed-loop timing: one op at a time, the next only after the last one
/// returned. Tracing alternates op by op in a traced run, so the traced
/// and untraced halves sample the same op mix (tracing overhead).
struct OpClock {
  Raw& raw;
  Tracer& tr;
  bool trace_run;
  std::uint64_t t0 = 0;

  void start_op(std::uint64_t id) {
    tr.op = id;
    tr.on = trace_run && raw.op_wall_ns.size() % 2 == 0;
    t0 = now_ns();
  }
  void end_op() {
    raw.op_wall_ns.push_back(double(now_ns() - t0));
    raw.op_traced.push_back(tr.on ? 1 : 0);
    tr.on = trace_run;
  }
};

/// LabelReader over a verifier simulation's current registers: what a
/// node's 1-round label check reads from its neighbours.
class SimLabelReader final : public LabelReader {
 public:
  SimLabelReader(const WeightedGraph& g, const VerifierSim& sim)
      : g_(g), sim_(sim) {}
  void at(NodeId v) { v_ = v; }
  const NodeLabels& labels(std::uint32_t port) const override {
    return sim_.cstate(g_.neighbors(v_)[port].to).labels;
  }
  std::uint32_t parent_port(std::uint32_t port) const override {
    return sim_.cstate(g_.neighbors(v_)[port].to).parent_port;
  }

 private:
  const WeightedGraph& g_;
  const VerifierSim& sim_;
  NodeId v_ = 0;
};

/// Sweeps verify_labels_1round over every node of a quiet verifier state:
/// the label-check share of a verifier step, on one lane. Returns the
/// number of nodes whose check failed (a quiet instance has none).
std::uint64_t verify1_sweep(Raw& raw, Tracer& tr, const WeightedGraph& g,
                            const VerifierSim& sim) {
  SimLabelReader reader(g, sim);
  std::uint64_t bad = 0;
  raw.counters["verify1_nodes"] = double(g.n());
  Span s(tr, "labels.verify1_sweep");
  for (NodeId v = 0; v < g.n(); ++v) {
    reader.at(v);
    const VerifierState& st = sim.cstate(v);
    if (!verify_labels_1round(g, v, st.labels, st.parent_port, reader)
             .empty()) {
      ++bad;
    }
  }
  return bad;
}

// ------------------------------------------------------------- sync-scale

void run_sync_scale(const Args& a, Raw& raw, Tracer& tr) {
  constexpr NodeId kN = NodeId{1} << 18;
  constexpr unsigned kLanes = 2;
  constexpr int kSetupRepeats = 3;  // setup_s is their median
  raw.min_ops = 40;
  ThreadPool pool(kLanes);
  VerifierConfig cfg;  // synchronous, the defaults
  std::unique_ptr<WeightedGraph> g;
  std::unique_ptr<VerifierProtocol> proto;
  std::unique_ptr<VerifierSim> sim;

  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sim.reset();
    proto.reset();
    g.reset();
    tr.op = static_cast<std::uint64_t>(rep);
    const std::uint64_t t0 = now_ns();
    {
      Span s(tr, "setup");
      Rng rng(a.seed);
      {
        Span s1(tr, "graph.generate");
        g = std::make_unique<WeightedGraph>(
            gen::random_connected(kN, kN / 2, rng));
      }
      std::optional<MarkerOutput> marker;
      {
        Span s1(tr, "labels.mark");
        marker.emplace(make_labels(*g));
      }
      proto = std::make_unique<VerifierProtocol>(*g, cfg);
      std::vector<VerifierState> init;
      {
        Span s1(tr, "verify.initial_states");
        init = proto->initial_states(*marker);
      }
      {
        Span s1(tr, "sim.ctor");
        sim = std::make_unique<VerifierSim>(*g, *proto, std::move(init),
                                            &pool);
      }
    }
    raw.setup_s.push_back(double(now_ns() - t0) * 1e-9);
    raw.count("setup.peak_bits", sim->stats().peak_bits);
    raw.count("setup.peak_register_bytes", sim->stats().peak_register_bytes);
  }

  // Timed phase: quiet rounds in a closed loop.
  OpClock clk{raw, tr, a.trace};
  const std::uint64_t steps0 = sim->stats().activations;
  const std::uint64_t cpu0 = cpu_ns();
  const std::uint64_t w0 = now_ns();
  const auto deadline = w0 + static_cast<std::uint64_t>(a.seconds * 1e9);
  for (std::uint64_t i = 0; raw.op_wall_ns.size() < raw.min_ops ||
                            now_ns() < deadline;
       ++i) {
    clk.start_op(100 + i);
    {
      Span s(tr, "sim.sync_round");
      sim->sync_round();
    }
    clk.end_op();
    ++raw.attempted;
    if (sim->first_alarm_time()) raw.fail("false alarm in a quiet round");
  }
  raw.timed_wall_ns = now_ns() - w0;
  raw.timed_cpu_ns = cpu_ns() - cpu0;
  raw.node_steps = sim->stats().activations - steps0;
  raw.counters["nodes"] = double(kN);
  raw.state_bits_max = sim->stats().peak_bits;
  raw.count("state_bits_max", raw.state_bits_max);

  if (a.trace) {
    // Stage split of the marker, on the same graph, outside set-up.
    tr.on = true;
    tr.op = 1;
    {
      Span st(tr, "stages");
      {
        Span s(tr, "graph.kruskal");
        (void)kruskal_mst_tree(*g);
      }
      ReferenceResult ref;
      {
        Span s(tr, "mstalgo.hierarchy");
        ref = build_reference_hierarchy(*g);
      }
      Span s(tr, "partition.build");
      (void)build_partitions(*ref.hierarchy);
    }
    if (verify1_sweep(raw, tr, *g, *sim) != 0) {
      raw.fail("1-round label check rejected a quiet node");
    }
    ++raw.attempted;
    {
      Span s(tr, "sim.audit");
      if (!sim->audit().ok()) raw.fail("audit of the quiet instance failed");
    }
    ++raw.attempted;
  }

  // Closing gate: a label fault (the scale probe's NumK lie) must be caught
  // by the 1-round check, i.e. in exactly one round.
  tr.op = 2;
  const NodeId victim = kN / 2;
  sim->state(victim).labels.subtree_count += 1;
  const std::uint64_t start = sim->time();
  std::optional<std::uint64_t> first;
  for (int r = 0; r < 64 && !first; ++r) {
    Span s(tr, "sim.sync_round");
    sim->sync_round();
    first = sim->first_alarm_time();
  }
  ++raw.attempted;
  if (!first) {
    raw.fail("label fault not detected in 64 rounds");
  } else {
    raw.detect_units.push_back(double(*first - start));
    raw.count("detect.label_fault", *first - start);
    if (*first - start != 1) raw.fail("label fault not caught in 1 round");
  }
}

// ----------------------------------------------------------- train-detect

/// One marked verifier instance on its own graph.
struct Instance {
  std::uint64_t seed = 0;
  std::unique_ptr<WeightedGraph> g;
  std::unique_ptr<VerifierHarness> h;
};

void run_train_detect(const Args& a, Raw& raw, Tracer& tr) {
  constexpr NodeId kN = 64;
  constexpr std::size_t kInstances = 801;  // odd: traced ops alternate
  constexpr std::size_t kReplayOps = 3;
  constexpr std::uint64_t kWarmUnits = 64;
  constexpr int kSetupRepeats = 3;
  raw.min_ops = kInstances;
  VerifierConfig cfg;
  cfg.sync_mode = false;
  cfg.daemon = DaemonOrder::kRandom;
  const std::uint64_t max_units = 4 * watchdog_budget_for(kN);

  // (Re)arms instance i: mark, adopt, warm up quiet. Deterministic in
  // (seed, i), so every pass replays the same op.
  auto arm = [&](Instance& in) -> bool {
    {
      Span s(tr, "verify.harness");
      in.h = std::make_unique<VerifierHarness>(*in.g, cfg, in.seed);
    }
    Span s(tr, "sim.warmup");
    return !in.h->run(kWarmUnits).has_value();
  };

  std::deque<Instance> inst;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    inst.clear();
    tr.op = static_cast<std::uint64_t>(rep);
    const std::uint64_t t0 = now_ns();
    {
      Span s(tr, "setup");
      for (std::size_t i = 0; i < kInstances; ++i) {
        Instance& in = inst.emplace_back();
        in.seed = mix(a.seed, i);
        Rng rng(in.seed);
        {
          Span s1(tr, "graph.generate");
          in.g = std::make_unique<WeightedGraph>(
              gen::random_connected(kN, kN / 2, rng));
        }
        if (!arm(in)) raw.fail("false alarm while warming up");
      }
    }
    raw.setup_s.push_back(double(now_ns() - t0) * 1e-9);
  }
  // Correctness of every instance before any tamper (outside the timing).
  for (std::size_t i = 0; i < kInstances; ++i) {
    const auto rep = oracle::check_marked_instance(*inst[i].g,
                                                   inst[i].h->marker());
    ++raw.attempted;
    if (!rep.ok) raw.fail("oracle rejects instance " + std::to_string(i));
  }

  // One op: tamper a load-bearing piece and run async units to the first
  // alarm. Returns the detection latency in units; the caller re-arms.
  auto tamper_and_detect = [&](Instance& in, std::size_t i) {
    std::optional<NodeId> victim;
    std::optional<std::uint64_t> first;
    std::uint64_t start = 0;
    {
      Span op(tr, "op");
      {
        Span s(tr, "verify.tamper");
        victim = in.h->tamper_loadbearing_piece(in.seed);
      }
      start = in.h->sim().time();
      for (std::uint64_t u = 0; victim && !first && u < max_units; ++u) {
        Span s(tr, "sim.async_unit");
        first = in.h->run(1);
      }
    }
    ++raw.attempted;
    std::optional<std::uint64_t> latency;
    if (!victim) {
      raw.fail("no load-bearing piece to tamper in instance " +
               std::to_string(i));
    } else if (!first) {
      raw.fail("tamper not detected within the unit budget");
    } else {
      latency = *first - start;
      raw.count("detect.instance" + std::to_string(i), *latency);
    }
    return latency;
  };

  OpClock clk{raw, tr, a.trace};
  std::uint64_t units = 0, activations = 0, effective = 0;
  std::uint64_t bits = 0;
  const std::uint64_t cpu0 = cpu_ns();
  const std::uint64_t w0 = now_ns();
  const auto deadline = w0 + static_cast<std::uint64_t>(a.seconds * 1e9);
  // Ops cycle through the instance list; the first pass is the fixed fault
  // list, later passes replay it and must repeat every count.
  for (std::size_t k = 0; k < raw.min_ops || now_ns() < deadline; ++k) {
    const std::size_t i = k % kInstances;
    Instance& in = inst[i];
    const SimulationStats before = in.h->sim().stats();
    clk.start_op(100 + k);
    const auto latency = tamper_and_detect(in, i);
    clk.end_op();
    const SimulationStats& after = in.h->sim().stats();
    units += after.units - before.units;
    activations += after.activations - before.activations;
    effective += after.effective_steps - before.effective_steps;
    bits = std::max<std::uint64_t>(bits, after.peak_bits);
    if (latency && k < kInstances) raw.detect_units.push_back(double(*latency));
    if (!arm(in)) raw.fail("false alarm while re-arming");
  }
  raw.timed_wall_ns = now_ns() - w0;
  raw.timed_cpu_ns = cpu_ns() - cpu0;
  raw.node_steps = activations;
  raw.state_bits_max = bits;
  raw.count("state_bits_max", bits);
  raw.counters["units"] = double(units);
  raw.counters["activations"] = double(activations);
  raw.counters["effective_steps"] = double(effective);
  raw.counters["nodes"] = double(kN);

  // Replay the first instances (re-armed above): same counts again.
  tr.op = 1;
  for (std::size_t i = 0; i < kReplayOps; ++i) {
    (void)tamper_and_detect(inst[i], i);
    if (!arm(inst[i])) raw.fail("false alarm while re-arming");
  }

  if (a.trace) {
    tr.on = true;
    if (verify1_sweep(raw, tr, *inst[0].g, inst[0].h->sim()) != 0) {
      raw.fail("1-round label check rejected a quiet node");
    }
    ++raw.attempted;
  }
}

// ------------------------------------------------------------ fleet-mixed

/// The bench_service population: 3 faulted tenants per 8-slot stripe (two
/// repairable classes plus one structural), shapes and priorities varying
/// with the index.
service::TenantSpec fleet_spec(std::size_t i) {
  constexpr NodeId kBaseN = 48;
  service::TenantSpec spec;
  spec.n = static_cast<NodeId>(kBaseN + 8 * (i % 3));
  spec.family = (i % 2 == 0) ? campaign::GraphFamily::kRandom
                             : campaign::GraphFamily::kBoundedDegree;
  spec.priority = static_cast<std::uint32_t>(1 + i % 4);
  switch (i % 8) {
    case 1: spec.fault = service::TenantFault::kRegisterTamper; break;
    case 3: spec.fault = service::TenantFault::kAuxQueueDrop; break;
    case 5: spec.fault = service::TenantFault::kArenaTruncate; break;
    default: break;
  }
  return spec;
}

/// bench_service's containment gate for one tenant; nullptr when it holds.
const char* tenant_violation(const service::TenantReport& r,
                             const service::TenantSpec& spec) {
  using service::TenantOutcome;
  if (r.outcome == TenantOutcome::kShed) return "tenant shed";
  if (spec.fault != service::TenantFault::kNone) {
    if (r.outcome != TenantOutcome::kRepaired &&
        r.outcome != TenantOutcome::kQuarantined) {
      return "faulted tenant escaped repair-or-quarantine";
    }
    if (r.units_used > r.deadline_units) return "tenant overran its deadline";
  } else if (r.outcome != TenantOutcome::kHealthy) {
    return "healthy tenant did not finish healthy";
  }
  return nullptr;
}

void run_fleet_mixed(const Args& a, Raw& raw, Tracer& tr) {
  constexpr std::size_t kTenants = 512;
  constexpr unsigned kLanes = 2;
  constexpr int kSetupRepeats = 3;
  raw.min_ops = 2 * kTenants;
  // Drain d serves the population seeded by (seed, d): the same specs with
  // fresh graphs and faults, so the tail is taken over many distinct
  // tenants rather than the same few slow ones drain after drain.
  auto config = [&](std::uint64_t d) {
    return service::ServiceConfiguration()
        .threads(kLanes)
        .queue_capacity(4096)
        .service_seed(mix(a.seed, d))
        .wall_clock(&now_ns);
  };
  auto drain = [&](std::uint64_t d) {
    Span s(tr, "service.drain");
    service::VerificationService svc(config(d));
    for (std::size_t i = 0; i < kTenants; ++i) svc.submit(fleet_spec(i));
    return svc.drain();  // copied out before the service goes away
  };
  auto record = [&](std::uint64_t d,
                    const std::vector<service::TenantReport>& reports) {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const std::string key =
          "drain" + std::to_string(d) + ".tenant" + std::to_string(i);
      raw.count(key + ".digest", reports[i].result_digest);
      raw.count(key + ".units_used", reports[i].units_used);
    }
  };

  // Set-up: a discarded warm-up drain of population 0 (pool threads, arena
  // slabs), plus one warm verifier per tenant shape on the bench side for
  // the register-size and audit probes (tenants do not report register
  // sizes).
  std::vector<service::TenantReport> baseline;
  std::deque<Instance> warm;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    warm.clear();
    tr.op = static_cast<std::uint64_t>(rep);
    const std::uint64_t t0 = now_ns();
    {
      Span s(tr, "setup");
      baseline = drain(0);
      VerifierConfig vcfg;
      vcfg.sync_mode = false;
      for (std::size_t shape = 0; shape < 6; ++shape) {
        const service::TenantSpec spec = fleet_spec(shape);
        Instance& in = warm.emplace_back();
        in.seed = mix(a.seed, shape);
        Rng rng(in.seed);
        {
          Span s1(tr, "graph.generate");
          in.g = std::make_unique<WeightedGraph>(
              campaign::make_family_graph(spec.family, spec.n, rng));
        }
        {
          Span s1(tr, "verify.harness");
          in.h = std::make_unique<VerifierHarness>(*in.g, vcfg, in.seed);
        }
        Span s1(tr, "sim.warmup");
        if (in.h->run(64)) raw.fail("false alarm on a warm instance");
      }
    }
    raw.setup_s.push_back(double(now_ns() - t0) * 1e-9);
    record(0, baseline);
  }
  for (const Instance& in : warm) {
    raw.state_bits_max = std::max<std::uint64_t>(
        raw.state_bits_max, in.h->sim().stats().peak_bits);
  }
  raw.count("state_bits_max", raw.state_bits_max);

  // Tenants run inside the service, so ops are timed by the injected
  // clock (wall_ns) and tracing alternates whole drains.
  const std::uint64_t cpu0 = cpu_ns();
  const std::uint64_t w0 = now_ns();
  const auto deadline = w0 + static_cast<std::uint64_t>(a.seconds * 1e9);
  std::uint64_t drains = 0, busy_ns = 0, drain_ns = 0;
  for (; raw.op_wall_ns.size() < raw.min_ops || now_ns() < deadline;
       ++drains) {
    tr.op = 100 + drains;
    tr.on = a.trace && drains % 2 == 0;
    const std::uint64_t d0 = now_ns();
    const std::vector<service::TenantReport> reports = drain(drains);
    record(drains, reports);
    drain_ns += now_ns() - d0;
    std::uint64_t healthy = 0, repaired = 0, quarantined = 0, attempts = 0,
                  repairs = 0, reclaimed = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const service::TenantReport& r = reports[i];
      raw.op_wall_ns.push_back(double(r.wall_ns));
      raw.op_traced.push_back(tr.on ? 1 : 0);
      busy_ns += r.wall_ns;
      ++raw.attempted;
      if (const char* why = tenant_violation(r, fleet_spec(i))) {
        raw.fail(std::string(why) + " (tenant " + std::to_string(i) + ")");
      } else if (drains == 0 && !service::deterministic_equal(r, baseline[i])) {
        raw.fail("tenant " + std::to_string(i) +
                 " report differs from the warm-up drain");
      }
      using service::TenantOutcome;
      healthy += r.outcome == TenantOutcome::kHealthy;
      repaired += r.outcome == TenantOutcome::kRepaired;
      quarantined += r.outcome == TenantOutcome::kQuarantined;
      attempts += r.attempts;
      repairs += r.repairs;
      reclaimed += r.arena_bytes_reclaimed;
      if (drains == 0) {
        if (r.detected) raw.detect_units.push_back(double(r.detection_units));
        raw.samples["units_used"].push_back(double(r.units_used));
      }
    }
    const std::string key = "drain" + std::to_string(drains) + ".";
    raw.count(key + "healthy", healthy);
    raw.count(key + "repaired", repaired);
    raw.count(key + "quarantined", quarantined);
    raw.count(key + "attempts", attempts);
    raw.count(key + "repairs", repairs);
    raw.count(key + "reclaimed_bytes", reclaimed);
    if (drains == 0) {
      raw.counters["healthy"] = double(healthy);
      raw.counters["repaired"] = double(repaired);
      raw.counters["quarantined"] = double(quarantined);
      raw.counters["attempts"] = double(attempts);
      raw.counters["repairs"] = double(repairs);
      raw.counters["reclaimed_bytes"] = double(reclaimed);
    }
  }
  raw.timed_wall_ns = now_ns() - w0;
  raw.timed_cpu_ns = cpu_ns() - cpu0;
  raw.counters["lanes"] = kLanes;
  raw.counters["tenant_busy_ns"] = double(busy_ns);
  raw.counters["drain_ns"] = double(drain_ns);

  if (a.trace) {
    tr.on = true;
    tr.op = 1;
    // Contention baseline: population 0 run tenant by tenant, alone.
    for (std::size_t i = 0; i < kTenants; ++i) {
      Span s(tr, "service.run_solo");
      const auto r =
          service::VerificationService::run_solo(config(0), fleet_spec(i), i);
      raw.samples["solo_wall_ns"].push_back(double(r.wall_ns));
      ++raw.attempted;
      if (!service::deterministic_equal(r, baseline[i])) {
        raw.fail("solo report of tenant " + std::to_string(i) +
                 " differs from the fleet");
      }
    }
    for (int k = 0; k < 64; ++k) {
      Span s(tr, "sim.audit");
      ++raw.attempted;
      if (!warm.back().h->sim().audit().ok()) {
        raw.fail("audit of a warm instance failed");
      }
    }
  }
}

// ------------------------------------------------------- selfstab-recover

void run_selfstab_recover(const Args& a, Raw& raw, Tracer& tr) {
  constexpr NodeId kN = 1024;
  constexpr std::size_t kFaults = 16;
  constexpr std::size_t kReplayOps = 2;
  constexpr int kSetupRepeats = 5;
  raw.min_ops = 30;
  tr.op = 0;
  std::unique_ptr<WeightedGraph> gp;
  {
    Span s(tr, "graph.generate");
    Rng rng(a.seed);
    gp = std::make_unique<WeightedGraph>(gen::random_connected(kN, kN / 2, rng));
  }
  const WeightedGraph& g = *gp;
  TransformerOptions opt;
  opt.checker = CheckerKind::kTrainVerifier;
  opt.seed = mix(a.seed, 0);

  // Set-up repeats build identical systems; the last one serves the timed
  // ops, the one before it replays the first ops for the repeat check.
  std::unique_ptr<SelfStabilizingMst> sys, replay;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    replay = std::move(sys);
    tr.op = static_cast<std::uint64_t>(rep);
    const std::uint64_t t0 = now_ns();
    StabilizationReport r;
    {
      Span s(tr, "setup");
      sys = std::make_unique<SelfStabilizingMst>(g, opt);
      Span s1(tr, "selfstab.stabilize");
      r = sys->stabilize_from_arbitrary();
    }
    raw.setup_s.push_back(double(now_ns() - t0) * 1e-9);
    ++raw.attempted;
    if (!r.stabilized || !r.output_is_mst) {
      raw.fail("stabilize_from_arbitrary did not reach an MST");
    }
    raw.count("setup.total_units", r.total_time);
    raw.count("setup.iterations", r.iterations);
  }
  // Independent cross-check of the construction module the transformer
  // re-runs: the SYNC_MST tree on this graph is the oracle's MST.
  {
    const SyncMstRun run = run_sync_mst(g);
    std::vector<std::uint32_t> ports(kN, kNoPort);
    for (NodeId v = 0; v < kN; ++v) {
      if (v != run.tree->root()) ports[v] = run.tree->parent_port(v);
    }
    ++raw.attempted;
    if (!oracle::check_tree_is_mst(g, ports).ok) {
      raw.fail("oracle rejects the SYNC_MST tree");
    }
  }

  auto gate = [&](const StabilizationReport& r) {
    ++raw.attempted;
    if (!r.stabilized || !r.output_is_mst) {
      raw.fail("recovery did not end in an MST");
    }
  };
  auto record = [&](std::size_t i, const StabilizationReport& r) {
    const std::string k = "op" + std::to_string(i) + ".";
    raw.count(k + "detect_units", r.detect_time);
    raw.count(k + "reset_units", r.reset_time);
    raw.count(k + "build_units", r.build_time);
    raw.count(k + "mark_units", r.mark_time);
    raw.count(k + "iterations", r.iterations);
    raw.count(k + "state_bits", r.max_state_bits);
  };

  OpClock clk{raw, tr, a.trace};
  std::uint64_t bits = 0;
  const std::uint64_t cpu0 = cpu_ns();
  const std::uint64_t w0 = now_ns();
  const auto deadline = w0 + static_cast<std::uint64_t>(a.seconds * 1e9);
  for (std::size_t i = 0; raw.op_wall_ns.size() < raw.min_ops ||
                          now_ns() < deadline;
       ++i) {
    clk.start_op(100 + i);
    StabilizationReport r;
    {
      Span s(tr, "selfstab.recover");
      r = sys->recover_from_faults(kFaults);
    }
    clk.end_op();
    gate(r);
    if (i < raw.min_ops) {
      record(i, r);
      raw.detect_units.push_back(double(r.detect_time));
      raw.samples["detect_units"].push_back(double(r.detect_time));
      raw.samples["reset_units"].push_back(double(r.reset_time));
      raw.samples["build_units"].push_back(double(r.build_time));
      raw.samples["mark_units"].push_back(double(r.mark_time));
      raw.samples["iterations"].push_back(double(r.iterations));
      bits = std::max<std::uint64_t>(bits, r.max_state_bits);
    }
  }
  raw.timed_wall_ns = now_ns() - w0;
  raw.timed_cpu_ns = cpu_ns() - cpu0;
  raw.state_bits_max = bits;

  // Replay the first ops on the twin system: same seed, same counts.
  tr.on = a.trace;
  tr.op = 1;
  for (std::size_t i = 0; i < kReplayOps; ++i) {
    Span s(tr, "selfstab.recover");
    const StabilizationReport r = replay->recover_from_faults(kFaults);
    gate(r);
    record(i, r);
  }

  if (a.trace) {
    Rng daemon(mix(a.seed, 1));
    for (int k = 0; k < 3; ++k) {
      {
        Span s(tr, "selfstab.reset");
        (void)run_reset(g, {0}, /*sync_mode=*/true, daemon);
      }
      {
        Span s(tr, "mstalgo.sync_mst");
        (void)run_sync_mst(g);
      }
      Span s(tr, "labels.remark");
      (void)make_labels(g);
    }
  }
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.out.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed S --seconds T "
                 "--trace 0|1 --out RAW.json [--trace-out TRACE.json]\n");
    return 2;
  }
  Raw raw;
  raw.workload = a.workload;
  raw.seed = a.seed;
  Tracer tr;
  tr.on = a.trace;
  const std::uint64_t origin = now_ns();
  if (a.workload == "sync-scale") {
    run_sync_scale(a, raw, tr);
  } else if (a.workload == "train-detect") {
    run_train_detect(a, raw, tr);
  } else if (a.workload == "fleet-mixed") {
    run_fleet_mixed(a, raw, tr);
  } else if (a.workload == "selfstab-recover") {
    run_selfstab_recover(a, raw, tr);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (!write_raw(raw, a.out)) {
    std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
    return 1;
  }
  if (a.trace && !a.trace_out.empty() && !tr.write_chrome(a.trace_out, origin)) {
    std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
    return 1;
  }
  return 0;
}
