// election_sweep and failover_sweep: seed sweeps through
// ScenarioRunner::run_sweep on every CPU this process may use.
//
// Both workloads repeat one fixed grid ("round") until the run time is used
// up and report the median round; every round must reproduce the first one
// bit for bit.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "parallel/thread_pool.hpp"
#include "scenario/runner.hpp"

namespace perfbench {
namespace {

using namespace dyna;
using namespace std::chrono_literals;
using scenario::ScenarioResult;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::SweepSpec;
using scenario::Variant;
using Results = std::vector<ScenarioResult>;

cluster::ClusterConfig variant_config(Variant v, std::size_t servers, std::uint64_t seed) {
  return v == Variant::Raft ? cluster::make_raft_config(servers, seed)
                            : cluster::make_dynatune_config(servers, seed);
}

/// Run one sweep and return its wall time.
double timed_sweep(const SweepSpec& sweep, Results& out) {
  const auto t0 = Clock::now();
  out = ScenarioRunner::run_sweep(sweep);
  return seconds_since(t0);
}

/// Per-worker log of every trial's exact first-leader instant, keyed by the
/// trial's (variant, servers, seed).
class FirstLeaderLog final : public raft::Observer {
 public:
  using Key = std::tuple<int, std::size_t, std::uint64_t>;

  void start(Variant v, std::size_t servers, std::uint64_t seed) {
    key_ = {static_cast<int>(v), servers, seed};
    armed_ = true;
  }
  void on_leader_established(NodeId, raft::Term, TimePoint when) override {
    if (armed_) ms[key_] = to_ms(when);
    armed_ = false;
  }
  std::map<Key, double> ms;

 private:
  Key key_{};
  bool armed_ = false;
};

/// Observers a sweep attaches to every trial, one instance per worker.
struct SweepObservers {
  std::vector<TraceObserver>* trace = nullptr;
  std::vector<FirstLeaderLog>* first = nullptr;
};

/// The same sweep split per variant, each half building its configs through
/// a factory that attaches the calling worker's observers — the public way to
/// observe trials inside run_sweep. Results must equal the plain sweep's.
double timed_observed_sweep(const SweepSpec& sweep, SweepObservers obs, Results& out) {
  out.clear();
  double wall = 0.0;
  for (const Variant v : sweep.variants) {
    SweepSpec half = sweep;
    half.variants.clear();
    half.base.config_factory = [v, obs](std::size_t servers, std::uint64_t seed) {
      cluster::ClusterConfig c = variant_config(v, servers, seed);
      const auto worker = static_cast<std::size_t>(std::max(par::ThreadPool::current_worker(), 0));
      if (obs.trace != nullptr) c.observers.push_back(&(*obs.trace)[worker]);
      if (obs.first != nullptr) {
        FirstLeaderLog& log = (*obs.first)[worker];
        log.start(v, servers, seed);
        c.observers.push_back(&log);
      }
      return c;
    };
    Results part;
    wall += timed_sweep(half, part);
    out.insert(out.end(), part.begin(), part.end());
  }
  return wall;
}

/// Wall time to materialize one substrate per grid cell — the set-up a sweep
/// worker pays before its first trial. Sampled once after every round, so
/// the samples span the run rather than its cold start.
double sweep_setup_s(const SweepSpec& sweep, LayerAcc* acc) {
  const std::vector<std::size_t> sizes =
      sweep.sizes.empty() ? std::vector<std::size_t>{sweep.base.servers} : sweep.sizes;
  double total = 0.0;
  for (const Variant v : sweep.variants) {
    for (const std::size_t n : sizes) {
      ScenarioSpec spec = sweep.base;
      spec.variant = v;
      spec.servers = n;
      const auto t0 = Clock::now();
      const auto c = ScenarioRunner::materialize(spec);
      const double s = seconds_since(t0);
      total += s;
      if (acc != nullptr) acc->construct_us.push_back(s * 1e6);
    }
  }
  return total;
}

/// Single-threaded re-run of a few of the sweep's trials on one reused
/// substrate, through the calls the sweep itself makes (materialize, then
/// Cluster::reset(seed) + run_on per trial), with the trace observer
/// attached and the simulator, network and node counters read in between.
Results probe_trials(const ScenarioSpec& base, Variant v, std::size_t servers,
                     const std::vector<std::uint64_t>& seeds, LayerAcc& acc) {
  ScenarioSpec spec = base;
  spec.servers = servers;
  spec.config_factory = [v, &acc](std::size_t n, std::uint64_t seed) {
    cluster::ClusterConfig c = variant_config(v, n, seed);
    c.observers.push_back(&acc.obs);
    return c;
  };

  std::unique_ptr<cluster::Cluster> c;
  Results out;
  for (const std::uint64_t seed : seeds) {
    spec.seed = seed;
    const auto t0 = Clock::now();
    if (c == nullptr) {
      c = ScenarioRunner::materialize(spec);
      acc.construct_us.push_back(seconds_since(t0) * 1e6);
    } else {
      c->reset(seed);
      acc.reset_us.push_back(seconds_since(t0) * 1e6);
    }
    acc.obs.begin_trial();
    const std::size_t events0 = c->sim().executed();
    const TimePoint now0 = c->sim().now();
    const auto t1 = Clock::now();
    out.push_back(ScenarioRunner::run_on(*c, spec));
    acc.sim_wall_s += seconds_since(t1);
    acc.events += c->sim().executed() - events0;
    acc.sim_seconds += to_sec(c->sim().now() - now0);
    collect_cluster(*c, acc);
    if (v == Variant::Dynatune && spec.faults.kills == 0) collect_follower_timeouts(*c, acc);
  }
  if (v == Variant::Dynatune) {
    capture_rtts(*c, 2s, acc);
    probe_restart(*c, acc);
  }
  return out;
}

/// Time one ShardedCluster construction of the workload's group shape (a
/// single group here), so the shard layer's set-up is on record everywhere.
void probe_shard_construct(const ScenarioSpec& base, Variant v, std::size_t servers,
                           LayerAcc& acc) {
  ScenarioSpec spec = base;
  spec.variant = v;
  spec.servers = servers;
  spec.shards = 1;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    const auto sc = ScenarioRunner::materialize_sharded(spec);
    acc.shard_construct_ms.push_back(seconds_since(t0) * 1e3);
  }
}

/// Worker threads for the measured sweep rounds: half the CPUs. On a shared
/// host a sweep on every CPU lost a third of its throughput whenever another
/// tenant took a CPU, which single-threaded rounds did not see; half leaves
/// the scheduler room. parallel.speedup still compares all CPUs with one.
unsigned sweep_threads(const Options& opts) { return std::max(1u, opts.threads / 2); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::uint64_t expiries_of(const Results& rs) {
  std::uint64_t n = 0;
  for (const auto& r : rs) n += r.timer_expiries;
  return n;
}

void check_repeat(const char* workload, const Results& first, const Results& again, Checks& c) {
  c.expect(first == again, std::string(workload) +
                               ": a repeated round did not reproduce the first round bit for bit");
}

// ---- election_sweep ----------------------------------------------------------------------

constexpr Duration kElectionRtt = 50ms;
constexpr Duration kElectionJitter = 2ms;

struct ElectionShape {
  std::size_t seeds;          ///< seeds per (variant, size) cell
  std::size_t fresh_samples;  ///< trials rerun on freshly built substrates
  std::size_t probe_seeds;    ///< trials per cell in the traced probe pass
};
constexpr ElectionShape kElectionFull{10000, 24, 60};
constexpr ElectionShape kElectionSmall{40, 8, 4};

SweepSpec election_grid(std::uint64_t seed, std::size_t seeds, unsigned threads) {
  SweepSpec sweep;
  sweep.base.name = "election_sweep";
  sweep.base.topology = scenario::TopologySpec::constant(kElectionRtt, kElectionJitter, 0.01);
  sweep.base.await_leader = 10s;
  sweep.variants = {Variant::Raft, Variant::Dynatune};
  sweep.sizes = {5, 15};
  sweep.seeds = seeds;
  sweep.master_seed = derive_seed(seed, 0xE1EC7);
  sweep.threads = threads;
  return sweep;
}

/// What the election checks compare against.
struct ElectionModel {
  std::size_t trials = 0;        ///< grid size: every trial elects
  double raft_floor_ms = 0.0;    ///< static Et + one vote round trip
  std::uint64_t violations = 0;  ///< invariant violations allowed
};

ElectionModel election_model(const SweepSpec& sweep) {
  ElectionModel m;
  m.trials = sweep.variants.size() * sweep.sizes.size() * sweep.seeds;
  const double et = to_ms(cluster::make_raft_config(5, 1).raft.election_timeout);
  m.raft_floor_ms = et + to_ms(kElectionRtt) - 2.0 * to_ms(kElectionJitter);
  return m;
}

void check_elected(const Results& rs, const ElectionModel& m, Checks& c) {
  std::size_t elected = 0;
  std::uint64_t violations = 0;
  for (const auto& r : rs) {
    elected += r.leader_elected ? 1 : 0;
    violations += r.invariant_violations;
  }
  c.expect(elected == m.trials, "election_sweep: " + std::to_string(elected) + " of " +
                                    std::to_string(m.trials) + " trials elected a leader");
  c.expect(violations == m.violations,
           "election_sweep: " + std::to_string(violations) + " invariant violations");
}

/// Exact time to the first leader of every trial, in result order, from an
/// observed pass over the same grid (which must reproduce `rs`).
std::vector<double> first_leader_ms(const SweepSpec& sweep, const Results& rs, Checks& c) {
  std::vector<FirstLeaderLog> logs(sweep.threads);
  Results observed;
  (void)timed_observed_sweep(sweep, {nullptr, &logs}, observed);
  check_repeat("election_sweep (observed vs plain)", rs, observed, c);
  std::map<FirstLeaderLog::Key, double> all;
  for (const auto& log : logs) all.insert(log.ms.begin(), log.ms.end());
  std::vector<double> out;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const Variant v = sweep.variants[i / sweep.seeds / sweep.sizes.size()];
    const auto it = all.find({static_cast<int>(v), rs[i].servers, rs[i].seed});
    out.push_back(it == all.end() ? -1.0 : it->second);
  }
  return out;
}

/// No Raft trial may elect before its static timeout plus a vote round trip.
void check_raft_floor(const Results& rs, const std::vector<double>& elect_ms,
                      const ElectionModel& m, Checks& c) {
  std::size_t early = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (rs[i].variant == "Raft" && !(elect_ms[i] >= m.raft_floor_ms)) ++early;
  }
  c.expect(early == 0, "election_sweep: " + std::to_string(early) +
                           " Raft trials elected before Et + RTT = " +
                           std::to_string(m.raft_floor_ms) + " ms");
}

struct FreshRerun {
  std::size_t index = 0;
  ScenarioResult result;
  double first_leader_ms = -1.0;  ///< exact, from an observer
};

/// Rerun an evenly spaced sample of the grid, each trial on a freshly built
/// substrate via ScenarioRunner::run.
std::vector<FreshRerun> fresh_reruns(const SweepSpec& sweep, std::size_t samples) {
  const std::size_t total = sweep.variants.size() * sweep.sizes.size() * sweep.seeds;
  std::vector<FreshRerun> out;
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t i = k * total / samples + (k % sweep.seeds);
    if (i >= total) break;
    const std::size_t cell = i / sweep.seeds;
    const Variant v = sweep.variants[cell / sweep.sizes.size()];
    FirstLeaderLog first;
    first.start(v, 0, 0);
    ScenarioSpec spec = sweep.base;
    spec.servers = sweep.sizes[cell % sweep.sizes.size()];
    spec.seed = ScenarioRunner::sweep_seed(sweep, i % sweep.seeds);
    spec.config_factory = [v, &first](std::size_t servers, std::uint64_t seed) {
      cluster::ClusterConfig c = variant_config(v, servers, seed);
      c.observers.push_back(&first);
      return c;
    };
    FreshRerun f;
    f.index = i;
    f.result = ScenarioRunner::run(spec);
    if (!first.ms.empty()) f.first_leader_ms = first.ms.begin()->second;
    out.push_back(std::move(f));
  }
  return out;
}

void check_fresh(const Results& rs, const std::vector<double>& elect_ms,
                 const std::vector<FreshRerun>& fresh, Checks& c) {
  std::size_t differ = 0;
  for (const auto& f : fresh) {
    if (!(rs[f.index] == f.result) || elect_ms[f.index] != f.first_leader_ms) ++differ;
  }
  c.expect(differ == 0, "election_sweep: " + std::to_string(differ) + " of " +
                            std::to_string(fresh.size()) +
                            " trials rerun on fresh substrates differ from the reused-substrate "
                            "results");
}

struct ElectionRound {
  Results results;
  std::vector<double> rates;   ///< trials per wall second, per round
  std::vector<double> setups;  ///< one set-up sample after each round
  std::size_t rounds = 0;
};

void election_rounds(const SweepSpec& sweep, double seconds, ElectionRound& out, Checks& c) {
  const auto t0 = Clock::now();
  do {
    Results rs;
    const double wall = timed_sweep(sweep, rs);
    out.rates.push_back(static_cast<double>(rs.size()) / wall);
    out.setups.push_back(sweep_setup_s(sweep, nullptr));
    if (out.rounds == 0) {
      out.results = std::move(rs);
    } else {
      check_repeat("election_sweep", out.results, rs, c);
    }
    ++out.rounds;
  } while (seconds_since(t0) < seconds);
}

}  // namespace

RunResult run_election_sweep(const Options& opts, bool traced, double seconds) {
  RunResult res;
  const SweepSpec sweep = election_grid(opts.seed, kElectionFull.seeds, sweep_threads(opts));
  const ElectionModel model = election_model(sweep);
  LayerAcc acc;
  ElectionRound round;
  if (!traced) {
    election_rounds(sweep, seconds, round, res.checks);
  } else {
    // Observed rounds: observers attached through per-variant factories.
    std::vector<TraceObserver> per_worker(sweep.threads);
    const auto t0 = Clock::now();
    Results untraced;
    (void)timed_sweep(sweep, untraced);
    do {
      Results rs;
      const double wall = timed_observed_sweep(sweep, {&per_worker, nullptr}, rs);
      round.rates.push_back(static_cast<double>(rs.size()) / wall);
      round.setups.push_back(sweep_setup_s(sweep, &acc));
      check_repeat("election_sweep (traced vs untraced)", untraced, rs, res.checks);
      if (round.rounds == 0) {
        std::uint64_t observed = 0;
        for (const auto& o : per_worker) observed += o.expiries;
        acc.timer_expiries_per_round = observed;
        res.checks.expect(observed == expiries_of(rs),
                          "election_sweep: the trace observer saw " + std::to_string(observed) +
                              " timer expiries, the results report " +
                              std::to_string(expiries_of(rs)));
      }
      ++round.rounds;
    } while (seconds_since(t0) < seconds);
    round.results = std::move(untraced);
    ++round.rounds;  // the untraced reference round

    // Probe pass: a few trials per cell, single-threaded, fully counted.
    acc.obs.record = true;
    acc.obs.group_size = 1 << 20;
    for (std::size_t vi = 0; vi < sweep.variants.size(); ++vi) {
      for (std::size_t si = 0; si < sweep.sizes.size(); ++si) {
        std::vector<std::uint64_t> seeds;
        for (std::size_t k = 0; k < kElectionFull.probe_seeds; ++k) {
          seeds.push_back(ScenarioRunner::sweep_seed(sweep, k));
        }
        const Results probed =
            probe_trials(sweep.base, sweep.variants[vi], sweep.sizes[si], seeds, acc);
        const std::size_t cell = vi * sweep.sizes.size() + si;
        const Results expected(round.results.begin() + static_cast<std::ptrdiff_t>(cell * sweep.seeds),
                               round.results.begin() +
                                   static_cast<std::ptrdiff_t>(cell * sweep.seeds + seeds.size()));
        check_repeat("election_sweep (probe pass vs sweep)", expected, probed, res.checks);
        acc.ops += probed.size();
      }
    }
    probe_shard_construct(sweep.base, Variant::Dynatune, 5, acc);
    SweepSpec single = sweep;
    single.threads = 1;
    SweepSpec all = sweep;
    all.threads = opts.threads;
    Results rs1;
    const double rate1 = static_cast<double>(round.results.size()) / timed_sweep(single, rs1);
    Results rsn;
    const double raten = static_cast<double>(round.results.size()) / timed_sweep(all, rsn);
    acc.speedup = raten / rate1;
    check_repeat("election_sweep (1 thread vs all)", rs1, rsn, res.checks);
  }

  const std::vector<double> elect_ms = first_leader_ms(sweep, round.results, res.checks);
  check_elected(round.results, model, res.checks);
  check_raft_floor(round.results, elect_ms, model, res.checks);
  check_fresh(round.results, elect_ms, fresh_reruns(sweep, kElectionFull.fresh_samples),
              res.checks);

  std::vector<double> by_cell[4];
  for (std::size_t i = 0; i < round.results.size(); ++i) {
    by_cell[std::min<std::size_t>(i / sweep.seeds, 3)].push_back(elect_ms[i]);
  }
  res.attempted = round.results.size() * round.rounds;
  res.failed = 0;
  for (const auto& r : round.results) res.failed += r.leader_elected ? 0 : round.rounds;
  res.host.ops_per_wall_s = median(round.rates);
  res.host.setup_s = median(round.setups);
  res.notes.push_back(rate_note(round.rates));
  res.host.peak_rss_mib = peak_rss_mib();
  res.op_latency_ms_p50 = percentile(elect_ms, 0.5);
  res.op_latency_ms_p99 = percentile(elect_ms, 0.99);
  res.report = {
      {"trials_per_s", res.host.ops_per_wall_s, "trials/s"},
      {"time_to_leader_ms_p50", res.op_latency_ms_p50, "sim_ms"},
      {"time_to_leader_ms_p99", res.op_latency_ms_p99, "sim_ms"},
      {"raft_n5_time_to_leader_ms_p50", median(by_cell[0]), "sim_ms"},
      {"raft_n15_time_to_leader_ms_p50", median(by_cell[1]), "sim_ms"},
      {"dynatune_n5_time_to_leader_ms_p50", median(by_cell[2]), "sim_ms"},
      {"dynatune_n15_time_to_leader_ms_p50", median(by_cell[3]), "sim_ms"},
  };
  res.notes.push_back(std::to_string(round.rounds) + " rounds of " +
                      std::to_string(round.results.size()) + " trials on " +
                      std::to_string(sweep.threads) + " threads");
  if (traced) res.layers = layer_metrics(acc, res.checks);
  return res;
}

bool self_test_election_sweep(const Options& opts) {
  const SweepSpec sweep = election_grid(opts.seed, kElectionSmall.seeds, sweep_threads(opts));
  const ElectionModel model = election_model(sweep);
  Results rs;
  (void)timed_sweep(sweep, rs);
  Results again;
  (void)timed_sweep(sweep, again);
  const std::vector<FreshRerun> fresh = fresh_reruns(sweep, kElectionSmall.fresh_samples);
  Checks observed;
  const std::vector<double> elect_ms = first_leader_ms(sweep, rs, observed);
  bool ok = observed.ok();
  const auto run = [&](const char* name, auto&& check_pristine, auto&& check_corrupted) {
    Checks pristine;
    Checks corrupted;
    check_pristine(pristine);
    check_corrupted(corrupted);
    ok = expect_fires("election_sweep", name, pristine, corrupted) && ok;
  };
  ElectionModel more = model;
  more.trials += 1;
  run("every trial elects", [&](Checks& c) { check_elected(rs, model, c); },
      [&](Checks& c) { check_elected(rs, more, c); });
  ElectionModel strict = model;
  strict.violations = 1;
  run("invariant violations", [&](Checks& c) { check_elected(rs, model, c); },
      [&](Checks& c) { check_elected(rs, strict, c); });
  ElectionModel late = model;
  late.raft_floor_ms = 1e6;
  run("Raft elects after Et + RTT", [&](Checks& c) { check_raft_floor(rs, elect_ms, model, c); },
      [&](Checks& c) { check_raft_floor(rs, elect_ms, late, c); });
  std::vector<FreshRerun> bad_fresh = fresh;
  bad_fresh.front().first_leader_ms += 0.001;
  run("fresh substrate == reused", [&](Checks& c) { check_fresh(rs, elect_ms, fresh, c); },
      [&](Checks& c) { check_fresh(rs, elect_ms, bad_fresh, c); });
  Results bad_first = rs;
  bad_first.back().timer_expiries += 1;
  run("rounds repeat exactly", [&](Checks& c) { check_repeat("election_sweep", rs, again, c); },
      [&](Checks& c) { check_repeat("election_sweep", bad_first, again, c); });
  return ok;
}

// ---- failover_sweep ----------------------------------------------------------------------

namespace {

constexpr std::size_t kKillsPerTrial = 25;

struct FailoverShape {
  std::size_t trials;        ///< per variant
  std::size_t probe_trials;  ///< per variant, traced probe pass
};
constexpr FailoverShape kFailoverFull{44, 2};
constexpr FailoverShape kFailoverSmall{4, 1};

/// The paper's §IV-B1 setup as bench/fig4_election runs it: n=5, constant
/// 100 ms RTT, the testbed stall process, 25 pause/resume leader kills per
/// trial with a 10 s settle. The master seeds are fixed (Raft 1, Dynatune 2,
/// fig4_election's defaults), not taken from --seed: a few kills fail
/// because of a fault in the program (see README), and only fixed inputs
/// make that failed share the same in every run.
SweepSpec failover_sweep(Variant v, std::size_t trials, unsigned threads) {
  SweepSpec sweep;
  sweep.base.name = "failover_sweep";
  sweep.base.servers = 5;
  sweep.base.topology = scenario::TopologySpec::constant(100ms);
  sweep.base.transport.stall = scenario::testbed_stalls();
  sweep.base.faults = scenario::FaultPlan::leader_kills(kKillsPerTrial, 10s);
  sweep.variants = {v};
  sweep.seeds = trials;
  sweep.master_seed = v == Variant::Raft ? 1 : 2;
  sweep.threads = threads;
  return sweep;
}

struct FailoverModel {
  double detection_floor_ms = 0.0;  ///< every completed kill: floor < detection <= OTS
  double raft_et_ms = 0.0;          ///< Raft median detection in [Et - h, 2 Et]
  double raft_h_ms = 0.0;
  double dynatune_ratio = 1.0;      ///< Dynatune medians below ratio x Raft's
  std::uint64_t violations = 0;
};

FailoverModel failover_model() {
  FailoverModel m;
  const cluster::ClusterConfig raft = cluster::make_raft_config(5, 1);
  m.raft_et_ms = to_ms(raft.raft.election_timeout);
  m.raft_h_ms = to_ms(raft.raft.heartbeat_interval);
  return m;
}

struct Kills {
  std::vector<double> detection, ots, timer_at_kill;
  std::size_t attempted = 0;
  std::size_t settle_without_leader = 0;  ///< the run_failovers fault
  std::size_t kill_unmeasured = 0;        ///< a kill was made, no detection or successor followed
};

Kills kills_of(const Results& rs) {
  Kills k;
  for (const auto& r : rs) {
    for (const auto& s : r.failovers) {
      ++k.attempted;
      if (s.ok) {
        k.detection.push_back(s.detection_ms);
        k.ots.push_back(s.ots_ms);
        k.timer_at_kill.push_back(s.mean_randomized_ms);
      } else if (s.mean_randomized_ms == 0.0) {
        // No kill was made: run_failovers found no leader when the settle
        // ended and recorded the kill as failed instead of waiting.
        ++k.settle_without_leader;
      } else {
        ++k.kill_unmeasured;
      }
    }
  }
  return k;
}

void check_failovers(const Results& raft_rs, const Results& dyna_rs, const FailoverModel& m,
                     Checks& c) {
  const Kills raft = kills_of(raft_rs);
  const Kills dyna = kills_of(dyna_rs);
  std::size_t bad = 0;
  for (const Kills* k : {&raft, &dyna}) {
    for (std::size_t i = 0; i < k->detection.size(); ++i) {
      if (!(k->detection[i] > m.detection_floor_ms && k->detection[i] <= k->ots[i])) ++bad;
    }
  }
  c.expect(bad == 0, "failover_sweep: " + std::to_string(bad) +
                         " completed kills violate 0 < detection <= OTS");
  const double raft_det = median(raft.detection);
  c.expect(raft_det >= m.raft_et_ms - m.raft_h_ms && raft_det <= 2.0 * m.raft_et_ms,
           "failover_sweep: Raft median detection " + std::to_string(raft_det) +
               " ms outside [Et - h, 2 Et]");
  const double dyna_det = median(dyna.detection);
  const double dyna_ots = median(dyna.ots);
  const double raft_ots = median(raft.ots);
  c.expect(dyna_det < m.dynatune_ratio * raft_det,
           "failover_sweep: Dynatune median detection " + std::to_string(dyna_det) +
               " ms is not below Raft's " + std::to_string(raft_det) + " ms");
  c.expect(dyna_ots < m.dynatune_ratio * raft_ots,
           "failover_sweep: Dynatune median OTS " + std::to_string(dyna_ots) +
               " ms is not below Raft's " + std::to_string(raft_ots) + " ms");
  std::uint64_t violations = 0;
  for (const Results* rs : {&raft_rs, &dyna_rs}) {
    for (const auto& r : *rs) violations += r.invariant_violations;
  }
  c.expect(violations == m.violations,
           "failover_sweep: " + std::to_string(violations) + " invariant violations");
}

}  // namespace

RunResult run_failover_sweep(const Options& opts, bool traced, double seconds) {
  RunResult res;
  const SweepSpec raft_sweep =
      failover_sweep(Variant::Raft, kFailoverFull.trials, sweep_threads(opts));
  const SweepSpec dyna_sweep =
      failover_sweep(Variant::Dynatune, kFailoverFull.trials, sweep_threads(opts));
  LayerAcc acc;
  SweepSpec both = raft_sweep;
  both.variants = {Variant::Raft, Variant::Dynatune};
  std::vector<double> setups;

  std::vector<TraceObserver> per_worker(raft_sweep.threads);
  // A round runs both sweeps twice: a 44-trial sweep on all CPUs is short
  // enough that pool start-up and its slowest worker set much of its time,
  // and two passes per round halve that share of the round-to-round spread.
  constexpr std::size_t kPassesPerRound = 2;
  const auto round_fn = [&](Results& raft_rs, Results& dyna_rs, bool observe) {
    double wall = 0.0;
    for (std::size_t pass = 0; pass < kPassesPerRound; ++pass) {
      Results r;
      Results d;
      wall += observe ? timed_observed_sweep(raft_sweep, {&per_worker, nullptr}, r) +
                            timed_observed_sweep(dyna_sweep, {&per_worker, nullptr}, d)
                      : timed_sweep(raft_sweep, r) + timed_sweep(dyna_sweep, d);
      if (pass == 0) {
        raft_rs = std::move(r);
        dyna_rs = std::move(d);
      } else {
        check_repeat("failover_sweep (Raft)", raft_rs, r, res.checks);
        check_repeat("failover_sweep (Dynatune)", dyna_rs, d, res.checks);
      }
    }
    return wall;
  };

  // The first round is untraced and is the reference every later round must
  // reproduce; untraced runs time it too.
  Results raft_rs;
  Results dyna_rs;
  std::vector<double> rates;
  const auto t0 = Clock::now();
  const double first_wall = round_fn(raft_rs, dyna_rs, false);
  const std::size_t per_pass = kills_of(raft_rs).attempted + kills_of(dyna_rs).attempted;
  const std::size_t per_round = kPassesPerRound * per_pass;
  if (!traced) {
    rates.push_back(static_cast<double>(per_round) / first_wall);
    setups.push_back(sweep_setup_s(both, nullptr));
  }
  std::size_t rounds = 1;
  while (seconds_since(t0) < seconds || rates.empty()) {
    Results r2;
    Results d2;
    const double wall = round_fn(r2, d2, traced);
    rates.push_back(static_cast<double>(per_round) / wall);
    setups.push_back(sweep_setup_s(both, traced ? &acc : nullptr));
    check_repeat("failover_sweep (Raft)", raft_rs, r2, res.checks);
    check_repeat("failover_sweep (Dynatune)", dyna_rs, d2, res.checks);
    if (traced && rounds == 1) {
      std::uint64_t observed = 0;
      for (const auto& o : per_worker) observed += o.expiries;
      acc.timer_expiries_per_round = observed / kPassesPerRound;
      res.checks.expect(observed == kPassesPerRound * (expiries_of(r2) + expiries_of(d2)),
                        "failover_sweep: the trace observer's timer expiries disagree with the "
                        "results");
    }
    ++rounds;
  }
  check_failovers(raft_rs, dyna_rs, failover_model(), res.checks);

  const Kills raft = kills_of(raft_rs);
  const Kills dyna = kills_of(dyna_rs);
  const std::size_t failed_per_round =
      kPassesPerRound * (per_pass - raft.detection.size() - dyna.detection.size());
  res.attempted = per_round * rounds;
  res.failed = failed_per_round * rounds;
  res.host.ops_per_wall_s = median(rates);
  res.host.setup_s = median(setups);
  res.notes.push_back(rate_note(rates));
  res.host.peak_rss_mib = peak_rss_mib();
  res.op_latency_ms_p50 = percentile(dyna.ots, 0.5);
  res.op_latency_ms_p99 = percentile(dyna.ots, 0.99);
  res.report = {
      {"failovers_per_s", res.host.ops_per_wall_s, "kills/s"},
      {"detection_ms_p50", percentile(dyna.detection, 0.5), "sim_ms"},
      {"detection_ms_p99", percentile(dyna.detection, 0.99), "sim_ms"},
      {"ots_ms_p50", res.op_latency_ms_p50, "sim_ms"},
      {"ots_ms_p99", res.op_latency_ms_p99, "sim_ms"},
      {"baseline_detection_ms_p50", percentile(raft.detection, 0.5), "sim_ms"},
      {"baseline_ots_ms_p50", percentile(raft.ots, 0.5), "sim_ms"},
  };
  char line[512];
  std::snprintf(line, sizeof line,
                "kills per pass: Raft %zu (%zu completed), Dynatune %zu (%zu completed); "
                "%zu rounds of %zu passes on %u threads",
                raft.attempted, raft.detection.size(), dyna.attempted, dyna.detection.size(),
                rounds, kPassesPerRound, raft_sweep.threads);
  res.notes.emplace_back(line);
  std::snprintf(line, sizeof line,
                "failed kills per pass: %zu because run_failovers found no leader when the "
                "10 s settle ended (it records the kill as failed instead of waiting for the "
                "next leader; Raft %zu, Dynatune %zu), %zu made with no timer expiry or "
                "successor after the kill",
                raft.settle_without_leader + dyna.settle_without_leader,
                raft.settle_without_leader, dyna.settle_without_leader,
                raft.kill_unmeasured + dyna.kill_unmeasured);
  res.notes.emplace_back(line);
  std::snprintf(line, sizeof line,
                "mean (paper Fig 4 in brackets): detection Raft %.0f [1205] Dynatune %.0f [237] "
                "ms; OTS Raft %.0f [1449] Dynatune %.0f [797] ms",
                mean(raft.detection), mean(dyna.detection), mean(raft.ots), mean(dyna.ots));
  res.notes.emplace_back(line);

  if (traced) {
    acc.obs.record = true;
    acc.obs.group_size = 1 << 20;
    for (const SweepSpec* sweep : {&raft_sweep, &dyna_sweep}) {
      std::vector<std::uint64_t> seeds;
      for (std::size_t k = 0; k < kFailoverFull.probe_trials; ++k) {
        seeds.push_back(ScenarioRunner::sweep_seed(*sweep, k));
      }
      const Variant v = sweep->variants.front();
      const Results probed = probe_trials(sweep->base, v, 5, seeds, acc);
      const Results& all = v == Variant::Raft ? raft_rs : dyna_rs;
      check_repeat("failover_sweep (probe pass vs sweep)",
                   Results(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(seeds.size())),
                   probed, res.checks);
      for (const auto& r : probed) acc.ops += r.failovers.size();
    }
    acc.et_ms = dyna.timer_at_kill;
    probe_shard_construct(dyna_sweep.base, Variant::Dynatune, 5, acc);
    SweepSpec r1 = raft_sweep;
    SweepSpec d1 = dyna_sweep;
    r1.threads = d1.threads = 1;
    SweepSpec rn = raft_sweep;
    SweepSpec dn = dyna_sweep;
    rn.threads = dn.threads = opts.threads;
    Results a;
    Results b;
    const double wall1 = timed_sweep(r1, a) + timed_sweep(d1, b);
    const double walln = timed_sweep(rn, a) + timed_sweep(dn, b);
    acc.speedup = wall1 / walln;
    res.layers = layer_metrics(acc, res.checks);
  }
  return res;
}

bool self_test_failover_sweep(const Options& opts) {
  Results raft_rs;
  Results dyna_rs;
  (void)timed_sweep(failover_sweep(Variant::Raft, kFailoverSmall.trials, sweep_threads(opts)),
                    raft_rs);
  (void)timed_sweep(failover_sweep(Variant::Dynatune, kFailoverSmall.trials, sweep_threads(opts)),
                    dyna_rs);
  const FailoverModel model = failover_model();
  bool ok = true;
  const auto run = [&](const char* name, const FailoverModel& bad) {
    Checks pristine;
    Checks corrupted;
    check_failovers(raft_rs, dyna_rs, model, pristine);
    check_failovers(raft_rs, dyna_rs, bad, corrupted);
    ok = expect_fires("failover_sweep", name, pristine, corrupted) && ok;
  };
  FailoverModel m = model;
  m.detection_floor_ms = 1e6;
  run("0 < detection <= OTS", m);
  m = model;
  m.raft_et_ms = 100.0;
  run("Raft detection in [Et-h, 2Et]", m);
  m = model;
  m.dynatune_ratio = 0.01;
  run("Dynatune below Raft", m);
  m = model;
  m.violations = 1;
  run("invariant violations", m);
  Results bad = raft_rs;
  bad.front().failovers.front().ots_ms += 1.0;
  Checks pristine;
  Checks corrupted;
  check_repeat("failover_sweep", raft_rs, raft_rs, pristine);
  check_repeat("failover_sweep", bad, raft_rs, corrupted);
  ok = expect_fires("failover_sweep", "rounds repeat exactly", pristine, corrupted) && ok;
  return ok;
}

}  // namespace perfbench
