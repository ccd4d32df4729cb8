// kv_write and sharded_read_mostly: closed-loop KV sessions submitted through
// kv::KvClient / shard::ShardedKvClient and checked against the benchmark's
// own key -> last-acknowledged-value model.
//
// Every session owns its keys and runs a fixed, seed-generated list of
// operations one at a time, so the model is exact: after the load the
// stores must equal it, each store's revision must equal the PUTs
// acknowledged to its group (exactly-once apply), and every GET must return
// the session's last acknowledged value. A run repeats one round (build,
// elect, load, drain, check) until its time is used up; every round must
// reproduce the first.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "kvstore/client.hpp"
#include "parallel/trial_runner.hpp"
#include "shard/client.hpp"
#include "shard/sharded_cluster.hpp"

namespace perfbench {
namespace {

using namespace dyna;
using namespace std::chrono_literals;

// ---- Inputs ------------------------------------------------------------------------------

struct KvShape {
  std::size_t sessions;
  std::size_t keys_per_session;
  std::size_t ops_per_session;  ///< after the preload
  double get_ratio;
  std::size_t value_min;
  std::size_t value_max;
  bool preload;  ///< each session first PUTs each of its keys once
};

struct PlanOp {
  bool get = false;
  std::uint32_t key = 0;
  std::string value;
};

struct Plan {
  std::vector<std::vector<std::string>> keys;  ///< per session
  std::vector<std::vector<PlanOp>> ops;        ///< per session
  std::size_t total = 0;
};

std::string random_value(InputRng& rng, std::size_t lo, std::size_t hi) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string v(rng.between(lo, hi), '\0');
  for (char& ch : v) ch = kAlphabet[rng.next() % (sizeof kAlphabet - 1)];
  return v;
}

Plan make_plan(const KvShape& shape, std::uint64_t seed, const char* prefix) {
  InputRng rng(seed);
  Plan plan;
  plan.keys.resize(shape.sessions);
  plan.ops.resize(shape.sessions);
  for (std::size_t s = 0; s < shape.sessions; ++s) {
    for (std::size_t k = 0; k < shape.keys_per_session; ++k) {
      plan.keys[s].push_back(std::string(prefix) + std::to_string(s) + "-k" + std::to_string(k));
      if (shape.preload) {
        plan.ops[s].push_back(
            {false, static_cast<std::uint32_t>(k), random_value(rng, shape.value_min, shape.value_max)});
      }
    }
    for (std::size_t i = 0; i < shape.ops_per_session; ++i) {
      PlanOp op;
      op.get = rng.unit() < shape.get_ratio;
      op.key = static_cast<std::uint32_t>(rng.between(0, shape.keys_per_session - 1));
      if (!op.get) op.value = random_value(rng, shape.value_min, shape.value_max);
      plan.ops[s].push_back(std::move(op));
    }
    plan.total += plan.ops[s].size();
  }
  return plan;
}

// ---- Model and outputs -------------------------------------------------------------------

/// The benchmark's own record of what the program must hold.
struct KvModel {
  std::unordered_map<std::string, std::string> values;  ///< key -> last acknowledged value
  std::vector<std::uint64_t> acked_puts;                 ///< per group
  std::size_t groups = 1;         ///< FNV-1a mod groups names a key's group
  std::uint64_t violations = 0;   ///< invariant violations allowed
};

std::size_t group_of(std::string_view key, std::size_t groups) {
  return groups == 1 ? 0 : static_cast<std::size_t>(fnv1a(key) % groups);
}

struct GetObs {
  std::string key;
  std::string got;
  std::string expected;  ///< the model's value when the GET completed
};

struct Replica {
  std::size_t group = 0;
  NodeId id = kNoNode;
  std::uint64_t revision = 0;
  kv::KvStateMachine::Store data;
};

struct KvRound {
  double setup_s = 0.0;
  double load_wall_s = 0.0;
  double load_sim_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  std::vector<double> latency_ms;  ///< completion order
  KvModel model;
  std::vector<GetObs> gets;
  std::vector<Replica> replicas;
  std::uint64_t violations = 0;
  bool restarted = false;    ///< kv_write: a follower was crashed and restarted
  double catchup_ms = -1.0;  ///< restart -> caught up (simulated)
  bool drained = false;

  /// Everything a repeated round must reproduce.
  [[nodiscard]] bool same_outputs(const KvRound& o) const {
    if (latency_ms != o.latency_ms || model.values != o.model.values ||
        model.acked_puts != o.model.acked_puts || replicas.size() != o.replicas.size() ||
        catchup_ms != o.catchup_ms) {
      return false;
    }
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      if (replicas[i].revision != o.replicas[i].revision || replicas[i].data != o.replicas[i].data) {
        return false;
      }
    }
    return true;
  }
};

void check_stores(const std::vector<Replica>& replicas, const KvModel& m, Checks& c) {
  std::vector<std::unordered_map<std::string, std::string>> want(m.groups);
  for (const auto& [key, value] : m.values) want[group_of(key, m.groups)].emplace(key, value);
  std::size_t bad = 0;
  for (const Replica& r : replicas) {
    const auto& expected = want[r.group];
    bool same = r.data.size() == expected.size();
    for (auto it = expected.begin(); same && it != expected.end(); ++it) {
      const auto found = r.data.find(it->first);
      same = found != r.data.end() && found->second == it->second;
    }
    if (!same) ++bad;
  }
  c.expect(bad == 0, std::to_string(bad) + " of " + std::to_string(replicas.size()) +
                         " replica stores differ from the key -> last-acknowledged-value model");
}

void check_revisions(const std::vector<Replica>& replicas, const KvModel& m, Checks& c) {
  std::size_t bad = 0;
  for (const Replica& r : replicas) {
    if (r.revision != m.acked_puts[r.group]) ++bad;
  }
  c.expect(bad == 0, std::to_string(bad) +
                         " replicas have a revision other than their group's acknowledged PUTs "
                         "(exactly-once apply)");
}

void check_gets(const std::vector<GetObs>& gets, Checks& c) {
  std::size_t bad = 0;
  for (const GetObs& g : gets) bad += g.got == g.expected ? 0 : 1;
  c.expect(bad == 0, std::to_string(bad) + " of " + std::to_string(gets.size()) +
                         " GETs returned something other than the model's value");
}

void check_placement(const std::vector<Replica>& replicas, std::size_t groups, Checks& c) {
  std::size_t misplaced = 0;
  for (const Replica& r : replicas) {
    for (const auto& [key, value] : r.data) misplaced += group_of(key, groups) == r.group ? 0 : 1;
  }
  c.expect(misplaced == 0, std::to_string(misplaced) +
                               " stored keys sit outside the shard FNV-1a mod k names");
}

void check_violations(std::uint64_t seen, const KvModel& m, Checks& c) {
  c.expect(seen == m.violations, std::to_string(seen) + " invariant violations");
}

void check_round(const KvRound& r, Checks& c) {
  c.expect(r.drained, "replicas did not converge after the load");
  c.expect(!r.restarted || r.catchup_ms >= 0.0,
           "the restarted follower never caught up with the leader's commit index");
  check_stores(r.replicas, r.model, c);
  check_revisions(r.replicas, r.model, c);
  check_gets(r.gets, c);
  check_placement(r.replicas, r.model.groups, c);
  check_violations(r.violations, r.model, c);
}

// ---- Load driver -------------------------------------------------------------------------

/// Closed-loop sessions: each issues its next planned op only after the
/// previous one completed. Works with kv::KvClient and shard::ShardedKvClient.
template <typename Client>
class KvLoad {
 public:
  KvLoad(const Plan& plan, std::vector<std::unique_ptr<Client>>& clients, sim::Simulator& sim,
         KvRound& out)
      : plan_(&plan), clients_(&clients), sim_(&sim), out_(&out), next_(plan.ops.size(), 0) {}

  void start() {
    for (std::size_t s = 0; s < next_.size(); ++s) issue(s);
  }
  [[nodiscard]] bool done() const noexcept { return finished_ == next_.size(); }
  [[nodiscard]] std::uint64_t completed() const noexcept { return out_->ops; }
  [[nodiscard]] TimePoint last_completion() const noexcept { return last_; }

 private:
  void issue(std::size_t s) {
    if (next_[s] == plan_->ops[s].size()) {
      ++finished_;
      return;
    }
    const PlanOp& op = plan_->ops[s][next_[s]++];
    const std::string& key = plan_->keys[s][op.key];
    Client& client = *(*clients_)[s];
    if (op.get) {
      client.get(key, [this, s, &key](const kv::ClientResult& r) {
        if (r.ok) {
          const auto it = out_->model.values.find(key);
          out_->gets.push_back({key, r.value, it == out_->model.values.end() ? "(nil)" : it->second});
        }
        finish(s, r);
      });
    } else {
      client.put(key, op.value, [this, s, &key, &op](const kv::ClientResult& r) {
        if (r.ok) {
          out_->model.values[key] = op.value;
          ++out_->model.acked_puts[group_of(key, out_->model.groups)];
        }
        finish(s, r);
      });
    }
  }

  void finish(std::size_t s, const kv::ClientResult& r) {
    ++out_->ops;
    out_->failed += r.ok ? 0 : 1;
    out_->attempts += static_cast<std::uint64_t>(r.attempts);
    out_->latency_ms.push_back(to_ms(r.latency));
    last_ = sim_->now();
    issue(s);
  }

  const Plan* plan_;
  std::vector<std::unique_ptr<Client>>* clients_;
  sim::Simulator* sim_;
  KvRound* out_;
  std::vector<std::size_t> next_;
  std::size_t finished_ = 0;
  TimePoint last_{};
};

/// Advance until every running replica has applied its leader's commit index.
bool drain(cluster::Cluster& c) {
  for (int step = 0; step < 1000; ++step) {
    const NodeId leader = c.current_leader();
    if (leader != kNoNode) {
      const raft::LogIndex commit = c.node(leader).commit_index();
      bool converged = true;
      for (const NodeId id : c.server_ids()) {
        raft::RaftNode* n = c.node_if_alive(id);
        if (n == nullptr || n->last_applied() < commit) converged = false;
      }
      if (converged) return true;
    }
    c.sim().run_for(10ms);
  }
  return false;
}

void capture_replicas(cluster::Cluster& c, std::size_t group, KvRound& out) {
  for (const NodeId id : c.server_ids()) {
    const kv::KvStateMachine& sm = c.state_machine(id);
    out.replicas.push_back({group, id, sm.revision(), sm.data()});
  }
}

void poll_rtts(cluster::Cluster& c, LayerAcc& acc) {
  const NodeId leader = c.current_leader();
  if (leader == kNoNode) return;
  for (const NodeId id : c.server_ids()) {
    if (id == leader) continue;
    if (const auto rtt = c.node(leader).last_measured_rtt(id)) acc.rtt_ms.push_back(to_ms(*rtt));
  }
}

double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

/// Whole-round counters of a traced round (construction to drained). Only
/// the first traced round records the commit stream for the replays.
void add_round_counters(sim::Simulator& sim, double round_wall_s, const KvRound& out,
                        LayerAcc& acc) {
  acc.sim_wall_s += round_wall_s;
  acc.events += sim.executed();
  acc.sim_seconds += to_sec(sim.now());
  acc.ops += out.ops;
  acc.client_attempts += out.attempts;
  if (acc.obs.record) {
    acc.timer_expiries_per_round = acc.obs.expiries;
    acc.rounds = 0;
  }
  ++acc.rounds;
}

// ---- kv_write ----------------------------------------------------------------------------

constexpr KvShape kKvWrite{64, 16, 200, 0.0, 256, 1024, false};
constexpr KvShape kKvWriteSmall{16, 4, 30, 0.0, 256, 1024, false};

/// One Dynatune group on a LAN-like link: group commit, the grouped CPU
/// model (a commit round costs 2 ms plus 50 us per command) and snapshot
/// compaction small enough that a follower down for 40% of the load must
/// catch up through InstallSnapshot.
cluster::ClusterConfig kv_write_config(std::size_t servers, std::uint64_t seed) {
  cluster::ClusterConfig cfg = cluster::make_dynatune_config(servers, seed);
  net::LinkCondition link;
  link.rtt = 2ms;
  link.jitter = 200us;
  cfg.links = net::ConditionSchedule::constant(link);
  cfg.raft.group_commit = true;
  cfg.round_service_time = 2000us;
  cfg.command_service_time = 50us;
  cfg.raft.snapshot_threshold = 64;
  cfg.raft.snapshot_trailing = 16;
  cfg.durable_log = true;
  return cfg;
}

KvRound kv_write_round(const Plan& plan, std::size_t servers, std::uint64_t seed, LayerAcc* acc) {
  KvRound out;
  out.model.acked_puts.assign(1, 0);
  cluster::ClusterConfig cfg = kv_write_config(servers, seed);
  if (acc != nullptr) {
    acc->obs.begin_trial();
    acc->obs.group_size = 1 << 20;  // one group
    cfg.observers.push_back(&acc->obs);
  }
  const auto t0 = Clock::now();
  auto c = std::make_unique<cluster::Cluster>(cfg);
  if (acc != nullptr) acc->construct_us.push_back(us_since(t0));
  if (!c->await_leader(30s)) return out;
  c->sim().run_for(1s);  // Dynatune warm-up: the followers tune Et/h
  std::vector<std::unique_ptr<kv::KvClient>> clients;
  for (std::size_t s = 0; s < plan.ops.size(); ++s) {
    clients.push_back(std::make_unique<kv::KvClient>(c->sim(), c->network(), c->server_ids(),
                                                     Rng(derive_seed(seed, 0xC100 + s))));
  }
  out.setup_s = seconds_since(t0);

  // A follower crashes after 20% of the operations and restarts after 60%.
  const std::uint64_t crash_at = plan.total / 5;
  const std::uint64_t restart_at = plan.total * 3 / 5;
  NodeId victim = kNoNode;
  bool restarted = false;
  raft::LogIndex target = 0;
  TimePoint restart_time{};

  KvLoad<kv::KvClient> load(plan, clients, c->sim(), out);
  const TimePoint sim0 = c->sim().now();
  const auto wall0 = Clock::now();
  load.start();
  for (std::uint64_t step = 0; !load.done() && c->sim().now() - sim0 < 600s; ++step) {
    c->sim().run_for(2ms);
    if (servers > 1 && victim == kNoNode && load.completed() >= crash_at) {
      const NodeId leader = c->current_leader();
      for (const NodeId id : c->server_ids()) {
        if (id != leader) {
          victim = id;
          break;
        }
      }
      c->crash(victim);
    } else if (victim != kNoNode && !restarted && load.completed() >= restart_at) {
      const auto t = Clock::now();
      c->restart(victim);
      if (acc != nullptr) acc->restart_us.push_back(us_since(t));
      restarted = true;
      out.restarted = true;
      for (const NodeId id : c->server_ids()) {
        if (const raft::RaftNode* n = c->node_if_alive(id); n != nullptr && id != victim) {
          target = std::max(target, n->commit_index());
        }
      }
      restart_time = c->sim().now();
    }
    if (restarted && out.catchup_ms < 0.0 && c->node(victim).last_applied() >= target) {
      out.catchup_ms = to_ms(c->sim().now() - restart_time);
    }
    if (acc != nullptr && step % 25 == 0) poll_rtts(*c, *acc);
  }
  out.load_wall_s = seconds_since(wall0);
  out.load_sim_s = to_sec(load.last_completion() - sim0);
  out.drained = drain(*c);
  const double round_wall_s = seconds_since(t0);
  capture_replicas(*c, 0, out);
  out.violations = c->audit_invariants();

  if (acc != nullptr) {
    add_round_counters(c->sim(), round_wall_s, out, *acc);
    if (out.catchup_ms >= 0.0) acc->catchup_ms.push_back(out.catchup_ms);
    collect_cluster(*c, *acc);
    collect_follower_timeouts(*c, *acc);
    const NodeId leader = c->current_leader();
    if (acc->obs.record && leader != kNoNode) {
      acc->live_stores[{acc->obs.segment(), 0}] = c->state_machine(leader).snapshot();
    }
    clients.clear();  // client endpoints do not survive a reset
    const auto t = Clock::now();
    c->reset(seed);
    acc->reset_us.push_back(us_since(t));
  }
  return out;
}

// ---- sharded_read_mostly -----------------------------------------------------------------

constexpr std::size_t kShards = 32;
constexpr std::size_t kGroupServers = 5;
constexpr KvShape kShardedRead{64, 8, 96, 0.9, 16, 64, true};
constexpr KvShape kShardedReadSmall{8, 4, 12, 0.9, 16, 64, true};

/// 32 Dynatune groups of 5 on one substrate, a 50 ms RTT link with 5 ms
/// jitter and 1% datagram loss, ReadIndex GETs and group-committed PUTs.
shard::ShardedConfig sharded_config(std::uint64_t seed) {
  shard::ShardedConfig sc;
  sc.shards = kShards;
  sc.partition = shard::PartitionMode::Hash;
  sc.group = cluster::make_dynatune_config(kGroupServers, seed);
  net::LinkCondition link;
  link.rtt = 50ms;
  link.jitter = 5ms;
  link.loss = 0.01;
  sc.group.links = net::ConditionSchedule::constant(link);
  sc.group.raft.group_commit = true;
  sc.group.raft.read_index = true;
  return sc;
}

KvRound sharded_round(const Plan& plan, std::uint64_t seed, LayerAcc* acc) {
  KvRound out;
  out.model.groups = kShards;
  out.model.acked_puts.assign(kShards, 0);
  shard::ShardedConfig cfg = sharded_config(seed);
  if (acc != nullptr) {
    acc->obs.begin_trial();
    acc->obs.group_size = kGroupServers;
    cfg.group.observers.push_back(&acc->obs);
  }
  const auto t0 = Clock::now();
  auto sc = std::make_unique<shard::ShardedCluster>(cfg);
  if (acc != nullptr) acc->shard_construct_ms.push_back(seconds_since(t0) * 1e3);
  if (!sc->await_all_leaders(30s)) return out;
  sc->sim().run_for(1s);
  shard::ShardRouter router = sc->make_router();
  std::vector<std::unique_ptr<shard::ShardedKvClient>> clients;
  for (std::size_t s = 0; s < plan.ops.size(); ++s) {
    clients.push_back(std::make_unique<shard::ShardedKvClient>(
        *sc, router, Rng(derive_seed(seed, 0x5C100 + s))));
  }
  out.setup_s = seconds_since(t0);

  KvLoad<shard::ShardedKvClient> load(plan, clients, sc->sim(), out);
  const TimePoint sim0 = sc->sim().now();
  const auto wall0 = Clock::now();
  load.start();
  for (std::uint64_t step = 0; !load.done() && sc->sim().now() - sim0 < 600s; ++step) {
    sc->sim().run_for(10ms);
    if (acc != nullptr && step % 5 == 0) poll_rtts(sc->shard(step / 5 % kShards), *acc);
  }
  out.load_wall_s = seconds_since(wall0);
  out.load_sim_s = to_sec(load.last_completion() - sim0);
  out.drained = true;
  for (std::size_t g = 0; g < kShards; ++g) out.drained = drain(sc->shard(g)) && out.drained;
  const double round_wall_s = seconds_since(t0);
  for (std::size_t g = 0; g < kShards; ++g) {
    capture_replicas(sc->shard(g), g, out);
    out.violations += sc->shard(g).audit_invariants();
  }

  if (acc != nullptr) {
    add_round_counters(sc->sim(), round_wall_s, out, *acc);
    for (std::size_t g = 0; g < kShards; ++g) {
      cluster::Cluster& c = sc->shard(g);
      collect_cluster(c, *acc);
      collect_follower_timeouts(c, *acc);
      const NodeId leader = c.current_leader();
      if (acc->obs.record && leader != kNoNode) {
        acc->live_stores[{acc->obs.segment(), static_cast<std::uint32_t>(g)}] =
            c.state_machine(leader).snapshot();
      }
    }
    probe_restart(sc->shard(0), *acc);
  }
  return out;
}

// ---- Shared run loop ---------------------------------------------------------------------

using RoundFn = std::function<KvRound(LayerAcc*)>;

RunResult run_kv(const char* name, const RoundFn& round_fn, double seconds, bool traced,
                 unsigned threads, const std::function<void(LayerAcc&, Checks&)>& extra_probes) {
  RunResult res;
  LayerAcc acc;
  std::vector<double> rates;
  std::vector<double> setups;
  KvRound first;
  std::size_t rounds = 0;
  const auto t0 = Clock::now();
  do {
    acc.obs.record = traced && rounds == 0;
    KvRound r = round_fn(traced ? &acc : nullptr);
    rates.push_back(static_cast<double>(r.ops) / r.load_wall_s);
    setups.push_back(r.setup_s);
    if (rounds == 0) {
      check_round(r, res.checks);
      first = std::move(r);
    } else {
      res.checks.expect(first.same_outputs(r),
                        std::string(name) + ": a repeated round did not reproduce the first");
    }
    ++rounds;
  } while (seconds_since(t0) < seconds);

  res.attempted = first.ops * rounds;
  res.failed = first.failed * rounds;
  res.host.setup_s = median(setups);
  res.host.ops_per_wall_s = median(rates);
  res.notes.push_back(rate_note(rates));
  res.host.peak_rss_mib = peak_rss_mib();
  res.op_latency_ms_p50 = percentile(first.latency_ms, 0.5);
  res.op_latency_ms_p99 = percentile(first.latency_ms, 0.99);
  res.report = {
      {"ops_per_wall_s", res.host.ops_per_wall_s, "ops/s"},
      {"achieved_rps", static_cast<double>(first.ops) / first.load_sim_s, "req/sim_s"},
      {"op_latency_ms_p50", res.op_latency_ms_p50, "sim_ms"},
      {"op_latency_ms_p99", res.op_latency_ms_p99, "sim_ms"},
  };
  if (first.catchup_ms >= 0.0) res.report.push_back({"follower_catchup_ms", first.catchup_ms, "sim_ms"});
  res.notes.push_back(std::to_string(rounds) + " rounds of " + std::to_string(first.ops) +
                      " operations (" + std::to_string(first.gets.size()) + " GETs), " +
                      std::to_string(first.failed) + " failed");

  if (traced) {
    acc.obs.record = false;
    extra_probes(acc, res.checks);
    // Throughput of `threads` independent rounds at once against one round
    // alone — what the parallel layer would give a sweep of this workload —
    // as the median of three such pairs.
    std::vector<double> speedups;
    for (int pair = 0; pair < 3; ++pair) {
      const auto t1 = Clock::now();
      (void)round_fn(nullptr);
      const double single = seconds_since(t1);
      const auto t2 = Clock::now();
      par::for_trials(
          threads, 0, [&](std::size_t, std::uint64_t) { (void)round_fn(nullptr); }, threads);
      speedups.push_back(static_cast<double>(threads) * single / seconds_since(t2));
    }
    acc.speedup = median(speedups);
    res.layers = layer_metrics(acc, res.checks);
  }
  return res;
}

/// Pristine model passes, corrupted model fires, for every KV check.
bool self_test_kv(const char* name, const KvRound& r, const KvRound& again) {
  bool ok = true;
  const auto run = [&](const char* check, auto&& fn_pristine, auto&& fn_corrupted) {
    Checks pristine;
    Checks corrupted;
    fn_pristine(pristine);
    fn_corrupted(corrupted);
    ok = expect_fires(name, check, pristine, corrupted) && ok;
  };
  KvModel bad = r.model;
  bad.values.begin()->second += "x";
  run("stores == model", [&](Checks& c) { check_stores(r.replicas, r.model, c); },
      [&](Checks& c) { check_stores(r.replicas, bad, c); });
  bad = r.model;
  bad.acked_puts.front() += 1;
  run("revision == acknowledged PUTs", [&](Checks& c) { check_revisions(r.replicas, r.model, c); },
      [&](Checks& c) { check_revisions(r.replicas, bad, c); });
  if (!r.gets.empty()) {
    std::vector<GetObs> bad_gets = r.gets;
    bad_gets.front().expected += "x";
    run("GET returns the model's value", [&](Checks& c) { check_gets(r.gets, c); },
        [&](Checks& c) { check_gets(bad_gets, c); });
  }
  if (r.model.groups > 1) {
    run("key in its FNV-1a shard",
        [&](Checks& c) { check_placement(r.replicas, r.model.groups, c); },
        [&](Checks& c) { check_placement(r.replicas, r.model.groups + 1, c); });
  }
  bad = r.model;
  bad.violations = 1;
  run("invariant violations", [&](Checks& c) { check_violations(r.violations, r.model, c); },
      [&](Checks& c) { check_violations(r.violations, bad, c); });
  KvRound bad_again = again;
  bad_again.latency_ms.back() += 1.0;
  run("rounds repeat exactly", [&](Checks& c) { c.expect(r.same_outputs(again), "repeat"); },
      [&](Checks& c) { c.expect(r.same_outputs(bad_again), "repeat"); });
  return ok;
}

}  // namespace

RunResult run_kv_write(const Options& opts, bool traced, double seconds) {
  const Plan plan = make_plan(kKvWrite, derive_seed(opts.seed, 0x1D1), "w");
  const std::uint64_t cluster_seed = derive_seed(opts.seed, 0xC1);
  return run_kv(
      "kv_write", [&](LayerAcc* acc) { return kv_write_round(plan, 5, cluster_seed, acc); },
      seconds, traced, opts.threads, [&](LayerAcc& acc, Checks& checks) {
        checks.expect(acc.obs.install_snapshots > 0,
                      "kv_write: the restarted follower caught up without InstallSnapshot");
        for (int rep = 0; rep < 5; ++rep) {
          shard::ShardedConfig one;
          one.shards = 1;
          one.group = kv_write_config(5, cluster_seed);
          const auto t0 = Clock::now();
          const shard::ShardedCluster sc(one);
          acc.shard_construct_ms.push_back(seconds_since(t0) * 1e3);
        }
      });
}

RunResult run_sharded_read_mostly(const Options& opts, bool traced, double seconds) {
  const Plan plan = make_plan(kShardedRead, derive_seed(opts.seed, 0x5D1), "r");
  const std::uint64_t cluster_seed = derive_seed(opts.seed, 0x5C1);
  return run_kv(
      "sharded_read_mostly", [&](LayerAcc* acc) { return sharded_round(plan, cluster_seed, acc); },
      seconds, traced, opts.threads, [&](LayerAcc& acc, Checks&) {
        // A standalone group of the same shape, so cluster construction and
        // reset are on record for this workload's group config.
        cluster::ClusterConfig cfg = sharded_config(cluster_seed).group;
        for (int rep = 0; rep < 5; ++rep) {
          const auto t0 = Clock::now();
          cluster::Cluster c(cfg);
          acc.construct_us.push_back(us_since(t0));
          const auto t1 = Clock::now();
          c.reset(cluster_seed + 1);
          acc.reset_us.push_back(us_since(t1));
        }
      });
}

RunResult run_kv_write_single(const Options& opts, double seconds) {
  const Plan plan = make_plan(kKvWrite, derive_seed(opts.seed, 0x1D1), "w");
  const std::uint64_t cluster_seed = derive_seed(opts.seed, 0xC1);
  return run_kv(
      "kv_write_n1", [&](LayerAcc* acc) { return kv_write_round(plan, 1, cluster_seed, acc); },
      seconds, false, opts.threads, [](LayerAcc&, Checks&) {});
}

bool self_test_kv_write(const Options& opts) {
  const Plan plan = make_plan(kKvWriteSmall, derive_seed(opts.seed, 0x1D1), "w");
  const std::uint64_t cluster_seed = derive_seed(opts.seed, 0xC1);
  const KvRound r = kv_write_round(plan, 5, cluster_seed, nullptr);
  const KvRound again = kv_write_round(plan, 5, cluster_seed, nullptr);
  return self_test_kv("kv_write", r, again);
}

bool self_test_sharded_read_mostly(const Options& opts) {
  const Plan plan = make_plan(kShardedReadSmall, derive_seed(opts.seed, 0x5D1), "r");
  const std::uint64_t cluster_seed = derive_seed(opts.seed, 0x5C1);
  const KvRound r = sharded_round(plan, cluster_seed, nullptr);
  const KvRound again = sharded_round(plan, cluster_seed, nullptr);
  return self_test_kv("sharded_read_mostly", r, again);
}

}  // namespace perfbench
