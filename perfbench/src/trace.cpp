// Helpers shared by every workload, the traced run's observer, and the
// offline replays that time the checker, the KV apply and the RTT estimator.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench.hpp"
#include "cluster/cluster.hpp"
#include "dynatune/config.hpp"
#include "dynatune/rtt_estimator.hpp"
#include "kvstore/command.hpp"
#include "kvstore/state_machine.hpp"
#include "raft/invariant_checker.hpp"

namespace perfbench {

using namespace dyna;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::string rate_note(const std::vector<double>& rates) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "per-round ops/s: min %.0f, q1 %.0f, median %.0f, q3 %.0f, max %.0f over %zu rounds",
                percentile(rates, 0.0), percentile(rates, 0.25), percentile(rates, 0.5),
                percentile(rates, 0.75), percentile(rates, 1.0), rates.size());
  return buf;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- TraceObserver -----------------------------------------------------------------------

void TraceObserver::on_node_started(NodeId node, TimePoint when) {
  if (!record) return;
  Event e;
  e.start = true;
  e.node = node;
  e.segment = segment_;
  e.group = static_cast<std::uint32_t>(static_cast<std::size_t>(node) / group_size);
  e.when = when;
  events_.push_back(e);
}

void TraceObserver::on_entry_committed(NodeId node, const raft::LogEntry& entry, TimePoint when) {
  ++applies;
  if (!record) return;
  const auto group = static_cast<std::uint32_t>(static_cast<std::size_t>(node) / group_size);
  const auto [it, inserted] = slot_of_.try_emplace({segment_, group, entry.index}, entries_.size());
  if (inserted) entries_.push_back(entry);
  events_.push_back(Event{false, node, segment_, group, it->second, when});
}

double TraceObserver::replay_checker(std::uint64_t& violations) const {
  std::map<std::pair<std::uint32_t, std::uint32_t>, raft::InvariantChecker> checkers;
  std::size_t applied = 0;
  const auto t0 = Clock::now();
  for (const Event& e : events_) {
    raft::InvariantChecker& checker = checkers[{e.segment, e.group}];
    if (e.start) {
      checker.on_node_started(e.node, e.when);
    } else {
      checker.on_entry_committed(e.node, entries_[e.slot], e.when);
      ++applied;
    }
  }
  const double wall = seconds_since(t0);
  violations = 0;
  for (const auto& [key, checker] : checkers) violations += checker.count();
  return applied == 0 ? 0.0 : wall * 1e9 / static_cast<double>(applied);
}

double TraceObserver::replay_kv(
    std::uint64_t& commands,
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>& stores) const {
  // slot_of_ iterates (segment, group, index) in order: exactly the apply
  // order of each group's log.
  std::map<std::pair<std::uint32_t, std::uint32_t>, kv::KvStateMachine> machines;
  commands = 0;
  for (const auto& [key, slot] : slot_of_) {
    const raft::Command& cmd = entries_[slot].command;
    if (cmd.is_noop() || cmd.is_config()) continue;
    if (kv::is_batch(cmd.payload)) {
      (void)kv::for_each_batched(cmd.payload, [&](std::string_view) { ++commands; });
    } else {
      ++commands;
    }
  }
  const auto t0 = Clock::now();
  for (const auto& [key, slot] : slot_of_) {
    const raft::Command& cmd = entries_[slot].command;
    if (cmd.is_noop() || cmd.is_config()) continue;
    (void)machines[{std::get<0>(key), std::get<1>(key)}].apply(cmd.payload);
  }
  const double wall = seconds_since(t0);
  for (const auto& [key, machine] : machines) stores[key] = machine.snapshot();
  return commands == 0 ? 0.0 : wall * 1e9 / static_cast<double>(commands);
}

double replay_rtts(const std::vector<double>& rtt_ms) {
  if (rtt_ms.empty()) return 0.0;
  dt::RttEstimator estimator(dt::DynatuneConfig{}.max_list_size);
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (const double ms : rtt_ms) {
    estimator.record(from_ms(ms));
    sink += estimator.mean_ms() + estimator.stddev_ms();
  }
  const double wall = seconds_since(t0);
  if (sink < 0.0) std::fprintf(stderr, "%f\n", sink);  // keeps the loop observable
  return wall * 1e9 / static_cast<double>(rtt_ms.size());
}

// ---- Cluster probes ----------------------------------------------------------------------

namespace {
double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }
}  // namespace

void collect_cluster(cluster::Cluster& c, LayerAcc& acc) {
  net::Network& net = c.network();
  for (NodeId id = c.node_base(); id < c.node_base() + static_cast<NodeId>(c.size()); ++id) {
    acc.msgs += net.traffic(id).sent;
    acc.bytes += net.traffic(id).sent_bytes;
    raft::RaftNode* n = c.node_if_alive(id);
    if (n == nullptr) continue;
    acc.batches += n->batches_sealed();
    acc.batched_cmds += n->batched_commands();
    acc.reads += n->reads_served();
    acc.snapshots += n->snapshots_taken();
    const auto t0 = Clock::now();
    const std::string blob = c.state_machine(id).snapshot();
    acc.snapshot_us.push_back(us_since(t0));
  }
  const auto t0 = Clock::now();
  (void)c.audit_invariants();
  acc.audit_us.push_back(us_since(t0));
}

void collect_follower_timeouts(cluster::Cluster& c, LayerAcc& acc) {
  const NodeId leader = c.current_leader();
  for (const NodeId id : c.server_ids()) {
    raft::RaftNode* n = c.node_if_alive(id);
    if (id != leader && n != nullptr && n->running()) {
      acc.et_ms.push_back(to_ms(n->randomized_timeout()));
    }
  }
}

void capture_rtts(cluster::Cluster& c, Duration span, LayerAcc& acc) {
  const TimePoint end = c.sim().now() + span;
  while (c.sim().now() < end) {
    c.sim().run_for(std::chrono::milliseconds(10));
    const NodeId leader = c.current_leader();
    if (leader == kNoNode) continue;
    for (const NodeId id : c.server_ids()) {
      if (id == leader) continue;
      if (const auto rtt = c.node(leader).last_measured_rtt(id)) acc.rtt_ms.push_back(to_ms(*rtt));
    }
  }
}

void probe_restart(cluster::Cluster& c, LayerAcc& acc) {
  const NodeId leader = c.current_leader();
  if (leader == kNoNode) return;
  NodeId victim = kNoNode;
  for (const NodeId id : c.server_ids()) {
    if (id != leader && c.node_if_alive(id) != nullptr) {
      victim = id;
      break;
    }
  }
  if (victim == kNoNode) return;
  c.crash(victim);
  c.sim().run_for(std::chrono::milliseconds(500));
  const auto t0 = Clock::now();
  c.restart(victim);
  acc.restart_us.push_back(us_since(t0));
  const raft::LogIndex target = c.node(leader).commit_index();
  const TimePoint start = c.sim().now();
  while (c.node(victim).last_applied() < target &&
         c.sim().now() - start < std::chrono::seconds(10)) {
    c.sim().run_for(std::chrono::milliseconds(1));
  }
  acc.catchup_ms.push_back(to_ms(c.sim().now() - start));
}

// ---- Per-layer metrics -------------------------------------------------------------------

std::vector<Metric> layer_metrics(const LayerAcc& a, Checks& checks) {
  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double sim_s = a.sim_seconds;
  const auto ops = static_cast<double>(a.ops);

  std::uint64_t replayed_violations = 0;
  const double checker_ns = a.obs.replay_checker(replayed_violations);
  checks.expect(replayed_violations == 0,
                "replaying the commit stream into a fresh InvariantChecker found " +
                    std::to_string(replayed_violations) + " violations");
  std::uint64_t commands = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> stores;
  const double apply_ns = a.obs.replay_kv(commands, stores);
  for (const auto& [key, live] : a.live_stores) {
    const auto it = stores.find(key);
    checks.expect(it != stores.end() && it->second == live,
                  "replaying the committed commands into a fresh KvStateMachine does not "
                  "reproduce the store of group " + std::to_string(key.second));
  }

  return {
      {"sim.events_per_sim_s", per(static_cast<double>(a.events), sim_s), "events/sim_s"},
      {"sim.ns_per_event", per(a.sim_wall_s * 1e9, static_cast<double>(a.events)), "ns"},
      {"net.msgs_per_sim_s", per(static_cast<double>(a.msgs), sim_s), "msgs/sim_s"},
      {"net.bytes_per_sim_s", per(static_cast<double>(a.bytes), sim_s), "B/sim_s"},
      {"net.heartbeats_per_sim_s", per(static_cast<double>(a.obs.heartbeats), sim_s),
       "msgs/sim_s"},
      {"net.msgs_per_op", per(static_cast<double>(a.msgs), ops), "msgs/op"},
      {"raft.elections_per_op", per(static_cast<double>(a.obs.elections), ops), "elections/op"},
      {"raft.timer_expiries", static_cast<double>(a.timer_expiries_per_round), "count"},
      {"raft.cmds_per_batch", per(static_cast<double>(a.batched_cmds),
                                  static_cast<double>(a.batches)), "cmds/batch"},
      {"raft.entries_applied_per_s", per(static_cast<double>(a.obs.applies), sim_s),
       "entries/sim_s"},
      {"raft.reads_served_per_s", per(static_cast<double>(a.reads), sim_s), "reads/sim_s"},
      {"raft.snapshots_taken", per(static_cast<double>(a.snapshots), static_cast<double>(a.rounds)),
       "count"},
      {"raft.checker_ns_per_apply", checker_ns, "ns"},
      {"raft.checker_audit_us", median(a.audit_us), "us"},
      {"dynatune.et_ms_at_kill", median(a.et_ms), "sim_ms"},
      {"dynatune.retunes_per_sim_s", per(static_cast<double>(a.obs.retunes), sim_s),
       "retunes/sim_s"},
      {"dynatune.ns_per_rtt_sample", replay_rtts(a.rtt_ms), "ns"},
      {"kvstore.apply_ns_per_cmd", apply_ns, "ns"},
      {"kvstore.snapshot_us", median(a.snapshot_us), "us"},
      {"kvstore.client_attempts_per_op", per(static_cast<double>(a.client_attempts), ops),
       "attempts/op"},
      {"cluster.construct_us", median(a.construct_us), "us"},
      {"cluster.reset_us", median(a.reset_us), "us"},
      {"cluster.restart_us", median(a.restart_us), "us"},
      {"cluster.catchup_ms", median(a.catchup_ms), "sim_ms"},
      {"shard.construct_ms", median(a.shard_construct_ms), "ms"},
      {"parallel.speedup", a.speedup, "x"},
  };
}

bool expect_fires(const char* workload, const char* check, const Checks& pristine,
                  const Checks& corrupted) {
  const bool ok = pristine.ok() && !corrupted.ok();
  std::printf("self-test %-20s %-34s %s\n", workload, check,
              !pristine.ok() ? "FAIL (fires on the pristine model)"
              : ok           ? "fires on the planted discrepancy"
                             : "FAIL (silent on the planted discrepancy)");
  if (!pristine.ok()) {
    for (const auto& f : pristine.failures()) std::printf("    %s\n", f.c_str());
  }
  return ok;
}

}  // namespace perfbench
