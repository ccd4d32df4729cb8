// Shared pieces of the repo benchmark: options, results, output checks,
// wall-clock timing, and the layer counters the traced run collects.
//
// The benchmark drives the program only through its public API (the
// scenario runner, Cluster, ShardedCluster, the KV clients and the
// Observer interface). Host-time metrics are wall-clock; simulated-time
// metrics (unit sim_ms) are pure functions of the inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "raft/observer.hpp"
#include "raft/types.hpp"

namespace dyna::cluster {
class Cluster;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;  ///< worker threads for the sweeps (the CPUs this process may use)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Output checks of one run. A check that fails names what it saw.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void merge(const Checks& other) {
    failures_.insert(failures_.end(), other.failures_.begin(), other.failures_.end());
  }
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// The host-time end-to-end metrics, which the traced run compares against
/// the untraced one to report its own overhead.
struct HostMetrics {
  double setup_s = 0.0;
  double peak_rss_mib = 0.0;
  double ops_per_wall_s = 0.0;
};

/// Everything one pass of a workload hands back to main.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  HostMetrics host;
  double op_latency_ms_p50 = 0.0;  ///< simulated
  double op_latency_ms_p99 = 0.0;  ///< simulated
  std::vector<Metric> report;      ///< the workload's named figures, for the human report
  std::vector<std::string> notes;
  std::vector<Metric> layers;      ///< per-layer metrics (traced pass only)
  Checks checks;
};

/// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// "per-round ops/s: min .. q1 .. median .. q3 .. max over N rounds".
[[nodiscard]] std::string rate_note(const std::vector<double>& rates);

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();

/// 64-bit FNV-1a, the benchmark's own copy of the hash partitioning rule.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s);

/// Deterministic input generator (splitmix64), independent of the program.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) { return lo + next() % (hi - lo + 1); }
  [[nodiscard]] double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// ---- Traced run ----------------------------------------------------------------------

/// Passive observer attached through ClusterConfig::observers in the traced
/// run. Counts raft/net/dynatune events and, when `record` is set, keeps the
/// commit stream so the checker and the KV apply can be replayed offline.
class TraceObserver final : public dyna::raft::Observer {
 public:
  std::uint64_t expiries = 0;
  std::uint64_t elections = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t install_snapshots = 0;
  std::uint64_t retunes = 0;
  std::uint64_t applies = 0;

  bool record = false;
  /// Nodes per consensus group (node id / group_size = group), so the
  /// commit streams of a sharded deployment replay per group.
  std::size_t group_size = 1;

  /// Start a new trial: log indices restart, so later events replay into
  /// fresh checkers.
  void begin_trial() { ++segment_; }
  [[nodiscard]] std::uint32_t segment() const noexcept { return segment_; }

  void on_election_timeout(dyna::NodeId, dyna::raft::Term, dyna::TimePoint) override {
    ++expiries;
  }
  void on_role_change(dyna::NodeId, dyna::raft::Role, dyna::raft::Role to, dyna::raft::Term,
                      dyna::TimePoint) override {
    if (to == dyna::raft::Role::Candidate) ++elections;
  }
  void on_message_sent(dyna::NodeId, dyna::NodeId, dyna::raft::MsgKind kind, std::size_t,
                       dyna::TimePoint) override {
    if (kind == dyna::raft::MsgKind::Heartbeat) ++heartbeats;
    if (kind == dyna::raft::MsgKind::InstallSnapshot) ++install_snapshots;
  }
  void on_params_tuned(dyna::NodeId, dyna::Duration, dyna::Duration, dyna::TimePoint) override {
    ++retunes;
  }
  void on_node_started(dyna::NodeId node, dyna::TimePoint when) override;
  void on_entry_committed(dyna::NodeId node, const dyna::raft::LogEntry& entry,
                          dyna::TimePoint when) override;

  /// Replay the recorded stream into fresh raft::InvariantChecker instances
  /// (one per trial and group). Returns wall ns per apply event; `violations`
  /// receives the replayed checkers' total.
  double replay_checker(std::uint64_t& violations) const;

  /// Replay the distinct committed entries, in index order, into fresh
  /// kv::KvStateMachine instances. Returns wall ns per client command (0 when
  /// nothing but no-ops was committed); `commands` receives the count and
  /// `stores` each replayed store's serialization keyed by (trial, group).
  double replay_kv(std::uint64_t& commands,
                   std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>& stores) const;

 private:
  struct Event {
    bool start = false;  ///< node (re)started; otherwise an apply
    dyna::NodeId node = dyna::kNoNode;
    std::uint32_t segment = 0;
    std::uint32_t group = 0;
    std::size_t slot = 0;  ///< index into entries_
    dyna::TimePoint when{};
  };
  std::uint32_t segment_ = 0;
  std::vector<Event> events_;
  std::vector<dyna::raft::LogEntry> entries_;
  std::map<std::tuple<std::uint32_t, std::uint32_t, dyna::raft::LogIndex>, std::size_t> slot_of_;
};

/// Raw per-layer measurements of one traced pass, turned into the per-layer
/// metric list by layer_metrics().
struct LayerAcc {
  TraceObserver obs;
  double sim_seconds = 0.0;  ///< simulated time the counters below cover
  double sim_wall_s = 0.0;   ///< wall time spent inside simulator-advancing calls
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ops = 0;  ///< workload operations the counters cover
  std::uint64_t rounds = 1;  ///< rounds the cumulative counts cover
  std::uint64_t batches = 0;
  std::uint64_t batched_cmds = 0;
  std::uint64_t reads = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t client_attempts = 0;
  std::uint64_t timer_expiries_per_round = 0;  ///< one pass over the workload's trials
  std::vector<double> construct_us, reset_us, restart_us, audit_us, snapshot_us, catchup_ms,
      shard_construct_ms, et_ms, rtt_ms;
  double speedup = 0.0;
  /// Live state-machine serializations keyed like TraceObserver::replay_kv's
  /// output; each must equal its replayed store.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> live_stores;
};

/// Add one cluster's end-of-run layer counters to `acc`: network traffic,
/// leader batching/read/snapshot counters, a timed KvStateMachine::snapshot
/// and a timed Cluster::audit_invariants.
void collect_cluster(dyna::cluster::Cluster& c, LayerAcc& acc);

/// Followers' randomized election timeouts in force now (what the next
/// leader failure would wait for), in ms.
void collect_follower_timeouts(dyna::cluster::Cluster& c, LayerAcc& acc);

/// Advance `span` of simulated time in 10 ms steps, recording every RTT the
/// leader has measured to each follower (the Dynatune estimator's input).
void capture_rtts(dyna::cluster::Cluster& c, dyna::Duration span, LayerAcc& acc);

/// Crash a follower, let the leader run on for a while, then time
/// Cluster::restart and the simulated time until the follower has applied
/// everything the leader had committed at the restart.
void probe_restart(dyna::cluster::Cluster& c, LayerAcc& acc);

/// The per-layer metrics in BENCHMARK.json order. Adds the replay checks
/// (replayed checker finds no violation) to `checks`.
[[nodiscard]] std::vector<Metric> layer_metrics(const LayerAcc& acc, Checks& checks);

/// Wall ns per RttEstimator sample over the recorded RTTs (record + mean +
/// stddev, what the Dynatune policy does per heartbeat).
[[nodiscard]] double replay_rtts(const std::vector<double>& rtt_ms);

// ---- Workloads ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  RunResult (*run)(const Options& opts, bool traced, double seconds);
  /// Plants a discrepancy in the benchmark's own model for every check of
  /// the workload; returns false if any check stays silent (or the pristine
  /// model already fails). Prints one line per check.
  bool (*self_test)(const Options& opts);
};

RunResult run_election_sweep(const Options& opts, bool traced, double seconds);
RunResult run_failover_sweep(const Options& opts, bool traced, double seconds);
RunResult run_kv_write(const Options& opts, bool traced, double seconds);
RunResult run_sharded_read_mostly(const Options& opts, bool traced, double seconds);
/// kv_write's load on a single server with no crash: the reference baseline
/// the README quotes (not one of the benchmark's workloads).
RunResult run_kv_write_single(const Options& opts, double seconds);
bool self_test_election_sweep(const Options& opts);
bool self_test_failover_sweep(const Options& opts);
bool self_test_kv_write(const Options& opts);
bool self_test_sharded_read_mostly(const Options& opts);

/// Self-test helper: report whether `failures` is empty on the pristine model
/// and non-empty on the corrupted one.
bool expect_fires(const char* workload, const char* check, const Checks& pristine,
                  const Checks& corrupted);

}  // namespace perfbench
