// The repo benchmark: one command for the four workloads.
//
//   perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test [--seed <n>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced (observers attached, the benchmark's own spans
// and replays), prints the per-layer metrics and the tracing overhead. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed output check prints what it saw on stderr and exits 1.
#include <sched.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using namespace perfbench;

constexpr Workload kWorkloads[] = {
    {"election_sweep", run_election_sweep, self_test_election_sweep},
    {"failover_sweep", run_failover_sweep, self_test_failover_sweep},
    {"kv_write", run_kv_write, self_test_kv_write},
    {"sharded_read_mostly", run_sharded_read_mostly, self_test_sharded_read_mostly},
};

unsigned usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// End-to-end metrics in BENCHMARK.json order.
std::vector<Metric> end_to_end(const RunResult& r) {
  return {
      {"setup_s", r.host.setup_s, "s"},
      {"peak_rss_mib", r.host.peak_rss_mib, "MiB"},
      {"ops_per_wall_s", r.host.ops_per_wall_s, "ops/s"},
      {"op_latency_ms_p50", r.op_latency_ms_p50, "sim_ms"},
      {"op_latency_ms_p99", r.op_latency_ms_p99, "sim_ms"},
  };
}

bool report_checks(const char* name, const Checks& checks) {
  for (const std::string& f : checks.failures()) {
    std::fprintf(stderr, "CHECK FAILED [%s] %s\n", name, f.c_str());
  }
  return checks.ok();
}

/// Run one workload; returns true when every output check passed.
bool run_one(const Workload& w, const Options& opts) {
  std::printf("== %s (seed %llu, %.3g s, trace %d, %u threads)\n", w.name,
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0,
              opts.threads);
  std::fflush(stdout);
  RunResult result;
  std::vector<Metric> metrics;
  bool ok = true;
  if (!opts.trace) {
    result = w.run(opts, false, opts.seconds);
    metrics = end_to_end(result);
  } else {
    const RunResult untraced = w.run(opts, false, opts.seconds / 2);
    result = w.run(opts, true, opts.seconds / 2);
    ok = report_checks(w.name, untraced.checks) && ok;
    const auto delta = [&](const char* name, double traced_v, double untraced_v,
                           const char* unit) {
      std::printf("  trace overhead %-16s untraced %12.6g  traced %12.6g  (%+.1f%%)\n", name,
                  untraced_v, traced_v,
                  untraced_v != 0.0 ? 100.0 * (traced_v - untraced_v) / untraced_v : 0.0);
      return Metric{std::string("trace.") + name + "_delta", traced_v - untraced_v, unit};
    };
    metrics = result.layers;
    metrics.push_back(delta("setup_s", result.host.setup_s, untraced.host.setup_s, "s"));
    metrics.push_back(
        delta("peak_rss_mib", result.host.peak_rss_mib, untraced.host.peak_rss_mib, "MiB"));
    metrics.push_back(delta("ops_per_wall_s", result.host.ops_per_wall_s,
                            untraced.host.ops_per_wall_s, "ops/s"));
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
  }
  ok = report_checks(w.name, result.checks) && ok;
  for (const std::string& note : result.notes) std::printf("  %s\n", note.c_str());
  print_metrics("  workload figures:", result.report);
  print_metrics(opts.trace ? "  per-layer metrics:" : "  end-to-end metrics:", metrics);
  std::printf("  operations: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  print_json(ok, result.attempted, result.failed, metrics);
  std::fflush(stdout);
  return ok;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <election_sweep|failover_sweep|kv_write|"
               "sharded_read_mostly|all|kv_write_n1> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --self-test [--seed <n>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.threads = usable_cpus();
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--self-test" && i + 1 < argc) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage();
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opts.seconds > 0.0)) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      opts.trace = value == "1";
    } else if (arg == "--self-test") {
      self_test = true;
    } else {
      return usage();
    }
  }

  if (self_test) {
    bool ok = true;
    for (const Workload& w : kWorkloads) ok = w.self_test(opts) && ok;
    std::printf("self-test: %s\n", ok ? "every check fires on its planted discrepancy"
                                      : "FAILED");
    return ok ? 0 : 1;
  }
  if (!have_workload) return usage();

  if (opts.workload == "kv_write_n1") {
    const RunResult r = run_kv_write_single(opts, opts.seconds);
    const bool ok = report_checks("kv_write_n1", r.checks);
    for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
    print_metrics("  workload figures:", r.report);
    print_json(ok, r.attempted, r.failed, end_to_end(r));
    return ok ? 0 : 1;
  }

  bool ok = true;
  bool found = false;
  for (const Workload& w : kWorkloads) {
    if (opts.workload != "all" && opts.workload != w.name) continue;
    found = true;
    ok = run_one(w, opts) && ok;
  }
  if (!found) return usage();
  return ok ? 0 : 1;
}
