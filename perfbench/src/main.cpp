// perfbench: the register stack's wall-clock benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Untraced (--trace 0) it repeats batches of the workload for --seconds and
// reports the end-to-end metrics; traced (--trace 1) it repeats untraced /
// traced pairs and reports the per-layer metrics. Human-readable lines come
// first; the last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exit status: 0 when the result line was printed — whether every output
// check passed is its "correct" field — 1 when the run broke off with an
// error, 2 on a usage error or a refused environment (debug build, CPUs
// oversubscribed).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gf/gf_kernels.h"
#include "harness/sweep.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      if (!(a.seconds > 0 && a.seconds <= 120)) {
        throw std::invalid_argument("--seconds must be in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

/// Median of /proc/stat's procs_running over a short window, minus this
/// process: the threads already competing for the CPUs right now. The
/// one-minute load average is recorded too, but it still carries the
/// previous benchmark run for a minute after it ends, so it is not the gate.
double competing_runnable() {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    std::ifstream stat("/proc/stat");
    std::string line;
    while (std::getline(stat, line)) {
      if (line.rfind("procs_running ", 0) == 0) {
        samples.push_back(std::stod(line.substr(14)) - 1);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return samples.empty() ? 0 : median(samples);
}

/// {steal, total} jiffies of all CPUs so far, from /proc/stat's "cpu" line:
/// steal is time the hypervisor ran something else while this machine's
/// CPUs wanted to run.
std::pair<double, double> cpu_steal_total() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0, total = 0;
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    if (!(stat >> v)) break;
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Runs the process on one CPU, the last of those it may use, and returns
/// it (-1 when the mask could not be read or set). Threads started later —
/// the threaded store's object workers and session thread — inherit the
/// mask. On a shared VM a wake-up sent to another, idle vCPU waits for the
/// host to run that vCPU, and how long varies with the host's load by up to
/// 2x; on one CPU a wake-up is a context switch inside this machine.
int pin_to_one_cpu() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  return sched_setaffinity(0, sizeof mask, &mask) == 0 ? cpu : -1;
}

/// Keeps freed memory in one heap for the next batch to reuse, as in a
/// long-running process: one malloc arena for all threads, nothing returned
/// to the OS, no mmap below the largest threshold glibc allows. Otherwise
/// every batch pays first-touch page faults again — kv-write-large-sim ran
/// 30% slower for them — whose cost follows the host's memory load.
void keep_heap() {
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
}

double loadavg_1m() {
  std::ifstream in("/proc/loadavg");
  double load = 0;
  in >> load;
  return load;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A metric of the final JSON line, printed beside a human-readable line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // what it was measured over
};

struct Result {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void emit(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::cout << "# " << m.name << " = " << json_number(m.value) << " " << m.unit
              << "  (" << m.base << ")\n";
  }
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void report_problems(const std::vector<std::string>& problems) {
  for (const std::string& p : problems) std::cout << "# CHECK FAILED: " << p << "\n";
}

uint64_t batch_seed(uint64_t seed, size_t index) {
  return sbrs::harness::cell_seed(seed, index, 0);
}

/// Repeat fn(index) for index = 1, 2, ... until `seconds` have passed and at
/// least `min_runs` ran.
void repeat_for(double seconds, size_t min_runs,
                const std::function<void(size_t)>& fn) {
  const int64_t start = now_ns();
  for (size_t i = 1; i <= min_runs || seconds_since(start) < seconds; ++i) fn(i);
}

/// End-to-end metrics. Every value is a median over the run's batches, so a
/// burst of interference from outside the process moves a few batches, not
/// the reported figure; latency percentiles are taken per batch first.
Result run_untraced(const Spec& spec, const Args& a, const Batch& warm) {
  std::map<std::string, std::vector<double>> per_batch;
  uint64_t attempted = warm.attempted, completed = warm.completed,
           failed = warm.failed, served = 0;
  uint64_t min_reads = UINT64_MAX, min_writes = UINT64_MAX;
  std::vector<std::string> problems = warm.problems;

  repeat_for(a.seconds, 3, [&](size_t i) {
    const Batch b = run_batch(spec, batch_seed(a.seed, i));
    auto put = [&](const std::string& name, double v) { per_batch[name].push_back(v); };
    put("setup_s", b.setup_s);
    put("throughput_ops_s", ratio(static_cast<double>(b.served), b.call_s));
    // LatencyHistogram::percentile: nearest rank, reported as the upper
    // edge of its bucket (< 0.8% wide).
    auto us = [](const sbrs::metrics::LatencyHistogram& h, double q) {
      return static_cast<double>(h.percentile(q)) * 1e-3;
    };
    put("read_p50_us", us(b.read_ns, 0.5));
    put("read_p90_us", us(b.read_ns, 0.9));
    put("read_p99_us", us(b.read_ns, 0.99));
    put("write_p50_us", us(b.write_ns, 0.5));
    put("write_p90_us", us(b.write_ns, 0.9));
    put("write_p99_us", us(b.write_ns, 0.99));
    put("storage_ratio", b.storage_ratio);
    min_reads = std::min(min_reads, b.read_ns.count());
    min_writes = std::min(min_writes, b.write_ns.count());
    attempted += b.attempted;
    completed += b.completed;
    failed += b.failed;
    served += b.served;
    problems.insert(problems.end(), b.problems.begin(), b.problems.end());
  });

  const auto& tput = per_batch.at("throughput_ops_s");
  const std::string over = "median over " + std::to_string(tput.size()) + " batches";
  const std::string latency_base =
      spec.kind == Kind::kStoreThreads
          ? "the program's ns histograms of the timed runs"
          : spec.kind == Kind::kStoreSim
                ? "timed Store::put / Store::get after each batch"
                : "invoke->return in an unchecked rerun of each batch";
  const std::string reads = "per-batch percentile of >= " + std::to_string(min_reads) +
                            " reads (" + latency_base + "), " + over;
  const std::string writes = "per-batch percentile of >= " + std::to_string(min_writes) +
                             " writes (" + latency_base + "), " + over;
  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, const std::string& unit, const std::string& base) {
    metrics.push_back({name, median(per_batch.at(name)), unit, base});
  };
  add("setup_s", "s", "construction and key mounting, " + over);
  add("throughput_ops_s", "1/s", "served ops / wall of the checked call, " + over);
  add("read_p50_us", "us", reads);
  add("read_p90_us", "us", reads);
  add("write_p50_us", "us", writes);
  add("write_p90_us", "us", writes);
  add("storage_ratio", "ratio", "peak object bits / user data bits, " + over);
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss of this process"});

  // The p99s rest on >= 10 samples per batch but move with every burst of
  // interference on a shared host, too much to bound a regression by; they
  // are printed, not part of the result.
  std::cout << "# read_p99_us = " << json_number(median(per_batch.at("read_p99_us")))
            << " us  (" << reads << ")\n# write_p99_us = "
            << json_number(median(per_batch.at("write_p99_us"))) << " us  (" << writes
            << ")\n";
  std::cout << "# per-batch throughput quartiles: " << json_number(quantile(tput, 0.25))
            << " " << json_number(median(tput)) << " "
            << json_number(quantile(tput, 0.75)) << " 1/s\n";
  if (std::min(min_reads, min_writes) < 1000) {
    std::cout << "# note: a batch's p99 rests on fewer than 1000 samples "
                 "(fewer than 10 beyond it)\n";
  }
  std::cout << "# ops_failed_frac = "
            << json_number(ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)))
            << " frac  (" << failed << " failed of " << attempted
            << " attempted; " << served << " served by the timed calls)\n";
  report_problems(problems);
  return {problems.empty() && failed == 0 && completed == attempted, attempted,
          failed, metrics};
}

Result run_traced_mode(const Spec& spec, const Args& a, const Batch& warm) {
  const CodecProbe codec = probe_codec(spec.cfg);
  std::map<std::string, std::vector<double>> per_run;  // metric -> per-iteration
  uint64_t attempted = warm.attempted, failed = warm.failed,
           completed = warm.completed;
  std::vector<std::string> problems = warm.problems;
  if (!codec.roundtrip_ok) problems.push_back("codec probe: decode(encode(v)) != v");

  const bool threads = spec.kind == Kind::kStoreThreads;
  const bool sim = !threads;
  const bool store = spec.kind != Kind::kRegisterSim;

  repeat_for(a.seconds, 2, [&](size_t i) {
    const TracedBatch tb = run_traced(spec, batch_seed(a.seed, i));
    attempted += tb.plain.attempted;
    completed += tb.plain.completed;
    failed += tb.plain.failed;
    problems.insert(problems.end(), tb.plain.problems.begin(), tb.plain.problems.end());
    problems.insert(problems.end(), tb.problems.begin(), tb.problems.end());
    problems.insert(problems.end(), tb.history.problems.begin(), tb.history.problems.end());
    const HistoryStats& h = tb.history;
    const LayerSamples& l = tb.layers;
    auto q = [](const std::vector<double>& v, double p) {
      return v.empty() ? 0.0 : quantile(v, p);
    };
    auto put = [&](const std::string& name, double v) { per_run[name].push_back(v); };

    put("runtime.request_wait_us.p50", threads ? q(l.request_wait_us, 0.5) : 0);
    put("runtime.request_wait_us.p99", threads ? q(l.request_wait_us, 0.99) : 0);
    put("runtime.reply_wait_us.p50", threads ? q(l.reply_wait_us, 0.5) : 0);
    put("runtime.reply_wait_us.p99", threads ? q(l.reply_wait_us, 0.99) : 0);
    put("runtime.mesh_overhead_s", threads ? tb.mesh_overhead_s : 0);
    put("registers.client_cb_us.p50", q(l.client_cb_us, 0.5));
    put("registers.client_busy_s", l.client_busy_s);
    put("registers.rmw_apply_us.p50", q(l.rmw_apply_us, 0.5));
    put("registers.rmw_busy_s", l.rmw_busy_s);
    put("registers.rmws_per_op", ratio(static_cast<double>(l.rmws), static_cast<double>(l.ops)));
    put("registers.useful_reply_frac",
        ratio(static_cast<double>(l.useful_replies), static_cast<double>(tb.rmws_delivered)));
    double drain_sum = 0, drain_max = 0;
    for (double d : tb.shard_drain_s) {
      drain_sum += d;
      drain_max = std::max(drain_max, d);
    }
    const double self_s = drain_sum - l.client_busy_s - l.rmw_busy_s;
    put("sim.drain_s", sim ? tb.drain_s : 0);
    put("sim.self_s", sim ? self_s : 0);
    put("sim.steps", sim ? static_cast<double>(tb.steps) : 0);
    put("sim.ns_per_step", sim ? self_s * 1e9 / static_cast<double>(tb.steps) : 0);
    put("history.events", static_cast<double>(h.events));
    put("history.value_bytes_per_op",
        ratio(static_cast<double>(h.value_bytes), static_cast<double>(h.ops)));
    put("consistency.legal_s", h.checks.legal_s);
    put("consistency.weak_s", h.checks.weak_s);
    put("consistency.strong_s", h.checks.strong_s);
    put("consistency.us_per_checked_op",
        ratio(h.checks.total(), static_cast<double>(h.checked_ops)) * 1e6);
    put("store.generate_s", store ? tb.generate_s : 0);
    put("store.split_s", store ? h.split_s : 0);
    put("store.max_ops_per_key", store ? static_cast<double>(h.max_ops_per_key) : 0);
    put("store.shard_skew",
        store ? ratio(drain_max, drain_sum / static_cast<double>(tb.shard_drain_s.size())) : 0);
    put("trace.overhead_frac", ratio(tb.traced_s - tb.plain.call_s, tb.plain.call_s));
    put("trace.ops_traced", static_cast<double>(l.ops));
  });

  const size_t runs = per_run.begin()->second.size();
  const std::string over = "median over " + std::to_string(runs) + " traced batches";
  auto med = [&](const std::string& name) { return median(per_run.at(name)); };
  const std::string codec_base = "probe at n=" + std::to_string(spec.cfg.n) +
                                 " k=" + std::to_string(spec.cfg.k) +
                                 " D=" + std::to_string(spec.cfg.data_bits) + " bits";
  std::vector<Metric> m;
  auto add = [&](const std::string& name, const std::string& unit, const std::string& base) {
    m.push_back({name, med(name), unit, base + "; " + over});
  };
  const std::string inactive = "layer inactive on this workload: reported as 0";
  const std::string rt = threads ? "per RMW, threaded mesh" : inactive;
  add("runtime.request_wait_us.p50", "us", rt + ", trigger -> apply start");
  add("runtime.request_wait_us.p99", "us", rt + ", trigger -> apply start");
  add("runtime.reply_wait_us.p50", "us", rt + ", apply end -> on_response");
  add("runtime.reply_wait_us.p99", "us", rt + ", apply end -> on_response");
  add("runtime.mesh_overhead_s", "s",
      threads ? "sum over meshes of run_threaded wall - first invoke..last return" : inactive);
  add("registers.client_cb_us.p50", "us", "per on_invoke/on_response call");
  add("registers.client_busy_s", "s", "sum of client callbacks");
  add("registers.rmw_apply_us.p50", "us", "per RMW apply");
  add("registers.rmw_busy_s", "s", "sum of RMW applies");
  add("registers.rmws_per_op", "count", "RMWs triggered / ops completed");
  add("registers.useful_reply_frac", "frac",
      "replies consumed while their op was open / replies delivered");
  m.push_back({"codec.encode_us", codec.encode_us, "us", codec_base + ", one encode into n blocks"});
  m.push_back({"codec.decode_us", codec.decode_us, "us", codec_base + ", decode from the last k blocks"});
  m.push_back({"gf.mul_add_row_gbps", codec.mul_add_row_gbps, "GB/s",
               codec_base + ", rows of D/8/k bytes, backend " + sbrs::gf::kern::backend()});
  const std::string sm = sim ? "" : inactive + "; ";
  add("sim.drain_s", "s", sm + "untraced call with checks off");
  add("sim.self_s", "s", sm + "sum of traced shard drains - callback busy time");
  add("sim.steps", "count", sm + "scheduler steps, summed over shards");
  add("sim.ns_per_step", "ns", sm + "sim.self_s / sim.steps");
  add("history.events", "count", "invoke/return events recorded");
  add("history.value_bytes_per_op", "B", "bytes of Values held by history events / ops");
  add("consistency.legal_s", "s", "values-legal checker, summed over keys");
  add("consistency.weak_s", "s", "weak-regularity checker, summed over keys");
  add("consistency.strong_s", "s", "strong-regularity checker, summed over keys");
  add("consistency.us_per_checked_op", "us", "all checker time / ops checked");
  const std::string st = store ? "" : inactive + "; ";
  add("store.generate_s", "s", st + "ycsb::generate");
  add("store.split_s", "s", st + "split_history_by_key, summed over shards");
  add("store.max_ops_per_key", "count", st + "largest per-key history");
  add("store.shard_skew", "ratio", st + "slowest traced shard drain / mean shard drain");
  add("trace.overhead_frac", "frac",
      "(traced composition wall - untraced checked call wall) / untraced");
  add("trace.ops_traced", "count", "ops completed under the traced clients");

  std::cout << "# traced composition reproduced the untraced op counts: "
            << (problems.empty() ? "yes" : "see CHECK FAILED lines") << "\n";
  report_problems(problems);
  return {problems.empty() && failed == 0 && completed == attempted, attempted,
          failed, m};
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Spec spec;
  try {
    args = parse_args(argc, argv);
    spec = make_spec(args.workload, args.smoke);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke]\n";
    return 2;
  }

#ifdef NDEBUG
  const bool debug_build = false;
#else
  const bool debug_build = true;
#endif
  const unsigned cpus = std::thread::hardware_concurrency();
  const double competing = competing_runnable();
  const int cpu = pin_to_one_cpu();
  keep_heap();
  std::cout << "# workload " << spec.name << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << args.trace << (args.smoke ? " smoke" : "")
            << "\n# build " << PERFBENCH_BUILD_TYPE << (debug_build ? " (assertions on)" : "")
            << ", nproc " << cpus << ", loadavg_1m " << loadavg_1m()
            << ", competing runnable threads " << competing << ", "
            << (cpu < 0 ? std::string("not pinned to a CPU")
                        : "every thread pinned to CPU " + std::to_string(cpu))
            << "\n";
  if (debug_build) {
    std::cerr << "perfbench: refusing to measure an assertion-enabled (debug) build\n";
    return 2;
  }
  if (competing > cpus) {
    std::cerr << "perfbench: refusing to measure: " << competing
              << " runnable threads already compete for " << cpus << " CPUs\n";
    return 2;
  }

  try {
    // Warm-up: the first batch of a fresh process pays cold caches, page
    // faults and lazy table builds. It is in no metric (its wall time is
    // printed so the cold start stays visible), but its checks count.
    const int64_t t = now_ns();
    const Batch warm = run_batch(spec, batch_seed(args.seed, 0));
    std::cout << "# warm-up batch " << seconds_since(t) << " s (not in any metric)\n";
    // The verdict travels in the result line's "correct" field; a nonzero
    // status means no result could be produced.
    const auto [steal0, total0] = cpu_steal_total();
    const Result result = args.trace ? run_traced_mode(spec, args, warm)
                                     : run_untraced(spec, args, warm);
    const auto [steal1, total1] = cpu_steal_total();
    std::cout << "# host steal "
              << json_number(100 * (steal1 - steal0) / std::max(1.0, total1 - total0))
              << "% of CPU time during the measurement\n";
    emit(result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
