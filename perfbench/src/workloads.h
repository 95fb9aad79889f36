// The benchmark's three workloads and the two ways it runs them.
//
// run_batch() is the untraced measurement: it times its own calls into the
// library's public entry points (Store construction + Store::run, or
// algorithm construction + harness::run_register_experiment) and checks
// every output at the algorithm's promised consistency level.
//
// run_traced() repeats one batch three ways — the untraced checked call,
// the same call with checks off, and a traced composition that mounts the
// same pieces with TracedClient decorators (store workloads rebuild the
// shards from the public store headers, because Store takes its algorithm
// by name) — and returns the per-layer measurements plus the counts that
// prove the traced composition did the same work.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/algorithms.h"
#include "metrics/latency_histogram.h"
#include "registers/register_algorithm.h"
#include "sim/history.h"
#include "store/ycsb.h"
#include "trace.h"

namespace perfbench {

enum class Kind { kStoreThreads, kStoreSim, kRegisterSim };

/// The shape of one workload. All of them run `adaptive` (the paper's
/// algorithm) with f = 1, k = 2, n = 4 under the random scheduler, closed
/// loop.
struct Spec {
  std::string name;
  Kind kind = Kind::kStoreSim;
  sbrs::registers::RegisterConfig cfg;
  // Store workloads: YCSB stream over num_keys uniform keys.
  uint32_t num_keys = 0;
  uint32_t shards = 0;
  uint32_t sessions = 0;  // YCSB clients = sessions on every shard
  uint32_t ops_per_session = 0;
  sbrs::store::ycsb::Mix mix = sbrs::store::ycsb::Mix::kB;
  /// Sim store: synchronous Store::put + Store::get pairs timed after the
  /// batch — the sim backend's per-operation wall-clock latency.
  uint32_t probe_pairs = 0;
  // Register workload: one register, closed-loop writers and readers.
  uint32_t writers = 0;
  uint32_t readers = 0;
  uint32_t ops_per_client = 0;

  uint64_t attempted_ops() const;
};

const std::vector<std::string>& workload_names();

/// The workload's shape; `smoke` shrinks it to a fraction of a second.
/// Throws std::invalid_argument on an unknown name.
Spec make_spec(const std::string& name, bool smoke);

/// Counts a traced composition must reproduce (one entry per store shard,
/// or one for the register). Threaded runs pin only `completed`.
struct RunCounts {
  uint64_t completed = 0;
  uint64_t steps = 0;
  uint64_t rmws_triggered = 0;
  uint64_t rmws_delivered = 0;

  friend bool operator==(const RunCounts&, const RunCounts&) = default;
};

struct Batch {
  double setup_s = 0;  // construction and key mounting
  double call_s = 0;   // the call that served (and, when checked, verified)
  uint64_t served = 0;  // ops the timed call completed
  // All ops of the batch, the put/get probe included.
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // not completed, or on a history failing its level
  double storage_ratio = 0;
  sbrs::metrics::LatencyHistogram read_ns{sbrs::metrics::LatencyUnit::kNanos};
  sbrs::metrics::LatencyHistogram write_ns{sbrs::metrics::LatencyUnit::kNanos};
  std::vector<RunCounts> counts;
  std::vector<std::string> problems;  // failed output checks
};

/// One untraced batch drawn from `seed`. With check = false the call runs
/// without consistency checks and no latency is measured (sim.drain_s).
Batch run_batch(const Spec& spec, uint64_t seed, bool check = true);

/// Wall time spent in each consistency checker.
struct CheckTimes {
  double legal_s = 0;
  double weak_s = 0;
  double strong_s = 0;
  double safe_s = 0;  // strongly-safe pass run_register_experiment adds

  double total() const { return legal_s + weak_s + strong_s + safe_s; }
};

/// Runs the checkers `level` promises on `h` (values legal, then the
/// level's own) and adds each one's wall time to `times`. Returns the first
/// violation, or "" when `h` meets the level. This is the one place the
/// benchmark maps a guarantee level to its checkers.
std::string level_violation(const sbrs::sim::History& h,
                            sbrs::harness::ConsistencyGuarantee level,
                            CheckTimes& times);

/// The history and consistency layers' share of a traced batch: what the
/// histories hold and how long splitting and checking them took.
struct HistoryStats {
  uint64_t events = 0;
  uint64_t value_bytes = 0;  // bytes of Values the histories' events hold
  uint64_t ops = 0;
  double split_s = 0;
  CheckTimes checks;
  uint64_t checked_ops = 0;
  uint64_t max_ops_per_key = 0;
  std::vector<std::string> problems;

  void merge(const HistoryStats& other);
};

struct TracedBatch {
  Batch plain;             // the untraced checked batch
  double drain_s = 0;      // untraced call with checks off (sim workloads)
  double traced_s = 0;     // traced composition doing plain.call_s's work
  LayerSamples layers;
  uint64_t rmws_delivered = 0;
  double mesh_overhead_s = 0;  // threaded: run wall - first invoke..last return
  std::vector<double> shard_drain_s;  // traced, per shard / mesh
  double generate_s = 0;
  uint64_t steps = 0;
  HistoryStats history;
  std::vector<std::string> problems;
};

TracedBatch run_traced(const Spec& spec, uint64_t seed);

/// Operations on keys whose history misses `level` (level_violation), the
/// per-key rule behind ops_failed_frac.
uint64_t failed_ops(const std::map<uint32_t, sbrs::sim::History>& by_key,
                    sbrs::harness::ConsistencyGuarantee level);

/// The workload's codec and GF kernel probed at its (n, k, D).
struct CodecProbe {
  double encode_us = 0;  // one full encode(v) into n blocks
  double decode_us = 0;  // one decode from the last k blocks (parity used)
  double mul_add_row_gbps = 0;  // GF row kernel at D / 8 / k bytes per row
  bool roundtrip_ok = false;
};

CodecProbe probe_codec(const sbrs::registers::RegisterConfig& cfg);

}  // namespace perfbench
