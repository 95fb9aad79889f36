#include "workloads.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "codec/codec.h"
#include "consistency/checker.h"
#include "gf/gf_kernels.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "runtime/backend.h"
#include "sim/linkfault.h"
#include "sim/schedulers.h"
#include "sim/simulator.h"
#include "stats.h"
#include "store/multi_client.h"
#include "store/multi_object.h"
#include "store/queue_workload.h"
#include "store/shard_map.h"
#include "store/store.h"

namespace perfbench {

namespace harness = sbrs::harness;
namespace runtime = sbrs::runtime;
namespace sim = sbrs::sim;
namespace store = sbrs::store;
using sbrs::ClientId;
using sbrs::ObjectId;
using sbrs::OpId;
using sbrs::Value;

namespace {

constexpr const char* kAlgorithm = "adaptive";
constexpr const char* kKeyPrefix = "user";
/// Workers draining a store's shards: one, because the benchmark runs on
/// one CPU.
constexpr uint32_t kDrainWorkers = 1;
/// Write tags of the put/get probe: far above any batch write tag, so the
/// probe's values stay distinct from the batch's.
constexpr uint64_t kProbeTagBase = uint64_t{1} << 48;

sbrs::registers::RegisterConfig adaptive_cfg(uint64_t data_bits) {
  sbrs::registers::RegisterConfig cfg;
  cfg.f = 1;
  cfg.k = 2;
  cfg.n = 4;
  cfg.data_bits = data_bits;
  return cfg;
}

harness::ConsistencyGuarantee promised_level() {
  return harness::expected_consistency(kAlgorithm);
}

store::StoreOptions store_options(const Spec& spec, uint64_t seed, bool check) {
  store::StoreOptions o;
  o.algorithm = kAlgorithm;
  o.register_config = spec.cfg;
  o.num_shards = spec.shards;
  o.workload.num_keys = spec.num_keys;
  o.workload.clients = spec.sessions;
  o.workload.ops_per_client = spec.ops_per_session;
  o.workload.mix = spec.mix;
  o.workload.distribution = store::ycsb::Distribution::kUniform;
  o.workload.seed = seed;
  o.scheduler = harness::SchedKind::kRandom;
  o.seed = seed;
  o.threads = kDrainWorkers;
  o.check_consistency = check;
  o.key_prefix = kKeyPrefix;
  o.backend = spec.kind == Kind::kStoreThreads ? harness::Backend::kThreads
                                                : harness::Backend::kSim;
  return o;
}

harness::RunOptions register_options(const Spec& spec, uint64_t seed,
                                     bool check) {
  harness::RunOptions o;
  o.writers = spec.writers;
  o.writes_per_client = spec.ops_per_client;
  o.readers = spec.readers;
  o.reads_per_client = spec.ops_per_client;
  o.seed = seed;
  o.scheduler = harness::SchedKind::kRandom;
  o.check_consistency = check;
  return o;
}

void check_completed(Batch& b, const std::string& what) {
  if (b.completed != b.attempted) {
    b.problems.push_back(what + ": " + std::to_string(b.completed) + " of " +
                         std::to_string(b.attempted) + " ops completed");
  }
}

// --- untraced batches ------------------------------------------------------

Batch store_batch(const Spec& spec, uint64_t seed, bool check) {
  Batch b;
  const store::StoreOptions opts = store_options(spec, seed, check);
  int64_t t = now_ns();
  store::Store st(opts);
  b.setup_s = seconds_since(t);

  t = now_ns();
  const store::StoreResult r = st.run();
  b.call_s = seconds_since(t);

  b.attempted = spec.attempted_ops();
  b.completed = r.completed_reads + r.completed_writes;
  b.served = b.completed;
  b.failed = b.attempted - std::min(b.attempted, b.completed);
  check_completed(b, "store run");
  if (!r.all_live) b.problems.push_back("store run: a session did not finish");
  for (const store::ShardResult& s : r.shards) {
    b.counts.push_back({s.report.completed_ops, s.report.steps,
                        s.report.rmws_triggered, s.report.rmws_delivered});
    if (!check) continue;
    if (s.keys_checked != s.keys_touched) {
      b.problems.push_back("shard " + std::to_string(s.shard) + ": " +
                           std::to_string(s.keys_checked) + " of " +
                           std::to_string(s.keys_touched) + " keys checked");
    }
    if (s.consistency_failures == 0) continue;
    b.problems.push_back("shard " + std::to_string(s.shard) + ": " +
                         std::to_string(s.consistency_failures) +
                         " keys miss the promised level" +
                         (s.violations.empty() ? "" : ": " + s.violations[0]));
    if (spec.kind == Kind::kStoreSim) {
      // The sim store keeps its histories: count the failing keys' ops.
      b.failed += failed_ops(
          store::split_history_by_key(st.shard_sim(s.shard).history(),
                                      st.shard_op_keys(s.shard)),
          promised_level());
    } else {
      // The threaded path keeps no history: every op of the shard counts.
      b.failed += s.report.completed_ops;
    }
  }

  // Peak bits in base objects over the user data they hold (num_keys * D).
  // Sim: the Definition 2 object peak of each shard, summed. Threads: each
  // shard's sum of per-object peaks (an envelope; objects need not peak
  // together), summed.
  const double user_bits =
      static_cast<double>(spec.num_keys) * static_cast<double>(spec.cfg.data_bits);
  b.storage_ratio =
      ratio(static_cast<double>(spec.kind == Kind::kStoreThreads
                                    ? r.peak_total_bits_sum
                                    : r.peak_object_bits_sum),
            user_bits);

  if (!check) return b;
  if (spec.kind == Kind::kStoreThreads) {
    b.read_ns = r.read_latency;
    b.write_ns = r.write_latency;
    return b;
  }
  // Sim store: time the synchronous put/get API, one pair per key visited.
  for (uint32_t i = 0; i < spec.probe_pairs; ++i) {
    const std::string key =
        kKeyPrefix + std::to_string((uint64_t{i} * 7919) % spec.num_keys);
    const Value v = Value::from_tag(kProbeTagBase + i, spec.cfg.data_bits);
    t = now_ns();
    st.put(key, v);
    b.write_ns.record(static_cast<uint64_t>(now_ns() - t));
    t = now_ns();
    const Value got = st.get(key);
    b.read_ns.record(static_cast<uint64_t>(now_ns() - t));
    b.attempted += 2;
    b.completed += 2;
    if (got != v) {
      ++b.failed;
      b.problems.push_back("get(" + key + ") did not return the preceding put");
    }
  }
  return b;
}

Batch register_batch(const Spec& spec, uint64_t seed, bool check) {
  Batch b;
  int64_t t = now_ns();
  const auto alg = harness::make_algorithm(kAlgorithm, spec.cfg);
  b.setup_s = seconds_since(t);

  const harness::RunOptions opts = register_options(spec, seed, check);
  t = now_ns();
  const harness::RunOutcome out = harness::run_register_experiment(*alg, opts);
  b.call_s = seconds_since(t);

  b.attempted = spec.attempted_ops();
  b.completed = out.report.completed_ops;
  b.served = b.completed;
  b.failed = b.attempted - std::min(b.attempted, b.completed);
  check_completed(b, "register run");
  if (!out.live) b.problems.push_back("register run: not live");
  b.counts.push_back({out.report.completed_ops, out.report.steps,
                      out.report.rmws_triggered, out.report.rmws_delivered});
  // One register holding D bits of user data.
  b.storage_ratio = ratio(static_cast<double>(out.max_object_bits),
                          static_cast<double>(spec.cfg.data_bits));
  if (!check) return b;
  CheckTimes unused;
  const std::string why = level_violation(out.history, promised_level(), unused);
  if (!why.empty()) {
    b.failed += b.completed;
    b.problems.push_back("register history of run seed " + std::to_string(seed) +
                         " misses the promised level: " + why);
  }

  // Wall-clock invoke -> return of each op, from a second unchecked run of
  // the same inputs whose clients only stamp invoke and complete.
  Tracer tracer(TraceLevel::kOpLatency);
  TracedAlgorithm timed(*alg, tracer);
  const harness::RunOutcome again = harness::run_register_experiment(
      timed, register_options(spec, seed, /*check=*/false));
  if (again.report.completed_ops != out.report.completed_ops ||
      again.report.steps != out.report.steps) {
    b.problems.push_back("latency rerun diverged from the checked run");
  }
  const LayerSamples lat = tracer.collect();
  for (double us : lat.read_us) b.read_ns.record(static_cast<uint64_t>(us * 1e3));
  for (double us : lat.write_us) b.write_ns.record(static_cast<uint64_t>(us * 1e3));
  return b;
}

// --- traced compositions -----------------------------------------------------

template <typename Fn>
double timed(Fn&& fn) {
  const int64_t t = now_ns();
  fn();
  return seconds_since(t);
}

/// Per-key checks of one shard's (or the register's) history at the
/// promised level, timed per checker, with the history-layer counts.
HistoryStats check_history(const sim::History& h,
                           const store::OpKeyTable* op_keys) {
  HistoryStats st;
  st.events = h.events().size();
  for (const auto& ev : h.events()) st.value_bytes += ev.value.bytes().size();
  st.ops = h.invoke_count();

  std::map<uint32_t, sim::History> split;
  std::vector<std::pair<uint32_t, const sim::History*>> by_key;
  if (op_keys == nullptr) {
    by_key.emplace_back(0, &h);
  } else {
    st.split_s = timed([&] { split = store::split_history_by_key(h, *op_keys); });
    for (const auto& [key, sub] : split) by_key.emplace_back(key, &sub);
  }
  for (const auto& [key, sub] : by_key) {
    const std::string why = level_violation(*sub, promised_level(), st.checks);
    st.checked_ops += sub->invoke_count();
    st.max_ops_per_key = std::max<uint64_t>(st.max_ops_per_key, sub->invoke_count());
    if (!why.empty()) {
      st.problems.push_back("traced run: key " + std::to_string(key) +
                            " misses the promised level: " + why);
    }
  }
  return st;
}

/// Rebuild what Store::run does for `spec` from the public store pieces,
/// with every session's client traced.
void traced_store(const Spec& spec, uint64_t seed, TracedBatch& tb) {
  const store::StoreOptions opts = store_options(spec, seed, true);
  const uint32_t shards = spec.shards;
  const int64_t start = now_ns();

  std::vector<store::ycsb::Op> ops;
  tb.generate_s = timed([&] { ops = store::ycsb::generate(opts.workload); });

  // Key ids 0..num_keys-1 named <prefix><i>, placed by name hash — the
  // Store's loaded keyspace.
  const store::ShardMap map(shards);
  std::vector<uint32_t> key_shard(spec.num_keys);
  std::vector<std::vector<uint32_t>> premount(shards);
  for (uint32_t i = 0; i < spec.num_keys; ++i) {
    key_shard[i] = map.shard_of(kKeyPrefix + std::to_string(i));
    premount[key_shard[i]].push_back(i);
  }

  std::vector<std::unique_ptr<sbrs::registers::RegisterAlgorithm>> algs;
  std::vector<std::shared_ptr<store::OpKeyTable>> op_keys;
  for (uint32_t s = 0; s < shards; ++s) {
    algs.push_back(harness::make_algorithm(kAlgorithm, spec.cfg));
    op_keys.push_back(std::make_shared<store::OpKeyTable>());
  }
  auto object_factory = [&](uint32_t s) -> runtime::ObjectFactory {
    return [inner = algs[s]->object_factory(),
            mounted = premount[s]](ObjectId o) -> std::unique_ptr<runtime::ObjectStateBase> {
      return std::make_unique<store::MultiKeyObjectState>(o, inner, mounted);
    };
  };
  auto client_factory = [&](uint32_t s, Tracer& tracer) {
    runtime::ClientFactory mux =
        [inner = algs[s]->client_factory(), keys = std::shared_ptr<const store::OpKeyTable>(
                                                 op_keys[s])](ClientId c)
        -> std::unique_ptr<runtime::ClientProtocol> {
      return std::make_unique<store::MultiKeyClient>(c, inner, keys);
    };
    return traced_clients(std::move(mux), tracer);
  };

  std::vector<RunCounts> counts(shards);
  uint64_t next_tag = 1;
  double mount_s = 0;  // sim construction: set-up, outside the untraced call

  if (spec.kind == Kind::kStoreSim) {
    Tracer tracer(TraceLevel::kLayers);
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    std::vector<store::QueueWorkload*> queues;
    const int64_t mount_start = now_ns();
    for (uint32_t s = 0; s < shards; ++s) {
      const uint64_t shard_seed = harness::cell_seed(seed, s, 0);
      sim::SimConfig sc;
      sc.num_objects = spec.cfg.n;
      sc.num_clients = spec.sessions;
      sc.max_steps = opts.max_steps_per_shard;
      sc.link_faults.seed = sim::fault_seed(shard_seed);
      sim::RandomScheduler::Options so;
      so.seed = shard_seed;
      so.partition_heal_after = opts.heal_after;
      auto queue = std::make_unique<store::QueueWorkload>(spec.sessions, op_keys[s]);
      queues.push_back(queue.get());
      sims.push_back(std::make_unique<sim::Simulator>(
          sc, object_factory(s), client_factory(s, tracer), std::move(queue),
          std::make_unique<sim::RandomScheduler>(so)));
    }
    mount_s = seconds_since(mount_start);
    for (const auto& op : ops) {
      store::QueueWorkload::Item item;
      item.key = op.key;
      item.kind = op.kind;
      if (op.kind == sim::OpKind::kWrite) {
        item.value = Value::from_tag(next_tag++, spec.cfg.data_bits);
      }
      queues[key_shard[op.key]]->push(ClientId{op.client}, std::move(item));
    }
    // Drain and check each shard on its own worker, as Store::run does.
    struct ShardOut {
      double drain_s = 0;
      HistoryStats history;
    };
    const std::vector<ShardOut> outs =
        harness::parallel_map(shards, kDrainWorkers, [&](size_t s) {
          ShardOut out;
          out.drain_s = timed([&] { sims[s]->run(); });
          out.history = check_history(sims[s]->history(), op_keys[s].get());
          return out;
        });
    for (uint32_t s = 0; s < shards; ++s) {
      const sim::RunReport& rep = sims[s]->report();
      counts[s] = {rep.completed_ops, rep.steps, rep.rmws_triggered,
                   rep.rmws_delivered};
      tb.steps += rep.steps;
      tb.rmws_delivered += rep.rmws_delivered;
      tb.shard_drain_s.push_back(outs[s].drain_s);
      tb.history.merge(outs[s].history);
    }
    tb.layers = tracer.collect();
  } else {
    // Threaded: one mesh per shard, in shard order, as Store::run does.
    std::vector<std::map<uint32_t, std::vector<runtime::Invocation>>> sessions(shards);
    uint64_t next_op = 1;
    for (const auto& op : ops) {
      runtime::Invocation inv;
      inv.op = OpId{next_op++};
      inv.client = ClientId{op.client};
      inv.kind = op.kind;
      if (op.kind == sim::OpKind::kWrite) {
        inv.value = Value::from_tag(next_tag++, spec.cfg.data_bits);
      }
      const uint32_t s = key_shard[op.key];
      op_keys[s]->assign(inv.op, op.key);
      sessions[s][op.client].push_back(std::move(inv));
    }
    for (uint32_t s = 0; s < shards; ++s) {
      Tracer tracer(TraceLevel::kLayers);
      runtime::ThreadBackendOptions topts;
      topts.num_objects = spec.cfg.n;
      topts.object_factory = object_factory(s);
      topts.client_factory = client_factory(s, tracer);
      for (auto& [client, list] : sessions[s]) {
        topts.sessions.push_back({ClientId{client}, std::move(list)});
      }
      runtime::ThreadRunReport rep;
      const double wall = timed([&] { rep = runtime::run_threaded(topts); });
      const LayerSamples lane = tracer.collect();
      tb.shard_drain_s.push_back(wall);
      if (lane.ops > 0) {
        tb.mesh_overhead_s +=
            wall - static_cast<double>(lane.last_return_ns - lane.first_invoke_ns) * 1e-9;
      }
      tb.layers.merge(lane);
      counts[s].completed = rep.completed_ops;
      tb.rmws_delivered += rep.rmws_delivered;
      tb.history.merge(check_history(rep.history, op_keys[s].get()));
    }
  }
  tb.traced_s = seconds_since(start) - mount_s;

  // The composition must have done the untraced run's work: per shard the
  // same completed ops, and on the deterministic sim backend the same steps
  // and RMWs too.
  const std::vector<RunCounts>& want = tb.plain.counts;
  for (uint32_t s = 0; s < shards && s < want.size(); ++s) {
    const bool same = spec.kind == Kind::kStoreSim
                          ? counts[s] == want[s]
                          : counts[s].completed == want[s].completed;
    if (!same) {
      tb.problems.push_back("traced shard " + std::to_string(s) +
                            " did not reproduce the untraced counts");
    }
  }
  if (want.size() != shards) tb.problems.push_back("untraced shard count differs");
}

void traced_register(const Spec& spec, uint64_t seed, TracedBatch& tb) {
  const auto alg = harness::make_algorithm(kAlgorithm, spec.cfg);
  Tracer tracer(TraceLevel::kLayers);
  TracedAlgorithm traced(*alg, tracer);
  harness::RunOutcome out;
  const double drain = timed([&] {
    out = harness::run_register_experiment(traced, register_options(spec, seed, false));
  });
  tb.shard_drain_s = {drain};
  tb.steps = out.report.steps;
  tb.rmws_delivered = out.report.rmws_delivered;
  tb.layers = tracer.collect();
  tb.history = check_history(out.history, nullptr);
  // run_register_experiment also runs the strongly-safe checker; the
  // composition runs it too so traced_s covers the same work.
  tb.history.checks.safe_s +=
      timed([&] { sbrs::consistency::check_strongly_safe(out.history); });
  tb.traced_s = drain + tb.history.checks.total();

  const RunCounts got{out.report.completed_ops, out.report.steps,
                      out.report.rmws_triggered, out.report.rmws_delivered};
  if (tb.plain.counts.size() != 1 || !(got == tb.plain.counts[0])) {
    tb.problems.push_back("traced register run did not reproduce the untraced counts");
  }
}

}  // namespace

uint64_t Spec::attempted_ops() const {
  if (kind == Kind::kRegisterSim) {
    return uint64_t{writers + readers} * ops_per_client;
  }
  return uint64_t{sessions} * ops_per_session;  // mixes A and B: one op each
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "kv-read-threads", "kv-write-large-sim", "reg-contended-sim"};
  return kNames;
}

Spec make_spec(const std::string& name, bool smoke) {
  Spec s;
  s.name = name;
  if (name == "kv-read-threads") {
    s.kind = Kind::kStoreThreads;
    s.cfg = adaptive_cfg(4096);  // 512-B records
    s.num_keys = 10'000;
    s.shards = 4;
    s.sessions = 1;
    s.ops_per_session = smoke ? 400 : 12'000;
    s.mix = store::ycsb::Mix::kB;
  } else if (name == "kv-write-large-sim") {
    s.kind = Kind::kStoreSim;
    s.cfg = adaptive_cfg(131'072);  // 16-KiB records
    s.num_keys = 2'000;
    s.shards = 4;
    s.sessions = 4;
    s.ops_per_session = smoke ? 50 : 1'000;
    s.mix = store::ycsb::Mix::kA;
    s.probe_pairs = smoke ? 20 : 1'000;
  } else if (name == "reg-contended-sim") {
    s.kind = Kind::kRegisterSim;
    s.cfg = adaptive_cfg(4096);
    s.writers = 4;
    s.readers = 4;
    s.ops_per_client = smoke ? 50 : 1'000;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

Batch run_batch(const Spec& spec, uint64_t seed, bool check) {
  return spec.kind == Kind::kRegisterSim ? register_batch(spec, seed, check)
                                         : store_batch(spec, seed, check);
}

TracedBatch run_traced(const Spec& spec, uint64_t seed) {
  TracedBatch tb;
  tb.plain = run_batch(spec, seed, true);
  if (spec.kind != Kind::kStoreThreads) {
    tb.drain_s = run_batch(spec, seed, false).call_s;
  }
  if (spec.kind == Kind::kRegisterSim) {
    traced_register(spec, seed, tb);
  } else {
    traced_store(spec, seed, tb);
  }
  return tb;
}

void HistoryStats::merge(const HistoryStats& o) {
  events += o.events;
  value_bytes += o.value_bytes;
  ops += o.ops;
  split_s += o.split_s;
  checks.legal_s += o.checks.legal_s;
  checks.weak_s += o.checks.weak_s;
  checks.strong_s += o.checks.strong_s;
  checks.safe_s += o.checks.safe_s;
  checked_ops += o.checked_ops;
  max_ops_per_key = std::max(max_ops_per_key, o.max_ops_per_key);
  problems.insert(problems.end(), o.problems.begin(), o.problems.end());
}

std::string level_violation(const sim::History& h,
                            harness::ConsistencyGuarantee level,
                            CheckTimes& times) {
  namespace c = sbrs::consistency;
  std::string why;
  auto run = [&](double& slot, auto&& checker) {
    if (!why.empty()) return;
    c::CheckResult r;
    slot += timed([&] { r = checker(h); });
    if (!r.ok) why = r.violations.empty() ? r.summary() : r.violations.front();
  };
  run(times.legal_s, c::check_values_legal);
  switch (level) {
    case harness::ConsistencyGuarantee::kStronglySafe:
      run(times.safe_s, c::check_strongly_safe);
      break;
    case harness::ConsistencyGuarantee::kWeakRegular:
      run(times.weak_s, c::check_weak_regularity);
      break;
    case harness::ConsistencyGuarantee::kStrongRegular:
      run(times.weak_s, c::check_weak_regularity);
      run(times.strong_s, c::check_strong_regularity);
      break;
  }
  return why;
}

uint64_t failed_ops(const std::map<uint32_t, sim::History>& by_key,
                    harness::ConsistencyGuarantee level) {
  CheckTimes unused;
  uint64_t failed = 0;
  for (const auto& [key, h] : by_key) {
    if (!level_violation(h, level, unused).empty()) failed += h.invoke_count();
  }
  return failed;
}

CodecProbe probe_codec(const sbrs::registers::RegisterConfig& cfg) {
  CodecProbe p;
  const auto alg = harness::make_algorithm(kAlgorithm, cfg);
  const sbrs::codec::CodecPtr codec = alg->codec();
  const Value v = Value::from_tag(0x5eed, cfg.data_bits);
  constexpr int kRounds = 7;
  constexpr int kReps = 200;

  std::vector<double> enc, dec, gbps;
  std::vector<sbrs::codec::Block> blocks = codec->encode(v);
  const std::vector<sbrs::codec::Block> parity(blocks.end() - codec->k(),
                                               blocks.end());
  std::optional<Value> decoded;
  const size_t row = cfg.data_bits / 8 / cfg.k;
  std::vector<uint8_t> x(row, 0x5a), y(row, 0x3c);
  for (int r = 0; r < kRounds; ++r) {
    enc.push_back(timed([&] {
      for (int i = 0; i < kReps; ++i) blocks = codec->encode(v);
    }) * 1e6 / kReps);
    dec.push_back(timed([&] {
      for (int i = 0; i < kReps; ++i) decoded = codec->decode(parity);
    }) * 1e6 / kReps);
    const double s = timed([&] {
      for (int i = 0; i < kReps; ++i) {
        sbrs::gf::kern::mul_add_row(y.data(), x.data(), static_cast<uint8_t>(0xb7 + i), row);
      }
    });
    gbps.push_back(static_cast<double>(row) * kReps / s * 1e-9);
  }
  p.encode_us = median(enc);
  p.decode_us = median(dec);
  p.mul_add_row_gbps = median(gbps);
  p.roundtrip_ok = decoded.has_value() && *decoded == v;
  return p;
}

}  // namespace perfbench
