// Tests of the benchmark's own logic: statistics extraction, failed-op
// counting, and the traced composition reproducing the untraced runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "harness/runner.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sbrs::ClientId;
using sbrs::OpId;
using sbrs::Value;
using sbrs::harness::ConsistencyGuarantee;

TEST(Stats, QuantileInterpolatesBetweenRanks) {
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(Stats, RatioNamesItsBase) {
  EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
  EXPECT_THROW(ratio(1, 0), std::invalid_argument);
}

sbrs::sim::Invocation invocation(uint64_t op, uint32_t client,
                                 sbrs::sim::OpKind kind, Value value = {}) {
  sbrs::sim::Invocation inv;
  inv.op = OpId{op};
  inv.client = ClientId{client};
  inv.kind = kind;
  inv.value = std::move(value);
  return inv;
}

TEST(FailedOps, CountsOnlyTheOpsOfFailingKeys) {
  using sbrs::sim::OpKind;
  constexpr uint64_t kBits = 256;
  std::map<uint32_t, sbrs::sim::History> by_key;

  // Key 1: write A, then a read returning A — legal and strongly regular.
  sbrs::sim::History& good = by_key[1];
  good.record_invoke(1, invocation(1, 0, OpKind::kWrite, Value::from_tag(11, kBits)));
  good.record_return(2, OpId{1}, std::nullopt);
  good.record_invoke(3, invocation(2, 1, OpKind::kRead));
  good.record_return(4, OpId{2}, Value::from_tag(11, kBits));

  // Key 2: write B, then a read returning a value nobody wrote.
  sbrs::sim::History& bad = by_key[2];
  bad.record_invoke(1, invocation(3, 0, OpKind::kWrite, Value::from_tag(21, kBits)));
  bad.record_return(2, OpId{3}, std::nullopt);
  bad.record_invoke(3, invocation(4, 1, OpKind::kRead));
  bad.record_return(4, OpId{4}, Value::from_tag(99, kBits));
  bad.record_invoke(5, invocation(5, 1, OpKind::kRead));
  bad.record_return(6, OpId{5}, Value::from_tag(21, kBits));

  EXPECT_EQ(failed_ops(by_key, ConsistencyGuarantee::kStrongRegular), 3u);
  EXPECT_EQ(failed_ops(by_key, ConsistencyGuarantee::kWeakRegular), 3u);
  by_key.erase(2);
  EXPECT_EQ(failed_ops(by_key, ConsistencyGuarantee::kStrongRegular), 0u);
}

TEST(FailedOps, CountsAStaleReadAgainstRegularity) {
  using sbrs::sim::OpKind;
  constexpr uint64_t kBits = 256;
  std::map<uint32_t, sbrs::sim::History> by_key;
  // Two sequential writes, then a read returning the overwritten one: the
  // value is legal, weak regularity is not.
  sbrs::sim::History& h = by_key[0];
  h.record_invoke(1, invocation(1, 0, OpKind::kWrite, Value::from_tag(1, kBits)));
  h.record_return(2, OpId{1}, std::nullopt);
  h.record_invoke(3, invocation(2, 0, OpKind::kWrite, Value::from_tag(2, kBits)));
  h.record_return(4, OpId{2}, std::nullopt);
  h.record_invoke(5, invocation(3, 1, OpKind::kRead));
  h.record_return(6, OpId{3}, Value::from_tag(1, kBits));
  EXPECT_EQ(failed_ops(by_key, ConsistencyGuarantee::kStrongRegular), 3u);
}

TEST(Tracer, DecoratedRegisterRunReproducesTheUntracedRun) {
  const Spec spec = make_spec("reg-contended-sim", /*smoke=*/true);
  const auto alg = sbrs::harness::make_algorithm("adaptive", spec.cfg);
  sbrs::harness::RunOptions opts;
  opts.writers = spec.writers;
  opts.writes_per_client = spec.ops_per_client;
  opts.readers = spec.readers;
  opts.reads_per_client = spec.ops_per_client;
  opts.seed = 3;
  const auto plain = sbrs::harness::run_register_experiment(*alg, opts);

  Tracer tracer(TraceLevel::kLayers);
  TracedAlgorithm traced(*alg, tracer);
  const auto again = sbrs::harness::run_register_experiment(traced, opts);
  EXPECT_EQ(again.report.steps, plain.report.steps);
  EXPECT_EQ(again.report.rmws_triggered, plain.report.rmws_triggered);
  EXPECT_EQ(again.report.rmws_delivered, plain.report.rmws_delivered);
  EXPECT_EQ(again.max_object_bits, plain.max_object_bits);

  const LayerSamples l = tracer.collect();
  EXPECT_EQ(l.ops, plain.report.completed_ops);
  EXPECT_EQ(l.read_us.size() + l.write_us.size(), l.ops);
  EXPECT_EQ(l.rmws, plain.report.rmws_triggered);
  EXPECT_EQ(l.rmw_apply_us.size(), plain.report.rmws_delivered);
  EXPECT_EQ(l.replies, plain.report.rmws_delivered);
  EXPECT_LE(l.useful_replies, l.replies);
  EXPECT_GT(l.useful_replies, 0u);
  EXPECT_EQ(l.client_cb_us.size(), l.ops + l.replies);
  for (double w : l.request_wait_us) EXPECT_GE(w, 0.0);
}

TEST(Tracer, OpLatencyLevelRecordsOnlyOperations) {
  const Spec spec = make_spec("reg-contended-sim", /*smoke=*/true);
  const auto alg = sbrs::harness::make_algorithm("adaptive", spec.cfg);
  sbrs::harness::RunOptions opts;
  opts.writers = 2;
  opts.readers = 2;
  opts.writes_per_client = opts.reads_per_client = 10;
  Tracer tracer(TraceLevel::kOpLatency);
  TracedAlgorithm traced(*alg, tracer);
  sbrs::harness::run_register_experiment(traced, opts);
  const LayerSamples l = tracer.collect();
  EXPECT_EQ(l.read_us.size(), 20u);
  EXPECT_EQ(l.write_us.size(), 20u);
  EXPECT_TRUE(l.client_cb_us.empty());
  EXPECT_EQ(l.rmws, 0u);
}

// The smoke shapes of every workload, traced: the composition must report
// no problem — it reproduced the untraced run's op counts (and, on the sim
// backends, its exact step and RMW counts) and every check passed.
class SmokeWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeWorkload, TracedCompositionReproducesUntracedCounts) {
  const Spec spec = make_spec(GetParam(), /*smoke=*/true);
  const TracedBatch tb = run_traced(spec, 5);
  for (const auto& p : tb.plain.problems) ADD_FAILURE() << p;
  for (const auto& p : tb.problems) ADD_FAILURE() << p;
  for (const auto& p : tb.history.problems) ADD_FAILURE() << p;
  EXPECT_EQ(tb.plain.served, spec.attempted_ops());
  EXPECT_EQ(tb.layers.ops, tb.plain.served);
  EXPECT_EQ(tb.history.ops, tb.plain.served);
  EXPECT_GT(tb.plain.storage_ratio, 1.0);
  EXPECT_GT(tb.plain.read_ns.count(), 0u);
  EXPECT_GT(tb.plain.write_ns.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(All, SmokeWorkload,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(make_spec("no-such-workload", false), std::invalid_argument);
}

TEST(CodecProbe, RoundTripsAtTheWorkloadShape) {
  const CodecProbe p = probe_codec(make_spec("kv-write-large-sim", true).cfg);
  EXPECT_TRUE(p.roundtrip_ok);
  EXPECT_GT(p.encode_us, 0.0);
  EXPECT_GT(p.decode_us, 0.0);
  EXPECT_GT(p.mul_add_row_gbps, 0.0);
}

}  // namespace
}  // namespace perfbench
