// Benchmark-side tracing of the register stack, taken from outside the
// library: decorators over the public protocol interfaces record how long
// each layer's work took and how long work waited for it.
//
// A TracedClient wraps one ClientProtocol. It times every on_invoke /
// on_response callback (the register layer, codec calls included), hands
// the protocol an ExecutionContext whose trigger() wraps each RmwFn so the
// RMW's apply is timed on whatever thread applies it, and whose complete()
// closes the operation's invoke -> return interval. From the stamps it also
// derives the transport waits: trigger -> apply start (request) and apply
// end -> on_response (reply).
//
// Every thread records into its own lane; lanes are merged only after the
// run's threads have joined, so recording takes no lock.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "registers/register_algorithm.h"
#include "runtime/context.h"

namespace perfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since `start_ns` (a now_ns() reading).
inline double seconds_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// What the decorators recorded. Durations are microseconds.
struct LayerSamples {
  std::vector<double> read_us;          // read invoke -> return
  std::vector<double> write_us;         // write invoke -> return
  std::vector<double> client_cb_us;     // one on_invoke / on_response call
  std::vector<double> rmw_apply_us;     // one RmwFn apply
  std::vector<double> request_wait_us;  // trigger -> apply start
  std::vector<double> reply_wait_us;    // apply end -> on_response
  double client_busy_s = 0;
  double rmw_busy_s = 0;
  uint64_t ops = 0;             // operations completed
  uint64_t rmws = 0;            // RMWs triggered
  uint64_t replies = 0;         // on_response calls
  uint64_t useful_replies = 0;  // ... while the triggering op was still open
  int64_t first_invoke_ns = std::numeric_limits<int64_t>::max();
  int64_t last_return_ns = std::numeric_limits<int64_t>::min();

  void merge(const LayerSamples& other);
};

enum class TraceLevel {
  kOpLatency,  // only invoke -> return per operation
  kLayers,     // every span and count above
};

class Tracer {
 public:
  explicit Tracer(TraceLevel level);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  TraceLevel level() const { return level_; }

  /// The calling thread's lane (created on first use).
  LayerSamples& lane();

  /// Merge of every lane. Call only after all recording threads joined.
  LayerSamples collect() const;

 private:
  const uint64_t id_;
  const TraceLevel level_;
  std::mutex mu_;  // guards lanes_ (registration only)
  std::vector<std::unique_ptr<LayerSamples>> lanes_;
};

/// Wrap every client the factory makes in a TracedClient recording into
/// `tracer`, which must outlive the clients and every RMW they trigger.
sbrs::runtime::ClientFactory traced_clients(sbrs::runtime::ClientFactory inner,
                                            Tracer& tracer);

/// A RegisterAlgorithm identical to `inner` except that its clients are
/// traced — what harness::run_register_experiment is handed in a traced run.
class TracedAlgorithm final : public sbrs::registers::RegisterAlgorithm {
 public:
  TracedAlgorithm(const sbrs::registers::RegisterAlgorithm& inner,
                  Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  const sbrs::registers::RegisterConfig& config() const override {
    return inner_.config();
  }
  sbrs::codec::CodecPtr codec() const override { return inner_.codec(); }
  sbrs::runtime::ObjectFactory object_factory() const override {
    return inner_.object_factory();
  }
  sbrs::runtime::ClientFactory client_factory() const override {
    return traced_clients(inner_.client_factory(), tracer_);
  }
  sbrs::runtime::RepairPlanner repair_planner() const override {
    return inner_.repair_planner();
  }

 private:
  const sbrs::registers::RegisterAlgorithm& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
