#include "trace.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_map>
#include <utility>

namespace perfbench {

using sbrs::ClientId;
using sbrs::ObjectId;
using sbrs::OpId;
using sbrs::RmwId;
using sbrs::Value;
namespace runtime = sbrs::runtime;

namespace {

double us_between(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-3;
}

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

std::atomic<uint64_t> next_tracer_id{1};

/// Stamps of one triggered RMW. The triggering client writes op and
/// trigger_ns before the request is sent; the applying thread writes the
/// apply times; the client reads them only after the reply arrives. The
/// backend's request and reply hand-offs order those accesses.
constexpr uint64_t kNoOp = UINT64_MAX;  // RMW triggered with no op open

struct RmwStamp {
  uint64_t op = kNoOp;
  int64_t trigger_ns = 0;
  int64_t apply_end_ns = 0;
};

class TracedClient final : public runtime::ClientProtocol {
 public:
  TracedClient(std::unique_ptr<runtime::ClientProtocol> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void on_invoke(const runtime::Invocation& inv,
                 runtime::ExecutionContext& ctx) override {
    LayerSamples& lane = tracer_.lane();
    const int64_t start = now_ns();
    open_ = Open{inv.op.value, inv.kind, start};
    lane.first_invoke_ns = std::min(lane.first_invoke_ns, start);
    Context traced(*this, ctx, lane);
    inner_->on_invoke(inv, traced);
    record_callback(lane, start);
  }

  void on_response(RmwId rmw, runtime::ResponsePtr response,
                   runtime::ExecutionContext& ctx) override {
    LayerSamples& lane = tracer_.lane();
    const int64_t start = now_ns();
    if (tracer_.level() == TraceLevel::kLayers) {
      ++lane.replies;
      auto it = stamps_.find(rmw.value);
      if (it != stamps_.end()) {
        lane.reply_wait_us.push_back(us_between(it->second->apply_end_ns, start));
        if (open_ && open_->op == it->second->op) ++lane.useful_replies;
        stamps_.erase(it);
      }
    }
    Context traced(*this, ctx, lane);
    inner_->on_response(rmw, std::move(response), traced);
    record_callback(lane, start);
  }

  sbrs::metrics::StorageFootprint footprint() const override {
    return inner_->footprint();
  }
  uint64_t stored_bits() const override { return inner_->stored_bits(); }

 private:
  struct Open {
    uint64_t op = 0;
    runtime::OpKind kind = runtime::OpKind::kRead;
    int64_t invoke_ns = 0;
  };

  class Context final : public runtime::ExecutionContext {
   public:
    Context(TracedClient& client, runtime::ExecutionContext& inner,
            LayerSamples& lane)
        : client_(client), inner_(inner), lane_(lane) {}

    RmwId trigger(ObjectId target, runtime::RmwFn fn,
                  sbrs::metrics::StorageFootprint request_footprint) override {
      if (client_.tracer_.level() != TraceLevel::kLayers) {
        return inner_.trigger(target, std::move(fn), request_footprint);
      }
      auto stamp = std::make_shared<RmwStamp>();
      stamp->op = client_.open_ ? client_.open_->op : kNoOp;
      Tracer* tracer = &client_.tracer_;
      runtime::RmwFn timed = [fn = std::move(fn), stamp,
                              tracer](runtime::ObjectStateBase& state) {
        const int64_t start = now_ns();
        runtime::ResponsePtr response = fn(state);
        const int64_t end = now_ns();
        stamp->apply_end_ns = end;
        LayerSamples& lane = tracer->lane();
        lane.request_wait_us.push_back(us_between(stamp->trigger_ns, start));
        lane.rmw_apply_us.push_back(us_between(start, end));
        lane.rmw_busy_s += static_cast<double>(end - start) * 1e-9;
        return response;
      };
      ++lane_.rmws;
      stamp->trigger_ns = now_ns();
      const RmwId id = inner_.trigger(target, std::move(timed), request_footprint);
      client_.stamps_.emplace(id.value, std::move(stamp));
      return id;
    }

    void complete(OpId op, std::optional<Value> result) override {
      const int64_t end = now_ns();
      if (client_.open_ && client_.open_->op == op.value) {
        const double us = us_between(client_.open_->invoke_ns, end);
        (client_.open_->kind == runtime::OpKind::kRead ? lane_.read_us
                                                       : lane_.write_us)
            .push_back(us);
        ++lane_.ops;
        lane_.last_return_ns = std::max(lane_.last_return_ns, end);
        client_.open_.reset();
      }
      inner_.complete(op, std::move(result));
    }

    ClientId self() const override { return inner_.self(); }
    uint32_t num_objects() const override { return inner_.num_objects(); }
    uint64_t now() const override { return inner_.now(); }

   private:
    TracedClient& client_;
    runtime::ExecutionContext& inner_;
    LayerSamples& lane_;
  };

  void record_callback(LayerSamples& lane, int64_t start) {
    if (tracer_.level() != TraceLevel::kLayers) return;
    const int64_t end = now_ns();
    lane.client_cb_us.push_back(us_between(start, end));
    lane.client_busy_s += static_cast<double>(end - start) * 1e-9;
  }

  std::unique_ptr<runtime::ClientProtocol> inner_;
  Tracer& tracer_;
  std::optional<Open> open_;
  std::unordered_map<uint64_t, std::shared_ptr<RmwStamp>> stamps_;
};

}  // namespace

void LayerSamples::merge(const LayerSamples& other) {
  append(read_us, other.read_us);
  append(write_us, other.write_us);
  append(client_cb_us, other.client_cb_us);
  append(rmw_apply_us, other.rmw_apply_us);
  append(request_wait_us, other.request_wait_us);
  append(reply_wait_us, other.reply_wait_us);
  client_busy_s += other.client_busy_s;
  rmw_busy_s += other.rmw_busy_s;
  ops += other.ops;
  rmws += other.rmws;
  replies += other.replies;
  useful_replies += other.useful_replies;
  first_invoke_ns = std::min(first_invoke_ns, other.first_invoke_ns);
  last_return_ns = std::max(last_return_ns, other.last_return_ns);
}

Tracer::Tracer(TraceLevel level) : id_(next_tracer_id++), level_(level) {}

LayerSamples& Tracer::lane() {
  // One-entry per-thread cache keyed by tracer id (ids are never reused, so
  // a stale entry from a destroyed tracer can never match).
  thread_local uint64_t cached_id = 0;
  thread_local LayerSamples* cached = nullptr;
  if (cached_id == id_) return *cached;
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(std::make_unique<LayerSamples>());
  cached_id = id_;
  cached = lanes_.back().get();
  return *cached;
}

LayerSamples Tracer::collect() const {
  LayerSamples all;
  for (const auto& lane : lanes_) all.merge(*lane);
  return all;
}

runtime::ClientFactory traced_clients(runtime::ClientFactory inner,
                                      Tracer& tracer) {
  return [inner = std::move(inner),
          &tracer](ClientId c) -> std::unique_ptr<runtime::ClientProtocol> {
    return std::make_unique<TracedClient>(inner(c), tracer);
  };
}

}  // namespace perfbench
