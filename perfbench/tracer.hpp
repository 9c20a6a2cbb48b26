// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened around calls into the library's public functions from
// the benchmark's own code (nothing under src/ is instrumented).  Each
// span records its name, start, end, the span that was open when it began
// (its parent) and the id of the operation it belongs to.  Spans stay in
// memory and are written out as JSON lines once the run ends.
//
// A span's self time is its duration minus the time its children cover.
// Callbacks too frequent to record one span per call (the MoE engine's
// per-(layer, microbatch) scale function, ~2k calls per step) are timed
// and counted in aggregate instead, and their time is charged to the
// enclosing span's child time, so self times stay exact.
//
// Only the driving thread opens spans: the threaded runtime's workers are
// timed from outside, around ThreadedPipeline::run().
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/dynamism.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< covered by child spans and callbacks
    std::int64_t parent = -1;   ///< index into spans(), -1 for a root
    std::int64_t op = -1;       ///< operation id, -1 outside the op loop
  };

  /// RAII guard returned by span(); a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  Scope span(const char* name) {
    return Scope(enabled_ ? this : nullptr, name);
  }
  void set_op(std::int64_t op) { op_ = op; }

  /// Charge `ns` of timed callback work to the innermost open span.
  void add_child_time(std::int64_t ns) {
    if (current_ >= 0) {
      spans_[static_cast<std::size_t>(current_)].child_ns += ns;
    }
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  const std::vector<Span>& spans() const { return spans_; }

  std::vector<double> durations_s(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
      }
    }
    return out;
  }

  double total_s(const char* name) const {
    double sum = 0.0;
    for (double d : durations_s(name)) sum += d;
    return sum;
  }

  double self_s(const char* name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        ns += s.end_ns - s.start_ns - s.child_ns;
      }
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// One JSON object per span, times in microseconds since the tracer was
  /// created.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"self_us\":%.3f,\"parent\":%lld,"
                   "\"op\":%lld}\n",
                   i, s.name, static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns - s.child_ns) *
                       1e-3,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t open(const char* name) {
    Span s;
    s.name = name;
    s.parent = current_;
    s.op = op_;
    s.start_ns = now_ns();
    spans_.push_back(s);
    current_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return current_;
  }

  void close(std::int64_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    current_ = s.parent;
    if (current_ >= 0) {
      spans_[static_cast<std::size_t>(current_)].child_ns +=
          s.end_ns - s.start_ns;
    }
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::int64_t current_ = -1;
  std::int64_t op_ = -1;
};

/// DynamismEngine decorator handed to the session in the traced run:
/// step() becomes a "dynamic.step" span, and the per-(layer, microbatch)
/// scale callback is timed and counted in aggregate.
class TracedEngine final : public dynmo::dynamic::DynamismEngine {
 public:
  TracedEngine(dynmo::dynamic::DynamismEngine& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  TracedEngine(const TracedEngine&) = delete;
  TracedEngine& operator=(const TracedEngine&) = delete;

  std::string name() const override { return inner_.name(); }
  bool is_dynamism_point(std::int64_t iter) const override {
    return inner_.is_dynamism_point(iter);
  }
  void step(std::int64_t iter,
            std::span<dynmo::model::LayerState> states) override {
    const auto scope = tracer_.span("dynamic.step");
    inner_.step(iter, states);
  }
  dynmo::pipeline::MicrobatchScaleFn microbatch_scale(
      std::int64_t iter) override {
    auto fn = inner_.microbatch_scale(iter);
    if (!fn) return fn;
    // The returned callback lives only for the session step that asked for
    // it; this decorator outlives the session.
    return [this, fn = std::move(fn)](std::size_t layer, int mb) {
      const std::int64_t t0 = tracer_.now_ns();
      const double v = fn(layer, mb);
      const std::int64_t dt = tracer_.now_ns() - t0;
      mb_scale_ns_ += dt;
      ++mb_scale_calls_;
      tracer_.add_child_time(dt);
      return v;
    };
  }
  std::int64_t recommended_rebalance_interval() const override {
    return inner_.recommended_rebalance_interval();
  }
  double compute_fraction(
      std::span<const dynmo::model::LayerState> states) const override {
    return inner_.compute_fraction(states);
  }

  double mb_scale_s() const { return static_cast<double>(mb_scale_ns_) * 1e-9; }
  std::int64_t mb_scale_calls() const { return mb_scale_calls_; }

 private:
  dynmo::dynamic::DynamismEngine& inner_;
  Tracer& tracer_;
  std::int64_t mb_scale_ns_ = 0;
  std::int64_t mb_scale_calls_ = 0;
};

}  // namespace perfbench
