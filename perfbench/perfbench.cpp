// perfbench: wall-clock benchmark of the simulator and the threaded runtime.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Workloads (perfbench/README.md says why each exists):
//   moe_routing        Mixtral-8x7b on 16 PP x 8 DP, DynMo Diffusion every
//                      iteration; the dynamism engine does almost all work.
//   grid_trace_replay  128-block sparse-attention GPT on a 32 PP x 2 DP
//                      DGX-H100 grid with telemetry on, then TraceReader +
//                      same-config balance::replay() of the trace.
//   threaded_elastic   ThreadedPipeline runs of a plan with migrations, a
//                      global prune, and a shrink + expand restart.
//
// Every input is derived from --seed.  A run does a fixed amount of work,
// sized from --seconds by a per-workload nominal rate (about --seconds on a
// 4-core x86 machine), so a faster program finishes sooner and wall_s
// shows it.  With --trace 0 the run reports the end-to-end metrics; with
// --trace 1 it records spans around calls into each layer (tracer.hpp),
// writes them to DIR/spans-<workload>.jsonl and reports the per-layer
// metrics the workload exercises (run.py completes the list from
// BENCHMARK.json).  The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "balance/replay.hpp"
#include "bench_common.hpp"
#include "runtime/threaded.hpp"
#include "telemetry/trace_reader.hpp"
#include "tracer.hpp"

namespace {

using namespace dynmo;
using perfbench::Clock;
using perfbench::seconds_between;
using perfbench::TracedEngine;
using perfbench::Tracer;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

/// Set-ups timed per run; setup_s is their median (SetupTimer).
constexpr int kSetups = 15;
/// Fewest operations per run: ten samples must lie beyond p90.
constexpr std::int64_t kMinOps = 100;

// Nominal operations per second on a 4-core x86 machine (Release, g++ 12).
// They size the fixed work of a run from --seconds; they are constants of
// the benchmark, never measured at run time.
constexpr double kMoeOpsPerSecond = 7.0;
constexpr double kGridOpsPerSecond = 230.0;
constexpr double kThreadedOpsPerSecond = 9.5;

// Substreams of the workload seed.
constexpr std::uint64_t kSessionStream = 1;
constexpr std::uint64_t kEngineStream = 2;
constexpr std::uint64_t kThreadedStream = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  int nproc = 1;  ///< CPUs the process may run on when it starts
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed as "# ..." lines

  /// Counts `count` failed checks, all for the reason `why`.
  void fail(const std::string& why, std::int64_t count = 1) {
    failed += count;
    notes.push_back("FAILED CHECK: " + why);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return hash_mix(seed, stream, 0x9e7fbe4cULL);
}

std::int64_t op_count(double seconds, double ops_per_second) {
  return std::max(kMinOps, static_cast<std::int64_t>(
                               std::llround(seconds * ops_per_second)));
}

/// Linear-interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_value(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/// Timings every workload gathers, turned into the end-to-end metrics.
struct Timings {
  Clock::time_point start;  ///< when the workload's own set-up began
  std::vector<double> setup_s;
  std::vector<double> op_s;
  double iterations = 0.0;  ///< training iterations the op loop advanced

  /// End-to-end metrics untraced; trace.wall_s traced.
  void report_wall(Report& r, const Tracer& tracer) const {
    const double wall_s = seconds_between(start, Clock::now());
    if (tracer.enabled()) {
      r.add("trace.wall_s", wall_s, "s");
      return;
    }
    r.add("setup_s", quantile(setup_s, 0.5), "s");
    r.add("wall_s", wall_s, "s");
    r.add("iters_per_s", iterations / std::max(1e-12, sum(op_s)), "1/s");
    r.add("op_p50_ms", 1e3 * quantile(op_s, 0.5), "ms");
    r.add("op_p90_ms", 1e3 * quantile(op_s, 0.9), "ms");
    r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  }
};

/// Times the workload's set-up: once in this process, where it starts the
/// workload clock, then kSetups - 1 more times, each cold in a fresh
/// process, spread evenly over the operation loop.  Back-to-back samples
/// would all land in one of the machine's fast or slow spells (which last
/// seconds); spread out, they sample the run's mix of spells as the
/// operation timings do.
///
/// The constructor forks a helper process before this one has done any
/// work or started a thread.  For each sample the helper forks a child
/// from that pristine state; the child runs `set_up` and sends back the
/// time it took and the digest it returned, which must equal the digest of
/// the workload's own set-up.  This process waits, so the two never run at
/// once.
class SetupTimer {
 public:
  SetupTimer(const std::function<std::uint64_t()>& set_up, Timings& t,
             Report& r)
      : t_(t), r_(r) {
    int request[2];
    int reply[2];
    if (pipe(request) != 0 || pipe(reply) != 0) {
      throw std::runtime_error("SetupTimer: pipe() failed");
    }
    std::fflush(nullptr);  // no child may inherit unwritten output
    helper_ = fork();
    if (helper_ < 0) throw std::runtime_error("SetupTimer: fork() failed");
    if (helper_ == 0) {
      close(request[1]);
      close(reply[0]);
      serve(set_up, request[0], reply[1]);
    }
    close(request[0]);
    close(reply[1]);
    request_ = request[1];
    reply_ = reply[0];

    t_.start = Clock::now();
    try {
      digest_ = set_up();
    } catch (...) {
      stop_helper();
      throw;
    }
    t_.setup_s.push_back(seconds_between(t_.start, Clock::now()));
  }

  ~SetupTimer() { stop_helper(); }

  SetupTimer(const SetupTimer&) = delete;
  SetupTimer& operator=(const SetupTimer&) = delete;

  /// Call after operation `op` of the loop's `ops`: takes a cold sample
  /// every ops / (kSetups - 1) operations.
  void after_op(std::int64_t op, std::int64_t ops) {
    const std::int64_t every = std::max<std::int64_t>(1, ops / (kSetups - 1));
    if ((op + 1) % every != 0 || taken_ == kSetups - 1) return;
    ++taken_;
    ++r_.attempted;
    Sample s;
    const char go = 1;
    if (write(request_, &go, 1) != 1 ||
        read(reply_, &s, sizeof s) != static_cast<ssize_t>(sizeof s) ||
        s.seconds < 0.0) {
      r_.fail("a cold set-up failed in a child process");
    } else if (s.digest != digest_) {
      r_.fail("a cold set-up disagrees with the workload's own");
    } else {
      t_.setup_s.push_back(s.seconds);
    }
  }

 private:
  struct Sample {
    double seconds = -1.0;  ///< negative: the set-up failed
    std::uint64_t digest = 0;
  };

  void stop_helper() {
    close(request_);  // the helper exits when it reads end-of-file
    close(reply_);
    waitpid(helper_, nullptr, 0);
  }

  /// The helper's loop: one child per request byte, one reply each.
  [[noreturn]] static void serve(const std::function<std::uint64_t()>& set_up,
                                 int request, int reply) {
    char go = 0;
    while (read(request, &go, 1) == 1) {
      const pid_t child = fork();
      if (child == 0) {
        Sample s;
        try {
          const auto t0 = Clock::now();
          s.digest = set_up();
          s.seconds = seconds_between(t0, Clock::now());
        } catch (...) {
        }
        _exit(write(reply, &s, sizeof s) == static_cast<ssize_t>(sizeof s)
                  ? 0
                  : 1);
      }
      int status = 1;
      if (child > 0) waitpid(child, &status, 0);
      if (child < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        const Sample failed;
        if (write(reply, &failed, sizeof failed) < 0) break;
      }
    }
    _exit(0);  // skips destructors and stdio: the workload process owns both
  }

  Timings& t_;
  Report& r_;
  pid_t helper_ = -1;
  int request_ = -1;  ///< to the helper
  int reply_ = -1;    ///< from the helper's children
  std::uint64_t digest_ = 0;
  int taken_ = 0;
};

// ------------------------------------------------------------ sessions

/// One fully set-up session: model, engine (plus the tracing decorator in
/// the traced run) and a started TrainingSession.
struct LiveSession {
  std::unique_ptr<model::ModelDesc> model;
  std::unique_ptr<dynamic::DynamismEngine> engine;
  std::unique_ptr<TracedEngine> traced;
  std::unique_ptr<runtime::TrainingSession> session;
};

using ModelFactory = model::ModelDesc (*)();

LiveSession set_up_session(ModelFactory make_model, UseCase use_case,
                           const Options& opt, Tracer& tracer) {
  LiveSession live;
  live.model = std::make_unique<model::ModelDesc>(make_model());
  live.engine = make_engine(use_case, *live.model, opt);
  dynamic::DynamismEngine* engine = live.engine.get();
  if (tracer.enabled()) {
    live.traced = std::make_unique<TracedEngine>(*live.engine, tracer);
    engine = live.traced.get();
  }
  live.session = std::make_unique<runtime::TrainingSession>(
      *live.model, opt.session, engine);
  const auto scope = tracer.span("runtime.session.start");
  live.session->start();
  return live;
}

/// Drives step() to the end, one timed operation per sim_stride window.
/// Returns the modeled seconds step() reported.
double step_loop(runtime::TrainingSession& session,
                 const runtime::SessionConfig& cfg, SetupTimer& setups,
                 Tracer& tracer, Timings& t, Report& r) {
  const std::int64_t ops = cfg.iterations / cfg.sim_stride;
  double modeled_s = 0.0;
  for (std::int64_t op = 0; !session.done(); ++op) {
    tracer.set_op(op);
    ++r.attempted;
    const auto t0 = Clock::now();
    try {
      const auto scope = tracer.span("runtime.session.step");
      modeled_s += session.step();
    } catch (const std::exception& e) {
      r.fail(std::string("step() threw: ") + e.what());
      break;
    }
    t.op_s.push_back(seconds_between(t0, Clock::now()));
    t.iterations += static_cast<double>(cfg.sim_stride);
    setups.after_op(op, ops);
  }
  tracer.set_op(-1);
  return modeled_s;
}

/// Checks the invariants a finished SessionResult must satisfy; a result
/// that breaks any of them counts as one failure.
void check_session(const runtime::SessionResult& res,
                   const runtime::SessionConfig& cfg, double tokens_per_iter,
                   double modeled_s, Report& r) {
  std::string broken;
  const auto check = [&](bool cond, const char* what) {
    if (!cond) broken += broken.empty() ? what : std::string("; ") + what;
  };
  check(!res.failed, "session result has failed set");
  check(!res.oom, "session result has oom set");
  check(res.samples.size() ==
            static_cast<std::size_t>(cfg.iterations / cfg.sim_stride),
        "one sample per simulated window");
  check(same_value(res.total_time_s, modeled_s),
        "total_time_s equals the sum of step() windows");
  check(std::isfinite(res.tokens_per_sec) && res.tokens_per_sec > 0.0 &&
            same_value(res.tokens_per_sec,
                       tokens_per_iter * static_cast<double>(cfg.iterations) /
                           res.total_time_s),
        "tokens_per_sec is tokens / modeled time");
  check(res.avg_idleness >= 0.0 && res.avg_idleness <= 1.0 &&
            res.avg_bubble_ratio >= 0.0 && res.avg_bubble_ratio <= 1.0,
        "idleness and bubble ratio are fractions");
  check(res.maps_accepted <= res.rebalance_count,
        "accepted maps never exceed rebalance points");
  if (!broken.empty()) r.fail("session result: " + broken);
}

/// finish()es a session step_loop() ran to the end and checks its result.
runtime::SessionResult finish_session(LiveSession& live,
                                      const runtime::SessionConfig& cfg,
                                      double modeled_s, Tracer& tracer,
                                      Report& r) {
  if (!live.session->done()) return {};  // step_loop() recorded the failure
  const double tokens_per_iter = live.session->tokens_per_iteration();
  runtime::SessionResult res;
  {
    const auto scope = tracer.span("runtime.session.finish");
    res = live.session->finish();
  }
  check_session(res, cfg, tokens_per_iter, modeled_s, r);
  return res;
}

void add_session_layers(Report& r, const Tracer& tracer,
                        const LiveSession& live,
                        const runtime::SessionResult& res) {
  r.add("dynamic.step_s", tracer.total_s("dynamic.step"), "s");
  r.add("dynamic.step_calls",
        static_cast<double>(tracer.durations_s("dynamic.step").size()),
        "count");
  r.add("dynamic.mb_scale_s", live.traced->mb_scale_s(), "s");
  r.add("dynamic.mb_scale_calls",
        static_cast<double>(live.traced->mb_scale_calls()), "count");
  r.add("runtime.session.start_s",
        tracer.total_s("runtime.session.start"), "s");
  r.add("runtime.session.finish_s",
        tracer.total_s("runtime.session.finish"), "s");
  r.add("runtime.session.step_s", tracer.total_s("runtime.session.step"),
        "s");
  r.add("runtime.session.self_s", tracer.self_s("runtime.session.step"),
        "s");
  if (res.rebalance_count > 0) {
    r.add("balance.accept_ratio",
          static_cast<double>(res.maps_accepted) / res.rebalance_count,
          "ratio");
  }
}

model::ModelDesc mixtral() {
  return model::make_moe(model::mixtral_8x7b_config(), "mixtral-8x7b");
}

Options moe_options(const Args& a) {
  Options opt;
  opt.session = bench::moe_cluster_config();
  // moe_cluster_config()'s 8 PP x 16 DP puts Mixtral at 90.9 GB per stage,
  // over the H100's 80 GB, so every session there reports oom (static
  // baselines too).  The same 128 GPUs as 16 PP x 8 DP fit (<= 69 GB).
  opt.session.pipeline_stages = 16;
  opt.session.data_parallel = 8;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.balance_by = balance::BalanceBy::Time;
  opt.session.rebalance_interval = 1;
  opt.session.sim_stride = 20;
  opt.session.iterations =
      op_count(a.seconds, kMoeOpsPerSecond) * opt.session.sim_stride;
  opt.session.seed = derive_seed(a.seed, kSessionStream);
  opt.session.telemetry.deterministic = true;
  opt.moe.routing = dynamic::MoeRouting::AuxLoss;
  opt.moe.tokens_per_microbatch = 1024;  // the fig3 setting
  opt.moe.seed = derive_seed(a.seed, kEngineStream);
  return opt;
}

void run_moe_routing(const Args& a, Tracer& tracer, Report& r) {
  Options opt;
  LiveSession live;
  Timings t;
  SetupTimer setups(
      [&] {
        opt = moe_options(a);
        live = set_up_session(mixtral, UseCase::Moe, opt, tracer);
        return std::uint64_t{0};  // no output to compare before step()
      },
      t, r);
  const double modeled_s =
      step_loop(*live.session, opt.session, setups, tracer, t, r);
  const auto res = finish_session(live, opt.session, modeled_s, tracer, r);

  t.report_wall(r, tracer);
  if (tracer.enabled()) {
    add_session_layers(r, tracer, live, res);
  } else {
    r.add("modeled_tokens_per_s", res.tokens_per_sec, "1/s");
  }
}

model::ModelDesc gpt128() {
  return model::make_gpt({.num_blocks = 128,
                          .include_embedding = false,
                          .include_lm_head = false},
                         "gpt-128");
}

double dir_bytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += static_cast<double>(e.file_size());
  }
  return bytes;
}

Options grid_options(const Args& a, const std::string& trace_dir) {
  Options opt;
  opt.session.pipeline_stages = 32;
  opt.session.data_parallel = 2;
  opt.session.micro_batch = 2;
  opt.session.num_microbatches = 16;
  opt.session.deployment = cluster::Deployment::make_grid_topology_aware(
      cluster::Topology::make_dgx_h100(8), /*data_parallel=*/2,
      /*num_stages=*/32, cluster::GridOrientation::DpInner);
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.balance_by = balance::BalanceBy::Time;
  opt.session.rebalance_interval = 1;
  // Bottleneck hysteresis only: with a 10-iteration payoff window every
  // candidate map on this grid is rejected on payoff, so nothing would
  // migrate and the replay would only ever check a static map.
  opt.session.payoff_window_iters = 0.0;
  opt.session.sim_stride = 1;
  opt.session.iterations = op_count(a.seconds, kGridOpsPerSecond);
  opt.session.seed = derive_seed(a.seed, kSessionStream);
  opt.session.telemetry.dir = trace_dir;
  opt.session.telemetry.per_layer = true;
  opt.session.telemetry.deterministic = true;
  opt.sparse_attn.seed = derive_seed(a.seed, kEngineStream);
  return opt;
}

void run_grid_trace_replay(const Args& a, Tracer& tracer, Report& r) {
  // Each set-up process writes its own trace: <root>/<pid>.
  const std::string trace_root = a.out + "/trace-grid_trace_replay";
  std::filesystem::remove_all(trace_root);
  Options opt;
  LiveSession live;
  Timings t;
  SetupTimer setups(
      [&] {
        opt = grid_options(a, trace_root + "/" + std::to_string(getpid()));
        live = set_up_session(gpt128, UseCase::SparseAttention, opt, tracer);
        return std::uint64_t{0};  // no output to compare before step()
      },
      t, r);
  const std::string trace_dir = opt.session.telemetry.dir;
  const double modeled_s =
      step_loop(*live.session, opt.session, setups, tracer, t, r);
  const auto res = finish_session(live, opt.session, modeled_s, tracer, r);
  double rows = 0.0;
  double bytes = 0.0;
  std::size_t frames = 0;
  std::int64_t mismatches = 0;
  // A session that stopped early was never finish()ed: no trace to read.
  if (!live.session->started()) {
    // Read the trace back and replay it through the same configuration:
    // every recorded bottleneck must come back bit-identical.
    try {
      std::vector<telemetry::IterationRow> recorded;
      balance::ReplayedLoads loads;
      balance::ReplayConfig replay_cfg;
      double catalog_rows = 0.0;
      {
        const auto read = tracer.span("telemetry.read");
        const telemetry::TraceReader reader(trace_dir);
        for (const auto& table : reader.catalog().tables) {
          catalog_rows += static_cast<double>(table.rows);
        }
        recorded = reader.iterations();
        loads = reader.replayed_loads();
        replay_cfg = reader.replay_config();
      }
      rows = catalog_rows;
      bytes = dir_bytes(trace_dir);
      const auto net = opt.session.deployment->make_cost_model();
      balance::ReplayResult replayed;
      {
        const auto scope = tracer.span("balance.replay");
        replayed = balance::replay(loads, replay_cfg, net);
      }
      frames = replayed.bottleneck_s.size();
      if (recorded.size() != frames ||
          frames != static_cast<std::size_t>(opt.session.iterations)) {
        r.fail("replay frames, trace rows and iterations disagree");
      }
      for (std::size_t i = 0; i < std::min(frames, recorded.size()); ++i) {
        ++r.attempted;
        if (recorded[i].bottleneck_s != replayed.bottleneck_s[i]) {
          ++mismatches;
        }
      }
      if (mismatches > 0) {
        r.fail(std::to_string(mismatches) +
                   " replayed bottlenecks differ from the trace",
               mismatches);
      }
    } catch (const std::exception& e) {
      ++r.attempted;
      r.fail(std::string("trace read/replay threw: ") + e.what());
    }
  }
  std::filesystem::remove_all(trace_root);

  t.report_wall(r, tracer);
  if (!tracer.enabled()) {
    r.add("modeled_tokens_per_s", res.tokens_per_sec, "1/s");
    return;
  }
  add_session_layers(r, tracer, live, res);
  r.add("telemetry.read_s", tracer.total_s("telemetry.read"), "s");
  r.add("telemetry.rows", rows, "count");
  r.add("telemetry.bytes", bytes, "B");
  r.add("balance.replay_s", tracer.total_s("balance.replay"), "s");
  r.add("balance.replay_frames", static_cast<double>(frames), "count");
  r.add("balance.replay_mismatches", static_cast<double>(mismatches),
        "count");
}

// ------------------------------------------------------------ threaded

constexpr std::size_t kThreadedLayers = 16;
constexpr int kPhaseIters = 4;
constexpr double kPruneSparsity = 0.5;

/// Keeps this thread, and every thread it starts afterwards, on one CPU.
/// On a VM, waking a worker that sleeps on another, idle vCPU costs a host
/// scheduler round trip: with four vCPUs, the median run() time swung
/// between 77 and 263 ms from one 3-second block to the next, while on one
/// shared CPU it stayed within 98-110 ms.  So this workload measures the
/// runtime's total work (compute, messages, checkpoints, thread switches),
/// not how well it overlaps across cores.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      return sched_setaffinity(0, sizeof one, &one) == 0;
    }
  }
  return false;
}

/// Uniform boundaries with every interior boundary moved by `shift`.
pipeline::StageMap shifted_map(int workers, int shift) {
  const auto uniform = pipeline::StageMap::uniform(kThreadedLayers, workers);
  std::vector<std::size_t> b = {0};
  for (int s = 1; s < workers; ++s) {
    b.push_back(static_cast<std::size_t>(
        static_cast<int>(uniform.stage_begin(s)) + shift));
  }
  b.push_back(kThreadedLayers);
  return pipeline::StageMap::from_boundaries(std::move(b));
}

/// The measured plan: migrate between alternating maps, prune globally,
/// shrink onto the first half of the workers by checkpoint restart, expand
/// back, migrate again.
std::vector<runtime::PlanPhase> elastic_plan(int workers) {
  const int half = (workers + 1) / 2;
  std::vector<bool> shrink_mask(static_cast<std::size_t>(workers), false);
  std::vector<std::size_t> shrink_b(static_cast<std::size_t>(workers) + 1,
                                    kThreadedLayers);
  const auto packed = pipeline::StageMap::uniform(kThreadedLayers, half);
  for (int s = 0; s < half; ++s) {
    shrink_mask[static_cast<std::size_t>(s)] = true;
    shrink_b[static_cast<std::size_t>(s)] = packed.stage_begin(s);
  }

  std::vector<runtime::PlanPhase> plan(6);
  plan[0].map = pipeline::StageMap::uniform(kThreadedLayers, workers);
  plan[1].map = shifted_map(workers, +1);
  plan[2].map = shifted_map(workers, -1);
  plan[2].prune_sparsity = kPruneSparsity;
  plan[3].map = pipeline::StageMap::from_boundaries(std::move(shrink_b));
  plan[3].restart_active = std::move(shrink_mask);
  plan[4].map = pipeline::StageMap::uniform(kThreadedLayers, workers);
  plan[4].restart_active = std::vector<bool>(static_cast<std::size_t>(workers),
                                             true);
  plan[5].map = shifted_map(workers, +1);
  for (auto& phase : plan) phase.iterations = kPhaseIters;
  return plan;
}

/// The same training on one worker: no migrations, no restarts, the prune
/// at the same iteration.
std::vector<runtime::PlanPhase> reference_plan() {
  std::vector<runtime::PlanPhase> plan(2);
  plan[0].map = pipeline::StageMap::uniform(kThreadedLayers, 1);
  plan[0].iterations = 2 * kPhaseIters;
  plan[1].map = plan[0].map;
  plan[1].prune_sparsity = kPruneSparsity;
  plan[1].iterations = 4 * kPhaseIters;
  return plan;
}

runtime::ThreadedConfig threaded_config(const Args& a, int workers) {
  runtime::ThreadedConfig cfg;
  cfg.workers = workers;
  cfg.num_layers = kThreadedLayers;
  cfg.hidden = 64;
  cfg.batch_rows = 8;
  cfg.microbatches = 4;
  cfg.apply_weight_update = true;
  cfg.seed = derive_seed(a.seed, kThreadedStream);
  cfg.transport = comm::TransportKind::InProc;
  return cfg;
}

/// Folds what a run computed (output and weight checksums) into one value.
std::uint64_t checksum_digest(const runtime::ThreadedReport& rep) {
  std::uint64_t d = rep.output_checksum;
  for (const std::uint64_t w : rep.weight_checksums) d = hash_mix(d, w, 0);
  return d;
}

void run_threaded_elastic(const Args& a, Tracer& tracer, Report& r) {
  if (!pin_to_one_cpu()) r.notes.push_back("could not pin to one CPU");
  const int workers = std::clamp(a.nproc, 2, 4);
  const auto cfg = threaded_config(a, workers);
  const auto plan = elastic_plan(workers);

  // Set-up computes the correctness reference; the cold set-ups must
  // compute the same one.
  std::uint64_t reference = 0;
  Timings t;
  SetupTimer setups(
      [&] {
        runtime::ThreadedPipeline single(threaded_config(a, 1));
        reference = checksum_digest(single.run(reference_plan()));
        return reference;
      },
      t, r);

  const std::int64_t ops = op_count(a.seconds, kThreadedOpsPerSecond);
  // Every run must compute the reference checksums, really migrate and
  // restart twice, and repeat the first correct run's counters.
  std::int64_t mismatches = 0;
  std::int64_t plan_misses = 0;
  std::int64_t counter_drift = 0;
  std::optional<runtime::ThreadedReport> first;
  double busy_s = 0.0;
  double run_wall_s = 0.0;  ///< sum of ThreadedReport::wall_s
  for (std::int64_t op = 0; op < ops; ++op) {
    tracer.set_op(op);
    ++r.attempted;
    const auto t0 = Clock::now();
    runtime::ThreadedReport rep;
    try {
      const auto scope = tracer.span("runtime.threaded.run");
      runtime::ThreadedPipeline pipe(cfg);
      rep = pipe.run(plan);
    } catch (const std::exception& e) {
      r.fail(std::string("run() threw: ") + e.what());
      continue;
    }
    t.op_s.push_back(seconds_between(t0, Clock::now()));
    t.iterations += rep.iterations_run;
    busy_s += sum(rep.worker_busy_s);
    run_wall_s += rep.wall_s;
    setups.after_op(op, ops);
    if (checksum_digest(rep) != reference) {
      ++mismatches;
      continue;
    }
    if (rep.restarts != 2 || rep.bytes_migrated == 0) {
      ++plan_misses;
      continue;
    }
    if (!first) first = rep;
    if (rep.bytes_migrated != first->bytes_migrated ||
        rep.bytes_checkpoint != first->bytes_checkpoint ||
        rep.restarts != first->restarts ||
        rep.iterations_run != first->iterations_run) {
      ++counter_drift;
    }
  }
  tracer.set_op(-1);
  if (mismatches > 0) {
    r.fail(std::to_string(mismatches) +
               " runs' checksums differ from the single-worker reference",
           mismatches);
  }
  if (plan_misses > 0) {
    r.fail(std::to_string(plan_misses) +
               " runs did not migrate and restart twice",
           plan_misses);
  }
  if (counter_drift > 0) {
    r.fail(std::to_string(counter_drift) +
               " runs' migration/checkpoint counters differ from the first",
           counter_drift);
  }
  if (!first) first.emplace();  // no correct run: its counters read 0

  t.report_wall(r, tracer);
  if (!tracer.enabled()) {
    // The threaded runtime has no modeled clock: report the tokens its own
    // run() timer says it trained per second (README.md explains).
    const double tokens_per_run = static_cast<double>(
        first->iterations_run * cfg.microbatches * cfg.batch_rows);
    r.add("modeled_tokens_per_s",
          tokens_per_run * static_cast<double>(t.op_s.size()) /
              std::max(1e-12, run_wall_s),
          "1/s");
    return;
  }
  r.add("runtime.threaded.run_s",
        quantile(tracer.durations_s("runtime.threaded.run"), 0.5), "s");
  r.add("runtime.threaded.busy_frac",
        busy_s / std::max(1e-12, workers * run_wall_s), "ratio");
  r.add("comm.bytes_migrated", static_cast<double>(first->bytes_migrated),
        "B");
  r.add("runtime.checkpoint.bytes",
        static_cast<double>(first->bytes_checkpoint), "B");
  r.add("runtime.threaded.restarts", static_cast<double>(first->restarts),
        "count");
}

// ------------------------------------------------------------ output

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_report(const Args& a, const Report& r, std::size_t spans) {
  for (const auto& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("# workload %s seed %llu trace %d: attempted %lld failed %lld "
              "fail_ratio %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              number(r.attempted > 0 ? static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted)
                                     : 0.0)
                  .c_str());
  if (spans > 0) std::printf("# spans recorded %zu\n", spans);
  for (const auto& m : r.metrics) {
    std::printf("# %-28s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload moe_routing|grid_trace_replay|"
               "threaded_elastic --seed N --seconds S --trace 0|1 --out DIR\n",
               argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      a.out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || a.workload.empty() || a.out.empty() ||
      !(a.seconds > 0.0)) {
    return usage(argv[0]);
  }

#ifdef NDEBUG
  const bool optimized = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  const bool optimized = false;
#endif
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    a.nproc = CPU_COUNT(&allowed);
  }
  std::printf("# machine: nproc %d, compiler %s, build %s\n", a.nproc,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a non-Release build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::filesystem::create_directories(a.out);

  Tracer tracer(a.trace);
  Report r;
  try {
    if (a.workload == "moe_routing") {
      run_moe_routing(a, tracer, r);
    } else if (a.workload == "grid_trace_replay") {
      run_grid_trace_replay(a, tracer, r);
    } else if (a.workload == "threaded_elastic") {
      run_threaded_elastic(a, tracer, r);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (tracer.enabled()) {
    const std::string path = a.out + "/spans-" + a.workload + ".jsonl";
    if (!tracer.write_jsonl(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  print_report(a, r, tracer.spans().size());
  return 0;
}
