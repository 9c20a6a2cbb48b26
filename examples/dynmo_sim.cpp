// dynmo_sim — command-line driver for the DynMo simulator.  Usage, one
// command line wrapped here:
//
//   ./build/example_dynmo_sim --case early_exit --layers 32 --stages 8
//       --mode dynmo --algo diffusion --iterations 5000 --repack
//       --trace pipeline.json
//
// Runs one training session and prints the result summary; with --trace it
// additionally writes a Chrome-trace (chrome://tracing, Perfetto) timeline
// of one steady-state iteration so the bubbles are visible.
#include <cstdio>
#include <cstring>
#include <string>

#include "dynmo/dynmo.hpp"
#include "pipeline/trace.hpp"

namespace {

using namespace dynmo;

struct CliArgs {
  UseCase use_case = UseCase::EarlyExit;
  std::size_t layers = 24;
  int stages = 8;
  int data_parallel = 1;
  std::int64_t iterations = 5000;
  std::int64_t stride = 50;
  std::int64_t interval = 100;
  runtime::BalancingMode mode = runtime::BalancingMode::DynMo;
  balance::Algorithm algo = balance::Algorithm::Diffusion;
  bool repack = false;
  std::string trace_path;
  bool help = false;
};

UseCase parse_case(const std::string& s) {
  for (UseCase c : {UseCase::Static, UseCase::Moe, UseCase::GradualPruning,
                    UseCase::LayerFreezing, UseCase::SparseAttention,
                    UseCase::EarlyExit, UseCase::MixtureOfDepths}) {
    if (s == to_string(c)) return c;
  }
  throw Error("unknown --case '" + s +
              "' (static|moe|gradual_pruning|layer_freezing|"
              "sparse_attention|early_exit|mixture_of_depths)");
}

runtime::BalancingMode parse_mode(const std::string& s) {
  if (s == "static" || s == "megatron") {
    return runtime::BalancingMode::StaticUniform;
  }
  if (s == "deepspeed") return runtime::BalancingMode::StaticParam;
  if (s == "egeria") return runtime::BalancingMode::Egeria;
  if (s == "tutel") return runtime::BalancingMode::Tutel;
  if (s == "dynmo") return runtime::BalancingMode::DynMo;
  throw Error("unknown --mode '" + s +
              "' (static|deepspeed|egeria|tutel|dynmo)");
}

balance::Algorithm parse_algo(const std::string& s) {
  for (balance::Algorithm a :
       {balance::Algorithm::Partition, balance::Algorithm::Diffusion}) {
    if (s == balance::to_string(a)) return a;
  }
  throw Error("unknown --algo '" + s + "' (partition|diffusion)");
}

CliArgs parse(int argc, char** argv) {
  CliArgs args;
  const auto need_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw Error(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--case") {
      args.use_case = parse_case(need_value(i));
    } else if (flag == "--layers") {
      args.layers = std::stoul(need_value(i));
    } else if (flag == "--stages") {
      args.stages = std::stoi(need_value(i));
    } else if (flag == "--dp") {
      args.data_parallel = std::stoi(need_value(i));
    } else if (flag == "--iterations") {
      args.iterations = std::stoll(need_value(i));
    } else if (flag == "--stride") {
      args.stride = std::stoll(need_value(i));
    } else if (flag == "--interval") {
      args.interval = std::stoll(need_value(i));
    } else if (flag == "--mode") {
      args.mode = parse_mode(need_value(i));
    } else if (flag == "--algo") {
      args.algo = parse_algo(need_value(i));
    } else if (flag == "--repack") {
      args.repack = true;
    } else if (flag == "--trace") {
      args.trace_path = need_value(i);
    } else if (flag == "--help" || flag == "-h") {
      args.help = true;
    } else {
      throw Error("unknown flag '" + flag + "' (try --help)");
    }
  }
  return args;
}

void usage() {
  std::puts(
      "dynmo_sim — run one DynMo training session\n"
      "  --case C        static|moe|gradual_pruning|layer_freezing|\n"
      "                  sparse_attention|early_exit|mixture_of_depths\n"
      "  --layers N      transformer blocks (default 24)\n"
      "  --stages N      pipeline stages (default 8)\n"
      "  --dp N          data-parallel replicas (default 1)\n"
      "  --iterations N  training iterations (default 5000)\n"
      "  --stride N      simulate every Nth iteration (default 50)\n"
      "  --interval N    rebalance cadence (default 100)\n"
      "  --mode M        static|deepspeed|egeria|tutel|dynmo\n"
      "  --algo A        partition|diffusion (default diffusion)\n"
      "  --repack        enable elastic re-packing\n"
      "  --trace PATH    write a Chrome-trace of one iteration");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = parse(argc, argv);
    if (args.help) {
      usage();
      return 0;
    }

    const auto model =
        args.use_case == UseCase::Moe
            ? model::make_moe(model::mixtral_8x7b_config(), "mixtral")
            : model::make_gpt({.num_blocks = args.layers,
                               .include_embedding = false,
                               .include_lm_head = false});

    Options opt;
    opt.session.pipeline_stages = args.stages;
    opt.session.data_parallel = args.data_parallel;
    opt.session.num_microbatches = 4 * args.stages;
    opt.session.iterations = args.iterations;
    opt.session.sim_stride = args.stride;
    opt.session.rebalance_interval = args.interval;
    opt.session.mode = args.mode;
    opt.session.algorithm = args.algo;
    opt.session.repack = args.repack;
    opt.moe.tokens_per_microbatch = 1024;

    Session session(model, args.use_case, opt);
    const auto r = session.run();

    std::printf("case            : %s\n", to_string(args.use_case));
    std::printf("mode            : %s (%s)\n",
                runtime::to_string(args.mode),
                balance::to_string(args.algo));
    std::printf("tokens/sec      : %.0f\n", r.tokens_per_sec);
    std::printf("avg idleness    : %.1f%%\n", 100.0 * r.avg_idleness);
    std::printf("avg bubble      : %.1f%%\n", 100.0 * r.avg_bubble_ratio);
    std::printf("avg GPUs        : %.1f / %d\n", r.avg_active_workers,
                args.stages);
    std::printf("rebalances      : %d (overhead %.3f%%)\n",
                r.rebalance_count, 100.0 * r.overhead_fraction);
    std::printf("final map       : %s\n", r.final_map.to_string().c_str());
    if (r.oom) std::printf("WARNING: a stage exceeded GPU memory (OOM)\n");

    if (!args.trace_path.empty()) {
      // Re-simulate one steady-state iteration with tracing enabled.
      auto engine = make_engine(args.use_case, model, opt);
      std::vector<model::LayerState> states(model.num_layers());
      if (engine) engine->step(args.iterations - 1, states);
      pipeline::CostBuilder builder(
          model, model::LayerCostModel{}, comm::CostModel{},
          pipeline::CostBuilderConfig{opt.session.micro_batch,
                                      opt.session.num_microbatches});
      const auto costs = builder.build(states, r.final_map);
      const auto [pres, trace] =
          pipeline::simulate_traced(opt.session.schedule, costs);
      trace.write_chrome_json(args.trace_path);
      std::printf("trace           : %s (%zu events, makespan %.2f ms)\n",
                  args.trace_path.c_str(), trace.events.size(),
                  pres.makespan_s * 1e3);
    }
    return 0;
  } catch (const dynmo::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
