// Workload file generator: writes random dual-criticality task sets in the
// text format of src/support/taskset_io.hpp, ready for examples/certify.
//
//   make_taskset [--out tasks.txt] [--u 0.6] [--x 0.5] [--y 2.0]
//                [--terminate] [--uunifast N] [--seed 1]
//                [--cores N] [--speedup 2.0] [--max-reset inf]
//
// By default uses the paper's add-until-U_bound generator [4] with the
// common preparation factor x and degradation y; --uunifast N switches to a
// fixed task count with UUniFast utilizations; --terminate drops LO tasks in
// HI mode instead of degrading them.
//
// --cores N partitions the generated set onto N cores (first-fit decreasing
// under the per-core --speedup/--max-reset budgets) and writes the
// multiprocessor format of taskset_io.hpp: tasks grouped under `# core c`
// markers below a `# cores N` directive. The markers are comments, so the
// file still loads as a flat set everywhere the partition is irrelevant.
#include <iostream>

#include "core/partition.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "support/cli.hpp"
#include "support/taskset_io.hpp"

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  if (const Status flags = args.check_flags({"out", "u", "x", "y", "terminate", "uunifast",
                                             "seed", "cores", "speedup", "max-reset"});
      !flags) {
    std::cerr << flags.message() << "\n";
    return 2;
  }
  const std::string out = args.get_string("out", "tasks.txt");
  const double u = args.get_double("u", 0.6);
  const double x = args.get_double("x", 0.5);
  const double y = args.get_double("y", 2.0);
  const bool terminate = args.get_bool("terminate");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  Rng rng(seed);

  std::optional<ImplicitSet> skeleton;
  if (args.has("uunifast")) {
    UUniFastParams params;
    params.n_tasks = static_cast<int>(args.get_int("uunifast", 10));
    params.u_total_lo = u;
    skeleton = generate_uunifast_set(params, rng);
  } else {
    GenParams params;
    params.u_bound = u;
    for (int attempt = 0; attempt < 100 && !skeleton; ++attempt)
      skeleton = generate_task_set(params, rng);
    if (!skeleton) {
      std::cerr << "generator failed to hit U = " << u << "; try another seed\n";
      return 1;
    }
  }

  const TaskSet set =
      terminate ? skeleton->materialize_terminating(x) : skeleton->materialize(x, y);

  if (args.has("cores")) {
    const auto cores = static_cast<std::size_t>(args.get_int("cores", 2));
    if (cores == 0) {
      std::cerr << "--cores must be positive\n";
      return 1;
    }
    PartitionOptions popts;
    popts.hi_speedup = args.get_double("speedup", popts.hi_speedup);
    popts.max_reset = args.get_double("max-reset", popts.max_reset);
    const PartitionResult partition = partition_first_fit(set, cores, popts);
    if (!partition.feasible) {
      std::cerr << "set does not partition onto " << cores << " cores (speedup "
                << popts.hi_speedup << ")";
      if (partition.rejected_task)
        std::cerr << "; first rejected task: '" << set[*partition.rejected_task].name() << "'";
      std::cerr << "\ntry fewer tasks (--u), more cores, or a larger --speedup\n";
      return 1;
    }
    PartitionedTaskSet partitioned;
    partitioned.set = set;
    partitioned.assignment = partition.assignment;
    if (!write_partitioned_task_set_file(out, partitioned)) {
      std::cerr << "cannot write " << out << "\n";
      return 1;
    }
    std::cout << "wrote " << set.size() << " tasks across " << cores << " cores to " << out
              << "  (U_bound " << u << ", speedup " << popts.hi_speedup << ")\n";
    return 0;
  }

  if (!write_task_set_file(out, set)) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  std::cout << "wrote " << set.size() << " tasks to " << out << "  (U_bound " << u
            << ", x " << x << ", " << (terminate ? "termination" : "y " + std::to_string(y))
            << ")\ntry:  ./build/examples/certify --file " << out << "\n";
  return 0;
}
