// Multicore resilience experiment: k-failure tolerance across a core-count
// sweep.
//
// For each core count M in the sweep, random per-core workloads (U_bound per
// core, the paper's add-until generator) are concatenated into one system,
// partitioned onto M cores by first-fit decreasing under a uniform 2x budget
// (core/partition.hpp), and handed to the offline resilience analysis
// (multi/resilience.hpp) with tolerance k = 1. Reported per M: how often the
// partition is feasible at all, how often it additionally tolerates every
// single-core fail-stop/boost-denial, the median worst-core s_min, and the
// average size of the precomputed spare assignment.
//
// The (M, set) grid is flattened into ONE campaign: item i is set i % sets on
// core count sweep[i / sets], so the whole sweep shards over --jobs workers
// with the usual byte-identical-output and --checkpoint/--resume guarantees.
//
//   bench_multicore [--sets 50] [--u 0.35] [--speedup 2.0] [--tolerance 1]
//                   [--jobs N] [--seed 1] [--checkpoint path [--resume]]
//
// Throughput of this path is measured by bench/suite/run.py's multicore_k1
// workload.
#include "common.hpp"

#include <cmath>

#include "core/partition.hpp"
#include "multi/resilience.hpp"

namespace {

using namespace rbs;

// One campaign item, journal-encodable as doubles.
struct Item {
  bool valid = false;       ///< generator produced a set
  bool partitioned = false; ///< FFD found a feasible partition
  bool tolerant = false;    ///< k-failure tolerant
  double worst_s_min = 0.0; ///< max over cores of the nominal s_min
  double migrations = 0.0;  ///< total migration steps across scenarios
  double scenarios = 0.0;   ///< scenarios enumerated
};

constexpr std::size_t kFields = 6;

std::vector<double> encode(const Item& item) {
  return {item.valid ? 1.0 : 0.0, item.partitioned ? 1.0 : 0.0, item.tolerant ? 1.0 : 0.0,
          item.worst_s_min, item.migrations, item.scenarios};
}

std::optional<Item> decode(const std::string& payload) {
  const auto fields = bench::decode_fields(payload, kFields);
  if (!fields) return std::nullopt;
  Item item;
  item.valid = bench::decode_flag((*fields)[0]);
  item.partitioned = bench::decode_flag((*fields)[1]);
  item.tolerant = bench::decode_flag((*fields)[2]);
  item.worst_s_min = (*fields)[3];
  item.migrations = (*fields)[4];
  item.scenarios = (*fields)[5];
  return item;
}

// Concatenates `cores` independently generated per-core workloads into one
// system, so total utilization scales with the machine instead of staying
// pinned at one processor's worth.
std::optional<TaskSet> generate_system(std::size_t cores, double u_per_core, Rng& rng) {
  std::vector<McTask> tasks;
  for (std::size_t c = 0; c < cores; ++c) {
    GenParams params;
    params.u_bound = u_per_core;
    const auto skeleton = bench::generate_with_retry(params, rng);
    if (!skeleton) return std::nullopt;
    const auto set = bench::materialize_min_x(*skeleton, 2.0, bench::XPolicy::kUtilization);
    if (!set) return std::nullopt;
    for (const McTask& t : *set) tasks.push_back(t);
  }
  return TaskSet(std::move(tasks));
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  bench::check_flags(args, {"sets", "u", "speedup", "tolerance"},
                     {bench::kCampaignFlags, bench::kCheckpointFlags, bench::kCsvFlags});
  const auto n_sets = static_cast<std::size_t>(args.get_int("sets", 50));
  const double u = args.get_double("u", 0.35);
  const double speedup = args.get_double("speedup", 2.0);
  const auto tolerance = static_cast<std::size_t>(args.get_int("tolerance", 1));
  const campaign::CampaignOptions campaign_options = bench::parse_campaign(args);
  const bench::CheckpointConfig checkpoint = bench::parse_checkpoint(args);
  bench::banner("Multicore resilience (core-count sweep)",
                "Partitioned EDF-VD with per-core boost: feasibility and k = " +
                    std::to_string(tolerance) +
                    " failure tolerance of random systems\nacross machine sizes.");

  const std::vector<std::size_t> sweep = {2, 3, 4, 6, 8};
  const std::size_t count = sweep.size() * n_sets;

  const campaign::CampaignReport report = bench::run_checkpointed(
      checkpoint, "multicore", campaign_options, count,
      [&](std::size_t index, Rng& rng, const campaign::CancelToken& token) {
        token.throw_if_cancelled();
        const std::size_t cores = sweep[index / n_sets];
        Item item;
        const auto set = generate_system(cores, u, rng);
        if (set) {
          item.valid = true;
          PartitionOptions popts;
          popts.hi_speedup = speedup;
          const PartitionResult partition = partition_first_fit(*set, cores, popts);
          if (partition.feasible) {
            item.partitioned = true;
            multi::MultiRequest request;
            request.set = *set;
            request.assignment = partition.assignment;
            CoreBudget budget;
            budget.hi_speedup = speedup;
            request.budgets.assign(cores, budget);
            request.tolerance = tolerance;
            const auto verdict = multi::analyze_resilience(request);
            if (verdict) {
              item.tolerant = verdict->tolerant;
              item.scenarios = static_cast<double>(verdict->scenarios_checked);
              for (const double s_min : partition.core_s_min)
                item.worst_s_min = std::max(item.worst_s_min, s_min);
              for (const multi::FailureScenario& scenario : verdict->scenarios)
                item.migrations += static_cast<double>(scenario.migrations.size());
            }
          }
        }
        return bench::encode_fields(encode(item));
      });

  const std::vector<Item> items = bench::gather_items<Item>(report, decode);

  TextTable t;
  t.set_header({"cores", "sets", "partitioned [%]", "tolerant [%]", "med worst s_min",
                "avg migrations/scenario"});
  auto csv = bench::open_csv(args, "multicore.csv");
  if (csv) csv->write_row({"cores", "sets", "partitioned_pct", "tolerant_pct",
                           "med_worst_s_min", "avg_migrations"});
  for (std::size_t m = 0; m < sweep.size(); ++m) {
    std::size_t valid = 0, partitioned = 0, tolerant = 0;
    double migrations = 0.0, scenarios = 0.0;
    std::vector<double> s_mins;
    for (std::size_t i = m * n_sets; i < (m + 1) * n_sets; ++i) {
      const Item& item = items[i];
      if (!item.valid) continue;
      ++valid;
      if (!item.partitioned) continue;
      ++partitioned;
      tolerant += item.tolerant;
      migrations += item.migrations;
      scenarios += item.scenarios;
      s_mins.push_back(item.worst_s_min);
    }
    const double pct_part = valid ? 100.0 * static_cast<double>(partitioned) /
                                        static_cast<double>(valid)
                                  : 0.0;
    const double pct_tol = partitioned ? 100.0 * static_cast<double>(tolerant) /
                                             static_cast<double>(partitioned)
                                       : 0.0;
    t.add_row({std::to_string(sweep[m]), std::to_string(valid), TextTable::num(pct_part, 0),
               TextTable::num(pct_tol, 0), TextTable::num(median(s_mins), 3),
               TextTable::num(scenarios > 0 ? migrations / scenarios : 0.0, 2)});
    if (csv)
      csv->write_row_numeric({static_cast<double>(sweep[m]), static_cast<double>(valid),
                              pct_part, pct_tol, median(s_mins),
                              scenarios > 0 ? migrations / scenarios : 0.0});
  }
  t.print(std::cout);

  std::cout << "\nBigger machines tolerate a lost core more easily: the displaced HI\n"
               "work spreads over more survivors, but every receiver must still fit\n"
               "its own " << speedup << "x budget, so tolerance is not monotone in load.\n";
  return 0;
}
