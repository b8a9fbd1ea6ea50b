// Turbo-budget and DVFS-energy ablations (Sections I and IV of the paper:
// "Intel turbo boost technology would allow a maximum of 2x speedup for
// around 30s"; overrun bursts separated by T_O bound the boost frequency by
// 1/T_O).
//
//  (1) energy per boost episode across a cubic-power DVFS menu: faster
//      levels drain more power but finish the backlog (Corollary 5) sooner;
//  (2) offline turbo-envelope admissibility of random workloads, including
//      the termination fallback;
//  (3) executed duty cycle under the burst-separation model vs the analytic
//      Delta_R / T_O bound;
//  (4) certificate inflation under DVFS transition latency.
//
// Each section is its own campaign (seed derived from --seed and the section
// number) mapped over the rbs::Analyzer facade; one fused sweep per set
// replaces the per-(speed, set) recomputation of s_min the serial version
// did. Results gather in input order: --jobs N output matches --jobs 1.
//
// Fault tolerance (campaign/supervisor.hpp): `--checkpoint <path>` keeps one
// journal per section (`<path>.energy.journal`, `.envelope.`, `.duty.`,
// `.latency.`); a killed run resumes with `--resume` and reproduces the
// uninterrupted output byte for byte.
//
//   bench_turbo [--sets 40] [--seed 1] [--jobs N]
//               [--checkpoint <path> [--resume]] [--item-deadline S]
//               [--retries N]
#include "common.hpp"

#include <array>
#include <cmath>
#include <limits>

#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "sim/simulate.hpp"

namespace {

constexpr std::array<double, 7> kSpeeds = {1.2, 1.4, 1.6, 1.8, 2.0, 2.4, 3.0};
constexpr std::array<double, 4> kLatenciesMs = {0.0, 1.0, 5.0, 20.0};
constexpr std::array<double, 3> kUBounds = {0.5, 0.7, 0.9};            // section 2
constexpr std::array<double, 3> kSeparationsMs = {500.0, 1000.0, 2000.0};  // section 3

/// Campaign options for section `section`, so sections draw from distinct
/// yet --seed-reproducible stream families.
rbs::campaign::CampaignOptions section_options(const rbs::campaign::CampaignOptions& base,
                                               std::uint64_t section) {
  rbs::campaign::CampaignOptions options = base;
  options.seed = rbs::campaign::item_seed(base.seed, section);
  return options;
}

struct EnergyItem {
  bool has_set = false;
  double s_min = 0.0;
  std::array<double, kSpeeds.size()> delta_r{};  ///< only where s_min <= s
  bool level_feasible = false;
  double optimal_speed = 0.0;  ///< energy-optimal menu level
};

struct EnvelopeItem {
  bool has_set = false;
  bool speed_ok = false, duration_ok = false, rescued = false, admissible = false;
};

struct DutyItem {
  bool counted = false;  ///< set feasible at 2x with dR <= T_O
  double bound_pct = 0.0, duty_pct = 0.0;
  bool violated = false;  ///< executed duty exceeded the analytic bound
};

struct LatencyItem {
  bool has_set = false;
  std::array<double, kLatenciesMs.size()> s_min{};    ///< +inf when infeasible
  std::array<double, kLatenciesMs.size()> delta_r{};  ///< at s = 2
};

// ---- journal payload codecs (see bench/common.hpp) ----
// Every section round-trips its items through these strings, fresh or
// resumed, so the aggregated output never depends on which path made a row.
// %.17g keeps doubles bit-exact and prints infinities as "inf" (strtod
// round-trips both).

std::string encode_energy(const EnergyItem& item) {
  std::vector<double> f{item.has_set ? 1.0 : 0.0, item.s_min};
  for (double d : item.delta_r) f.push_back(d);
  f.push_back(item.level_feasible ? 1.0 : 0.0);
  f.push_back(item.optimal_speed);
  return rbs::bench::encode_fields(f);
}

std::optional<EnergyItem> decode_energy(const std::string& payload) {
  const auto f = rbs::bench::decode_fields(payload, 4 + kSpeeds.size());
  if (!f) return std::nullopt;
  EnergyItem item;
  std::size_t at = 0;
  item.has_set = rbs::bench::decode_flag((*f)[at++]);
  item.s_min = (*f)[at++];
  for (double& d : item.delta_r) d = (*f)[at++];
  item.level_feasible = rbs::bench::decode_flag((*f)[at++]);
  item.optimal_speed = (*f)[at++];
  return item;
}

std::string encode_envelope(const EnvelopeItem& item) {
  return rbs::bench::encode_fields({item.has_set ? 1.0 : 0.0, item.speed_ok ? 1.0 : 0.0,
                                    item.duration_ok ? 1.0 : 0.0, item.rescued ? 1.0 : 0.0,
                                    item.admissible ? 1.0 : 0.0});
}

std::optional<EnvelopeItem> decode_envelope(const std::string& payload) {
  const auto f = rbs::bench::decode_fields(payload, 5);
  if (!f) return std::nullopt;
  EnvelopeItem item;
  item.has_set = rbs::bench::decode_flag((*f)[0]);
  item.speed_ok = rbs::bench::decode_flag((*f)[1]);
  item.duration_ok = rbs::bench::decode_flag((*f)[2]);
  item.rescued = rbs::bench::decode_flag((*f)[3]);
  item.admissible = rbs::bench::decode_flag((*f)[4]);
  return item;
}

std::string encode_duty(const DutyItem& item) {
  return rbs::bench::encode_fields({item.counted ? 1.0 : 0.0, item.bound_pct, item.duty_pct,
                                    item.violated ? 1.0 : 0.0});
}

std::optional<DutyItem> decode_duty(const std::string& payload) {
  const auto f = rbs::bench::decode_fields(payload, 4);
  if (!f) return std::nullopt;
  DutyItem item;
  item.counted = rbs::bench::decode_flag((*f)[0]);
  item.bound_pct = (*f)[1];
  item.duty_pct = (*f)[2];
  item.violated = rbs::bench::decode_flag((*f)[3]);
  return item;
}

std::string encode_latency(const LatencyItem& item) {
  std::vector<double> f{item.has_set ? 1.0 : 0.0};
  for (double s : item.s_min) f.push_back(s);
  for (double d : item.delta_r) f.push_back(d);
  return rbs::bench::encode_fields(f);
}

std::optional<LatencyItem> decode_latency(const std::string& payload) {
  const auto f = rbs::bench::decode_fields(payload, 1 + 2 * kLatenciesMs.size());
  if (!f) return std::nullopt;
  LatencyItem item;
  std::size_t at = 0;
  item.has_set = rbs::bench::decode_flag((*f)[at++]);
  for (double& s : item.s_min) s = (*f)[at++];
  for (double& d : item.delta_r) d = (*f)[at++];
  return item;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rbs;
  const CliArgs args(argc, argv);
  const int n_sets = static_cast<int>(args.get_int("sets", 40));
  const campaign::CampaignOptions base_options = bench::parse_campaign(args);
  const bench::CheckpointConfig checkpoint = bench::parse_checkpoint(args);
  bench::banner("Turbo budget & DVFS energy",
                "Boost-energy trade-off, envelope admissibility and executed duty\n"
                "cycles under the burst-separation assumption (" +
                    std::to_string(base_options.jobs) + " job(s)).");

  GenParams params;
  params.u_bound = 0.7;
  params.period_min = 20;
  params.period_max = 2000;

  const Analyzer analyzer;

  // ---- (1) energy per boost episode across a DVFS menu ----
  std::cout << "(1) boost energy, cubic power model P(s) = s^3 (medians over sets)\n";
  TextTable t1;
  t1.set_header({"level s", "P(s)", "med Delta_R [ms]", "med energy P*dR", "feasible [%]"});
  {
    const FrequencyMenu menu = FrequencyMenu::cubic({1.2, 1.4, 1.6, 1.8, 2.0, 2.4, 3.0});
    const std::vector<EnergyItem> items = bench::gather_items<EnergyItem>(
        bench::run_checkpointed(
            checkpoint, "energy", section_options(base_options, 1),
            static_cast<std::size_t>(n_sets),
            [&analyzer, &menu, &params](std::size_t, Rng& rng,
                                        const campaign::CancelToken& token) {
              EnergyItem item;
              const auto skeleton = bench::generate_with_retry(params, rng);
              if (!skeleton) return encode_energy(item);
              const auto set = bench::materialize_min_x(*skeleton, 2.0);
              if (!set) return encode_energy(item);
              item.has_set = true;
              // One certificate per set (the serial version recomputed s_min
              // for every menu level); reset sweeps only where the level
              // suffices.
              item.s_min =
                  analyzer.analyze(*set, 1.0, {.speedup = true, .reset = false, .lo = false})
                      .value()
                      .s_min;
              for (std::size_t k = 0; k < kSpeeds.size(); ++k) {
                token.throw_if_cancelled();
                item.delta_r[k] =
                    item.s_min <= kSpeeds[k]
                        ? analyzer
                              .analyze(*set, kSpeeds[k],
                                       {.speedup = false, .reset = true, .lo = false})
                              .value()
                              .delta_r
                        : std::numeric_limits<double>::infinity();
              }
              const LevelChoice c = energy_optimal_level(*set, menu);
              item.level_feasible = c.feasible;
              if (c.feasible) item.optimal_speed = c.level.speed;
              return encode_energy(item);
            }),
        decode_energy);

    std::size_t total_sets = 0;
    for (const EnergyItem& item : items) total_sets += item.has_set;
    for (std::size_t k = 0; k < kSpeeds.size(); ++k) {
      const double s = kSpeeds[k];
      std::vector<double> dr_ms, energy;
      int feasible = 0;
      for (const EnergyItem& item : items) {
        if (!item.has_set || !std::isfinite(item.delta_r[k])) continue;
        ++feasible;
        dr_ms.push_back(item.delta_r[k] / 10.0);
        energy.push_back(s * s * s * item.delta_r[k]);
      }
      t1.add_row({TextTable::num(s, 1), TextTable::num(s * s * s, 2),
                  TextTable::num(median(dr_ms), 1), TextTable::num(median(energy), 0),
                  TextTable::num(total_sets == 0 ? 0.0
                                                 : 100.0 * feasible /
                                                       static_cast<double>(total_sets),
                                 0)});
    }
    t1.print(std::cout);
    int optimal_counts[kSpeeds.size()] = {};
    for (const EnergyItem& item : items) {
      if (!item.level_feasible) continue;
      for (std::size_t k = 0; k < kSpeeds.size(); ++k)
        if (approx_eq(kSpeeds[k], item.optimal_speed, kSpeedTol)) ++optimal_counts[k];
    }
    std::cout << "\nenergy-optimal level histogram:";
    for (std::size_t k = 0; k < kSpeeds.size(); ++k)
      std::cout << "  " << kSpeeds[k] << "x:" << optimal_counts[k];
    std::cout << "\n(the slowest feasible level usually wins under cubic power;\n"
                 "flatter power curves favour shorter, faster boosts)\n\n";
  }

  // ---- (2) envelope admissibility ----
  // A tight envelope (1.6x for at most 80 ms) differentiates: the x factor
  // follows the paper's utilization rule, so high-utilization sets need real
  // speedup and long boosts; the termination fallback rescues some of them.
  std::cout << "(2) tight envelope: 1.6x for at most 80 ms (800 ticks)\n";
  TextTable t2;
  t2.set_header({"U_bound", "speed ok [%]", "duration ok [%]", "fallback saves [%]",
                 "admissible [%]"});
  {
    const std::size_t per_u = static_cast<std::size_t>(n_sets);
    const std::vector<EnvelopeItem> items = bench::gather_items<EnvelopeItem>(
        bench::run_checkpointed(
            checkpoint, "envelope", section_options(base_options, 2), kUBounds.size() * per_u,
            [&params, per_u](std::size_t index, Rng& rng, const campaign::CancelToken&) {
              EnvelopeItem item;
              GenParams p2 = params;
              p2.u_bound = kUBounds[index / per_u];
              const auto skeleton = bench::generate_with_retry(p2, rng);
              if (!skeleton) return encode_envelope(item);
              const auto set =
                  bench::materialize_min_x(*skeleton, 2.0, bench::XPolicy::kUtilization);
              if (!set) return encode_envelope(item);
              item.has_set = true;
              TurboEnvelope env;
              env.max_speedup = 1.6;
              env.max_boost_ticks = 800.0;
              const TurboReport r = check_turbo_envelope(*set, env);
              item.speed_ok = r.speed_ok;
              item.duration_ok = r.duration_ok;
              item.rescued = !r.duration_ok && r.speed_ok && r.fallback_safe;
              item.admissible = r.admissible;
              return encode_envelope(item);
            }),
        decode_envelope);
    for (std::size_t ui = 0; ui < kUBounds.size(); ++ui) {
      int total = 0, speed_ok = 0, duration_ok = 0, rescued = 0, admissible = 0;
      for (std::size_t i = 0; i < per_u; ++i) {
        const EnvelopeItem& item = items[ui * per_u + i];
        if (!item.has_set) continue;
        ++total;
        speed_ok += item.speed_ok;
        duration_ok += item.duration_ok;
        rescued += item.rescued;
        admissible += item.admissible;
      }
      auto pct = [&](int k) { return TextTable::num(total ? 100.0 * k / total : 0.0, 0); };
      t2.add_row({TextTable::num(kUBounds[ui], 1), pct(speed_ok), pct(duration_ok),
                  pct(rescued), pct(admissible)});
    }
    t2.print(std::cout);
  }

  // ---- (3) executed duty cycle vs the 1/T_O bound ----
  std::cout << "\n(3) executed boost duty cycle with bursts separated by T_O\n";
  TextTable t3;
  t3.set_header({"T_O [ms]", "analytic bound dR/T_O [%]", "executed duty [%]", "sets"});
  {
    const std::size_t per_sep = static_cast<std::size_t>(n_sets / 2);
    const std::vector<DutyItem> items = bench::gather_items<DutyItem>(
        bench::run_checkpointed(
            checkpoint, "duty", section_options(base_options, 3),
            kSeparationsMs.size() * per_sep,
            [&analyzer, &params, per_sep](std::size_t index, Rng& rng,
                                          const campaign::CancelToken& token) {
              DutyItem item;
              const double t_o = kSeparationsMs[index / per_sep] * 10.0;  // ticks
              const auto skeleton = bench::generate_with_retry(params, rng);
              if (!skeleton) return encode_duty(item);
              const auto set = bench::materialize_min_x(*skeleton, 2.0);
              if (!set) return encode_duty(item);
              const AnalysisReport report =
                  analyzer.analyze(*set, 2.0, {.speedup = true, .reset = true, .lo = false})
                      .value();
              if (report.s_min > 2.0) return encode_duty(item);
              const double dr = report.delta_r;
              // 1/T_O needs dR <= T_O
              if (!std::isfinite(dr) || dr > t_o) return encode_duty(item);
              token.throw_if_cancelled();
              sim::SimConfig cfg;
              cfg.horizon = 400000.0;  // 40 s
              cfg.hi_speed = 2.0;
              cfg.demand.overrun_probability = 1.0;  // overrun whenever permitted
              cfg.min_overrun_separation = t_o;
              cfg.seed = rng.fork_seed();
              // One-shot run through the redesigned facade; workers may run
              // concurrently, so each run gets its own engine.
              const sim::SimMetrics r =
                  sim::Simulator{}.run(*set, cfg).value().metrics;
              double boosted = 0.0;
              for (double d : r.hi_dwell_times) boosted += d;
              item.counted = true;
              item.bound_pct = 100.0 * dr / t_o;
              item.duty_pct = 100.0 * boosted / cfg.horizon;
              // At most floor(horizon/T_O)+1 bursts fit: allow the +1 edge term.
              item.violated = definitely_gt(
                  item.duty_pct, item.bound_pct + 100.0 * dr / cfg.horizon, kTimeTol);
              return encode_duty(item);
            }),
        decode_duty);
    for (std::size_t si = 0; si < kSeparationsMs.size(); ++si) {
      std::vector<double> bounds, duties;
      for (std::size_t i = 0; i < per_sep; ++i) {
        const DutyItem& item = items[si * per_sep + i];
        if (!item.counted) continue;
        if (item.violated) {
          std::cout << "ERROR: executed duty cycle exceeds the bound\n";
          return 1;
        }
        bounds.push_back(item.bound_pct);
        duties.push_back(item.duty_pct);
      }
      t3.add_row({TextTable::num(kSeparationsMs[si], 0), TextTable::num(median(bounds), 2),
                  TextTable::num(median(duties), 2),
                  TextTable::num(static_cast<long long>(bounds.size()))});
    }
    t3.print(std::cout);
  }
  std::cout << "\nSpeedup is only temporarily required: with bursts T_O apart the\n"
               "processor is boosted for at most Delta_R/T_O of the time.\n";

  // ---- (4) DVFS transition-latency sweep ----
  std::cout << "\n(4) certificate vs transition latency (medians over sets)\n";
  TextTable t4;
  t4.set_header({"latency [ms]", "med s_min(L)", "med dR(2, L) [ms]", "infeasible [%]"});
  {
    GenParams p4 = params;
    p4.u_bound = 0.9;  // heavy sets: the boost (and thus the ramp) matters
    const std::vector<LatencyItem> items = bench::gather_items<LatencyItem>(
        bench::run_checkpointed(
            checkpoint, "latency", section_options(base_options, 4),
            static_cast<std::size_t>(n_sets),
            [&p4](std::size_t, Rng& rng, const campaign::CancelToken& token) {
              LatencyItem item;
              const auto skeleton = bench::generate_with_retry(p4, rng);
              if (!skeleton) return encode_latency(item);
              const auto set =
                  bench::materialize_min_x(*skeleton, 2.0, bench::XPolicy::kUtilization);
              if (!set) return encode_latency(item);
              item.has_set = true;
              for (std::size_t li = 0; li < kLatenciesMs.size(); ++li) {
                token.throw_if_cancelled();
                const auto latency = static_cast<Ticks>(kLatenciesMs[li] * 10.0);
                const LatencySpeedupReport r = min_speedup_with_latency(*set, latency);
                item.s_min[li] = r.s_min;
                item.delta_r[li] = std::isfinite(r.s_min)
                                       ? resetting_time_with_latency(*set, 2.0, latency)
                                       : std::numeric_limits<double>::infinity();
              }
              return encode_latency(item);
            }),
        decode_latency);
    std::size_t total_sets = 0;
    for (const LatencyItem& item : items) total_sets += item.has_set;
    for (std::size_t li = 0; li < kLatenciesMs.size(); ++li) {
      std::vector<double> s_mins, resets;
      int infeasible = 0;
      for (const LatencyItem& item : items) {
        if (!item.has_set) continue;
        if (!std::isfinite(item.s_min[li])) {
          ++infeasible;
          continue;
        }
        s_mins.push_back(item.s_min[li]);
        if (std::isfinite(item.delta_r[li])) resets.push_back(item.delta_r[li] / 10.0);
      }
      t4.add_row({TextTable::num(kLatenciesMs[li], 0), TextTable::num(median(s_mins), 3),
                  TextTable::num(median(resets), 1),
                  TextTable::num(total_sets == 0 ? 0.0
                                                 : 100.0 * infeasible /
                                                       static_cast<double>(total_sets),
                                 0)});
    }
    t4.print(std::cout);
  }
  std::cout << "\nSlow frequency ramps inflate both the certificate and the recovery\n"
               "time; past the shortest prepared deadline no boost can help at all.\n";
  return 0;
}
