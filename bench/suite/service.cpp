// The two open-loop service workloads of rbs_bench. A generator on the main
// thread sends requests to an AnalysisServer with W workers on a seeded
// Poisson schedule, spins between sends, and stamps each response when its
// future turns ready. Latency runs from the request's *due* time, so a late
// generator or a blocked HI submit counts against the server.
//
//   service_steady    2,500 req/s for the whole window: about half the
//                     drain capacity of 3 workers (4.5k-5.5k req/s)
//   service_overload  1,000 req/s for 1/10 of the window, 9,000 req/s (about
//                     2x capacity) for 7/10, then 1,000 req/s: admission
//                     sheds LO, serves HI degraded, and recovers. The burst
//                     holds most served requests, so the latency median
//                     sits inside it rather than between two populations.
//
// 30% of requests are HI; 20% repeat one of 64 hot sets (cache hits and
// single-flight), the rest cycle 16,384 cold sets, far more than the cache
// holds. The cold pool is that large because its sets repeat: with 4,096
// the few slow sets a seed happens to draw recur often enough to move the
// drain capacity by 10% from seed to seed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/tuning.hpp"
#include "gen/rng.hpp"
#include "gen/taskgen.hpp"
#include "service/cache.hpp"
#include "service/server.hpp"
#include "suite.hpp"
#include "support/tolerance.hpp"

namespace rbs::suite {
namespace {

constexpr std::size_t kColdSets = 16384;
constexpr std::size_t kHotSets = 64;
constexpr double kHotFraction = 0.2;
constexpr double kHiFraction = 0.3;
constexpr double kSetUBound = 0.7;
/// Every kRecheckEvery-th served request is recomputed after timing.
constexpr std::uint64_t kRecheckEvery = 50;
/// A send counts as late when it leaves more than this after its due time.
constexpr std::int64_t kLateNs = 1'000'000;
/// Mode polls during the run are throttled to one per this interval.
constexpr std::int64_t kModePollNs = 100'000;
constexpr std::int64_t kStartDelayNs = 2'000'000;
constexpr std::uint64_t kColdStream = 21, kHotStream = 22, kScheduleStream = 23;
constexpr std::size_t kTraceFileRequests = 5000;
constexpr int kSetupRepeats = 5;

struct Phase {
  double share;  ///< of the window
  double rate;   ///< offered requests per second
};

struct ServiceSpec {
  const char* name;
  std::array<Phase, 3> phases;
  std::size_t phase_count;
  std::size_t burst_phase;  ///< phase whose end starts the recovery clock; npos: none
};

constexpr std::size_t kNoBurst = static_cast<std::size_t>(-1);
constexpr std::array<ServiceSpec, 2> kSpecs = {{
    {"service_steady", {{{1.0, 2500.0}, {0.0, 0.0}, {0.0, 0.0}}}, 1, kNoBurst},
    {"service_overload", {{{0.1, 1000.0}, {0.7, 9000.0}, {0.2, 1000.0}}}, 3, 1},
}};

const ServiceSpec* find_spec(const std::string& name) {
  for (const ServiceSpec& spec : kSpecs)
    if (name == spec.name) return &spec;
  return nullptr;
}

struct PoolCounts {
  std::uint64_t gen_calls = 0, gen_attempts = 0, gen_sets = 0;
  std::uint64_t min_x_calls = 0, min_x_infeasible = 0;
};

/// One LO-schedulable paper set (u_bound 0.7, exact min-x, y = 2) per slot,
/// drawn from the slot's own stream until one qualifies.
std::vector<TaskSet> make_pool(std::uint64_t seed, std::uint64_t stream, std::size_t count,
                               PoolCounts& counts) {
  std::vector<TaskSet> pool;
  pool.reserve(count);
  GenParams params;
  params.u_bound = kSetUBound;
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(item_seed(seed, stream, i));
    for (;;) {
      ++counts.gen_calls;
      std::optional<ImplicitSet> skeleton;
      for (int attempt = 0; attempt < 200 && !skeleton; ++attempt) {
        ++counts.gen_attempts;
        skeleton = generate_task_set(params, rng);
      }
      if (!skeleton) continue;
      ++counts.gen_sets;
      ++counts.min_x_calls;
      const MinXResult mx = min_x_for_lo(*skeleton);
      if (!mx.feasible) {
        ++counts.min_x_infeasible;
        continue;
      }
      pool.push_back(skeleton->materialize(mx.x, kDegradation));
      break;
    }
  }
  return pool;
}

/// `task` under a new name (names are ignored by cache_key and reports).
McTask renamed(const McTask& task, const std::string& name) {
  if (task.is_hi())
    return McTask::hi(name, task.wcet(Mode::LO), task.wcet(Mode::HI), task.deadline(Mode::LO),
                      task.deadline(Mode::HI), task.period(Mode::LO));
  if (task.dropped_in_hi())
    return McTask::lo_terminated(name, task.wcet(Mode::LO), task.deadline(Mode::LO),
                                 task.period(Mode::LO));
  return McTask::lo(name, task.wcet(Mode::LO), task.deadline(Mode::LO), task.period(Mode::LO),
                    task.deadline(Mode::HI), task.period(Mode::HI));
}

/// Request ids ride in the first task's name ("r<id>") so the traced run's
/// fault_hook can tell which request a worker picked up.
std::uint64_t request_id(const AnalysisRequest& request) {
  if (request.set.empty()) return 0;
  return std::strtoull(request.set[0].name().c_str() + 1, nullptr, 10);
}

struct Planned {
  std::int64_t due_ns = 0;  ///< relative to the window start
  std::size_t set = 0;      ///< pool index (cold sets first, then hot)
  bool hi = false;
};

/// Seeded Poisson arrivals over the phases; the rate of the phase an
/// arrival falls in sets the gap to the next one.
std::vector<Planned> make_schedule(const ServiceSpec& spec, std::uint64_t seed,
                                   double seconds) {
  SplitMix draw(item_seed(seed, kScheduleStream, 0));
  std::vector<Planned> plan;
  const double end = seconds;
  double t = 0.0;
  std::size_t cold = 0;
  const auto rate_at = [&spec, seconds](double at) {
    double edge = 0.0;
    for (std::size_t p = 0; p < spec.phase_count; ++p) {
      edge += spec.phases[p].share * seconds;
      if (at < edge) return spec.phases[p].rate;
    }
    return spec.phases[spec.phase_count - 1].rate;
  };
  for (;;) {
    t += -std::log1p(-draw.uniform()) / rate_at(t);
    if (t >= end) break;
    Planned request;
    request.due_ns = static_cast<std::int64_t>(t * 1e9);
    request.set = draw.uniform() < kHotFraction ? kColdSets + draw.below(kHotSets)
                                                : cold++ % kColdSets;
    request.hi = draw.uniform() < kHiFraction;
    plan.push_back(request);
  }
  return plan;
}

/// Everything set-up builds; the last of the repeated set-ups is measured.
struct Prepared {
  std::vector<TaskSet> pool;
  std::vector<Planned> plan;
  PoolCounts counts;
};

Prepared prepare(const ServiceSpec& spec, const RunOptions& options) {
  Prepared p;
  p.pool = make_pool(options.seed, kColdStream, kColdSets, p.counts);
  std::vector<TaskSet> hot = make_pool(options.seed, kHotStream, kHotSets, p.counts);
  for (TaskSet& set : hot) p.pool.push_back(std::move(set));
  p.plan = make_schedule(spec, options.seed, options.seconds);
  return p;
}

/// Request `id` of the plan, built when it is sent (the copy is the
/// client's cost of forming a request).
AnalysisRequest make_request(const Prepared& p, std::size_t id) {
  const TaskSet& source = p.pool[p.plan[id].set];
  std::vector<McTask> tasks(source.begin(), source.end());
  std::string name = "r";
  name += std::to_string(id);
  tasks[0] = renamed(tasks[0], name);
  AnalysisRequest request;
  request.set = TaskSet(std::move(tasks));
  request.speed = kSpeed;
  request.priority = p.plan[id].hi ? Criticality::HI : Criticality::LO;
  return request;
}

enum class Outcome : std::uint8_t { kPending, kServed, kShed, kFailed };

struct Kept {
  std::uint64_t id = 0;
  bool degraded = false;
  std::string serialized;
  AnalysisReport report;
};

}  // namespace

bool is_service_workload(const std::string& name) { return find_spec(name) != nullptr; }

RunResult run_service(const RunOptions& options) {
  const ServiceSpec& spec = *find_spec(options.workload);
  RunResult result;

  // Stamped by the traced run's fault_hook just before a worker analyses a
  // request (cache misses only); read after the request's future is ready.
  std::vector<std::int64_t> hook_ns;
  std::optional<service::AnalysisServer> server;
  Prepared prepared;
  std::vector<double> setups;
  const int repeats = options.smoke ? 1 : kSetupRepeats;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    const std::int64_t start = mono_ns();
    server.reset();
    prepared = prepare(spec, options);
    hook_ns.assign(prepared.plan.size(), 0);
    service::ServerOptions server_options;
    server_options.workers = options.workers;
    if (options.trace)
      server_options.fault_hook = [&hook_ns](const AnalysisRequest& request, std::uint32_t) {
        const std::uint64_t id = request_id(request);
        if (id < hook_ns.size()) hook_ns[id] = mono_ns();
      };
    Expected<service::AnalysisServer> opened = service::AnalysisServer::open(server_options);
    if (!opened) {
      result.problem("server failed to open: " + opened.status().message());
      return result;
    }
    server.emplace(std::move(opened).value());
    setups.push_back(static_cast<double>(mono_ns() - start) / 1e9);
  }

  // ---- open-loop generator -------------------------------------------------
  const std::size_t n = prepared.plan.size();
  std::vector<std::future<service::Response>> futures(n);
  std::vector<std::int64_t> send_start(n, 0), send_end(n, 0), done(n, 0);
  std::vector<Outcome> outcome(n, Outcome::kPending);
  std::vector<bool> degraded(n, false);
  std::vector<Kept> kept;
  std::vector<std::uint32_t> outstanding;
  outstanding.reserve(n);
  std::vector<double> poll_gaps_us;
  poll_gaps_us.reserve(1 << 16);

  std::int64_t burst_end_ns = -1;  // relative due time where the burst ends
  if (spec.burst_phase != kNoBurst) {
    double edge = 0.0;
    for (std::size_t p = 0; p <= spec.burst_phase; ++p) edge += spec.phases[p].share;
    burst_end_ns = static_cast<std::int64_t>(edge * options.seconds * 1e9);
  }
  std::size_t last_burst_request = n;
  for (std::size_t id = 0; id < n; ++id)
    if (prepared.plan[id].due_ns < burst_end_ns) last_burst_request = id;

  const std::int64_t origin = mono_ns() + kStartDelayNs;
  std::size_t next = 0;
  // Recovery: from the last burst send until the first LO observation after
  // the last HI one (admission may flap between modes while it drains).
  std::int64_t last_sweep = 0, last_mode_poll = 0, burst_sent_at = -1, recovered_at = -1;
  bool hi_after_burst = false;
  while (next < n || !outstanding.empty()) {
    std::int64_t now = mono_ns();
    while (next < n && now >= origin + prepared.plan[next].due_ns) {
      send_start[next] = now;
      futures[next] = server->submit(next, make_request(prepared, next));
      send_end[next] = now = mono_ns();
      outstanding.push_back(static_cast<std::uint32_t>(next));
      if (next == last_burst_request) {
        burst_sent_at = now;
        last_mode_poll = now - kModePollNs;
      }
      ++next;
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      const std::uint32_t id = outstanding[k];
      if (futures[id].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      done[id] = mono_ns();
      service::Response response = futures[id].get();
      if (response.status.is_ok()) {
        outcome[id] = Outcome::kServed;
        degraded[id] = response.degraded;
        if (id % kRecheckEvery == 0)
          kept.push_back({id, response.degraded, std::move(response.serialized),
                          response.report});
      } else if (response.status.is_overloaded()) {
        outcome[id] = Outcome::kShed;
      } else {
        outcome[id] = Outcome::kFailed;
        result.problem("request " + std::to_string(id) + ": " + response.status.message());
      }
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
    }
    now = mono_ns();
    if (last_sweep != 0 && poll_gaps_us.size() < poll_gaps_us.capacity())
      poll_gaps_us.push_back(static_cast<double>(now - last_sweep) / 1e3);
    last_sweep = now;
    if (burst_sent_at >= 0 && now - last_mode_poll >= kModePollNs) {
      last_mode_poll = now;
      if (server->mode() == service::ServiceMode::kHi) {
        hi_after_burst = true;
        recovered_at = -1;
      } else if (hi_after_burst && recovered_at < 0) {
        recovered_at = now;
      }
    }
  }
  server->drain();
  const service::ServiceStats stats = server->stats();
  server.reset();

  // ---- correctness ---------------------------------------------------------
  std::uint64_t served = 0, hi_shed = 0, lo_shed = 0, hi_served = 0, hi_degraded = 0;
  std::uint64_t hi_sent = 0, lo_sent = 0;
  for (std::size_t id = 0; id < n; ++id) {
    const bool hi = prepared.plan[id].hi;
    (hi ? hi_sent : lo_sent) += 1;
    if (outcome[id] == Outcome::kServed) {
      ++served;
      if (hi) {
        ++hi_served;
        if (degraded[id]) ++hi_degraded;
      }
    } else if (outcome[id] == Outcome::kShed) {
      (hi ? hi_shed : lo_shed) += 1;
    }
  }
  if (hi_shed != 0) result.problem(std::to_string(hi_shed) + " HI request(s) shed");
  const Analyzer analyzer;
  for (const Kept& k : kept) {
    AnalysisRequest request;
    request.set = prepared.pool[prepared.plan[k.id].set];
    request.speed = kSpeed;
    Expected<AnalysisReport> exact = analyzer.analyze(request);
    if (!exact) {
      result.problem("recheck of request " + std::to_string(k.id) + " failed");
      continue;
    }
    const AnalysisReport& truth = exact.value();
    if (!k.degraded) {
      if (service::serialize_report(truth) != k.serialized)
        result.problem("request " + std::to_string(k.id) + ": served report differs");
    } else if (definitely_lt(truth.s_min, k.report.s_min, kSpeedTol) ||
               definitely_gt(truth.s_min, k.report.s_min + k.report.s_min_error_bound,
                             kSpeedTol)) {
      result.problem("request " + std::to_string(k.id) +
                     ": degraded s_min does not bracket the exact one");
    }
  }
  result.attempted = n;
  result.notes["rechecked"] = std::to_string(kept.size());

  // ---- metrics -------------------------------------------------------------
  std::int64_t window_end = origin;
  for (std::size_t id = 0; id < n; ++id) window_end = std::max(window_end, done[id]);
  const double window_s = static_cast<double>(window_end - origin) / 1e9;
  std::vector<double> all_ms, hi_ms, lo_ms, lag_ms;
  double latency_ns = 0.0, lag_ns = 0.0, submit_ns = 0.0, queue_ns = 0.0, analysis_ns = 0.0;
  std::uint64_t late = 0, hooked = 0;
  std::vector<TraceEvent> events;
  for (std::size_t id = 0; id < n; ++id) {
    const std::int64_t due = origin + prepared.plan[id].due_ns;
    lag_ms.push_back(static_cast<double>(send_start[id] - due) / 1e6);
    if (send_start[id] - due > kLateNs) ++late;
    if (outcome[id] != Outcome::kServed) continue;
    const double ms = static_cast<double>(done[id] - due) / 1e6;
    all_ms.push_back(ms);
    (prepared.plan[id].hi ? hi_ms : lo_ms).push_back(ms);
    latency_ns += static_cast<double>(done[id] - due);
    lag_ns += static_cast<double>(send_start[id] - due);
    submit_ns += static_cast<double>(send_end[id] - send_start[id]);
    const std::int64_t picked = hook_ns[id] != 0 ? hook_ns[id] : done[id];
    queue_ns += static_cast<double>(picked - send_end[id]);
    analysis_ns += static_cast<double>(done[id] - picked);
    if (hook_ns[id] != 0) ++hooked;
    if (options.trace && id < kTraceFileRequests) {
      events.push_back({"request", due, done[id], 0, id});
      events.push_back({"lag", due, send_start[id], 1, id});
      events.push_back({"submit", send_start[id], send_end[id], 1, id});
      events.push_back({"queue", send_end[id], picked, 2, id});
      if (hook_ns[id] != 0) events.push_back({"analysis", picked, done[id], 3, id});
    }
  }

  result.set("setup_s", median_of(setups), "s");
  result.set("items_per_s", window_s > 0.0 ? static_cast<double>(served) / window_s : 0.0,
             "items/s");
  result.notes["latency_samples"] = std::to_string(all_ms.size());
  result.set("p50_ms", percentile(all_ms, 0.5), "ms");
  result.set("item.p90_ms", percentile(all_ms, 0.9), "ms");
  result.set("item.p99_ms", percentile(all_ms, 0.99), "ms");
  const auto note_ms = [&result](const char* name, std::vector<double>& v, double q) {
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%.4f", percentile(v, q));
    result.notes[name] = buffer;
  };
  note_ms("hi_p50_ms", hi_ms, 0.5);
  note_ms("hi_p99_ms", hi_ms, 0.99);
  note_ms("lo_p50_ms", lo_ms, 0.5);
  note_ms("lo_p99_ms", lo_ms, 0.99);
  note_ms("loadgen_lag_ms_p99", lag_ms, 0.99);
  note_ms("loadgen_poll_us_p99", poll_gaps_us, 0.99);
  result.notes["hi_samples"] = std::to_string(hi_ms.size());
  result.notes["lo_samples"] = std::to_string(lo_ms.size());
  if (burst_sent_at >= 0) {
    const double recovery_ms =
        !hi_after_burst ? 0.0
                        : static_cast<double>((recovered_at >= 0 ? recovered_at : window_end) -
                                              burst_sent_at) / 1e6;
    char buffer[48];
    std::snprintf(buffer, sizeof buffer, "%.4f", recovery_ms);
    result.notes["recovery_ms"] = buffer;
    const double burst_ms = spec.phases[spec.burst_phase].share * options.seconds * 1e3;
    result.set("service.recovery_share", share(recovery_ms, burst_ms), "ratio");
  }

  result.set("gen.calls", static_cast<double>(prepared.counts.gen_calls), "count");
  result.set("gen.attempts", static_cast<double>(prepared.counts.gen_attempts), "count");
  result.set("gen.yield",
             share(static_cast<double>(prepared.counts.gen_sets),
                   static_cast<double>(prepared.counts.gen_attempts)),
             "ratio");
  result.set("min_x.calls", static_cast<double>(prepared.counts.min_x_calls), "count");
  result.set("min_x.infeasible", static_cast<double>(prepared.counts.min_x_infeasible),
             "count");
  const auto count = [&result](const char* name, std::uint64_t value) {
    result.set(name, static_cast<double>(value), "count");
  };
  count("service.cache_hits", stats.cache_hits);
  count("service.coalesced", stats.coalesced);
  count("service.cache_misses", stats.cache_misses);
  count("service.mode_switches_to_hi", stats.mode_switches_to_hi);
  count("service.mode_switches_to_lo", stats.mode_switches_to_lo);
  count("service.degraded", stats.degraded);
  count("service.shed_lo", lo_shed);
  count("service.shed_hi", hi_shed);
  const double lookups = static_cast<double>(stats.cache_hits + stats.coalesced +
                                             stats.cache_misses);
  result.set("service.cache_hit_ratio",
             share(static_cast<double>(stats.cache_hits + stats.coalesced), lookups), "ratio");
  result.set("service.lo_shed_frac",
             share(static_cast<double>(lo_shed), static_cast<double>(lo_sent)), "ratio");
  result.set("service.hi_degraded_frac",
             share(static_cast<double>(hi_degraded), static_cast<double>(hi_served)), "ratio");
  result.set("loadgen.offered_per_s", static_cast<double>(n) / options.seconds, "req/s");
  result.set("loadgen.late_frac", share(static_cast<double>(late), static_cast<double>(n)),
             "ratio");
  result.set("loadgen.lag_share", share(lag_ns, latency_ns), "ratio");

  if (options.trace) {
    result.set("service.submit_share", share(submit_ns, latency_ns), "ratio");
    result.set("service.queue_share", share(queue_ns, latency_ns), "ratio");
    result.set("service.analysis_share", share(analysis_ns, latency_ns), "ratio");
    result.set("trace.spans", static_cast<double>(hooked), "count");
    result.set("trace.overhead_frac",
               share(static_cast<double>(hooked) * span_cost_ns(), latency_ns), "ratio");
    if (!options.trace_dir.empty()) {
      const std::string path = options.trace_dir + "/" + spec.name + "-seed" +
                               std::to_string(options.seed) + ".trace.json";
      if (write_chrome_trace(path, events, origin)) result.notes["trace_file"] = path;
    }
  }
  return result;
}

}  // namespace rbs::suite
