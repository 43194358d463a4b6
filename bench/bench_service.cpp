// Experiment S1: the concurrent query service — throughput scaling with
// client threads on a read-only mixed-island workload.
//
// Clients are closed-loop (each waits for its result, "thinks" briefly,
// then submits the next query), the standard model for the interactive
// polystore front-end the paper demonstrates. The service overlaps the
// think/handoff time of some clients with the execution of others, so
// throughput scales with client count until the workers or the machine
// saturate. Also prints the admission counters and per-island p50/p95
// latency digests the service exposes.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/bigdawg.h"
#include "exec/admin_endpoints.h"
#include "exec/query_service.h"
#include "mimic/mimic.h"
#include "obs/admin_server.h"

using namespace bigdawg;  // NOLINT

namespace {

constexpr int kQueriesPerClient = 24;
constexpr auto kThinkTime = std::chrono::milliseconds(2);

const char* QueryFor(int i) {
  switch (i % 4) {
    case 0:
      return "SELECT race, COUNT(*) AS n FROM admissions GROUP BY race";
    case 1:
      return "ARRAY(aggregate(waveforms, avg, mv))";
    case 2:
      return "TEXT(SEARCH sick)";
    default:
      return "SELECT COUNT(*) AS n FROM patients";
  }
}

/// Runs `num_clients` closed-loop clients against the service; returns
/// queries/second over the whole run.
double RunClients(exec::QueryService* service, int num_clients,
                  std::chrono::milliseconds think = kThinkTime,
                  int queries_per_client = kQueriesPerClient) {
  std::vector<std::thread> clients;
  Stopwatch wall;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([service, c, think, queries_per_client] {
      int64_t session = service->OpenSession();
      for (int i = 0; i < queries_per_client; ++i) {
        if (think.count() > 0) std::this_thread::sleep_for(think);
        auto result =
            service->ExecuteSync(QueryFor(c + i), {.session = session});
        BIGDAWG_CHECK(result.ok()) << result.status().ToString();
      }
      BIGDAWG_CHECK_OK(service->CloseSession(session));
    });
  }
  for (std::thread& t : clients) t.join();
  double seconds = wall.ElapsedMillis() / 1000.0;
  return static_cast<double>(num_clients) * queries_per_client / seconds;
}

/// The overhead sections compare configurations on one client issuing
/// queries with no think time, and score a run in queries per CPU-second
/// of the whole process (every thread, user + system). On a shared
/// machine, wall-clock throughput moves by several percent from run to
/// run with the CPU time other tenants steal; process CPU time does not
/// count stolen time, so it resolves a few-percent overhead where
/// wall-clock throughput cannot.
constexpr int kZeroThinkQueries = 600;

/// Interleaved A/B trials per comparison. Each trial runs every
/// configuration once, rotating which goes first so drift in machine load
/// hits all of them alike; a comparison is judged on the median of its
/// per-trial overheads and that median's 95% confidence interval.
constexpr int kTrials = 20;

double ProcessCpuSeconds() {
  rusage usage{};
  BIGDAWG_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// One zero-think run on `service`; returns queries per CPU-second.
double ZeroThinkRun(exec::QueryService* service) {
  const double cpu_start = ProcessCpuSeconds();
  (void)RunClients(service, 1, std::chrono::milliseconds(0), kZeroThinkQueries);
  return kZeroThinkQueries / (ProcessCpuSeconds() - cpu_start);
}

/// One zero-think run on a fresh service.
double ZeroThinkRun(core::BigDawg* dawg) {
  exec::QueryService service(dawg, {.num_workers = 8, .max_in_flight = 64});
  return ZeroThinkRun(&service);
}

/// Runs kTrials interleaved trials of `configs` (each returns queries per
/// CPU-second) and returns, per configuration, its per-trial scores.
std::vector<std::vector<double>> InterleavedTrials(
    const std::vector<std::function<double()>>& configs) {
  const size_t n = configs.size();
  std::vector<std::vector<double>> scores(n);
  for (int t = 0; t < kTrials; ++t) {
    for (size_t k = 0; k < n; ++k) {
      const size_t c = (static_cast<size_t>(t) + k) % n;
      scores[c].push_back(configs[c]());
    }
  }
  return scores;
}

/// Per-trial overhead of `with` against `base`, in percent of base score.
bench::MedianCi OverheadPct(const std::vector<double>& base,
                            const std::vector<double>& with) {
  std::vector<double> pct;
  for (size_t t = 0; t < base.size(); ++t) {
    pct.push_back(100.0 * (1.0 - with[t] / base[t]));
  }
  return bench::MedianWithCi(pct);
}

/// S1b: what observability costs. The zero-think workload under three
/// configurations: everything off, tracing on, and the admin server up
/// with a scraper hammering /metrics throughout the run.
void OverheadSection(core::BigDawg* dawg) {
  auto traced = [dawg] {
    dawg->tracer().Enable();
    const double score = ZeroThinkRun(dawg);
    dawg->tracer().Disable();
    (void)dawg->tracer().DrainFinished();
    return score;
  };
  auto admin = [dawg] {
    exec::QueryService service(dawg, {.num_workers = 8, .max_in_flight = 64});
    std::unique_ptr<obs::AdminServer> server =
        *exec::StartAdminServer(&service, dawg);
    std::atomic<bool> stop_scraper{false};
    std::thread scraper([&server, &stop_scraper] {
      while (!stop_scraper.load()) {
        auto scrape = obs::HttpGet("127.0.0.1", server->port(), "/metrics");
        BIGDAWG_CHECK(scrape.ok() && scrape->status == 200);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    const double score = ZeroThinkRun(&service);
    stop_scraper.store(true);
    scraper.join();
    server->Stop();
    return score;
  };

  // One throwaway warm-up run so caches and the allocator settle before
  // anything is compared.
  (void)ZeroThinkRun(dawg);
  std::vector<std::vector<double>> scores =
      InterleavedTrials({[dawg] { return ZeroThinkRun(dawg); }, traced, admin});

  std::printf("\n---- S1b: observability overhead (1 client x %d queries, "
              "no think time, median of %d interleaved trials) ----\n",
              kZeroThinkQueries, kTrials);
  std::printf("%-28s %12s %10s %20s\n", "configuration", "queries/cpu-s",
              "overhead", "95% CI of median");
  auto line = [&](const char* name, const std::vector<double>& config) {
    const bench::MedianCi over = OverheadPct(scores[0], config);
    std::printf("%-28s %12.1f %+9.2f%% [%+6.2f%%, %+6.2f%%]\n", name,
                bench::MedianWithCi(config).median, over.median, over.low,
                over.high);
  };
  line("baseline (tracing off)", scores[0]);
  line("tracing on (BIGDAWG_TRACE)", scores[1]);
  line("admin server + scraper", scores[2]);
}

/// S1c: what the always-on profiler costs — the floor it ships under.
/// The zero-think workload with the profiler kill-switched off
/// (BIGDAWG_PROFILE=0) and on (the shipping default), in interleaved
/// off/on pairs. The floor is met when the 95% confidence interval of the
/// median per-pair overhead lies within 2%, missed when it lies above,
/// and unresolved when it straddles the bound (the trials cannot tell).
/// Writes BENCH_profile.json; returns false (run fails) unless met.
bool ProfilerOverheadSection(core::BigDawg* dawg) {
  constexpr double kMaxOverheadPct = 2.0;
  auto with_profiler = [dawg](bool on) {
    return [dawg, on] {
      BIGDAWG_CHECK(setenv("BIGDAWG_PROFILE", on ? "1" : "0", 1) == 0);
      exec::QueryService service(dawg, {.num_workers = 8, .max_in_flight = 64});
      BIGDAWG_CHECK((service.profiler() != nullptr) == on);
      const double score = ZeroThinkRun(&service);
      BIGDAWG_CHECK(unsetenv("BIGDAWG_PROFILE") == 0);
      return score;
    };
  };

  (void)with_profiler(false)();  // warm-up, discarded
  std::vector<std::vector<double>> scores =
      InterleavedTrials({with_profiler(false), with_profiler(true)});
  const double off_score = bench::MedianWithCi(scores[0]).median;
  const double on_score = bench::MedianWithCi(scores[1]).median;
  const bench::MedianCi over = OverheadPct(scores[0], scores[1]);
  const bool floor_met = over.high <= kMaxOverheadPct;
  const char* verdict = floor_met                    ? "MET"
                        : over.low > kMaxOverheadPct ? "MISSED"
                                                     : "UNRESOLVED";

  std::printf("\n---- S1c: always-on profiler overhead (1 client x %d "
              "queries, no think time, median of %d interleaved pairs) ----\n",
              kZeroThinkQueries, kTrials);
  std::printf("%-28s %12s\n", "configuration", "queries/cpu-s");
  std::printf("%-28s %12.1f\n", "profiler off (BIGDAWG_PROFILE=0)", off_score);
  std::printf("%-28s %12.1f\n", "profiler on (default)", on_score);
  std::printf("overhead: median %.2f%%, 95%% CI [%.2f%%, %.2f%%] (floor <= "
              "%.1f%%)   => %s\n",
              over.median, over.low, over.high, kMaxOverheadPct, verdict);

  std::FILE* f = std::fopen("BENCH_profile.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_profile.json\n");
  } else {
    std::fprintf(f,
                 "{\n  \"workload\": \"1 client x %d queries, zero think "
                 "time, median of %d interleaved off/on pairs\",\n"
                 "  \"profiler_off_queries_per_cpu_s\": %.1f,\n"
                 "  \"profiler_on_queries_per_cpu_s\": %.1f,\n"
                 "  \"overhead_pct\": %.2f,\n"
                 "  \"overhead_ci95_pct\": [%.2f, %.2f],\n"
                 "  \"floor\": {\"overhead_max_pct\": %.1f, \"verdict\": \"%s\"}\n}\n",
                 kZeroThinkQueries, kTrials, off_score,
                 on_score, over.median, over.low, over.high, kMaxOverheadPct,
                 verdict);
    std::fclose(f);
    std::printf("wrote BENCH_profile.json\n");
  }
  return floor_met;
}

}  // namespace

int main() {
  unsetenv("BIGDAWG_PROFILE");
  bench::PrintHeader(
      "S1 -- concurrent query service: sessions, admission, engine locks",
      "one polystore serves many interactive clients at once");

  core::BigDawg dawg;
  mimic::MimicConfig config;
  config.num_patients = 500;
  config.waveform_seconds = 1;
  config.waveform_hz = 64;
  mimic::MimicData data = *mimic::Generate(config);
  BIGDAWG_CHECK_OK(mimic::LoadIntoBigDawg(data, &dawg));

  exec::QueryService service(&dawg,
                             {.num_workers = 8, .max_in_flight = 64});

  std::printf("read-only mix: SQL group-by | array aggregate | text search\n");
  std::printf("%d queries/client, %lld ms think time, 8 workers\n\n",
              kQueriesPerClient, static_cast<long long>(kThinkTime.count()));
  std::printf("%8s %12s %10s\n", "clients", "queries/s", "speedup");

  double baseline_qps = 0;
  double qps_at_8 = 0;
  for (int clients : {1, 2, 4, 8}) {
    double qps = RunClients(&service, clients);
    if (clients == 1) baseline_qps = qps;
    if (clients == 8) qps_at_8 = qps;
    std::printf("%8d %12.1f %9.2fx\n", clients, qps, qps / baseline_qps);
  }

  auto stats = service.Stats();
  std::printf("\n---- service counters ----\n");
  std::printf("submitted %lld  admitted %lld  completed %lld  rejected %lld  "
              "failed %lld\n",
              static_cast<long long>(stats.submitted),
              static_cast<long long>(stats.admitted),
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.failed));
  std::printf("\n---- per-island latency (end-to-end, queue wait included) ----\n");
  std::printf("%-12s %8s %10s %10s %10s\n", "island", "count", "mean ms",
              "p50 ms", "p95 ms");
  for (const exec::IslandLatency& island : stats.islands) {
    std::printf("%-12s %8lld %10.2f %10.2f %10.2f\n", island.island.c_str(),
                static_cast<long long>(island.count), island.mean_ms,
                island.p50_ms, island.p95_ms);
  }

  BIGDAWG_CHECK(stats.failed == 0);
  std::printf("\nShape check: throughput grows with client count (%.2fx at 8 "
              "clients);\nthe service overlaps clients' think/handoff time, and "
              "read-only queries\non different engines hold compatible locks.\n",
              qps_at_8 / baseline_qps);

  OverheadSection(&dawg);
  std::printf("\nShape check: tracing and a live admin scraper should cost "
              "low single\ndigits at most -- spans are thread-confined and "
              "scrapes only read atomics.\n");

  const bool profile_floor_met = ProfilerOverheadSection(&dawg);
  std::printf("\nShape check: the always-on profiler folds one span tree per "
              "query into\nbounded per-class aggregates -- it must stay "
              "within the 2%% budget that\njustifies shipping it enabled.\n");
  return profile_floor_met ? 0 : 1;
}
