// perfbench: runs one workload of the polystore benchmark and prints its
// raw measurements as one JSON object on stdout. run.py builds this
// binary, turns the raw figures into metrics and checks them; see
// README.md for the workloads and metric definitions.
//
//   perfbench --workload icu_interactive --seed 1 --seconds 10 --trace 0
//             [--smoke] [--trace-out spans.jsonl]

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/logging.h"
#include "harness.h"

namespace {

using perfbench::Options;
using perfbench::Phase;
using perfbench::Report;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-out FILE]\n");
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      o->workload = value();
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value(), nullptr);
    } else if (arg == "--trace") {
      o->trace = std::strcmp(value(), "0") != 0;
    } else if (arg == "--smoke") {
      o->smoke = true;
    } else if (arg == "--trace-out") {
      o->trace_out = value();
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0;
}

/// Refuses builds whose timings would not be comparable with a shipping
/// build: unoptimized (no NDEBUG), Debug, or instrumented by a sanitizer.
const char* UnfitBuild() {
#ifndef NDEBUG
  return "assertions enabled (not an optimized build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) return "Debug build";
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "sanitizer flags in CXXFLAGS";
  }
  return nullptr;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

std::string PhaseJson(const Phase& p) {
  std::string out = "{\"wall_s\":" + Num(p.wall_s) +
                    ",\"attempted\":" + std::to_string(p.attempted) +
                    ",\"failed\":" + std::to_string(p.failed) +
                    ",\"wrong\":" + std::to_string(p.wrong) +
                    ",\"latencies_ms\":" + NumList(p.latencies_ms) + ",\"errors\":[";
  for (size_t i = 0; i < p.errors.size(); ++i) {
    out += (i > 0 ? "," : "") + Quote(p.errors[i]);
  }
  out += "],\"extra\":{";
  bool first = true;
  for (const auto& [name, value] : p.extra) {
    out += (first ? "" : ",") + Quote(name) + ":" + Num(value);
    first = false;
  }
  return out + "}}";
}

void WriteSpans(const std::string& path, const Report& r) {
  std::ofstream out(path);
  for (const perfbench::Span& s : r.traced.spans) {
    out << "{\"name\":" << Quote("query:" + r.class_names[static_cast<size_t>(s.cls)])
        << ",\"client\":" << s.client << ",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"ok\":" << (s.ok ? "true" : "false")
        << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) Usage();
  if (const char* unfit = UnfitBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n", unfit);
    return 2;
  }
  // Warn-level lines (slow queries past the 100 ms default) would flood
  // stderr on analytic_scan; errors still print.
  bigdawg::SetLogLevel(bigdawg::LogLevel::kError);

  Report report;
  if (options.workload == "icu_interactive") {
    report = perfbench::RunIcuInteractive(options);
  } else if (options.workload == "analytic_scan") {
    report = perfbench::RunAnalyticScan(options);
  } else if (options.workload == "stream_ageout") {
    report = perfbench::RunStreamAgeOut(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", options.workload.c_str());
    return 2;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  if (options.trace && !options.trace_out.empty()) WriteSpans(options.trace_out, report);

  std::string out = "{\"workload\":" + Quote(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE) +
                    ",\"compiler\":" + Quote(PERFBENCH_COMPILER) +
                    ",\"setup_s\":" + NumList(report.setup_s) +
                    ",\"peak_rss_mb\":" + Num(peak_rss_mb) +
                    ",\"invariant_checks\":" + std::to_string(report.invariant_checks) +
                    ",\"invariant_failures\":[";
  for (size_t i = 0; i < report.invariant_failures.size(); ++i) {
    out += (i > 0 ? "," : "") + Quote(report.invariant_failures[i]);
  }
  out += "],\"phases\":{\"untraced\":" + PhaseJson(report.untraced);
  if (options.trace) out += ",\"traced\":" + PhaseJson(report.traced);
  out += "},\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : report.layers.all()) {
    out += (first ? "" : ",") + Quote(name) + ":{\"value\":" + Num(value.first) +
           ",\"unit\":" + Quote(value.second) + "}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
