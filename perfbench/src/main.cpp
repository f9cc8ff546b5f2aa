// perfbench: one process per (workload, seed) run.
//
//   perfbench --workload set_uniform|serve_timeseries|graph_rmat
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints the recorded set-up as a {"setup": ...} line, per-layer detail
// lines when traced, and as its LAST line the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exits non-zero when any
// answer was wrong.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

unsigned hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void pin_to_cpus(unsigned first, unsigned n) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = first; c < first + n; ++c) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "perfbench: sched_setaffinity failed; not pinned\n");
  }
}

void report_spans(const Options& opt, Report& rep,
                  const std::vector<const SpanLog*>& logs) {
  if (!opt.trace) return;
  uint64_t total = 0, dropped = 0;
  for (const SpanLog* l : logs) {
    total += l->spans().size();
    dropped += l->dropped();
  }
  std::map<std::string, SpanStats> sum = summarize(logs);
  std::printf("{\"spans\": {");
  bool first = true;
  for (auto& [name, st] : sum) {
    std::printf("%s\"%s\": {\"count\": %llu, \"total_s\": %s, \"self_s\": "
                "%s, \"p50_ns\": %s, \"p99_ns\": %s}",
                first ? "" : ", ", name.c_str(),
                static_cast<unsigned long long>(st.count),
                Report::num(st.total_s).c_str(), Report::num(st.self_s).c_str(),
                Report::num(quantile(st.durations_ns, 0.5)).c_str(),
                Report::num(quantile(st.durations_ns, 0.99)).c_str());
    first = false;
  }
  std::printf("}}\n");
  const std::string path = opt.work_dir + "/spans-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".tsv";
  const bool ok = write_spans(path, logs);
  rep.info("spans_file", Report::str(ok ? path : "(write failed)"));
  rep.info("spans_recorded", Report::num(static_cast<double>(total)));
  rep.info("spans_dropped", Report::num(static_cast<double>(dropped)));
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "set_uniform|serve_timeseries|graph_rmat --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) usage(("cannot create work dir " + opt.work_dir).c_str());

  perfbench::Report rep;
  rep.info("workload", perfbench::Report::str(opt.workload));
  rep.info("seed", perfbench::Report::num(static_cast<double>(opt.seed)));
  rep.info("seconds", perfbench::Report::num(opt.seconds));
  rep.info("traced", opt.trace ? "true" : "false");
  rep.info("nproc", perfbench::Report::num(perfbench::hardware_threads()));
  rep.info("l3_bytes", perfbench::Report::num(
                           static_cast<double>(perfbench::kL3Bytes)));
#ifdef PERFBENCH_BUILD_TYPE
  rep.info("build_type", perfbench::Report::str(PERFBENCH_BUILD_TYPE));
#endif
  if (opt.workload == "set_uniform") {
    perfbench::run_set_uniform(opt, rep);
  } else if (opt.workload == "serve_timeseries") {
    perfbench::run_serve_timeseries(opt, rep);
  } else if (opt.workload == "graph_rmat") {
    perfbench::run_graph_rmat(opt, rep);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  const std::vector<std::string> missing = rep.missing_e2e();
  for (const std::string& m : missing) {
    std::fprintf(stderr, "perfbench: %s did not report %s\n", opt.workload.c_str(),
                 m.c_str());
  }
  if (!missing.empty()) return 5;
  rep.print_info(stdout);
  if (opt.trace) std::printf("{\"e2e_traced\": %s}\n", rep.e2e_json().c_str());
  rep.print_result(stdout, opt.trace);
  std::fflush(stdout);
  return rep.failed() == 0 ? 0 : 1;
}
