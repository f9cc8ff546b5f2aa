// Shared harness pieces of the perfbench workloads: options, the result
// report, the in-memory span recorder, counter-struct deltas and the small
// statistics the metrics are built from.
//
// The untraced and the traced run execute the same code; the only switch is
// SpanLog::on(). A Stopwatch always reads the clock (end-to-end metrics come
// from it), a Scope reads it only when its log is on.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "durable/durable.hpp"
#include "pma/pma.hpp"
#include "pma/sharded.hpp"
#include "serve/serving.hpp"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  uint64_t ns() const { return now_ns() - start_; }
  double seconds() const { return static_cast<double>(ns()) * 1e-9; }

 private:
  uint64_t start_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/run";  // scratch files (WAL, spans)
};

// The read request every workload times for read_p99_us: has_batch of
// kReadProbes sorted probes (half stored keys, half absent), then
// map_range_length of kReadScanLen keys from a start inside the data.
constexpr uint64_t kReadProbes = 1024;
constexpr uint64_t kReadScanLen = 1024;

// ---- statistics ------------------------------------------------------------

inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Samples strictly above the q-quantile (the p99 rule: at least ten).
inline size_t samples_beyond(const std::vector<double>& v, double q) {
  double t = quantile(v, q);
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > t; }));
}

// ---- spans -------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;  // index in the same log, kNone for a root
  uint64_t request;
};

// One thread's spans, in memory until the run ends. Parents are always on
// the same thread: the benchmark nests calls only inside one client.
class SpanLog {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};
  static constexpr size_t kMaxSpans = size_t{1} << 21;

  SpanLog(bool on, std::string thread) : on_(on), thread_(std::move(thread)) {
    if (on_) spans_.reserve(1 << 16);
  }

  bool on() const { return on_; }
  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  uint32_t open(const char* name, uint64_t request) {
    if (!on_) return kNone;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return kNone;
    }
    spans_.push_back(Span{name, now_ns(), 0, current_, request});
    current_ = static_cast<uint32_t>(spans_.size() - 1);
    return current_;
  }
  void close(uint32_t idx) {
    if (idx == kNone) return;
    spans_[idx].end_ns = now_ns();
    current_ = spans_[idx].parent;
  }

 private:
  bool on_;
  std::string thread_;
  std::vector<Span> spans_;
  uint32_t current_ = kNone;
  uint64_t dropped_ = 0;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name, uint64_t request = 0)
      : log_(log), idx_(log.open(name, request)) {}
  ~Scope() { log_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  uint32_t idx_;
};

// Per-name aggregate of a set of logs; self time is a span's duration minus
// the part its children cover.
struct SpanStats {
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
  std::vector<double> durations_ns;
};

inline std::map<std::string, SpanStats> summarize(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanStats> out;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& sp = log->spans();
    std::vector<uint64_t> child_ns(sp.size(), 0);
    for (const Span& s : sp) {
      if (s.parent != SpanLog::kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < sp.size(); ++i) {
      const uint64_t d = sp[i].end_ns - sp[i].start_ns;
      SpanStats& st = out[sp[i].name];
      ++st.count;
      st.total_s += static_cast<double>(d) * 1e-9;
      st.self_s += static_cast<double>(d - std::min(d, child_ns[i])) * 1e-9;
      st.durations_ns.push_back(static_cast<double>(d));
    }
  }
  return out;
}

// Writes every span as one tab-separated line:
// thread, index, parent, request, name, start_ns, end_ns.
inline bool write_spans(const std::string& path,
                        const std::vector<const SpanLog*>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const SpanLog* log : logs) {
    const std::vector<Span>& sp = log->spans();
    for (size_t i = 0; i < sp.size(); ++i) {
      std::fprintf(f, "%s\t%zu\t%lld\t%llu\t%s\t%llu\t%llu\n",
                   log->thread().c_str(), i,
                   sp[i].parent == SpanLog::kNone
                       ? -1LL
                       : static_cast<long long>(sp[i].parent),
                   static_cast<unsigned long long>(sp[i].request), sp[i].name,
                   static_cast<unsigned long long>(sp[i].start_ns),
                   static_cast<unsigned long long>(sp[i].end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// ---- counter-struct deltas ------------------------------------------------
// The library's public stats structs are cumulative sums; `after - before`
// read around a call (or a phase) is the part of them it added.

inline cpma::pma::BatchPhaseTimes operator-(cpma::pma::BatchPhaseTimes a,
                                            const cpma::pma::BatchPhaseTimes& b) {
  a.route_ns -= b.route_ns;
  a.merge_ns -= b.merge_ns;
  a.count_ns -= b.count_ns;
  a.redistribute_ns -= b.redistribute_ns;
  a.spread_ns -= b.spread_ns;
  a.rebuild_ns -= b.rebuild_ns;
  a.batches -= b.batches;
  a.rebuilds -= b.rebuilds;
  a.spreads -= b.spreads;
  return a;
}

inline cpma::pma::ShardRouterTimes operator-(
    cpma::pma::ShardRouterTimes a, const cpma::pma::ShardRouterTimes& b) {
  a.route_ns -= b.route_ns;
  a.rebalance_ns -= b.rebalance_ns;
  a.rebalances -= b.rebalances;
  a.moves -= b.moves;
  return a;
}

inline cpma::serve::ServingStats operator-(cpma::serve::ServingStats a,
                                           const cpma::serve::ServingStats& b) {
  a.publishes -= b.publishes;
  a.shard_copies -= b.shard_copies;
  a.combines -= b.combines;
  a.combined_ops -= b.combined_ops;
  a.publish_ns -= b.publish_ns;
  a.apply_ns -= b.apply_ns;
  a.reclaimed_views -= b.reclaimed_views;
  a.vetoed_ops -= b.vetoed_ops;
  // retired_views is a level, not a sum: keep the later reading.
  return a;
}

inline cpma::durable::DurableStats operator-(
    cpma::durable::DurableStats a, const cpma::durable::DurableStats& b) {
  a.wal_records -= b.wal_records;
  a.wal_bytes -= b.wal_bytes;
  a.wal_syncs -= b.wal_syncs;
  a.wal_append_errors -= b.wal_append_errors;
  a.wal_vetoes -= b.wal_vetoes;
  a.checkpoints_written -= b.checkpoints_written;
  a.checkpoint_failures -= b.checkpoint_failures;
  // checkpoint_bytes is the last checkpoint's size: keep the later reading.
  return a;
}

// ---- the report --------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics; every workload reports every one of them
// (GLOSSARY.md says what each means on each workload).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"insert_keys_per_s", "keys/s"},
    {"bytes_per_key", "B/key"},
    {"write_p50_ms", "ms"},
    {"read_p99_us", "us"},
};

// Per-layer metrics; every traced run reports all of them, 0 for a layer
// its workload bypasses (GLOSSARY.md).
inline constexpr MetricDef kPerLayer[] = {
    // Phases that not every workload runs, and read_p50_us (every workload
    // reports it, but on serve_timeseries it is too bimodal to bound).
    {"remove_keys_per_s", "keys/s"},
    {"point_queries_per_s", "ops/s"},
    {"multiget_keys_per_s", "keys/s"},
    {"range_keys_per_s", "keys/s"},
    {"read_p50_us", "us"},
    {"write_p99_ms", "ms"},
    {"recovery_s", "s"},
    {"bfs_s", "s"},
    {"cc_s", "s"},
    {"codec.decode_keys_per_s", "keys/s"},
    {"codec.bytes_per_key", "B/key"},
    {"leaf.scan_keys_per_s", "keys/s"},
    {"engine.route_s", "s"},
    {"engine.merge_s", "s"},
    {"engine.count_s", "s"},
    {"engine.redistribute_s", "s"},
    {"engine.spread_s", "s"},
    {"engine.rebuild_s", "s"},
    {"engine.batches", "count"},
    {"engine.spreads", "count"},
    {"engine.rebuilds", "count"},
    {"engine.density", "ratio"},
    {"engine.num_leaves", "count"},
    {"engine.successor_p50_ns", "ns"},
    {"engine.has_batch_s", "s"},
    {"engine.map_range_length_s", "s"},
    {"sharded.route_s", "s"},
    {"sharded.rebalance_s", "s"},
    {"sharded.rebalances", "count"},
    {"sharded.moves", "count"},
    {"sharded.imbalance", "ratio"},
    {"serving.publishes", "count"},
    {"serving.shard_copies", "count"},
    {"serving.copies_per_publish", "ratio"},
    {"serving.publish_s", "s"},
    {"serving.apply_s", "s"},
    {"serving.pin_p50_ns", "ns"},
    {"serving.has_batch_s", "s"},
    {"serving.map_range_length_s", "s"},
    {"serving.snapshot_age_p99_ms", "ms"},
    {"serving.retired_views_max", "count"},
    {"serving.rejected_ops", "count"},
    {"serving.vetoed_ops", "count"},
    {"durable.wal_bytes_per_key", "B/key"},
    {"durable.wal_records", "count"},
    {"durable.wal_syncs", "count"},
    {"durable.wal_append_errors", "count"},
    {"durable.checkpoint_p50_s", "s"},
    {"durable.checkpoint_bytes_per_key", "B/key"},
    {"durable.recovery_keys_per_s", "keys/s"},
    {"durable.records_replayed", "count"},
    {"durable.recovery_bytes_scanned", "B"},
    {"graph.insert_edges_p50_ms", "ms"},
    {"graph.flush_s", "s"},
    {"graph.prepare_s", "s"},
    {"parallel.insert_speedup", "x"},
    {"parallel.scan_speedup", "x"},
    {"ladder.engine_s", "s"},
    {"ladder.sharded_s", "s"},
    {"ladder.serving_s", "s"},
    {"ladder.durable_s", "s"},
    {"trace.overhead_pct", "%"},
};

class Report {
 public:
  void e2e(const std::string& name, double value) { e2e_[name] = value; }
  void layer(const std::string& name, double value) { layer_[name] = value; }

  // Recorded set-up facts, printed as one JSON object. `json` must already
  // be a JSON value (quote strings with str()).
  void info(const std::string& key, const std::string& json) {
    info_.emplace_back(key, json);
  }
  // Wall seconds of one phase of the run (set-up, checking included), so
  // a reader can see where a run's time went.
  void phase(const std::string& name, double seconds) {
    phases_.emplace_back(name, num(seconds));
  }
  static std::string str(const std::string& s) { return "\"" + s + "\""; }
  static std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  // Every answer the benchmark checked counts as attempted; a wrong one,
  // a refused or vetoed op and a WAL append error count as failed.
  void attempted(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  void fail(const std::string& what, uint64_t n = 1) {
    if (n == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    failed_ += n;
    std::fprintf(stderr, "perfbench: MISMATCH %s (x%llu)\n", what.c_str(),
                 static_cast<unsigned long long>(n));
  }
  // One answer that is wrong when `mismatches` > 0 (a scan, a final state,
  // a round's BFS): one attempted op, one failed op.
  void check(const std::string& what, uint64_t mismatches) {
    attempted(1);
    if (mismatches == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    std::fprintf(stderr, "perfbench: MISMATCH %s (%llu wrong values)\n",
                 what.c_str(), static_cast<unsigned long long>(mismatches));
  }
  uint64_t failed() const { return failed_; }

  void print_info(FILE* f) const {
    std::fprintf(f, "{\"setup\": {");
    for (size_t i = 0; i < info_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i ? ", " : "", info_[i].first.c_str(),
                   info_[i].second.c_str());
    }
    std::fprintf(f, "%s\"phase_s\": {", info_.empty() ? "" : ", ");
    for (size_t i = 0; i < phases_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i ? ", " : "", phases_[i].first.c_str(),
                   phases_[i].second.c_str());
    }
    std::fprintf(f, "}}}\n");
  }

  // The end-to-end metrics of this run as one JSON object (the traced run
  // prints its own for the tracing-overhead comparison).
  std::string e2e_json() const { return metrics_json(kEndToEnd, e2e_, false); }
  // End-to-end metrics the workload did not set (a benchmark bug).
  std::vector<std::string> missing_e2e() const {
    std::vector<std::string> out;
    for (const MetricDef& d : kEndToEnd) {
      if (!e2e_.count(d.name)) out.push_back(d.name);
    }
    return out;
  }

  // The result line: last line of standard output. End-to-end metrics
  // untraced; every per-layer metric traced.
  void print_result(FILE* f, bool traced) const {
    const std::string metrics =
        traced ? metrics_json(kPerLayer, layer_, true) : e2e_json();
    std::fprintf(f,
                 "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                 "\"metrics\": %s}\n",
                 failed_ == 0 ? "true" : "false",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_), metrics.c_str());
  }

 private:
  // {"name": {"value": v, "unit": "u"}, ...} in table order; metrics not
  // set are skipped, or reported as 0 when `all`.
  template <size_t N>
  static std::string metrics_json(const MetricDef (&defs)[N],
                                  const std::map<std::string, double>& values,
                                  bool all) {
    std::string out = "{";
    for (const MetricDef& d : defs) {
      auto it = values.find(d.name);
      if (it == values.end() && !all) continue;
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", d.name,
                    num(it == values.end() ? 0.0 : it->second).c_str(), d.unit);
      out += buf;
    }
    return out + "}";
  }

  std::mutex mu_;
  std::map<std::string, double> e2e_, layer_;
  std::vector<std::pair<std::string, std::string>> info_, phases_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Records consecutive phases of a run: lap("name") closes the current one.
class PhaseClock {
 public:
  explicit PhaseClock(Report& rep) : rep_(rep) {}
  void lap(const std::string& name) {
    rep_.phase(name, sw_.seconds());
    sw_ = Stopwatch();
  }

 private:
  Report& rep_;
  Stopwatch sw_;
};

// A short sample list as a JSON array (recorded beside its median).
inline std::string samples_json(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + Report::num(v[i]);
  return out + "]";
}

// Runs f(lo, hi) over [0, n) split across `threads` std::threads (input
// generation and reference building; the library's pool is not used).
template <typename F>
void threads_for(uint64_t n, unsigned threads, F&& f) {
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    const uint64_t lo = n * t / threads, hi = n * (t + 1) / threads;
    pool.emplace_back([&f, lo, hi] { f(lo, hi); });
  }
  for (std::thread& th : pool) th.join();
}

// Restricts the calling thread (and the threads it starts afterwards) to
// CPUs [first, first + n).
void pin_to_cpus(unsigned first, unsigned n);

// Process facts every workload records.
unsigned hardware_threads();
// L3 the workloads are sized against (4-core Xeon, 105 MiB shared L3).
constexpr uint64_t kL3Bytes = uint64_t{105} << 20;

// Workload entry points (one translation unit each).
void run_set_uniform(const Options& opt, Report& rep);
void run_serve_timeseries(const Options& opt, Report& rep);
void run_graph_rmat(const Options& opt, Report& rep);

// Span summaries and the spans file, shared by the workloads' traced runs.
void report_spans(const Options& opt, Report& rep,
                  const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
