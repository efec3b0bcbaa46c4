// malisim-perf: the repository benchmark. README.md describes the
// workloads, the metrics and how to read them; BENCHMARK.json at the repo
// root declares the metric names, units and regression bounds.
//
//   malisim-perf --workload W [--seed N] [--seconds S] [--trace 0|1] [--out F]
//   malisim-perf [--seed N] [--seconds S] [--out F]     every workload + layers
//   malisim-perf --self-test
//
// --trace 0 measures workload W for about S seconds and reports the
// end-to-end metrics; --trace 1 runs the fixed layer suite (traced sweeps,
// serve batches and layer microprobes) and reports the per-layer metrics.
// Either way the last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Every repetition runs in a fresh child process (this binary, re-executed
// with --child=...), one at a time, so no process-global cache carries over
// between repetitions. Any failed correctness gate makes the exit code 1.
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "common/version.h"
#include "probes.h"
#include "stats.h"

extern char** environ;

namespace malisim::perf {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- metric catalogue -------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" or "higher"
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"host_s", "s", "lower"},
      {"jobs_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return defs;
}

const char* const kMemStreams[] = {"stream", "reuse", "gather", "writeback"};
const char* const kServeLayerValues[][3] = {
    {"submit.us", "us", "lower"},
    {"compile_cache.hits", "count", "higher"},
    {"compile_cache.misses", "count", "lower"},
    {"rung_attempts", "count", "lower"},
    {"retries", "count", "lower"},
    {"degraded", "count", "lower"},
    {"service_mean.ms", "ms", "lower"},
    {"worker_busy", "share", "higher"},
};

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    for (const char* sweep : {"full", "quick"}) {
      const std::string p = std::string("trace.") + sweep + ".";
      for (const auto& [phase, id] : kTracePhases) {
        d.push_back({p + phase + ".share", "share", "lower"});
      }
      d.push_back({p + "attributed", "share", "higher"});
      d.push_back({p + "overhead", "share", "lower"});
      d.push_back({p + "ops", "count", "lower"});
      d.push_back({p + "work_items", "count", "lower"});
      d.push_back({p + "launches", "count", "lower"});
      d.push_back({p + "modelled_s", "sim_s", "lower"});
      d.push_back({p + "mops", "Mops/s", "higher"});
      for (const std::string& b : hpc::RegisteredBenchmarks()) {
        d.push_back({std::string("harness.") + sweep + "." + b + ".s", "s",
                     "lower"});
      }
      d.push_back({std::string("hpc.setup.") + sweep + ".s", "s", "lower"});
    }
    d.push_back({"model.paper_fit_err", "ratio", "lower"});
    for (const char* k : {"dmmm", "dmmm_base", "nbody", "conv", "vecop"}) {
      d.push_back({std::string("kir.") + k + ".mops", "Mops/s", "higher"});
    }
    for (const char* s : kMemStreams) {
      const std::string p = std::string("mem.") + s + ".";
      d.push_back({p + "ns", "ns", "lower"});
      for (const char* c :
           {"l1_miss", "l2_miss", "dram_fill_lines", "dram_wb_lines"}) {
        d.push_back({p + c, "count", "lower"});
      }
    }
    for (const char* k : {"vecop", "dmmm"}) {
      d.push_back({std::string("mali.") + k + ".s", "s", "lower"});
      d.push_back({std::string("mali.") + k + ".outside_vm", "share", "lower"});
    }
    d.push_back({"mali.compile.us", "us", "lower"});
    for (const char* batch : {"mixed", "faults"}) {
      for (const auto& v : kServeLayerValues) {
        d.push_back({std::string("serve.") + batch + "." + v[0], v[1], v[2]});
      }
    }
    return d;
  }();
  return defs;
}

StatusOr<JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return ParseJson(text.str());
}

/// Regression bounds by metric name, from BENCHMARK.json (none when the
/// file is missing: the table then shows spreads without bounds).
std::map<std::string, double> LoadBounds(const std::string& path) {
  std::map<std::string, double> bounds;
  const StatusOr<JsonValue> doc = ReadJsonFile(path);
  if (!doc.ok()) return bounds;
  if (const JsonValue* e2e = doc->Find("end_to_end"); e2e != nullptr) {
    for (const JsonValue& m : e2e->array) {
      bounds[m.StringOr("name", "")] = m.NumberOr("bound", 0.0);
    }
  }
  return bounds;
}

// ---- child side ---------------------------------------------------------------

std::int64_t g_spawned_at_ns = 0;
std::int64_t g_ready_ns = 0;

void MarkReady() { g_ready_ns = NowNs(); }

/// Binds this process to the last CPU it may run on. Single-threaded
/// children that migrate between cores run slower and twice as unevenly.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

int ChildMain(const std::string& mode, const Workload* w, std::uint64_t seed) {
  // Peak RSS should follow live data, not heap-layout history. glibc raises
  // its mmap threshold after the first large free, after which big buffers
  // land in the heap and the peak depends on allocation order (15 % apart
  // between seeds). Fixing the threshold at its 128 KiB default keeps every
  // large buffer mapped and returned on free.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  if (w == nullptr || !w->serve) PinToOneCpu();

  const std::map<std::string, RepMode> modes = {
      {"setup", RepMode::kSetUpOnly},
      {"rep", RepMode::kRun},
      {"traced", RepMode::kTraced}};
  StatusOr<ProbeResult> result = InternalError("unknown child mode " + mode);
  if (mode == "layers") {
    MarkReady();
    result = RunLayerProbes(seed);
  } else if (w == nullptr) {
    result = InvalidArgumentError("child mode " + mode + " needs --workload");
  } else if (const auto it = modes.find(mode); it != modes.end()) {
    result = RunWorkload(*w, seed, it->second, MarkReady);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonWriter out;
  out.BeginObject();
  if (!result.ok()) {
    out.Key("error");
    out.String(result.status().message());
  } else {
    out.Key("setup_s");
    out.Number(static_cast<double>(g_ready_ns - g_spawned_at_ns) * 1e-9);
    out.Key("peak_rss_mb");
    out.Number(static_cast<double>(usage.ru_maxrss) / 1024.0);
    out.Key("attempted");
    out.Number(result->attempted);
    out.Key("failed");
    out.Number(result->failed);
    out.Key("digest");
    out.String(result->digest);
    out.Key("values");
    out.BeginObject();
    for (const auto& [name, value] : result->values) {
      out.Key(name);
      out.Number(value);
    }
    out.EndObject();
  }
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return result.ok() ? 0 : 1;
}

// ---- parent side --------------------------------------------------------------

struct ChildRun {
  ProbeResult result;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double wall_s = 0.0;  // spawn to exit
};

std::string SelfExe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

/// Runs this binary as a child with `args` plus the spawn timestamp, waits
/// for it, and parses the JSON line it prints.
StatusOr<ChildRun> Spawn(std::vector<std::string> args) {
  static const std::string self = SelfExe();
  if (self.empty()) return InternalError("cannot resolve /proc/self/exe");
  int fds[2];
  if (pipe(fds) != 0) return InternalError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  const std::int64_t t0 = NowNs();
  args.insert(args.begin(), self);
  args.push_back("--spawned-at=" + std::to_string(t0));
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, self.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return InternalError("posix_spawn failed: errno " + std::to_string(rc));
  }
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  ChildRun run;
  run.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;

  while (!text.empty() && text.back() == '\n') text.pop_back();
  const StatusOr<JsonValue> doc = ParseJson(text.substr(text.rfind('\n') + 1));
  const std::string what = args.size() > 1 ? args[1] : "child";
  if (!doc.ok() || !doc->is_object()) {
    return InternalError(what + " exited with status " +
                         std::to_string(status) + " and no result");
  }
  if (const JsonValue* err = doc->Find("error"); err != nullptr) {
    return InternalError(err->string_value);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return InternalError(what + " exited with status " + std::to_string(status));
  }
  run.setup_s = doc->NumberOr("setup_s", 0.0);
  run.peak_rss_mb = doc->NumberOr("peak_rss_mb", 0.0);
  run.result.attempted =
      static_cast<std::uint64_t>(doc->NumberOr("attempted", 0.0));
  run.result.failed = static_cast<std::uint64_t>(doc->NumberOr("failed", 0.0));
  run.result.digest = doc->StringOr("digest", "");
  if (const JsonValue* values = doc->Find("values"); values != nullptr) {
    for (const auto& [name, v] : values->members) {
      run.result.values[name] = v.number_value;
    }
  }
  return run;
}

std::vector<std::string> ChildArgs(const char* mode, const Workload* w,
                                   std::uint64_t seed) {
  std::vector<std::string> args = {std::string("--child=") + mode,
                                   "--seed=" + std::to_string(seed)};
  if (w != nullptr) args.push_back(std::string("--workload=") + w->name);
  return args;
}

/// Outcome of one benchmark invocation: correctness, the operation counts
/// and every metric's samples.
struct Report {
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::vector<double>> samples;

  void Fail(const Status& s) {
    if (correct) error = s.message();
    correct = false;
  }
  void Count(const ProbeResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  }
};

constexpr int kSetupSpawns = 12;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 60;

/// Exact counts repetitions of the workload must agree on, besides the
/// modelled-result digest.
std::vector<std::string> ExactValues(const Workload& w) {
  if (w.serve) return {"serve.rung_attempts", "serve.retries", "serve.degraded"};
  return {"paper_fit_err.fp32", "paper_fit_err.fp64"};
}

/// --trace 0: set-up-only children, then repetitions until `seconds` would
/// be exceeded (at least kMinReps).
Report MeasureWorkload(const Workload& w, std::uint64_t seed, double seconds) {
  Report report;
  const std::int64_t start = NowNs();
  for (int i = 0; i < kSetupSpawns; ++i) {
    StatusOr<ChildRun> run = Spawn(ChildArgs("setup", &w, seed));
    if (!run.ok()) {
      report.Fail(run.status());
      return report;
    }
    report.samples["setup_s"].push_back(run->setup_s);
  }
  std::vector<ProbeResult> reps;
  std::vector<double> walls;
  while (static_cast<int>(reps.size()) < kMaxReps) {
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
    if (static_cast<int>(reps.size()) >= kMinReps &&
        elapsed + Summarize(walls).median > seconds) {
      break;
    }
    StatusOr<ChildRun> run = Spawn(ChildArgs("rep", &w, seed));
    if (!run.ok()) {
      report.Fail(run.status());
      return report;
    }
    walls.push_back(run->wall_s);
    report.Count(run->result);
    report.samples["setup_s"].push_back(run->setup_s);
    report.samples["peak_rss_mb"].push_back(run->peak_rss_mb);
    report.samples["host_s"].push_back(run->result.values["host_s"]);
    report.samples["jobs_per_s"].push_back(run->result.values["jobs_per_s"]);
    reps.push_back(std::move(run->result));
  }
  if (Status s = CheckRepeats(reps, ExactValues(w)); !s.ok()) report.Fail(s);
  return report;
}

/// --trace 1: the fixed layer suite. Its per-layer values do not depend on
/// which workload was named; each is one sample.
Report MeasureLayers(std::uint64_t seed) {
  Report report;
  std::map<std::string, double> v;
  auto spawn = [&](const char* mode, const Workload* w) -> std::optional<ProbeResult> {
    StatusOr<ChildRun> run = Spawn(ChildArgs(mode, w, seed));
    if (!run.ok()) {
      report.Fail(run.status());
      return std::nullopt;
    }
    report.Count(run->result);
    return std::move(run->result);
  };

  // Sweeps: untraced repetitions for the host-time base, traced ones for
  // the layer shares. Tracing must not change a modelled number.
  const std::pair<const char*, int> sweeps[] = {{"full", 1}, {"quick", 3}};
  for (const auto& [label, untraced] : sweeps) {
    const Workload& w = *FindWorkload(std::string("sweep-") + label);
    std::vector<ProbeResult> plain;
    for (int i = 0; i < untraced; ++i) {
      if (auto r = spawn("rep", &w)) plain.push_back(std::move(*r));
    }
    std::vector<ProbeResult> traced;
    for (int i = 0; i < (untraced > 1 ? 2 : 1); ++i) {
      if (auto r = spawn("traced", &w)) traced.push_back(std::move(*r));
    }
    if (plain.empty() || traced.empty()) return report;
    std::vector<ProbeResult> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    if (Status s = CheckRepeats(all, ExactValues(w)); !s.ok()) report.Fail(s);
    if (Status s = CheckRepeats(
            traced, {"trace.ops", "trace.work_items", "trace.launches",
                     "trace.modelled_s"});
        !s.ok()) {
      report.Fail(s);
    }

    std::vector<double> host;
    for (const ProbeResult& r : plain) host.push_back(r.values.at("host_s"));
    const double base_s = Summarize(host).median;
    const ProbeResult& t = traced.front();
    const std::string p = std::string("trace.") + label + ".";
    for (const auto& [name, value] : t.values) {
      if (name.rfind("trace.", 0) == 0) v[p + name.substr(6)] = value;
    }
    v[p + "overhead"] = t.values.at("host_s") / base_s - 1.0;
    v[p + "mops"] = t.values.at("trace.ops") / base_s / 1e6;
    for (const std::string& b : hpc::RegisteredBenchmarks()) {
      std::vector<double> per;
      for (const ProbeResult& r : plain) {
        per.push_back(r.values.at("harness." + b + ".s"));
      }
      v[std::string("harness.") + label + "." + b + ".s"] =
          Summarize(per).median;
    }
    if (std::string_view(label) == "full") {
      v["model.paper_fit_err"] = plain.front().values.at("paper_fit_err.fp32");
    }
  }

  for (const char* batch : {"mixed", "faults"}) {
    const Workload& w = *FindWorkload(std::string("serve-") + batch);
    if (auto r = spawn("rep", &w)) {
      for (const auto& [name, value] : r->values) {
        if (name.rfind("serve.", 0) == 0) {
          v[std::string("serve.") + batch + name.substr(5)] = value;
        }
      }
    }
  }

  if (auto r = spawn("layers", nullptr)) {
    v.insert(r->values.begin(), r->values.end());
  }

  for (const MetricDef& m : LayerMetrics()) {
    const auto it = v.find(m.name);
    if (it == v.end()) {
      report.Fail(InternalError(m.name + " not measured"));
      continue;
    }
    report.samples[m.name].push_back(it->second);
  }
  return report;
}

// ---- output ------------------------------------------------------------------

std::string Fmt(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", x);
  return buf;
}

void PrintTable(const std::string& title, const Report& r,
                const std::vector<MetricDef>& defs,
                const std::map<std::string, double>& bounds) {
  std::printf("== %s: %s, %llu attempted, %llu failed\n", title.c_str(),
              r.correct ? "correct" : ("INCORRECT: " + r.error).c_str(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const MetricDef& m : defs) {
    const auto it = r.samples.find(m.name);
    if (it == r.samples.end()) continue;
    const Summary s = Summarize(it->second);
    if (s.n == 1) {
      std::printf("  %-36s %14s %-7s\n", m.name.c_str(), Fmt(s.median).c_str(),
                  m.unit.c_str());
      continue;
    }
    std::string spread = "spread " + Fmt(100.0 * s.Spread()) + "%";
    if (const auto b = bounds.find(m.name); b != bounds.end()) {
      spread += " (bound " + Fmt(100.0 * b->second) + "%" +
                (s.Resolves(b->second) ? ")" : ", UNRESOLVED)");
    }
    std::printf(
        "  %-12s %12s %-4s  q1 %-10s q3 %-10s min %-10s max %-10s n %-3zu %s\n",
        m.name.c_str(), Fmt(s.median).c_str(), m.unit.c_str(),
        Fmt(s.q1).c_str(), Fmt(s.q3).c_str(), Fmt(s.min).c_str(),
        Fmt(s.max).c_str(), s.n, spread.c_str());
  }
}

void WriteMetrics(JsonWriter* w, const Report& r,
                  const std::vector<MetricDef>& defs) {
  w->Key("correct");
  w->Bool(r.correct);
  if (!r.correct) {
    w->Key("error");
    w->String(r.error);
  }
  w->Key("attempted");
  w->Number(r.attempted);
  w->Key("failed");
  w->Number(r.failed);
  w->Key("metrics");
  w->BeginObject();
  for (const MetricDef& m : defs) {
    const auto it = r.samples.find(m.name);
    if (it == r.samples.end()) continue;
    const Summary s = Summarize(it->second);
    w->Key(m.name);
    w->BeginObject();
    w->Key("unit");
    w->String(m.unit);
    w->Key("better");
    w->String(m.better);
    w->Key("median");
    w->Number(s.median);
    w->Key("q1");
    w->Number(s.q1);
    w->Key("q3");
    w->Number(s.q3);
    w->Key("min");
    w->Number(s.min);
    w->Key("max");
    w->Number(s.max);
    w->Key("n");
    w->Number(static_cast<std::uint64_t>(s.n));
    w->Key("values");
    w->BeginArray();
    for (const double x : it->second) w->Number(x);
    w->EndArray();
    w->EndObject();
  }
  w->EndObject();
}

/// The malisim-perf-v1 document compare.py reads.
Status WriteResultFile(const std::string& path, std::uint64_t seed,
                       double seconds,
                       const std::vector<std::pair<std::string, Report>>& runs,
                       const Report* layers) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("malisim-perf-v1");
  w.Key("git_sha");
  w.String(GitSha());
  w.Key("seed");
  w.Number(seed);
  w.Key("seconds");
  w.Number(seconds);
  w.Key("nproc");
  w.Number(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.Key("serve_workers");
  w.Number(static_cast<std::uint64_t>(kServeWorkers));
  w.Key("workloads");
  w.BeginObject();
  for (const auto& [name, report] : runs) {
    w.Key(name);
    w.BeginObject();
    WriteMetrics(&w, report, EndToEndMetrics());
    w.EndObject();
  }
  w.EndObject();
  if (layers != nullptr) {
    w.Key("layers");
    w.BeginObject();
    WriteMetrics(&w, *layers, LayerMetrics());
    w.EndObject();
  }
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "malisim-perf: cannot write %s\n", path.c_str());
    return InternalError("cannot write " + path);
  }
  std::fprintf(stderr, "malisim-perf: wrote %s\n", path.c_str());
  return Status::Ok();
}

/// The result line, last on standard output: medians only.
void PrintResultLine(const Report& r, const std::vector<MetricDef>& defs) {
  JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(r.correct);
  w.Key("attempted");
  w.Number(r.attempted);
  w.Key("failed");
  w.Number(r.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const MetricDef& m : defs) {
    const auto it = r.samples.find(m.name);
    if (it == r.samples.end()) continue;
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Number(Summarize(it->second).median);
    w.Key("unit");
    w.String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

// ---- self-test -------------------------------------------------------------------

int SelfTest(const std::string& bench_path) {
  int failures = 0;
  int checks = 0;
  auto expect = [&](bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::printf("FAIL %s\n", what.c_str());
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };
  auto quartiles_are = [&](std::vector<double> xs, double q1, double q2,
                           double q3) {
    const auto q = Quartiles(std::move(xs));
    return near(q[0], q1) && near(q[1], q2) && near(q[2], q3);
  };

  // Reference values from Python's statistics.quantiles(xs, n=4).
  expect(quartiles_are({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25),
         "quartiles of 1..10");
  expect(quartiles_are({1, 2}, 0.75, 1.5, 2.25), "quartiles of two values");
  expect(quartiles_are({3, 1, 2}, 1, 2, 3), "quartiles of unsorted values");
  expect(quartiles_are({5, 1, 4, 2, 3, 9, 7}, 2, 4, 7), "quartiles of seven");
  expect(quartiles_are({4}, 4, 4, 4), "quartiles of one value");
  const Summary s = Summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(s.median, 5.5) && s.min == 1 && s.max == 10 && s.n == 10,
         "summary median/min/max/n");
  expect(near(s.Spread(), 1.0), "spread is IQR over median");
  expect(!s.Resolves(0.25) && s.Resolves(1.0), "bound resolves only spreads "
                                               "within it");
  expect(Summarize({2, 2, 2}).Resolves(0.0), "zero spread resolves any bound");

  // Sweep gates on a hand-built result.
  harness::BenchmarkResults dmmm;
  dmmm.name = "dmmm";
  for (harness::VariantResult& c : dmmm.variants) {
    c.available = true;
    c.validated = true;
    c.seconds = 1.0;
  }
  const std::vector<harness::BenchmarkResults> good = {dmmm};
  expect(CheckCells(good, false).ok(), "validated cells pass");
  auto corrupt = good;
  corrupt[0].variants[2].validated = false;
  expect(!CheckCells(corrupt, false).ok(), "unvalidated cell trips the gate");
  corrupt = good;
  corrupt[0].variants[2].available = false;
  expect(!CheckCells(corrupt, false).ok(), "unavailable cell trips the gate");
  harness::BenchmarkResults amcd = dmmm;
  amcd.name = "amcd";
  amcd.variants[static_cast<int>(hpc::Variant::kOpenCL)].available = false;
  expect(CheckCells({amcd}, true).ok(), "amcd fp64 erratum cell is expected");
  expect(!CheckCells({amcd}, false).ok(), "amcd fp32 GPU cell is not");
  corrupt = good;
  corrupt[0].variants[3].seconds = 1.0 + 1e-15;
  expect(SweepDigest(corrupt) != SweepDigest(good),
         "digest sees a one-ulp change in modelled seconds");
  // The paper's dmmm speedups are 1.7, 6.2 and 25.5; model twice each.
  harness::BenchmarkResults twice = dmmm;
  twice.variants[static_cast<int>(hpc::Variant::kOpenMP)].seconds = 1 / 3.4;
  twice.variants[static_cast<int>(hpc::Variant::kOpenCL)].seconds = 1 / 12.4;
  twice.variants[static_cast<int>(hpc::Variant::kOpenCLOpt)].seconds = 1 / 51.0;
  int cells = 0;
  expect(std::fabs(PaperFitError({twice}, false, &cells) - 1.0) < 1e-9 &&
             cells == 3,
         "every speedup 2x the paper's is a fit error of 1");

  // Serve gate.
  serve::ServeReport served;
  served.submitted = 2;
  for (std::uint64_t id : {0, 1}) {
    serve::JobResult r;
    r.id = id;
    r.state = serve::JobState::kOk;
    served.results.push_back(r);
  }
  served.state_counts[0] = 2;
  expect(CheckServe(served, 2).ok(), "consistent serve report passes");
  expect(!CheckServe(served, 3).ok(), "missing submission trips the gate");
  serve::ServeReport lost = served;
  lost.results.pop_back();
  expect(!CheckServe(lost, 2).ok(), "lost job trips the gate");

  // Repetition gate.
  ProbeResult a;
  a.digest = "00000000000000ab";
  a.values = {{"trace.ops", 100.0}, {"host_s", 1.0}};
  ProbeResult b = a;
  b.values["host_s"] = 1.5;
  expect(CheckRepeats({a, b}, {"trace.ops"}).ok(),
         "host time may vary between repetitions");
  b.values["trace.ops"] = 101.0;
  expect(!CheckRepeats({a, b}, {"trace.ops"}).ok(),
         "a changed op count trips the gate");
  b = a;
  b.digest = "00000000000000ac";
  expect(!CheckRepeats({a, b}, {}).ok(), "a changed digest trips the gate");
  b = a;
  b.values.erase("trace.ops");
  expect(!CheckRepeats({a, b}, {"trace.ops"}).ok(),
         "a missing exact count trips the gate");

  // The catalogue here and BENCHMARK.json declare the same metrics.
  const StatusOr<JsonValue> doc = ReadJsonFile(bench_path);
  expect(doc.ok(), "read " + bench_path);
  if (doc.ok()) {
    auto same = [&](const char* key, const std::vector<MetricDef>& defs) {
      const JsonValue* list = doc->Find(key);
      if (list == nullptr || list->array.size() != defs.size()) return false;
      for (std::size_t i = 0; i < defs.size(); ++i) {
        const JsonValue& m = list->array[i];
        if (m.StringOr("name", "") != defs[i].name ||
            m.StringOr("unit", "") != defs[i].unit ||
            m.StringOr("better", "") != defs[i].better) {
          std::printf("  %s[%zu]: %s vs %s\n", key, i,
                      m.StringOr("name", "").c_str(), defs[i].name.c_str());
          return false;
        }
      }
      return true;
    };
    expect(same("end_to_end", EndToEndMetrics()),
           "BENCHMARK.json end_to_end matches the catalogue");
    expect(same("per_layer", LayerMetrics()),
           "BENCHMARK.json per_layer matches the catalogue");
    std::set<std::string> declared;
    if (const JsonValue* list = doc->Find("workloads"); list != nullptr) {
      for (const JsonValue& wl : list->array) {
        declared.insert(wl.StringOr("name", ""));
      }
    }
    std::set<std::string> known;
    for (const Workload& wl : kWorkloads) known.insert(wl.name);
    expect(declared == known, "BENCHMARK.json workloads match");
  }

  std::printf("self-test: %d/%d checks passed\n", checks - failures, checks);
  return failures == 0 ? 0 : 1;
}

// ---- main ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 25.0;
  int trace = 0;
  std::string out;
  std::string bench = "BENCHMARK.json";
  std::string child;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    const bool takes_value = arg != "--self-test";
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "malisim-perf: %s needs a value\n", arg.c_str());
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload = value;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      a->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (arg == "--out") {
      a->out = value;
    } else if (arg == "--bench") {
      a->bench = value;
    } else if (arg == "--child") {
      a->child = value;
    } else if (arg == "--spawned-at") {
      g_spawned_at_ns = std::strtoll(value.c_str(), &end, 10);
    } else if (arg == "--self-test") {
      a->self_test = true;
    } else {
      std::fprintf(stderr, "malisim-perf: unknown flag %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      std::fprintf(stderr, "malisim-perf: bad number for %s: '%s'\n",
                   arg.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Workload* w = args.workload.empty() ? nullptr : FindWorkload(args.workload);
  if (!args.workload.empty() && w == nullptr) {
    std::fprintf(stderr, "malisim-perf: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!args.child.empty()) {
    // The amcd fp64 build failure is modelled paper behaviour; its warning
    // would repeat in every child.
    if (std::getenv("MALISIM_LOG_LEVEL") == nullptr) {
      SetLogLevel(LogLevel::kError);
    }
    return ChildMain(args.child, w, args.seed);
  }
  if (args.self_test) return SelfTest(args.bench);

  const std::map<std::string, double> bounds = LoadBounds(args.bench);
  std::printf("malisim-perf %s: seed %llu, %g s per workload, nproc %u, "
              "%d serve workers\n",
              GitSha(), static_cast<unsigned long long>(args.seed),
              args.seconds, std::thread::hardware_concurrency(), kServeWorkers);
  std::fflush(stdout);

  if (w != nullptr) {
    const bool traced = args.trace != 0;
    const Report r = traced ? MeasureLayers(args.seed)
                            : MeasureWorkload(*w, args.seed, args.seconds);
    const std::vector<MetricDef>& defs =
        traced ? LayerMetrics() : EndToEndMetrics();
    PrintTable(traced ? "layers" : w->name, r, defs, bounds);
    if (!args.out.empty()) {
      std::vector<std::pair<std::string, Report>> runs;
      if (!traced) runs.emplace_back(w->name, r);
      if (!WriteResultFile(args.out, args.seed, args.seconds, runs,
                           traced ? &r : nullptr)
               .ok()) {
        return 1;
      }
    }
    PrintResultLine(r, defs);
    return r.correct ? 0 : 1;
  }

  bool correct = true;
  std::vector<std::pair<std::string, Report>> runs;
  for (const Workload& wl : kWorkloads) {
    runs.emplace_back(wl.name, MeasureWorkload(wl, args.seed, args.seconds));
    PrintTable(wl.name, runs.back().second, EndToEndMetrics(), bounds);
    std::fflush(stdout);
    correct = correct && runs.back().second.correct;
  }
  const Report layers = MeasureLayers(args.seed);
  PrintTable("layers", layers, LayerMetrics(), bounds);
  correct = correct && layers.correct;
  std::string out = args.out;
  if (out.empty()) {
    const std::string self = SelfExe();
    out = self.substr(0, self.rfind('/') + 1) + "malisim-perf.json";
  }
  if (!WriteResultFile(out, args.seed, args.seconds, runs, &layers).ok()) {
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace malisim::perf

int main(int argc, char** argv) { return malisim::perf::Main(argc, argv); }
