#include "harness/experiment.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "common/log.h"
#include "common/sim_options.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "fault/degrade.h"
#include "fault/injector.h"
#include "obs/recorder.h"

namespace malisim::harness {

namespace {

double Ratio(double num, double den) {
  if (num <= 0.0 || den <= 0.0) return 0.0;
  return num / den;
}

/// Meter RNG stream key for one (benchmark, variant) cell: FNV-1a over the
/// name and variant, mixed with the experiment seed. Keying streams per
/// cell (instead of consuming one stream sequentially across the run) makes
/// every cell's measurement independent of execution order, which is what
/// lets RunAll farm benchmarks across threads without changing a digit.
std::uint64_t MeterSeed(std::uint64_t base_seed, std::string_view name,
                        hpc::Variant variant) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const char c : name) mix(static_cast<unsigned char>(c));
  mix(0xffULL);  // separator
  mix(static_cast<std::uint64_t>(variant));
  return h ^ base_seed ^ 0x57230ULL;
}

/// Fault-plan seed for one (benchmark, precision) cell, mixed like
/// MeterSeed so every cell's fault schedule is independent of execution
/// order and host-thread count.
std::uint64_t CellFaultSeed(std::uint64_t base_seed, std::string_view name,
                            bool fp64) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const char c : name) mix(static_cast<unsigned char>(c));
  mix(0xffULL);  // separator
  mix(fp64 ? 1 : 0);
  return h ^ base_seed ^ 0xfa017ULL;
}

}  // namespace

double BenchmarkResults::SpeedupVsSerial(hpc::Variant v) const {
  const VariantResult& serial = Get(hpc::Variant::kSerial);
  const VariantResult& other = Get(v);
  if (!serial.available || !other.available) return 0.0;
  return Ratio(serial.seconds, other.seconds);
}

double BenchmarkResults::PowerVsSerial(hpc::Variant v) const {
  const VariantResult& serial = Get(hpc::Variant::kSerial);
  const VariantResult& other = Get(v);
  if (!serial.available || !other.available) return 0.0;
  return Ratio(other.power_mean_w, serial.power_mean_w);
}

double BenchmarkResults::EnergyVsSerial(hpc::Variant v) const {
  const VariantResult& serial = Get(hpc::Variant::kSerial);
  const VariantResult& other = Get(v);
  if (!serial.available || !other.available) return 0.0;
  return Ratio(other.energy_j, serial.energy_j);
}

ExperimentRunner::ExperimentRunner(const ExperimentConfig& config)
    : config_(config), power_model_(config.power) {}

StatusOr<BenchmarkResults> ExperimentRunner::RunBenchmark(
    const std::string& name) {
  return RunBenchmarkImpl(name, config_.sim_threads);
}

StatusOr<BenchmarkResults> ExperimentRunner::RunBenchmarkImpl(
    const std::string& name, int device_threads) {
  obs::HostProf* host_prof =
      config_.recorder != nullptr ? config_.recorder->host_prof() : nullptr;
  std::unique_ptr<hpc::Benchmark> bench =
      hpc::CreateBenchmark(name, config_.sizes);
  if (bench == nullptr) {
    return NotFoundError("unknown benchmark '" + name + "'");
  }
  {
    obs::HostProf::PhaseSpan setup_span(host_prof, obs::HostPhase::kSetup);
    MALI_RETURN_IF_ERROR(bench->Setup(config_.fp64, config_.seed));
  }

  BenchmarkResults results;
  results.name = name;

  // One board for all versions: single CPU and GPU model instances. The
  // OpenCL context dispatches through the configured sim::Device backend
  // (Context(kMali) is identical to the historical default-constructed
  // context).
  cpu::CortexA15Device cpu_device;
  ocl::Context gpu_context(config_.device);
  gpu_context.set_hetero_ratio(config_.hetero_ratio);
  SimOptions sim_options;
  sim_options.threads = std::max(1, device_threads);
  sim_options.fault = config_.fault;
  cpu_device.set_sim_options(sim_options);
  gpu_context.set_sim_options(sim_options);
  if (config_.recorder != nullptr) {
    cpu_device.set_recorder(config_.recorder);
    gpu_context.set_recorder(config_.recorder);
  }
  hpc::Devices devices{&cpu_device, &gpu_context};

  // The Hetero column's context: the gpu context itself when it already is
  // the hetero backend, otherwise a second context stood up on demand.
  std::unique_ptr<ocl::Context> hetero_context;
  if (config_.device == sim::BackendKind::kHetero) {
    devices.hetero = &gpu_context;
  } else if (config_.include_hetero) {
    hetero_context =
        std::make_unique<ocl::Context>(sim::BackendKind::kHetero);
    hetero_context->set_hetero_ratio(config_.hetero_ratio);
    hetero_context->set_sim_options(sim_options);
    if (config_.recorder != nullptr) {
      hetero_context->set_recorder(config_.recorder);
    }
    devices.hetero = hetero_context.get();
  }

  // One fault injector per (benchmark, precision) cell, with decision
  // streams keyed by the cell so RunAll can farm cells across threads
  // without changing any schedule. Attaching it with all-zero rates is
  // behaviorally identical to no injector (the quirks it carries fire on
  // the same structural conditions the hard-coded paths used).
  StatusOr<fault::FaultPlan> plan_or =
      fault::FaultPlan::FromOptions(config_.fault);
  if (!plan_or.ok()) return plan_or.status();
  fault::FaultPlan plan = *std::move(plan_or);
  plan.seed = CellFaultSeed(plan.seed, name, config_.fp64);
  fault::FaultInjector injector(plan);
  if (config_.recorder != nullptr) {
    obs::Recorder* recorder = config_.recorder;
    injector.set_sink([recorder, name](const fault::FaultEvent& e) {
      recorder->AddFault({e.site, name + "/" + e.key, e.action, e.detail});
    });
  }
  gpu_context.set_fault_injector(&injector);
  if (hetero_context != nullptr) {
    hetero_context->set_fault_injector(&injector);
  }

  const std::span<const hpc::Variant> variant_list =
      devices.hetero != nullptr
          ? std::span<const hpc::Variant>(hpc::kAllVariantsWithHetero)
          : std::span<const hpc::Variant>(hpc::kAllVariants);
  for (hpc::Variant v : variant_list) {
    VariantResult& out = results.variants[static_cast<int>(v)];
    MALI_LOG_INFO("running %s / %s (%s)", name.c_str(),
                  std::string(hpc::VariantName(v)).c_str(),
                  config_.fp64 ? "fp64" : "fp32");
    // Autotuned routing: a tuned config for this benchmark replaces the
    // fixed paper kernel on the OpenCL-opt column only.
    const auto tuned_it = config_.tuned_configs.find(name);
    const sim::TuningConfig* tuned =
        tuned_it != config_.tuned_configs.end() ? &tuned_it->second : nullptr;
    // Harness rungs of the degradation ladder: `v`, then progressively less
    // ambitious variants (the hetero rung degrades into the single-device
    // ones). Only `v` while fault options are inactive, so the paper's
    // missing bars (e.g. amcd FP64) stay missing in golden runs.
    const std::span<const hpc::Variant> ladder =
        config_.fault.ResilienceActive() ? hpc::LadderFrom(v)
                                         : std::span<const hpc::Variant>(&v, 1);
    std::vector<fault::Rung<hpc::RunOutcome>> rungs;
    for (const hpc::Variant rung : ladder) {
      rungs.push_back({std::string(hpc::VariantName(rung)), [&, rung] {
                         obs::HostProf::PhaseSpan variant_span(
                             host_prof, obs::HostPhase::kVariant);
                         if (tuned != nullptr &&
                             rung == hpc::Variant::kOpenCLOpt) {
                           return bench->RunTuned(*tuned, devices);
                         }
                         return bench->RunVariant(rung, devices);
                       }});
    }
    fault::LadderReport ladder_report;
    StatusOr<hpc::RunOutcome> run = fault::RunLadder<hpc::RunOutcome>(
        plan.retry, rungs, &ladder_report, &injector);
    if (!run.ok()) {
      // Unavailable results (the paper's missing bars): build failures and
      // unrecovered resource exhaustion. Anything else is a harness bug.
      out.available = false;
      out.unavailable_reason = run.status().ToString();
      MALI_LOG_WARN("%s / %s unavailable: %s", name.c_str(),
                    std::string(hpc::VariantName(v)).c_str(),
                    out.unavailable_reason.c_str());
      continue;
    }
    out.available = true;
    out.seconds = run->seconds;
    out.validated = run->validated;
    out.max_rel_error = run->max_rel_error;
    out.note = run->note;
    if (ladder_report.rung_index > 0) {
      out.degraded_to = rungs[ladder_report.rung_index].label;
      const std::string degrade_note =
          "degraded to " + out.degraded_to + " after " +
          ladder_report.failures.back().second.ToString();
      out.note = out.note.empty() ? degrade_note
                                  : degrade_note + "; " + out.note;
    }
    out.stats = std::move(run->stats);

    // Power: the model gives the true average board power over the region;
    // the meter samples it for `repetitions` windows, per §IV-D. The meter
    // RNG stream is private to this (benchmark, variant) cell.
    obs::HostProf::PhaseSpan power_span(host_prof,
                                        obs::HostPhase::kPowerAccounting);
    const double true_watts = power_model_.AveragePower(run->profile);
    power::PowerMeter meter(config_.meter, MeterSeed(config_.seed, name, v));
    meter.set_fault_injector(&injector);
    RunningStat rep_means;
    for (int rep = 0; rep < config_.repetitions; ++rep) {
      const power::PowerMeter::Measurement m =
          meter.Measure(true_watts, config_.meter_window_sec);
      if (m.samples == 0) {
        // Every sample in the window was dropped: a failed repetition.
        // Skip it so it cannot poison the mean/stddev; the figure tables
        // report the per-cell count.
        ++out.failed_repetitions;
        injector.RecordAction("meter", std::string(hpc::VariantName(v)),
                              "skipped-rep",
                              "repetition " + std::to_string(rep) +
                                  " lost all samples");
        continue;
      }
      rep_means.Add(m.mean_watts);
    }
    out.power_mean_w = rep_means.mean();
    out.power_stddev_w = rep_means.stddev();
    out.energy_j = out.power_mean_w * out.seconds;
    if (out.failed_repetitions > 0) {
      out.stats.Set("power.failed_reps",
                    static_cast<double>(out.failed_repetitions));
      if (out.failed_repetitions == config_.repetitions) {
        const std::string all_failed = "all power repetitions failed";
        out.note = out.note.empty() ? all_failed : out.note + "; " + all_failed;
      }
    }
    out.stats.Set("power.true_watts", true_watts);
    out.stats.Set("power.cpu_watts", power_model_.CpuPower(run->profile));
    out.stats.Set("power.gpu_watts", power_model_.GpuPower(run->profile));
    out.stats.Set("power.dram_watts", power_model_.DramPower(run->profile));

    if (config_.recorder != nullptr && config_.recorder->counters_enabled()) {
      config_.recorder->AddPowerSegment(
          {name + "/" + std::string(hpc::VariantName(v)),
           config_.meter_window_sec, run->profile});
    }
  }

  // Mirror each context's scheduled event graph into the recorder so the
  // Perfetto export can draw the causal schedule. Observability must never
  // fail a run, so a (structurally impossible) schedule error only warns.
  if (config_.recorder != nullptr) {
    Status graph_status = gpu_context.queue().RecordScheduledGraph(
        std::string(sim::BackendName(config_.device)));
    if (graph_status.ok() && hetero_context != nullptr) {
      graph_status = hetero_context->queue().RecordScheduledGraph("hetero");
    }
    if (!graph_status.ok()) {
      MALI_LOG_WARN("%s: event-graph record failed: %s", name.c_str(),
                    graph_status.ToString().c_str());
    }
  }
  return results;
}

StatusOr<std::vector<BenchmarkResults>> ExperimentRunner::RunAll() {
  const std::vector<std::string> names = hpc::RegisteredBenchmarks();
  if (config_.sim_threads <= 1 || names.size() <= 1) {
    std::vector<BenchmarkResults> all;
    for (const std::string& name : names) {
      StatusOr<BenchmarkResults> results = RunBenchmark(name);
      if (!results.ok()) return results.status();
      all.push_back(*std::move(results));
    }
    return all;
  }

  // Farm whole benchmarks across workers. Each slot runs with serial device
  // engines (no nested pools); per-cell meter seeding makes every slot's
  // numbers independent of which worker ran it and when.
  std::vector<std::optional<BenchmarkResults>> slots(names.size());
  std::vector<Status> statuses(names.size(), Status::Ok());
  {
    ThreadPool pool(std::min<int>(config_.sim_threads,
                                  static_cast<int>(names.size())));
    for (std::size_t i = 0; i < names.size(); ++i) {
      pool.Submit([this, &names, &slots, &statuses, i] {
        StatusOr<BenchmarkResults> results =
            RunBenchmarkImpl(names[i], /*device_threads=*/1);
        if (results.ok()) {
          slots[i] = *std::move(results);
        } else {
          statuses[i] = results.status();
        }
      });
    }
    pool.WaitIdle();
  }
  std::vector<BenchmarkResults> all;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!statuses[i].ok()) return statuses[i];  // lowest-index failure
    all.push_back(*std::move(slots[i]));
  }
  return all;
}

}  // namespace malisim::harness
