#include "obs/host_prof.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <utility>

#include "common/table.h"

namespace malisim::obs {
namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One open phase span on this thread. The stack is thread-local and spans
/// are strictly LIFO (RAII), so no locking is needed until CloseSpan folds
/// the frame into the profiler's atomics.
struct Frame {
  HostProf* prof = nullptr;
  HostPhase phase = HostPhase::kNumPhases;
  std::uint64_t start_ns = 0;
  std::uint64_t child_ns = 0;
};

thread_local std::vector<Frame> tls_frames;

std::string BlockLabel(std::uint32_t begin, std::uint32_t end) {
  return "block[" + std::to_string(begin) + "," + std::to_string(end) + ")";
}

}  // namespace

std::string_view HostPhaseName(HostPhase phase) {
  switch (phase) {
    case HostPhase::kSetup:
      return "setup";
    case HostPhase::kCompile:
      return "compile";
    case HostPhase::kEnqueue:
      return "enqueue";
    case HostPhase::kSchedule:
      return "schedule";
    case HostPhase::kExecute:
      return "execute";
    case HostPhase::kMerge:
      return "merge";
    case HostPhase::kPowerAccounting:
      return "power-accounting";
    case HostPhase::kTune:
      return "tune";
    case HostPhase::kVariant:
      return "variant";
    case HostPhase::kVmCompile:
      return "vm/compile";
    case HostPhase::kVmExec:
      return "vm/exec";
    case HostPhase::kMemReplay:
      return "mem/replay";
    case HostPhase::kNumPhases:
      break;
  }
  return "?";
}

HostProf::HostProf() {
  // Calibrate the clock-read cost the sampler pays per tick. The fastest
  // of several short batches is one no preemption landed in, so a loaded
  // host does not inflate the estimate. A volatile accumulator keeps the
  // loop from being folded away.
  constexpr int kBatches = 16;
  constexpr int kReadsPerBatch = 256;
  volatile std::uint64_t guard = 0;
  std::uint64_t fastest = ~std::uint64_t{0};
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kReadsPerBatch; ++i) guard = guard + NowNs();
    fastest = std::min(fastest, NowNs() - t0);
  }
  sample_cost_ns_ = static_cast<double>(fastest) / kReadsPerBatch;
}

HostProf::PhaseSpan::PhaseSpan(HostProf* prof, HostPhase phase)
    : prof_(prof) {
  if (prof_ == nullptr) return;
  tls_frames.push_back(Frame{prof_, phase, NowNs(), 0});
}

HostProf::PhaseSpan::~PhaseSpan() {
  if (prof_ == nullptr) return;
  const Frame frame = tls_frames.back();
  tls_frames.pop_back();
  const std::uint64_t now = NowNs();
  const std::uint64_t elapsed = now - frame.start_ns;
  // Charge this span's full time as child time of the nearest enclosing
  // frame *of the same profiler*, so self = total - children holds even
  // if two profilers ever interleave on one thread.
  bool root = true;
  for (auto it = tls_frames.rbegin(); it != tls_frames.rend(); ++it) {
    if (it->prof == prof_) {
      it->child_ns += elapsed;
      root = false;
      break;
    }
  }
  prof_->CloseSpan(frame.phase, elapsed, frame.child_ns, root);
}

void HostProf::CloseSpan(HostPhase phase, std::uint64_t elapsed_ns,
                         std::uint64_t child_ns, bool root) {
  PhaseCell& cell = phases_[static_cast<std::size_t>(phase)];
  cell.total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  cell.self_ns.fetch_add(elapsed_ns - std::min(child_ns, elapsed_ns),
                         std::memory_order_relaxed);
  cell.count.fetch_add(1, std::memory_order_relaxed);
  if (root) root_total_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
}

void HostProf::MergeInterp(const std::string& kernel,
                           const std::vector<kir::BlockSpan>& blocks,
                           const kir::HostTimeSink& sink,
                           const std::uint64_t* op_ns,
                           const std::uint64_t* block_ns) {
  std::uint64_t total = 0;
  if (op_ns != nullptr) {
    for (int i = 0; i < kir::kNumOpcodeValues; ++i) {
      const std::uint64_t ns = op_ns[static_cast<std::size_t>(i)];
      if (ns == 0) continue;
      op_ns_[static_cast<std::size_t>(i)].fetch_add(
          ns, std::memory_order_relaxed);
      total += ns;
    }
  }
  interp_ns_.fetch_add(total, std::memory_order_relaxed);
  interp_samples_.fetch_add(sink.samples, std::memory_order_relaxed);
  interp_steps_.fetch_add(sink.steps, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(blocks_mutex_);
  if (sink.batches.lane_instructions != 0) {
    batches_[kernel].MergeFrom(sink.batches);
  }
  if (block_ns == nullptr) return;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (block_ns[b] == 0) continue;
    BlockStat& stat = blocks_[{kernel, blocks[b].begin}];
    stat.kernel = kernel;
    stat.begin = blocks[b].begin;
    stat.end = blocks[b].end;
    stat.ns += block_ns[b];
  }
}

HostProf::Snapshot HostProf::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.phases.reserve(kNumHostPhases);
  for (int i = 0; i < kNumHostPhases; ++i) {
    const PhaseCell& cell = phases_[static_cast<std::size_t>(i)];
    PhaseStat stat;
    stat.name = std::string(HostPhaseName(static_cast<HostPhase>(i)));
    stat.total_ns = cell.total_ns.load(std::memory_order_relaxed);
    stat.self_ns = cell.self_ns.load(std::memory_order_relaxed);
    stat.count = cell.count.load(std::memory_order_relaxed);
    snapshot.phases.push_back(std::move(stat));
  }
  for (int i = 0; i < kir::kNumOpcodeValues; ++i) {
    const std::uint64_t ns =
        op_ns_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (ns == 0) continue;
    snapshot.opcodes.push_back(
        {std::string(kir::OpcodeName(static_cast<kir::Opcode>(i))), ns});
  }
  std::sort(snapshot.opcodes.begin(), snapshot.opcodes.end(),
            [](const OpcodeStat& a, const OpcodeStat& b) {
              if (a.ns != b.ns) return a.ns > b.ns;
              return a.name < b.name;
            });
  {
    std::lock_guard<std::mutex> lock(blocks_mutex_);
    for (const auto& [key, stat] : blocks_) snapshot.blocks.push_back(stat);
    for (const auto& [kernel, stats] : batches_) {
      snapshot.batches.push_back({kernel, stats});
    }
  }
  std::stable_sort(snapshot.batches.begin(), snapshot.batches.end(),
                   [](const BatchRow& a, const BatchRow& b) {
                     return a.stats.lane_instructions >
                            b.stats.lane_instructions;
                   });
  std::sort(snapshot.blocks.begin(), snapshot.blocks.end(),
            [](const BlockStat& a, const BlockStat& b) {
              if (a.ns != b.ns) return a.ns > b.ns;
              if (a.kernel != b.kernel) return a.kernel < b.kernel;
              return a.begin < b.begin;
            });
  snapshot.root_total_ns = root_total_ns_.load(std::memory_order_relaxed);
  snapshot.interp_ns = interp_ns_.load(std::memory_order_relaxed);
  snapshot.interp_samples =
      interp_samples_.load(std::memory_order_relaxed);
  snapshot.interp_steps = interp_steps_.load(std::memory_order_relaxed);
  snapshot.sample_cost_ns = sample_cost_ns_;
  return snapshot;
}

double HostProf::AttributedFraction(double wall_sec) const {
  if (wall_sec <= 0.0) return 0.0;
  const double attributed_sec =
      static_cast<double>(root_total_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  return attributed_sec / wall_sec;
}

double HostProf::SampleOverheadFraction() const {
  const std::uint64_t interp = interp_ns_.load(std::memory_order_relaxed);
  if (interp == 0) return 0.0;
  const double cost =
      static_cast<double>(interp_samples_.load(std::memory_order_relaxed)) *
      sample_cost_ns_;
  return cost / static_cast<double>(interp);
}

std::string HostProf::HotspotsTable(const Snapshot& snapshot,
                                    double wall_sec) {
  std::ostringstream out;
  std::uint64_t attributed = snapshot.root_total_ns;
  out << "=== host-side hotspots (self-profiler) ===\n";
  out << "host wall time: " << FormatDouble(wall_sec, 4)
      << " s, attributed to phases: "
      << FormatDouble(static_cast<double>(attributed) * 1e-9, 4) << " s";
  if (wall_sec > 0.0) {
    out << " ("
        << FormatDouble(
               100.0 * static_cast<double>(attributed) * 1e-9 / wall_sec, 1)
        << "%)";
  }
  out << "\n\nPhases (host wall time):\n";
  {
    Table t({"phase", "count", "total_ms", "self_ms", "self_%"});
    std::uint64_t self_sum = 0;
    for (const PhaseStat& p : snapshot.phases) self_sum += p.self_ns;
    for (const PhaseStat& p : snapshot.phases) {
      if (p.count == 0) continue;
      t.BeginRow();
      t.AddCell(p.name);
      t.AddCell(std::to_string(p.count));
      t.AddCell(FormatDouble(static_cast<double>(p.total_ns) * 1e-6, 3));
      t.AddCell(FormatDouble(static_cast<double>(p.self_ns) * 1e-6, 3));
      t.AddCell(FormatDouble(
          self_sum == 0 ? 0.0
                        : 100.0 * static_cast<double>(p.self_ns) /
                              static_cast<double>(self_sum),
          1));
    }
    out << t.ToAscii();
  }
  if (!snapshot.opcodes.empty()) {
    out << "\nInterpreter opcodes (sampled host time):\n";
    Table t({"opcode", "host_ms", "interp_%"});
    for (const OpcodeStat& op : snapshot.opcodes) {
      t.BeginRow();
      t.AddCell(op.name);
      t.AddCell(FormatDouble(static_cast<double>(op.ns) * 1e-6, 3));
      t.AddCell(FormatDouble(snapshot.interp_ns == 0
                                 ? 0.0
                                 : 100.0 * static_cast<double>(op.ns) /
                                       static_cast<double>(snapshot.interp_ns),
                             1));
    }
    out << t.ToAscii();
  }
  if (!snapshot.blocks.empty()) {
    out << "\nInterpreter basic blocks (sampled host time):\n";
    Table t({"kernel", "block", "host_ms", "interp_%"});
    for (const BlockStat& b : snapshot.blocks) {
      t.BeginRow();
      t.AddCell(b.kernel);
      t.AddCell(BlockLabel(b.begin, b.end));
      t.AddCell(FormatDouble(static_cast<double>(b.ns) * 1e-6, 3));
      t.AddCell(FormatDouble(snapshot.interp_ns == 0
                                 ? 0.0
                                 : 100.0 * static_cast<double>(b.ns) /
                                       static_cast<double>(snapshot.interp_ns),
                             1));
    }
    out << t.ToAscii();
  }
  if (!snapshot.batches.empty()) {
    // full_width: the share of lane instructions run with a full batch;
    // the rb_ columns count batches rolled back and re-run one lane at a
    // time, by reason (DESIGN.md §16).
    out << "\nVM lane batches (per kernel):\n";
    Table t({"kernel", "lane_instrs", "full_width", "rb_race", "rb_fault",
             "rb_event_cap", "rb_split"});
    for (const BatchRow& row : snapshot.batches) {
      const kir::BatchStats& b = row.stats;
      t.BeginRow();
      t.AddCell(row.kernel);
      t.AddCell(std::to_string(b.lane_instructions));
      t.AddCell(FormatDouble(
          b.lane_instructions == 0
              ? 0.0
              : static_cast<double>(b.full_width) /
                    static_cast<double>(b.lane_instructions),
          3));
      for (int r = 0; r < kir::kNumRollbackReasons; ++r) {
        t.AddCell(std::to_string(b.rollbacks[r]));
      }
    }
    out << t.ToAscii();
  }
  out << "\ninterp sampling: " << snapshot.interp_samples << " sample(s) over "
      << snapshot.interp_steps << " attributed step(s), est. profiler cost "
      << FormatDouble(snapshot.interp_ns == 0
                          ? 0.0
                          : 100.0 *
                                static_cast<double>(snapshot.interp_samples) *
                                snapshot.sample_cost_ns /
                                static_cast<double>(snapshot.interp_ns),
                      2)
      << "% of interp time\n";
  return out.str();
}

std::string HostProf::Collapsed(const Snapshot& snapshot) {
  std::ostringstream out;
  // The engine samples live inside vm/exec spans under the bytecode engine
  // and directly inside execute spans under the interpreter; carve the
  // attributed time out of vm/exec first and charge the remainder to
  // execute so the root totals stay disjoint in the flamegraph.
  std::uint64_t vm_exec_self = 0;
  for (const PhaseStat& p : snapshot.phases) {
    if (p.name == "vm/exec") vm_exec_self = p.self_ns;
  }
  const std::uint64_t vm_carve = std::min(vm_exec_self, snapshot.interp_ns);
  const std::uint64_t exec_carve = snapshot.interp_ns - vm_carve;
  for (const PhaseStat& p : snapshot.phases) {
    if (p.count == 0) continue;
    std::uint64_t self = p.self_ns;
    if (p.name == "vm/exec") self -= vm_carve;
    if (p.name == "execute") self -= std::min(self, exec_carve);
    if (self > 0) out << "malisim;" << p.name << " " << self << "\n";
  }
  for (const OpcodeStat& op : snapshot.opcodes) {
    out << "malisim;execute;interp;" << op.name << " " << op.ns << "\n";
  }
  for (const BlockStat& b : snapshot.blocks) {
    out << "malisim-blocks;" << b.kernel << ";"
        << BlockLabel(b.begin, b.end) << " " << b.ns << "\n";
  }
  return out.str();
}

InterpProfile::InterpProfile(HostProf* prof, const kir::Program& program,
                             int cores)
    : prof_(prof) {
  if (prof_ == nullptr) return;
  blocks_ = kir::BasicBlocks(program);
  const bool map_blocks = blocks_.size() <= 0xFFFF;
  if (map_blocks) {
    block_of_pc_.assign(program.code.size(), 0);
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      for (std::uint32_t pc = blocks_[b].begin; pc < blocks_[b].end; ++pc) {
        block_of_pc_[pc] = static_cast<std::uint16_t>(b);
      }
    }
  }
  const std::size_t n = static_cast<std::size_t>(cores < 1 ? 1 : cores);
  op_ns_.assign(n, std::vector<std::uint64_t>(kir::kNumOpcodeValues, 0));
  block_ns_.assign(n, std::vector<std::uint64_t>(blocks_.size(), 0));
  sinks_.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    sinks_[c].op_ns = op_ns_[c].data();
    if (map_blocks) {
      sinks_[c].block_ns = block_ns_[c].data();
      sinks_[c].block_of_pc = block_of_pc_.data();
    }
    sinks_[c].period = prof_->period();
    sinks_[c].countdown = 1;
  }
}

void InterpProfile::Merge(const std::string& kernel) {
  if (prof_ == nullptr) return;
  for (std::size_t c = 0; c < sinks_.size(); ++c) {
    prof_->MergeInterp(kernel, blocks_, sinks_[c], op_ns_[c].data(),
                       block_ns_[c].empty() ? nullptr : block_ns_[c].data());
  }
}

}  // namespace malisim::obs
