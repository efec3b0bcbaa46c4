#include "kir/vm/vm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>

namespace malisim::kir::vm {

namespace {

/// memcpy with the common access widths pinned to constants so the copies
/// inline to plain moves instead of a libc call with a runtime size.
inline void CopyBytes(void* dst, const void* src, std::uint32_t n) {
  switch (n) {
    case 4: std::memcpy(dst, src, 4); break;
    case 8: std::memcpy(dst, src, 8); break;
    case 16: std::memcpy(dst, src, 16); break;
    case 32: std::memcpy(dst, src, 32); break;
    case 64: std::memcpy(dst, src, 64); break;
    default: std::memcpy(dst, src, n); break;
  }
}

/// The mask of lanes 0 .. n - 1 (n may be the full 32-bit mask width).
inline std::uint32_t LowLanes(int n) {
  return n >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << n) - 1;
}

/// Converts element i of `a` (type `from`) into element i of `d` (type
/// `to`): float sources go through double, float -> integer saturates.
inline void ConvertElem(ScalarType from, ScalarType to, const std::byte* a,
                        std::byte* d, int i) {
  double fv = 0.0;
  std::int64_t iv = 0;
  bool is_float_src = true;
  switch (from) {
    case ScalarType::kF32:
      fv = static_cast<double>(reinterpret_cast<const float*>(a)[i]);
      break;
    case ScalarType::kF64: fv = reinterpret_cast<const double*>(a)[i]; break;
    case ScalarType::kI32:
      iv = reinterpret_cast<const std::int32_t*>(a)[i];
      is_float_src = false;
      break;
    case ScalarType::kI64:
      iv = reinterpret_cast<const std::int64_t*>(a)[i];
      is_float_src = false;
      break;
  }
  switch (to) {
    case ScalarType::kF32:
      reinterpret_cast<float*>(d)[i] =
          is_float_src ? static_cast<float>(fv) : static_cast<float>(iv);
      break;
    case ScalarType::kF64:
      reinterpret_cast<double*>(d)[i] =
          is_float_src ? fv : static_cast<double>(iv);
      break;
    case ScalarType::kI32:
      reinterpret_cast<std::int32_t*>(d)[i] =
          is_float_src ? SatConvert<std::int32_t>(fv)
                       : static_cast<std::int32_t>(iv);
      break;
    case ScalarType::kI64:
      reinterpret_cast<std::int64_t*>(d)[i] =
          is_float_src ? SatConvert<std::int64_t>(fv) : iv;
      break;
  }
}

}  // namespace

StatusOr<VmExecutor> VmExecutor::Create(
    const Program* program, std::shared_ptr<const CompiledProgram> code,
    LaunchConfig config, Bindings bindings) {
  MALI_CHECK(program != nullptr && code != nullptr);
  MALI_RETURN_IF_ERROR(ValidateLaunch(*program, config, bindings));
  if (code->source_len != program->code.size() ||
      code->name != program->name) {
    return InternalError("bytecode does not match program '" + program->name +
                         "'");
  }
  return VmExecutor(program, std::move(code), config, std::move(bindings));
}

VmExecutor::VmExecutor(const Program* program,
                       std::shared_ptr<const CompiledProgram> code,
                       LaunchConfig config, Bindings bindings)
    : p_(program),
      code_(std::move(code)),
      config_(config),
      bindings_(std::move(bindings)) {
  // Slot table: buffer args first, then locals carved out of the scratch —
  // identical to the interpreter (the bytecode burned the element sizes).
  std::size_t buf_idx = 0;
  for (const ArgDecl& arg : p_->args) {
    if (arg.kind == ArgKind::kScalar) continue;
    const BufferBinding& b = bindings_.buffers[buf_idx++];
    slots_.push_back({b.host, b.sim_addr, b.size_bytes});
  }
  std::uint64_t local_off = 0;
  for (const LocalArrayDecl& local : p_->locals) {
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(local.elems) * ScalarBytes(local.elem);
    slots_.push_back({bindings_.local_scratch.host + local_off,
                      bindings_.local_scratch.sim_addr + local_off, bytes});
    local_off += bytes;
  }

  // Batches key their race check on slot indices and 32-bit offsets and
  // pack simulated addresses into kAddrBits, so they need at most 64 slots,
  // each under 4 GiB and below 2^kAddrBits in the simulated space, no two
  // sharing host bytes. Anything else runs one lane at a time.
  batch_ok_ = slots_.size() <= 64;
  for (std::size_t i = 0; i < slots_.size() && batch_ok_; ++i) {
    const Slot& s = slots_[i];
    if (s.size_bytes >= (std::uint64_t{1} << 32) ||
        s.sim_addr + s.size_bytes > kAddrMask) {
      batch_ok_ = false;
    }
    for (std::size_t j = 0; j < i && batch_ok_; ++j) {
      const Slot& t = slots_[j];
      if (s.size_bytes != 0 && t.size_bytes != 0 && s.host < t.host + t.size_bytes &&
          t.host < s.host + s.size_bytes) {
        batch_ok_ = false;
      }
    }
  }

  const auto groups = config_.num_groups();
  for (int d = 0; d < 3; ++d) {
    launch_v_[d] = static_cast<std::int32_t>(config_.global_size[d]);
    launch_v_[3 + d] = static_cast<std::int32_t>(config_.local_size[d]);
    launch_v_[6 + d] = static_cast<std::int32_t>(groups[d]);
  }

  frame_bytes_ = code_->frame_bytes;
  vcount_.assign(code_->code.size(), 0);
  bcount_.assign(code_->code.size(), 0);
  frame1_.resize(frame_bytes_);
  frameW_.resize(static_cast<std::size_t>(frame_bytes_) * kBatchWidth);
  reconv_.resize(code_->max_nesting + 2);
  lane_events_.reset(new LaneEvent[kBatchWidth * kLaneEventStride]);
  track_of_.assign(slots_.size(), kUntracked);
  std::uint8_t num_tracked = 0;
  for (const VInstr& in : code_->code) {
    if ((in.op == VOp::kStore || in.op == VOp::kAtomicAddI32) &&
        track_of_[in.slot] == kUntracked) {
      track_of_[in.slot] = num_tracked++;
    }
  }
  ranges_.resize(std::size_t{num_tracked} * kBatchWidth * 3);
}

template <int W>
void VmExecutor::SetCtx(const std::array<std::uint64_t, 3>& group_id,
                        std::uint64_t first_item, int n,
                        Lanes<W>* lanes) const {
  const std::uint64_t l0 = config_.local_size[0];
  const std::uint64_t l1 = config_.local_size[1];
  std::uint64_t local[3] = {first_item % l0, (first_item / l0) % l1,
                            first_item / (l0 * l1)};
  for (int l = 0; l < W; ++l) {
    for (int d = 0; d < 3; ++d) {
      lanes->ctx[d][l] = static_cast<std::int32_t>(
          group_id[d] * config_.local_size[d] + local[d]);
      lanes->ctx[3 + d][l] = static_cast<std::int32_t>(local[d]);
      lanes->ctx[6 + d][l] = static_cast<std::int32_t>(group_id[d]);
    }
    if (l + 1 < n && ++local[0] == l0) {
      local[0] = 0;
      if (++local[1] == l1) {
        local[1] = 0;
        ++local[2];
      }
    }
  }
}

void VmExecutor::ZeroFrame(std::byte* frame, int width) const {
  for (const RegSpan& r : code_->zero_regs) {
    std::memset(frame + static_cast<std::size_t>(r.reg) * 4 * width, 0,
                static_cast<std::size_t>(r.bytes) * width);
  }
}

Status VmExecutor::RunGroup(const std::array<std::uint64_t, 3>& group_id,
                            MemRecorder* recorder, WorkGroupRun* out) {
  MALI_CHECK(out != nullptr);
  const auto groups = config_.num_groups();
  for (int d = 0; d < 3; ++d) {
    if (group_id[d] >= groups[d]) {
      return OutOfRangeError("group id out of range");
    }
  }
  const Status st = code_->has_barrier
                        ? RunGroupPhased(group_id, recorder, out)
                        : RunGroupStraight(group_id, recorder, out);
  // Flush on faults too: the interpreter counts every instruction it
  // reached (including the faulting one), and so do the deferred counts.
  FlushCounts(out);
  if (host_time_ != nullptr) host_time_->batches.MergeFrom(stats_);
  stats_ = {};
  return st;
}

Status VmExecutor::RunAllGroups(MemRecorder* recorder, WorkGroupRun* out) {
  const auto groups = config_.num_groups();
  for (std::uint64_t gz = 0; gz < groups[2]; ++gz) {
    for (std::uint64_t gy = 0; gy < groups[1]; ++gy) {
      for (std::uint64_t gx = 0; gx < groups[0]; ++gx) {
        MALI_RETURN_IF_ERROR(RunGroup({gx, gy, gz}, recorder, out));
      }
    }
  }
  return Status::Ok();
}

template <int W>
StatusOr<VmExecutor::Stop> VmExecutor::Dispatch(Lanes<W>& lanes,
                                                std::uint32_t* pc,
                                                std::uint32_t stop_vpc,
                                                MemRecorder* recorder) {
  return host_time_ != nullptr
             ? Run<W, true>(lanes, pc, stop_vpc, recorder)
             : Run<W, false>(lanes, pc, stop_vpc, recorder);
}

Status VmExecutor::RunGroupStraight(
    const std::array<std::uint64_t, 3>& group_id, MemRecorder* recorder,
    WorkGroupRun* out) {
  constexpr int W = kBatchWidth;
  const std::uint64_t wg = config_.work_group_size();
  std::uint64_t max_item_weight = 0;
  const std::uint64_t group_start = steps_executed_;
  for (std::uint64_t t0 = 0; t0 < wg; t0 += W) {
    const int n = static_cast<int>(std::min<std::uint64_t>(W, wg - t0));
    if (n >= 2 && batch_ok_) {
      Lanes<W> batch;
      batch.frame = frameW_.data();
      batch.live = LowLanes(n);
      SetCtx(group_id, t0, n, &batch);
      ZeroFrame(batch.frame, W);
      BeginBatch();
      std::uint32_t pc = 0;
      StatusOr<Stop> stop = Dispatch<W>(batch, &pc, kNoStop, recorder);
      if (!stop.ok()) return stop.status();
      if (*stop == Stop::kAbort) {
        RollBack(abort_reason_);
      } else if (*stop == Stop::kDone && Commit(batch.live, recorder)) {
        for (int l = 0; l < n; ++l) {
          max_item_weight = std::max(max_item_weight, lane_steps_[l]);
          steps_executed_ += lane_steps_[l];
        }
        out->work_items += static_cast<std::uint64_t>(n);
        continue;
      }
    }
    // One lane at a time: a single item, or a batch that rolled back.
    for (std::uint64_t t = t0; t < t0 + static_cast<std::uint64_t>(n); ++t) {
      Lanes<1> one;
      one.frame = frame1_.data();
      one.live = 1;
      SetCtx(group_id, t, 1, &one);
      ZeroFrame(one.frame, 1);
      const std::uint64_t item_start = steps_executed_;
      std::uint32_t pc = 0;
      StatusOr<Stop> stop = Dispatch<1>(one, &pc, kNoStop, recorder);
      if (!stop.ok()) return stop.status();
      if (*stop == Stop::kBarrier) {
        return InternalError("barrier reached outside phased execution");
      }
      max_item_weight = std::max(max_item_weight, steps_executed_ - item_start);
      ++out->work_items;
    }
  }
  out->item_weight_sum += steps_executed_ - group_start;
  out->weighted_group_cost += max_item_weight * wg;
  return Status::Ok();
}

Status VmExecutor::RunGroupPhased(const std::array<std::uint64_t, 3>& group_id,
                                  MemRecorder* recorder, WorkGroupRun* out) {
  // Run-to-barrier phases, like the oracle: in each phase every work-item
  // runs, in item order, until it reaches a barrier or finishes. A batch
  // keeps its lanes in one frame across phases; a batch that cannot finish
  // a phase in lockstep is split into one-lane frames for good.
  constexpr int W = kBatchWidth;
  const std::uint64_t wg = config_.work_group_size();
  const std::uint64_t batches = (wg + W - 1) / W;
  const std::size_t batch_bytes = frameW_.size();
  phase_frames_.resize(batches * batch_bytes);
  for (std::uint64_t b = 0; b < batches; ++b) {
    ZeroFrame(phase_frames_.data() + b * batch_bytes, W);
  }
  phase_pcs_.assign(wg, 0);
  item_weights_.assign(wg, 0);
  split_.assign(batches, 0);
  item_frames_.clear();
  auto item_frame = [&](std::uint64_t t) {
    if (item_frames_.empty()) {
      item_frames_.assign(wg * frame_bytes_, std::byte{0});
    }
    return item_frames_.data() + t * frame_bytes_;
  };
  for (std::uint64_t b = 0; b < batches; ++b) {
    if (!batch_ok_ || wg - b * W == 1) split_[b] = 1;
  }

  const std::uint64_t group_start = steps_executed_;
  bool done = false;
  while (!done) {
    std::uint64_t finished = 0;
    std::uint64_t at_barrier = 0;
    for (std::uint64_t b = 0; b < batches; ++b) {
      const std::uint64_t t0 = b * W;
      const int n = static_cast<int>(std::min<std::uint64_t>(W, wg - t0));
      if (!split_[b]) {
        Lanes<W> batch;
        batch.frame = phase_frames_.data() + b * batch_bytes;
        batch.live = LowLanes(n);
        SetCtx(group_id, t0, n, &batch);
        snapshot_.assign(batch.frame, batch.frame + batch_bytes);
        BeginBatch();
        const std::uint32_t phase_pc = phase_pcs_[t0];
        std::uint32_t pc = phase_pc;
        StatusOr<Stop> run = Dispatch<W>(batch, &pc, kNoStop, recorder);
        if (!run.ok()) return run.status();
        const Stop stop = *run;
        if (stop == Stop::kAbort) {
          RollBack(abort_reason_);
        } else if (Commit(batch.live, recorder)) {
          for (int l = 0; l < n; ++l) {
            item_weights_[t0 + l] += lane_steps_[l];
            steps_executed_ += lane_steps_[l];
          }
          phase_pcs_[t0] = pc;
          (stop == Stop::kDone ? finished : at_barrier) +=
              static_cast<std::uint64_t>(n);
          continue;
        }
        // Split: every lane resumes this phase from its start, alone.
        std::memcpy(batch.frame, snapshot_.data(), batch_bytes);
        for (int l = 0; l < n; ++l) {
          std::byte* dst = item_frame(t0 + l);
          for (const RegSpan& r : code_->frame_regs) {
            std::memcpy(dst + r.reg * 4,
                        batch.frame + static_cast<std::size_t>(r.reg) * 4 * W +
                            static_cast<std::size_t>(l) * r.bytes,
                        r.bytes);
          }
          phase_pcs_[t0 + l] = phase_pc;
        }
        split_[b] = 1;
      }
      for (std::uint64_t t = t0; t < t0 + static_cast<std::uint64_t>(n); ++t) {
        Lanes<1> one;
        one.frame = item_frame(t);
        one.live = 1;
        SetCtx(group_id, t, 1, &one);
        const std::uint64_t item_start = steps_executed_;
        StatusOr<Stop> stop =
            Dispatch<1>(one, &phase_pcs_[t], kNoStop, recorder);
        item_weights_[t] += steps_executed_ - item_start;
        if (!stop.ok()) return stop.status();
        ++(*stop == Stop::kDone ? finished : at_barrier);
      }
    }
    if (at_barrier > 0 && finished > 0) {
      return InvalidArgumentError(
          "barrier divergence in kernel '" + p_->name +
          "': not all work-items reach the same barrier");
    }
    if (at_barrier > 0) ++out->barriers_crossed;
    done = finished == wg;
  }
  out->work_items += wg;
  std::uint64_t max_item_weight = 0;
  for (std::uint64_t w : item_weights_) {
    max_item_weight = std::max(max_item_weight, w);
  }
  out->item_weight_sum += steps_executed_ - group_start;
  out->weighted_group_cost += max_item_weight * wg;
  return Status::Ok();
}

Status VmExecutor::RunParallelLoop(Lanes<1>& one, std::uint32_t begin_vpc,
                                   std::int64_t trips, MemRecorder* recorder) {
  constexpr int W = kBatchWidth;
  const CompiledProgram& cp = *code_;
  const VInstr& begin = cp.code[begin_vpc];
  const ParLoop& loop = cp.par_loops[begin.access_bytes];
  const std::int32_t step = static_cast<std::int32_t>(begin.imm);
  std::int32_t* const var =
      reinterpret_cast<std::int32_t*>(one.frame + begin.dst * 4);
  const std::int32_t start = *var;
  auto iteration_var = [&](std::int64_t k) {
    return WrapAdd(start, WrapMul(static_cast<std::int32_t>(k), step));
  };

  Lanes<W> batch;
  batch.frame = frameW_.data();
  for (int w = 0; w < 9; ++w) {
    for (int l = 0; l < W; ++l) batch.ctx[w][l] = one.ctx[w][0];
  }
  // The body never writes its live-ins, so one broadcast serves every
  // batch, until a one-lane run (which may nest a ParallelFor of its own
  // in the batch frame) intervenes.
  bool live_ins_set = false;
  for (std::int64_t k0 = 0; k0 < trips; k0 += W) {
    const int n = static_cast<int>(std::min<std::int64_t>(W, trips - k0));
    if (n >= 2) {
      batch.live = LowLanes(n);
      for (std::uint32_t i = loop.live_begin; i < loop.live_end && !live_ins_set;
           ++i) {
        const RegSpan& r = cp.par_live_in[i];
        std::byte* dst = batch.frame + static_cast<std::size_t>(r.reg) * 4 * W;
        for (int l = 0; l < W; ++l) {
          CopyBytes(dst + static_cast<std::size_t>(l) * r.bytes,
                    one.frame + r.reg * 4, r.bytes);
        }
      }
      live_ins_set = true;
      std::int32_t* lane_var = reinterpret_cast<std::int32_t*>(
          batch.frame + static_cast<std::size_t>(begin.dst) * 4 * W);
      for (int l = 0; l < W; ++l) lane_var[l] = iteration_var(k0 + l);
      BeginBatch();
      std::uint32_t pc = begin_vpc + 1;
      StatusOr<Stop> run = Dispatch<W>(batch, &pc, loop.end_vpc, recorder);
      if (!run.ok()) return run.status();
      const Stop stop = *run;
      if (stop == Stop::kAbort) {
        RollBack(abort_reason_);
      } else if (Commit(batch.live, recorder)) {
        for (int l = 0; l < n; ++l) steps_executed_ += lane_steps_[l];
        continue;
      }
    }
    for (std::int64_t k = k0; k < k0 + n; ++k) {
      *var = iteration_var(k);
      std::uint32_t pc = begin_vpc + 1;
      StatusOr<Stop> stop = Dispatch<1>(one, &pc, loop.end_vpc, recorder);
      if (!stop.ok()) return stop.status();
    }
    live_ins_set = false;
  }
  *var = iteration_var(trips);
  return Status::Ok();
}

void VmExecutor::BeginBatch() {
  lane_steps_.fill(0);
  lane_event_n_.fill(0);
  std::fill(ranges_.begin(), ranges_.end(), Range{~std::uint32_t{0}, 0});
  batch_full_ = 0;
  written_slots_ = 0;
  undo_.clear();
  undo_bytes_.clear();
}

void VmExecutor::LogStore(std::uint8_t slot, std::uint64_t off,
                          std::uint32_t bytes) {
  const std::size_t at = undo_bytes_.size();
  undo_.push_back({off, static_cast<std::uint32_t>(at), 0,
                   static_cast<std::uint16_t>(bytes), slot});
  undo_bytes_.resize(at + bytes);
  std::memcpy(undo_bytes_.data() + at, slots_[slot].host + off, bytes);
  written_slots_ |= std::uint64_t{1} << slot;
}

void VmExecutor::LogAtomic(std::uint8_t slot, std::uint64_t off,
                           std::int32_t value) {
  undo_.push_back({off, 0, value, 0, slot});
  written_slots_ |= std::uint64_t{1} << slot;
}

bool VmExecutor::Commit(Mask live, MemRecorder* recorder) {
  if (written_slots_ != 0 && HasRace(live)) {
    RollBack(Rollback::kRace);
    return false;
  }
  if (recorder != nullptr) {
    for (Mask m = live; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const LaneEvent* events =
          lane_events_.get() + static_cast<std::size_t>(l) * kLaneEventStride;
      for (std::uint32_t left = lane_event_n_[l]; left != 0;) {
        const std::uint32_t n = std::min<std::uint32_t>(
            left, static_cast<std::uint32_t>(MemRecorder::kChunkEvents));
        MemEvent* const out = recorder->Append(n);
        for (std::uint32_t e = 0; e < n; ++e) {
          const LaneEvent ev = events[e];
          out[e] = {ev & kAddrMask,
                    static_cast<std::uint32_t>((ev >> kAddrBits) & 0xff),
                    static_cast<std::uint8_t>(ev >> (kAddrBits + 8))};
        }
        events += n;
        left -= n;
      }
    }
  }
  for (std::size_t v = 0; v < bcount_.size(); ++v) {
    vcount_[v] += bcount_[v];
    bcount_[v] = 0;
  }
  stats_.full_width += batch_full_ * kBatchWidth;
  return true;
}

void VmExecutor::RollBack(Rollback reason) {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    std::byte* host = slots_[it->slot].host + it->off;
    if (it->bytes == 0) {
      std::atomic_ref<std::int32_t>(*reinterpret_cast<std::int32_t*>(host))
          .fetch_sub(it->value, std::memory_order_relaxed);
    } else {
      std::memcpy(host, undo_bytes_.data() + it->data, it->bytes);
    }
  }
  std::fill(bcount_.begin(), bcount_.end(), std::uint64_t{0});
  BeginBatch();
  ++stats_.rollbacks[static_cast<std::size_t>(reason)];
}

bool VmExecutor::HasRace(Mask live) const {
  // First pass: per slot a store or atomic hit, the byte ranges each lane
  // stored to, atomically updated and read (kept while the batch ran).
  // Only slots where a pair of lanes may conflict by range get the exact,
  // byte-level check. Two O(W) shortcuts answer the common cases before
  // the O(W^2) pair pass; the check runs at every commit, and without them
  // the full fp32 sweep runs about 1.2x slower (DESIGN.md §16).
  constexpr int W = kBatchWidth;
  struct Interval {
    std::uint32_t lo;
    std::uint32_t hi;
    int lane;
    std::uint8_t kind;
  };
  auto meets = [](const Range& a, const Range& b) {
    return a.lo < b.hi && b.lo < a.hi;
  };
  std::vector<Interval> spans;
  for (std::uint64_t slots = written_slots_; slots != 0; slots &= slots - 1) {
    const int s = std::countr_zero(slots);
    const Range* const r = ranges_.data() + track_of_[s] * W * 3;
    auto range = [&](int lane, int kind) -> const Range& {
      return r[lane * 3 + kind];
    };
    // Shortcut: the lanes' whole footprints in the slot follow one another
    // without overlap, in lane order or reverse lane order.
    bool up = true;
    bool down = true;
    std::uint32_t prev_lo = 0;
    std::uint32_t prev_hi = 0;
    bool any = false;
    for (Mask m = live; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const Range* const k = r + l * 3;
      const std::uint32_t lo = std::min(std::min(k[0].lo, k[1].lo), k[2].lo);
      const std::uint32_t hi = std::max(std::max(k[0].hi, k[1].hi), k[2].hi);
      if (lo >= hi) continue;  // the lane never touched the slot
      if (any) {
        up = up && prev_hi <= lo;
        down = down && hi <= prev_lo;
      }
      prev_lo = lo;
      prev_hi = hi;
      any = true;
    }
    if (up || down) continue;
    // Shortcut: atomics commute, so a slot no lane stored to or read
    // (histogram bins) cannot race.
    bool stored_or_read = false;
    for (Mask m = live; m != 0 && !stored_or_read; m &= m - 1) {
      const int l = std::countr_zero(m);
      stored_or_read = range(l, MemEvent::kRead).lo < range(l, MemEvent::kRead).hi ||
                       range(l, MemEvent::kWrite).lo < range(l, MemEvent::kWrite).hi;
    }
    if (!stored_or_read) continue;
    bool suspect = false;
    Range zone{~std::uint32_t{0}, 0};  // bytes some other lane may conflict on
    for (Mask mi = live; mi != 0; mi &= mi - 1) {
      const int i = std::countr_zero(mi);
      const Range& store = range(i, MemEvent::kWrite);
      const Range& atomic = range(i, MemEvent::kAtomic);
      for (Mask mj = live & ~(Mask{1} << i); mj != 0; mj &= mj - 1) {
        const int j = std::countr_zero(mj);
        const Range& read = range(j, MemEvent::kRead);
        if (meets(store, read) || meets(store, range(j, MemEvent::kWrite)) ||
            meets(store, range(j, MemEvent::kAtomic)) || meets(atomic, read)) {
          suspect = true;
          zone.lo = std::min({zone.lo, store.lo, atomic.lo});
          zone.hi = std::max({zone.hi, store.hi, atomic.hi});
        }
      }
    }
    if (!suspect) continue;
    // Exact check: sort the slot's accesses inside the zone by start and
    // compare each with the earlier ones still open.
    // (An event of another slot whose simulated range overlaps this one's
    // can only add a spurious conflict: a rollback, never a missed race.)
    spans.clear();
    const std::uint64_t base = slots_[s].sim_addr;
    const std::uint64_t size = slots_[s].size_bytes;
    for (Mask m = live; m != 0; m &= m - 1) {
      const int l = std::countr_zero(m);
      const LaneEvent* const events =
          lane_events_.get() + static_cast<std::size_t>(l) * kLaneEventStride;
      for (std::uint32_t e = 0; e < lane_event_n_[l]; ++e) {
        const LaneEvent ev = events[e];
        const std::uint64_t addr = ev & kAddrMask;
        if (addr < base || addr >= base + size) continue;
        const std::uint32_t lo = static_cast<std::uint32_t>(addr - base);
        const std::uint32_t hi =
            lo + static_cast<std::uint32_t>((ev >> kAddrBits) & 0xff);
        if (lo < zone.hi && zone.lo < hi) {
          spans.push_back(
              {lo, hi, l, static_cast<std::uint8_t>(ev >> (kAddrBits + 8))});
        }
      }
    }
    std::sort(spans.begin(), spans.end(),
              [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
    std::vector<Interval> open;
    for (const Interval& x : spans) {
      std::erase_if(open, [&](const Interval& o) { return o.hi <= x.lo; });
      for (const Interval& o : open) {
        if (o.lane == x.lane) continue;
        const bool both_read =
            o.kind == MemEvent::kRead && x.kind == MemEvent::kRead;
        const bool both_atomic =
            o.kind == MemEvent::kAtomic && x.kind == MemEvent::kAtomic;
        if (!both_read && !both_atomic) return true;
      }
      open.push_back(x);
    }
  }
  return false;
}


// ---- The dispatch loop ----------------------------------------------------
//
// Registers: lane l of the register at unit offset u holds its `lanes`
// elements at frame + u * 4 * W, elements [l * lanes, (l + 1) * lanes) of
// the element type. The element loops below therefore run over all W
// lanes' elements as one flat array when every live lane is active, and
// lane by lane over the active mask otherwise. Work done for lanes that do
// not exist (a tail batch) is never observed; division, memory and every
// other op that can fault or has side effects visits active lanes only.

/// Typed pointer to lane 0 of register `off`.
#define MALISIM_VM_P(T, off) \
  reinterpret_cast<T*>(fr + static_cast<std::size_t>(off) * (4 * W))

/// `body` for every element index i of `n` elements per lane.
#define MALISIM_VM_ELEMS_N(n, body)                                          \
  do {                                                                       \
    const int n_ = (n);                                                      \
    if (W == 1 || full) {                                                    \
      if (n_ == 1) {                                                         \
        for (int i = 0; i < W; ++i) { body; }                                \
      } else if (n_ == 4) {                                                  \
        for (int i = 0; i < 4 * W; ++i) { body; }                            \
      } else {                                                               \
        for (int i = 0; i < W * n_; ++i) { body; }                           \
      }                                                                      \
    } else {                                                                 \
      for (Mask m_ = mask; m_ != 0; m_ &= m_ - 1) {                          \
        const int i0_ = std::countr_zero(m_) * n_;                           \
        for (int i = i0_; i < i0_ + n_; ++i) { body; }                       \
      }                                                                      \
    }                                                                        \
  } while (0)
#define MALISIM_VM_ELEMS(body) MALISIM_VM_ELEMS_N(lanes, body)

/// `body` for every active lane l (the ops that fault or touch memory).
#define MALISIM_VM_ACTIVE(body)                                              \
  do {                                                                       \
    if constexpr (W == 1) {                                                  \
      const int l = 0;                                                       \
      body;                                                                  \
    } else {                                                                 \
      for (Mask m_ = mask; m_ != 0; m_ &= m_ - 1) {                          \
        const int l = std::countr_zero(m_);                                  \
        body;                                                                \
      }                                                                      \
    }                                                                        \
  } while (0)

/// `body` for every lane l to update (all W lanes when every live lane is
/// active, else the active ones).
#define MALISIM_VM_LANES(body)                                               \
  do {                                                                       \
    if (W == 1 || full) {                                                    \
      for (int l = 0; l < W; ++l) { body; }                                  \
    } else {                                                                 \
      for (Mask m_ = mask; m_ != 0; m_ &= m_ - 1) {                          \
        const int l = std::countr_zero(m_);                                  \
        body;                                                                \
      }                                                                      \
    }                                                                        \
  } while (0)

/// The active lanes for which `cond` (over lane l) holds.
#define MALISIM_VM_BITS(cond)                                                \
  [&]() -> Mask {                                                            \
    Mask bits_ = 0;                                                          \
    for (int l = 0; l < W; ++l) bits_ |= static_cast<Mask>((cond) ? 1 : 0) << l; \
    return bits_ & mask;                                                     \
  }()

/// Element-wise op over registers of element type T.
#define MALISIM_VM_ARITH(T, EXPR)                                            \
  {                                                                          \
    T* const d = MALISIM_VM_P(T, in.dst);                                    \
    const T* const a = MALISIM_VM_P(T, in.a);                                \
    const T* const b = MALISIM_VM_P(T, in.b);                                \
    const T* const c = MALISIM_VM_P(T, in.c);                                \
    (void)a;                                                                 \
    (void)b;                                                                 \
    (void)c;                                                                 \
    MALISIM_VM_ELEMS(d[i] = (EXPR));                                         \
  }

/// Lane-wise binary operator over all four scalar types; integers go
/// through the wrapping IFN (types.h), since signed overflow is UB.
#define MALISIM_VM_BIN(NAME, OPR, IFN)                                       \
  case VOp::NAME##F32: MALISIM_VM_ARITH(float, a[i] OPR b[i]) break;         \
  case VOp::NAME##F64: MALISIM_VM_ARITH(double, a[i] OPR b[i]) break;        \
  case VOp::NAME##I32: MALISIM_VM_ARITH(std::int32_t, IFN(a[i], b[i])) break; \
  case VOp::NAME##I64: MALISIM_VM_ARITH(std::int64_t, IFN(a[i], b[i])) break;

/// Lane-wise binary function (min/max style, distinct float/int funcs).
#define MALISIM_VM_BIN_FN(NAME, FFN, IFN)                                    \
  case VOp::NAME##F32: MALISIM_VM_ARITH(float, FFN(a[i], b[i])) break;       \
  case VOp::NAME##F64: MALISIM_VM_ARITH(double, FFN(a[i], b[i])) break;      \
  case VOp::NAME##I32: MALISIM_VM_ARITH(std::int32_t, IFN(a[i], b[i])) break; \
  case VOp::NAME##I64: MALISIM_VM_ARITH(std::int64_t, IFN(a[i], b[i])) break;

/// Lane-wise float unary function pair.
#define MALISIM_VM_UN_F(NAME, FN32, FN64)                                    \
  case VOp::NAME##F32: MALISIM_VM_ARITH(float, FN32(a[i])) break;            \
  case VOp::NAME##F64: MALISIM_VM_ARITH(double, FN64(a[i])) break;

/// Lane-wise integer bitwise binary operator pair.
#define MALISIM_VM_BIN_I(NAME, OPR)                                          \
  case VOp::NAME##I32: MALISIM_VM_ARITH(std::int32_t, a[i] OPR b[i]) break;  \
  case VOp::NAME##I64: MALISIM_VM_ARITH(std::int64_t, a[i] OPR b[i]) break;

/// Lane-wise comparison into an i32 mask, per source type.
#define MALISIM_VM_CMP_T(T)                                                  \
  {                                                                          \
    std::int32_t* const d = MALISIM_VM_P(std::int32_t, in.dst);              \
    const T* const a = MALISIM_VM_P(T, in.a);                                \
    const T* const b = MALISIM_VM_P(T, in.b);                                \
    MALISIM_VM_ELEMS(d[i] = CMP_(a[i], b[i]));                               \
  }
#define MALISIM_VM_CMP(NAME, OPR)                                            \
  case VOp::NAME##F32: {                                                     \
    auto CMP_ = [](auto x, auto y) { return x OPR y; };                      \
    MALISIM_VM_CMP_T(float) break;                                           \
  }                                                                          \
  case VOp::NAME##F64: {                                                     \
    auto CMP_ = [](auto x, auto y) { return x OPR y; };                      \
    MALISIM_VM_CMP_T(double) break;                                          \
  }                                                                          \
  case VOp::NAME##I32: {                                                     \
    auto CMP_ = [](auto x, auto y) { return x OPR y; };                      \
    MALISIM_VM_CMP_T(std::int32_t) break;                                    \
  }                                                                          \
  case VOp::NAME##I64: {                                                     \
    auto CMP_ = [](auto x, auto y) { return x OPR y; };                      \
    MALISIM_VM_CMP_T(std::int64_t) break;                                    \
  }

/// Fused scalar compare-and-branch: the lanes whose condition is FALSE
/// jump. (Step weights come from the dispatch-time accounting.)
#define MALISIM_VM_CMPBR_T(T, OPR)                                           \
  {                                                                          \
    const T* const a = MALISIM_VM_P(T, in.a);                                \
    const T* const b = MALISIM_VM_P(T, in.b);                                \
    if constexpr (W == 1) {                                                  \
      if (!(a[0] OPR b[0])) next = in.target;                                \
    } else {                                                                 \
      next = if_branch(in, MALISIM_VM_BITS(!(a[l] OPR b[l])));                 \
    }                                                                        \
  }
#define MALISIM_VM_CMPBR(NAME, OPR)                                          \
  case VOp::NAME##F32: MALISIM_VM_CMPBR_T(float, OPR) break;                 \
  case VOp::NAME##F64: MALISIM_VM_CMPBR_T(double, OPR) break;                \
  case VOp::NAME##I32: MALISIM_VM_CMPBR_T(std::int32_t, OPR) break;          \
  case VOp::NAME##I64: MALISIM_VM_CMPBR_T(std::int64_t, OPR) break;

/// Per-type cases for the lane-structure ops (splat, extract, ...): BODY
/// sees T.
#define MALISIM_VM_TYPED(NAME, BODY)                                         \
  case VOp::NAME##F32: { using T = float; BODY } break;                      \
  case VOp::NAME##F64: { using T = double; BODY } break;                     \
  case VOp::NAME##I32: { using T = std::int32_t; BODY } break;               \
  case VOp::NAME##I64: { using T = std::int64_t; BODY } break;

/// Hoists what every lane of a memory op on slot in.slot needs: the
/// slot's host bytes, size and simulated address, the access width and
/// element shift, and (in a batch) the slot's race-check ranges, or null
/// when nothing stores to it.
#define MALISIM_VM_MEM_SETUP(BYTES)                                          \
  const Slot& mslot_ = slots[in.slot];                                       \
  std::byte* const host_ = mslot_.host;                                      \
  const std::uint64_t size_ = mslot_.size_bytes;                             \
  const std::uint64_t sim_ = mslot_.sim_addr;                                \
  const std::uint8_t slot_ = in.slot;                                        \
  const int shift_ = in.aux8;                                                \
  const std::uint32_t bytes_ = (BYTES);                                      \
  Range* const range_ = W > 1 && track_of[slot_] != kUntracked               \
                            ? ranges + track_of[slot_] * W * 3               \
                            : nullptr;                                       \
  (void)sim_;                                                                \
  (void)range_

/// Lane l's element `elem` of the hoisted slot: its byte offset off_, or a
/// fault naming `what` when it lies out of bounds.
#define MALISIM_VM_MEM_LANE(elem, what)                                      \
  const std::int64_t e_ = (elem);                                            \
  const std::uint64_t off_ = static_cast<std::uint64_t>(e_) << shift_;       \
  if (e_ < 0 || off_ + bytes_ > size_) {                                     \
    MALISIM_VM_FAULT(OutOfRangeError(std::string(what) +                     \
                                     " out of bounds in kernel '" +          \
                                     p_->name + "' (element " +              \
                                     std::to_string(e_) + ")"));             \
  }

/// Every active lane's load of bytes_ from element idx[l] + imm of the
/// slot into lane l of register DST_OFF, with its memory event.
#define MALISIM_VM_LOAD_LANES(IDX_OFF, IMM, BYTES, DST_OFF)                  \
  do {                                                                       \
    MALISIM_VM_MEM_SETUP(BYTES);                                             \
    const std::int32_t* const idx_ = MALISIM_VM_P(std::int32_t, IDX_OFF);    \
    std::byte* const ld_ = MALISIM_VM_P(std::byte, DST_OFF);                 \
    const std::int64_t imm_ = (IMM);                                         \
    if (bytes_ == 4) { /* scalar f32/i32: the copy inlines to one move */    \
      MALISIM_VM_ACTIVE({                                                    \
        MALISIM_VM_MEM_LANE(static_cast<std::int64_t>(idx_[l]) + imm_,       \
                            "load");                                         \
        std::memcpy(ld_ + static_cast<std::size_t>(l) * 4, host_ + off_, 4);  \
        MALISIM_VM_RECORD(l, off_, MemEvent::kRead);                         \
      });                                                                    \
    } else {                                                                 \
      MALISIM_VM_ACTIVE({                                                    \
        MALISIM_VM_MEM_LANE(static_cast<std::int64_t>(idx_[l]) + imm_,       \
                            "load");                                         \
        CopyBytes(ld_ + static_cast<std::size_t>(l) * bytes_, host_ + off_,  \
                  bytes_);                                                   \
        MALISIM_VM_RECORD(l, off_, MemEvent::kRead);                         \
      });                                                                    \
    }                                                                        \
  } while (0)

/// Fused load + consumer: a full kLoad (index register and load
/// destination packed into target, bytecode.h), then the consumer BODY.
#define MALISIM_VM_LOADOP(NAME, T, BODY)                                     \
  case VOp::NAME: {                                                          \
    MALISIM_VM_LOAD_LANES(in.target & 0xffff, in.imm, in.access_bytes,      \
                          in.target >> 16);                                  \
    MALISIM_VM_ARITH(T, BODY)                                                \
    break;                                                                   \
  }

/// Loop back-edge over counter/bound registers (cnt_off, bnd_off): the
/// active lanes step their counters, and those still below their bound
/// jump to `body_pc`.
#define MALISIM_VM_BACKEDGE_TAIL(cnt_off, bnd_off, step, body_pc)            \
  do {                                                                       \
    std::int32_t* const cnt_ = MALISIM_VM_P(std::int32_t, cnt_off);          \
    const std::int32_t* const bnd_ = MALISIM_VM_P(std::int32_t, bnd_off);    \
    const std::int32_t step_ = static_cast<std::int32_t>(step);              \
    if constexpr (W == 1) {                                                  \
      cnt_[0] = WrapAdd(cnt_[0], step_);                                     \
      if (cnt_[0] < bnd_[0]) next = (body_pc);                               \
    } else {                                                                 \
      MALISIM_VM_ELEMS_N(1, cnt_[i] = WrapAdd(cnt_[i], step_));              \
      next = loop_end(MALISIM_VM_BITS(cnt_[l] < bnd_[l]), (body_pc));        \
    }                                                                        \
  } while (0)

/// Fused arithmetic + loop back-edge: BODY, then the matching kLoopEnd's
/// counter step and conditional jump. Counter and bound register offsets
/// are packed into access_bytes (bytecode.h).
#define MALISIM_VM_BACKEDGE(NAME, T, BODY)                                   \
  case VOp::NAME: {                                                          \
    MALISIM_VM_ARITH(T, BODY)                                                \
    MALISIM_VM_BACKEDGE_TAIL(in.access_bytes & 0xffff, in.access_bytes >> 16, \
                             in.imm, in.target);                             \
    break;                                                                   \
  }

/// The triple fusion: a zero-offset kLoad (byte count = lanes << aux8,
/// since load and consumer widths match by construction), the consumer
/// BODY, then the loop back-edge. imm packs step | branch-target << 32
/// (bytecode.h).
#define MALISIM_VM_LOADBACKEDGE(NAME, T, BODY)                               \
  case VOp::NAME: {                                                          \
    MALISIM_VM_LOAD_LANES(in.target & 0xffff, 0,                             \
                          static_cast<std::uint32_t>(in.lanes) << in.aux8,   \
                          in.target >> 16);                                  \
    MALISIM_VM_ARITH(T, BODY)                                                \
    MALISIM_VM_BACKEDGE_TAIL(                                                \
        in.access_bytes & 0xffff, in.access_bytes >> 16, in.imm,             \
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(in.imm) >> 32)); \
    break;                                                                   \
  }

template <int W, bool kProf>
StatusOr<VmExecutor::Stop> VmExecutor::Run(Lanes<W>& L, std::uint32_t* pc,
                                           std::uint32_t stop_vpc,
                                           MemRecorder* recorder) {
  static_assert(W >= 1 && W <= 32);
  const CompiledProgram& cp = *code_;
  const VInstr* const code = cp.code.data();
  const std::uint32_t end = static_cast<std::uint32_t>(cp.code.size());
  // Hoisted member pointers: every store through the frame or the slot
  // host memory could alias `this` as far as the compiler knows, forcing
  // the vector data pointers to be reloaded each iteration. Const locals
  // pin them in registers for the whole run.
  std::byte* const fr = L.frame;
  std::uint64_t* const counts = W == 1 ? vcount_.data() : bcount_.data();
  LaneEvent* const lane_ev = lane_events_.get();
  const std::uint8_t* const track_of = track_of_.data();
  Range* const ranges = ranges_.data();
  // The lanes' event counts, in a local the frame and slot stores cannot
  // alias; written back at every stop but an abort.
  std::uint32_t nev[W];
  for (int l = 0; l < W; ++l) nev[l] = lane_event_n_[l];
  const Slot* const slots = slots_.data();
  const RegValue* const cpool = cp.const_pool.data();
  const ScalarValue* const scalars = bindings_.scalars.data();
  std::uint32_t vpc = *pc;

  // One-lane runs count steps here and publish them on exit. Batches keep
  // the active mask and add steps per lane whenever the mask changes (and
  // at every stop): `acc` steps and `disp` dispatches since then.
  std::uint64_t steps = 0;
  const Mask live = L.live;
  Mask mask = live;
  bool full = true;  // mask == live: the flat element loops apply
  std::uint64_t nact = static_cast<std::uint64_t>(std::popcount(live));
  std::uint64_t acc = 0;
  std::uint64_t disp = 0;
  Reconv* const stack = reconv_.data();
  const std::uint32_t stack_cap = static_cast<std::uint32_t>(reconv_.size());
  std::uint32_t sp = 0;
  std::uint32_t rpc = kNoStop;  // the top entry's reconvergence vpc

  auto flush_epoch = [&]() {
    if constexpr (W > 1) {
      for (Mask m = mask; m != 0; m &= m - 1) {
        lane_steps_[std::countr_zero(m)] += acc;
      }
      if (nact == W) batch_full_ += disp;
      acc = 0;
      disp = 0;
    }
  };
  // Publishes the batch's steps and event counts at a stop.
  auto stop_batch = [&]() {
    flush_epoch();
    if constexpr (W > 1) {
      for (int l = 0; l < W; ++l) lane_event_n_[l] = nev[l];
    }
  };
  auto set_mask = [&](Mask m) {
    mask = m;
    full = m == live;
    nact = static_cast<std::uint64_t>(std::popcount(m));
  };
  // Lanes `run` continue at run_pc while lanes `wait` go to wait_pc; all
  // meet at R. Returns run_pc, or kNoStop when the stack is full (the
  // batch then rolls back: always correct, merely slower).
  auto diverge = [&](Mask run, std::uint32_t run_pc, Mask wait,
                     std::uint32_t wait_pc, std::uint32_t R) -> std::uint32_t {
    flush_epoch();
    const bool waits_at_r = wait_pc == R;
    if (!(waits_at_r && sp > 0 && stack[sp - 1].pc == R &&
          stack[sp - 1].pending == 0)) {
      if (sp == stack_cap) return kNoStop;
      stack[sp++] = {R, wait_pc, mask, waits_at_r ? Mask{0} : wait};
      rpc = R;
    }
    set_mask(run);
    return run_pc;
  };
  // An if: the lanes in `taken` (condition false) jump to in.target.
  auto if_branch = [&](const VInstr& in, Mask taken) -> std::uint32_t {
    if (taken == 0) return vpc + 1;
    if (taken == mask) return in.target;
    return diverge(mask & ~taken, vpc + 1, taken, in.target,
                   static_cast<std::uint32_t>(in.imm));
  };
  // A loop back-edge: the lanes in `cont` jump back to body_pc.
  auto loop_end = [&](Mask cont, std::uint32_t body_pc) -> std::uint32_t {
    if (cont == mask) return body_pc;
    if (cont == 0) return vpc + 1;
    return diverge(cont, body_pc, mask & ~cont, vpc + 1, vpc + 1);
  };

// Runtime fault. One lane: commit the step count and suspension point, then
// surface the error. The interpreter counts the faulting source step
// (count-before-execute) but never reaches the later steps of a fused
// pair, so the dispatch-time `steps += weight` is trimmed back to 1 for
// this instruction; FlushCounts likewise backs the unreached tally slots
// (and any memory-traffic counters) out via fault_vpc_. A batch just
// aborts: its one-lane re-run reports the fault.
#define MALISIM_VM_FAULT(expr)                                       \
  do {                                                               \
    if constexpr (W == 1) {                                          \
      steps_executed_ += steps - (in.weight - std::uint64_t{1});     \
      fault_vpc_ = vpc;                                              \
      *pc = vpc;                                                     \
      return (expr);                                                 \
    } else {                                                         \
      abort_reason_ = Rollback::kFault;                              \
      return Stop::kAbort;                                           \
    }                                                                \
  } while (0)

// A memory event of the hoisted slot (MALISIM_VM_MEM_SETUP): straight to
// the recorder for one lane, into lane l's buffer for a batch.
#define MALISIM_VM_RECORD(l, off, kind)                                      \
  do {                                                                       \
    if constexpr (W == 1) {                                                  \
      if (recorder != nullptr) recorder->Record(sim_ + (off), bytes_, kind); \
    } else {                                                                 \
      std::uint32_t& n_ev_ = nev[l];                                         \
      if (n_ev_ == kLaneEventCap) {                                          \
        abort_reason_ = Rollback::kEventCap;                                 \
        return Stop::kAbort;                                                 \
      }                                                                      \
      const std::uint32_t off_ev_ = static_cast<std::uint32_t>(off);         \
      lane_ev[static_cast<std::size_t>(l) * kLaneEventStride + n_ev_++] =     \
          (sim_ + (off)) | (std::uint64_t{bytes_} << kAddrBits) |            \
          (std::uint64_t{kind} << (kAddrBits + 8));                          \
      if (range_ != nullptr) {                                               \
        Range& r_ = range_[l * 3 + (kind)];                                  \
        r_.lo = std::min(r_.lo, off_ev_);                                    \
        r_.hi = std::max(r_.hi, off_ev_ + bytes_);                           \
      }                                                                      \
    }                                                                        \
  } while (0)

  for (;;) {
    if constexpr (W > 1) {
      // Lanes arriving at the reconvergence point: run the pending path,
      // or rejoin.
      while (vpc == rpc) {
        Reconv& top = stack[sp - 1];
        flush_epoch();
        if (top.pending != 0) {
          set_mask(top.pending);
          top.pending = 0;
          vpc = top.pending_pc;
        } else {
          set_mask(top.join);
          --sp;
          rpc = sp > 0 ? stack[sp - 1].pc : kNoStop;
        }
      }
    }
    if (vpc >= end) break;
    // A copy, so the frame and slot stores below cannot force reloads.
    const VInstr in = code[vpc];
    if constexpr (W == 1) {
      ++counts[vpc];
      steps += in.weight;
    } else {
      counts[vpc] += nact;
      acc += in.weight;
      ++disp;
    }
    if constexpr (kProf) {
      // Sampling stays in source terms: the tick records the dispatched
      // instruction's *source* pc, so op/block attribution matches the
      // interpreter's (fused instructions attribute to their first).
      if (--host_time_->countdown == 0) {
        HostTimeSinkTick(host_time_, *p_, cp.src_pc[vpc]);
      }
    }
    const int lanes = in.lanes;
    std::uint32_t next = vpc + 1;
    switch (in.op) {
      case VOp::kNop:
        break;
      case VOp::kConst: {
        std::byte* const d = MALISIM_VM_P(std::byte, in.dst);
        const std::uint32_t bytes = in.access_bytes;
        MALISIM_VM_LANES(CopyBytes(d + static_cast<std::size_t>(l) * bytes,
                                   cpool[in.target].raw, bytes));
        break;
      }
      case VOp::kCtx: {
        std::int32_t* const d = MALISIM_VM_P(std::int32_t, in.dst);
        const std::int32_t* const src = L.ctx[in.imm];
        MALISIM_VM_LANES(d[l] = src[l]);
        break;
      }
      case VOp::kLaunch: {
        std::int32_t* const d = MALISIM_VM_P(std::int32_t, in.dst);
        const std::int32_t v = launch_v_[in.imm];
        MALISIM_VM_LANES(d[l] = v);
        break;
      }
      case VOp::kMov: {
        std::byte* const d = MALISIM_VM_P(std::byte, in.dst);
        const std::byte* const a = MALISIM_VM_P(std::byte, in.a);
        const std::uint32_t bytes = in.access_bytes;
        if (d == a) break;
        if (W == 1 || full) {
          switch (bytes) {  // constant sizes inline
            case 4: std::memcpy(d, a, 4 * W); break;
            case 8: std::memcpy(d, a, 8 * W); break;
            case 16: std::memcpy(d, a, 16 * W); break;
            default: std::memcpy(d, a, static_cast<std::size_t>(bytes) * W);
          }
        } else {
          MALISIM_VM_LANES(CopyBytes(d + static_cast<std::size_t>(l) * bytes,
                                     a + static_cast<std::size_t>(l) * bytes,
                                     bytes));
        }
        break;
      }
      case VOp::kCvt: {
        const ScalarType from = static_cast<ScalarType>(in.aux8 >> 2);
        const ScalarType to = static_cast<ScalarType>(in.aux8 & 3);
        std::byte* const d = MALISIM_VM_P(std::byte, in.dst);
        const std::byte* const a = MALISIM_VM_P(std::byte, in.a);
        MALISIM_VM_ELEMS(ConvertElem(from, to, a, d, i));
        break;
      }
      case VOp::kArgF32: {
        float* const d = MALISIM_VM_P(float, in.dst);
        const float v =
            static_cast<float>(scalars[static_cast<std::size_t>(in.imm)].f);
        MALISIM_VM_LANES(d[l] = v);
        break;
      }
      case VOp::kArgF64: {
        double* const d = MALISIM_VM_P(double, in.dst);
        const double v = scalars[static_cast<std::size_t>(in.imm)].f;
        MALISIM_VM_LANES(d[l] = v);
        break;
      }
      case VOp::kArgI32: {
        std::int32_t* const d = MALISIM_VM_P(std::int32_t, in.dst);
        const std::int32_t v = static_cast<std::int32_t>(
            scalars[static_cast<std::size_t>(in.imm)].i);
        MALISIM_VM_LANES(d[l] = v);
        break;
      }
      case VOp::kArgI64: {
        std::int64_t* const d = MALISIM_VM_P(std::int64_t, in.dst);
        const std::int64_t v = scalars[static_cast<std::size_t>(in.imm)].i;
        MALISIM_VM_LANES(d[l] = v);
        break;
      }
      MALISIM_VM_BIN(kAdd, +, WrapAdd)
      MALISIM_VM_BIN(kSub, -, WrapSub)
      MALISIM_VM_BIN(kMul, *, WrapMul)
      case VOp::kDivF32: MALISIM_VM_ARITH(float, a[i] / b[i]) break;
      case VOp::kDivF64: MALISIM_VM_ARITH(double, a[i] / b[i]) break;
#define MALISIM_VM_IDIV(T, OPR)                                              \
  {                                                                          \
    T* const d = MALISIM_VM_P(T, in.dst);                                    \
    const T* const a = MALISIM_VM_P(T, in.a);                                \
    const T* const b = MALISIM_VM_P(T, in.b);                                \
    MALISIM_VM_ACTIVE(for (int e = 0; e < lanes; ++e) {                      \
      const int i = l * lanes + e;                                           \
      if (b[i] == 0) {                                                       \
        MALISIM_VM_FAULT(InvalidArgumentError("integer division by zero"));  \
      }                                                                      \
      if (DivOverflows(a[i], b[i])) {                                        \
        MALISIM_VM_FAULT(InvalidArgumentError("integer division overflow")); \
      }                                                                      \
      d[i] = a[i] OPR b[i];                                                  \
    });                                                                      \
  }
      case VOp::kDivI32:
      case VOp::kIDivI32: MALISIM_VM_IDIV(std::int32_t, /) break;
      case VOp::kDivI64:
      case VOp::kIDivI64: MALISIM_VM_IDIV(std::int64_t, /) break;
      case VOp::kIRemI32: MALISIM_VM_IDIV(std::int32_t, %) break;
      case VOp::kIRemI64: MALISIM_VM_IDIV(std::int64_t, %) break;
#undef MALISIM_VM_IDIV
      MALISIM_VM_BIN_FN(kMin, std::fmin, std::min)
      MALISIM_VM_BIN_FN(kMax, std::fmax, std::max)
      case VOp::kFmaF32: MALISIM_VM_ARITH(float, a[i] * b[i] + c[i]) break;
      case VOp::kFmaF64: MALISIM_VM_ARITH(double, a[i] * b[i] + c[i]) break;
      case VOp::kNegF32: MALISIM_VM_ARITH(float, -a[i]) break;
      case VOp::kNegF64: MALISIM_VM_ARITH(double, -a[i]) break;
      case VOp::kNegI32: MALISIM_VM_ARITH(std::int32_t, WrapNeg(a[i])) break;
      case VOp::kNegI64: MALISIM_VM_ARITH(std::int64_t, WrapNeg(a[i])) break;
      case VOp::kAbsF32: MALISIM_VM_ARITH(float, std::fabs(a[i])) break;
      case VOp::kAbsF64: MALISIM_VM_ARITH(double, std::fabs(a[i])) break;
      case VOp::kAbsI32: MALISIM_VM_ARITH(std::int32_t, WrapAbs(a[i])) break;
      case VOp::kAbsI64: MALISIM_VM_ARITH(std::int64_t, WrapAbs(a[i])) break;
      MALISIM_VM_UN_F(kFloor, std::floor, std::floor)
      MALISIM_VM_UN_F(kSqrt, std::sqrt, std::sqrt)
      MALISIM_VM_UN_F(kRsqrt, 1.0f / std::sqrt, 1.0 / std::sqrt)
      MALISIM_VM_UN_F(kExp, std::exp, std::exp)
      MALISIM_VM_UN_F(kLog, std::log, std::log)
      MALISIM_VM_UN_F(kSin, std::sin, std::sin)
      MALISIM_VM_UN_F(kCos, std::cos, std::cos)
      MALISIM_VM_BIN_I(kAnd, &)
      MALISIM_VM_BIN_I(kOr, |)
      MALISIM_VM_BIN_I(kXor, ^)
      case VOp::kNotI32: MALISIM_VM_ARITH(std::int32_t, ~a[i]) break;
      case VOp::kNotI64: MALISIM_VM_ARITH(std::int64_t, ~a[i]) break;
      case VOp::kShlI32:
        MALISIM_VM_ARITH(std::int32_t,
                         static_cast<std::int32_t>(
                             static_cast<std::uint32_t>(a[i]) << in.imm))
        break;
      case VOp::kShlI64:
        MALISIM_VM_ARITH(std::int64_t,
                         static_cast<std::int64_t>(
                             static_cast<std::uint64_t>(a[i]) << in.imm))
        break;
      case VOp::kShrI32:
        MALISIM_VM_ARITH(std::int32_t,
                         static_cast<std::int32_t>(
                             static_cast<std::uint32_t>(a[i]) >> in.imm))
        break;
      case VOp::kShrI64:
        MALISIM_VM_ARITH(std::int64_t,
                         static_cast<std::int64_t>(
                             static_cast<std::uint64_t>(a[i]) >> in.imm))
        break;
      MALISIM_VM_CMP(kCmpLt, <)
      MALISIM_VM_CMP(kCmpLe, <=)
      MALISIM_VM_CMP(kCmpEq, ==)
      MALISIM_VM_CMP(kCmpNe, !=)
      MALISIM_VM_CMPBR(kCmpBrLt, <)
      MALISIM_VM_CMPBR(kCmpBrLe, <=)
      MALISIM_VM_CMPBR(kCmpBrEq, ==)
      MALISIM_VM_CMPBR(kCmpBrNe, !=)
      MALISIM_VM_TYPED(kSelect, {
        T* const d = MALISIM_VM_P(T, in.dst);
        const std::int32_t* const a = MALISIM_VM_P(std::int32_t, in.a);
        const T* const b = MALISIM_VM_P(T, in.b);
        const T* const c = MALISIM_VM_P(T, in.c);
        MALISIM_VM_ELEMS(d[i] = a[i] ? b[i] : c[i]);
      })
      MALISIM_VM_TYPED(kSplat, {
        T* const d = MALISIM_VM_P(T, in.dst);
        const T* const a = MALISIM_VM_P(T, in.a);
        MALISIM_VM_LANES(for (int e = 0; e < lanes; ++e) {
          d[l * lanes + e] = a[l];
        });
      })
      MALISIM_VM_TYPED(kExtract, {
        T* const d = MALISIM_VM_P(T, in.dst);
        const T* const a = MALISIM_VM_P(T, in.a);
        const int src_lanes = in.aux8;
        MALISIM_VM_LANES(d[l] = a[l * src_lanes + in.imm]);
      })
      MALISIM_VM_TYPED(kInsert, {
        T* const d = MALISIM_VM_P(T, in.dst);
        const T* const a = MALISIM_VM_P(T, in.a);
        const T* const b = MALISIM_VM_P(T, in.b);
        MALISIM_VM_LANES({
          T tmp[kMaxLanes];
          for (int e = 0; e < lanes; ++e) tmp[e] = a[l * lanes + e];
          tmp[in.imm] = b[l];
          for (int e = 0; e < lanes; ++e) d[l * lanes + e] = tmp[e];
        });
      })
      MALISIM_VM_TYPED(kSlide, {
        T* const d = MALISIM_VM_P(T, in.dst);
        const T* const a = MALISIM_VM_P(T, in.a);
        const T* const b = MALISIM_VM_P(T, in.b);
        const int shift = static_cast<int>(in.imm);
        MALISIM_VM_LANES({
          T tmp[kMaxLanes];  // dst may alias a or b
          for (int e = 0; e < lanes; ++e) {
            const int s = e + shift;
            tmp[e] = s < lanes ? a[l * lanes + s] : b[l * lanes + s - lanes];
          }
          for (int e = 0; e < lanes; ++e) d[l * lanes + e] = tmp[e];
        });
      })
      case VOp::kVSumF32: {
        float* const d = MALISIM_VM_P(float, in.dst);
        const float* const a = MALISIM_VM_P(float, in.a);
        const int n = in.aux8;
        MALISIM_VM_LANES({
          float s = 0.0f;
          for (int e = 0; e < n; ++e) s += a[l * n + e];
          d[l] = s;
        });
        break;
      }
      case VOp::kVSumF64: {
        double* const d = MALISIM_VM_P(double, in.dst);
        const double* const a = MALISIM_VM_P(double, in.a);
        const int n = in.aux8;
        MALISIM_VM_LANES({
          double s = 0.0;
          for (int e = 0; e < n; ++e) s += a[l * n + e];
          d[l] = s;
        });
        break;
      }
      case VOp::kVSumI32: {
        std::int32_t* const d = MALISIM_VM_P(std::int32_t, in.dst);
        const std::int32_t* const a = MALISIM_VM_P(std::int32_t, in.a);
        const int n = in.aux8;
        MALISIM_VM_LANES({
          std::int32_t s = 0;
          for (int e = 0; e < n; ++e) s = WrapAdd(s, a[l * n + e]);
          d[l] = s;
        });
        break;
      }
      case VOp::kVSumI64: {
        std::int64_t* const d = MALISIM_VM_P(std::int64_t, in.dst);
        const std::int64_t* const a = MALISIM_VM_P(std::int64_t, in.a);
        const int n = in.aux8;
        MALISIM_VM_LANES({
          std::int64_t s = 0;
          for (int e = 0; e < n; ++e) s = WrapAdd(s, a[l * n + e]);
          d[l] = s;
        });
        break;
      }
      case VOp::kLoad:
        MALISIM_VM_LOAD_LANES(in.a, in.imm, in.access_bytes, in.dst);
        break;
      case VOp::kStore: {
        MALISIM_VM_MEM_SETUP(in.access_bytes);
        const std::byte* const a = MALISIM_VM_P(std::byte, in.a);
        const std::int32_t* const idx = MALISIM_VM_P(std::int32_t, in.b);
        const std::int64_t imm = in.imm;
        MALISIM_VM_ACTIVE({
          MALISIM_VM_MEM_LANE(static_cast<std::int64_t>(idx[l]) + imm, "store");
          if constexpr (W > 1) LogStore(slot_, off_, bytes_);
          CopyBytes(host_ + off_, a + static_cast<std::size_t>(l) * bytes_,
                    bytes_);
          MALISIM_VM_RECORD(l, off_, MemEvent::kWrite);
        });
        break;
      }
      case VOp::kAtomicAddI32: {
        MALISIM_VM_MEM_SETUP(4);
        const std::int32_t* const a = MALISIM_VM_P(std::int32_t, in.a);
        const std::int32_t* const idx = MALISIM_VM_P(std::int32_t, in.b);
        const std::int64_t imm = in.imm;
        MALISIM_VM_ACTIVE({
          const std::int64_t elem = static_cast<std::int64_t>(idx[l]) + imm;
          const std::uint64_t off = static_cast<std::uint64_t>(elem) << shift_;
          if (elem < 0 || off + 4 > size_) {
            MALISIM_VM_FAULT(OutOfRangeError(
                "atomic out of bounds in kernel '" + p_->name + "'"));
          }
          // Real atomic RMW: work-groups may execute on concurrent host
          // threads and integer addition commutes, so the final image is
          // bit-identical for every interleaving (and a rollback subtracts
          // the same amount). Alignment holds because bindings are
          // element-aligned.
          if constexpr (W > 1) LogAtomic(slot_, off, a[l]);
          std::atomic_ref<std::int32_t>(
              *reinterpret_cast<std::int32_t*>(host_ + off))
              .fetch_add(a[l], std::memory_order_relaxed);
          MALISIM_VM_RECORD(l, off, MemEvent::kAtomic);
        });
        break;
      }
      case VOp::kBarrier:
        // Counted in the deferred histogram/tally but not in step weights
        // (the interpreter's RunToBarrier intercepts barriers before Step;
        // the compiler gave barriers weight 0). A batch stops here only in
        // lockstep; lanes that reach it split roll the batch back.
        if constexpr (W == 1) {
          steps_executed_ += steps;
        } else {
          if (sp != 0 || mask != live) {
            abort_reason_ = Rollback::kSplit;
            return Stop::kAbort;
          }
          stop_batch();
        }
        *pc = vpc + 1;
        return Stop::kBarrier;
      case VOp::kParLoopBegin:
      case VOp::kLoopBegin: {
        std::int32_t* const d = MALISIM_VM_P(std::int32_t, in.dst);
        const std::int32_t* const a = MALISIM_VM_P(std::int32_t, in.a);
        const std::int32_t* const b = MALISIM_VM_P(std::int32_t, in.b);
        if constexpr (W == 1) {
          d[0] = a[0];
          if (d[0] >= b[0]) {
            next = in.target;
          } else if (in.op == VOp::kParLoopBegin && batch_ok_ &&
                     static_cast<std::int32_t>(in.imm) > 0) {
            // A ParallelFor: run its iterations as lane batches, then
            // continue past its end.
            const std::int64_t step = static_cast<std::int32_t>(in.imm);
            const std::int64_t trips =
                (static_cast<std::int64_t>(b[0]) - d[0] + step - 1) / step;
            // A variable that would wrap past INT32_MAX keeps the loop
            // going in the sequential semantics: leave that to the plain
            // loop.
            if (trips >= 2 && d[0] + trips * step <= INT32_MAX) {
              steps_executed_ += steps;
              steps = 0;
              const Status st =
                  RunParallelLoop(L, vpc, trips, recorder);
              if (!st.ok()) return st;
              next = in.target;
            }
          }
        } else {
          MALISIM_VM_ELEMS_N(1, d[i] = a[i]);
          const Mask skip = MALISIM_VM_BITS(d[l] >= b[l]);
          if (skip == mask) {
            next = in.target;
          } else if (skip != 0) {
            next = diverge(mask & ~skip, vpc + 1, skip, in.target, in.target);
          }
        }
        break;
      }
      case VOp::kParLoopEnd:
        if (vpc == stop_vpc) {
          // The end of one ParallelFor iteration per lane: this run's work
          // is done.
          if constexpr (W == 1) {
            steps_executed_ += steps;
          } else {
            stop_batch();
          }
          *pc = vpc;
          return Stop::kDone;
        }
        [[fallthrough]];
      case VOp::kLoopEnd:
        MALISIM_VM_BACKEDGE_TAIL(in.dst, in.b, in.imm, in.target);
        break;
      case VOp::kJump:
        next = in.target;
        break;
      case VOp::kBrZero: {
        const std::int32_t* const a = MALISIM_VM_P(std::int32_t, in.a);
        if constexpr (W == 1) {
          if (a[0] == 0) next = in.target;
        } else {
          next = if_branch(in, MALISIM_VM_BITS(a[l] == 0));
        }
        break;
      }
      // Fused reduction back-edges: the arithmetic op, then the loop
      // counter step and conditional jump (register/field layout in
      // bytecode.h). Executing the halves in source order keeps every
      // register-aliasing corner identical to the unfused sequence.
      MALISIM_VM_BACKEDGE(kFmaLoopEndF32, float, a[i] * b[i] + c[i])
      MALISIM_VM_BACKEDGE(kFmaLoopEndF64, double, a[i] * b[i] + c[i])
      MALISIM_VM_BACKEDGE(kAddLoopEndF32, float, a[i] + b[i])
      MALISIM_VM_BACKEDGE(kAddLoopEndF64, double, a[i] + b[i])
      // Fused load+consumer: the load half executes exactly like kLoad
      // (writing its destination register and streaming the access), then
      // the consumer half reads the register file, so any operand naming
      // the loaded register sees the fresh value.
      MALISIM_VM_LOADOP(kLoadFmaF32, float, a[i] * b[i] + c[i])
      MALISIM_VM_LOADOP(kLoadFmaF64, double, a[i] * b[i] + c[i])
      MALISIM_VM_LOADOP(kLoadAddF32, float, a[i] + b[i])
      MALISIM_VM_LOADOP(kLoadAddF64, double, a[i] + b[i])
      MALISIM_VM_LOADOP(kLoadSubF32, float, a[i] - b[i])
      MALISIM_VM_LOADOP(kLoadSubF64, double, a[i] - b[i])
      MALISIM_VM_LOADOP(kLoadMulF32, float, a[i] * b[i])
      MALISIM_VM_LOADOP(kLoadMulF64, double, a[i] * b[i])
      MALISIM_VM_LOADOP(kLoadSplatF32, float, a[i / lanes])
      MALISIM_VM_LOADOP(kLoadSplatF64, double, a[i / lanes])
      MALISIM_VM_LOADBACKEDGE(kLoadFmaLoopEndF32, float, a[i] * b[i] + c[i])
      MALISIM_VM_LOADBACKEDGE(kLoadFmaLoopEndF64, double, a[i] * b[i] + c[i])
      case VOp::kNumVOps:
        MALISIM_VM_FAULT(InternalError("invalid vm opcode"));
      default:
        // Every VOp the compiler emits has a case above; telling the
        // compiler so removes the jump-table range check from the hot loop.
        __builtin_unreachable();
    }
    if constexpr (W > 1) {
      if (next == kNoStop) {  // reconvergence stack full
        abort_reason_ = Rollback::kSplit;
        return Stop::kAbort;
      }
    }
    vpc = next;
  }
  if constexpr (W == 1) {
    steps_executed_ += steps;
  } else {
    stop_batch();
  }
  *pc = vpc;
  return Stop::kDone;
#undef MALISIM_VM_FAULT
#undef MALISIM_VM_RECORD
}

#undef MALISIM_VM_P
#undef MALISIM_VM_ELEMS_N
#undef MALISIM_VM_ELEMS
#undef MALISIM_VM_ACTIVE
#undef MALISIM_VM_LANES
#undef MALISIM_VM_BITS
#undef MALISIM_VM_ARITH
#undef MALISIM_VM_BIN
#undef MALISIM_VM_BIN_FN
#undef MALISIM_VM_UN_F
#undef MALISIM_VM_BIN_I
#undef MALISIM_VM_CMP_T
#undef MALISIM_VM_CMP
#undef MALISIM_VM_CMPBR_T
#undef MALISIM_VM_CMPBR
#undef MALISIM_VM_TYPED
#undef MALISIM_VM_MEM_SETUP
#undef MALISIM_VM_MEM_LANE
#undef MALISIM_VM_LOAD_LANES
#undef MALISIM_VM_LOADOP
#undef MALISIM_VM_BACKEDGE_TAIL
#undef MALISIM_VM_BACKEDGE
#undef MALISIM_VM_LOADBACKEDGE

void VmExecutor::FlushCounts(WorkGroupRun* out) {
  const CompiledProgram& cp = *code_;
  for (std::size_t v = 0; v < vcount_.size(); ++v) {
    const std::uint64_t c = vcount_[v];
    if (c == 0) continue;
    vcount_[v] = 0;
    stats_.lane_instructions += c;
    // Memory-traffic counters are deferred like the histogram: the hot loop
    // only bumps vcount, and the per-site totals expand here. The faulted
    // access (if any) is backed out below — the interpreter counts an
    // out-of-bounds access in the histogram (count-before-execute) but not
    // in loads/stores/bytes, and the deferred totals must match exactly.
    const VInstr& in = cp.code[v];
    switch (in.op) {
      case VOp::kLoad:
      case VOp::kLoadFmaF32:
      case VOp::kLoadFmaF64:
      case VOp::kLoadAddF32:
      case VOp::kLoadAddF64:
      case VOp::kLoadSubF32:
      case VOp::kLoadSubF64:
      case VOp::kLoadMulF32:
      case VOp::kLoadMulF64:
      case VOp::kLoadSplatF32:
      case VOp::kLoadSplatF64:
        out->loads += c;
        out->load_bytes += c * in.access_bytes;
        break;
      case VOp::kLoadFmaLoopEndF32:
      case VOp::kLoadFmaLoopEndF64:
        // access_bytes holds the loop registers here; the load width is
        // lanes << aux8 (bytecode.h).
        out->loads += c;
        out->load_bytes += c * (static_cast<std::uint64_t>(in.lanes) << in.aux8);
        break;
      case VOp::kStore:
        out->stores += c;
        out->store_bytes += c * in.access_bytes;
        break;
      case VOp::kAtomicAddI32:
        out->atomics += c;
        break;
      default:
        break;
    }
    for (std::uint32_t s = cp.tally_begin[v]; s < cp.tally_begin[v + 1];
         ++s) {
      const TallySlot& slot = cp.tally_slots[s];
      out->ops.AddAt(slot.hist_idx, c);
      if (opcode_tally_ != nullptr) {
        opcode_tally_[static_cast<std::size_t>(slot.op)] += c;
      }
    }
  }
  if (fault_vpc_ != kNoFault) {
    // A fused instruction only ever faults in its first source step (loads
    // and integer divides lead their pairs; the absorbed mov / back-edge /
    // consumer halves cannot fault). The interpreter therefore counted the
    // first source step only — back the unreached tally slots out, and the
    // traffic of a faulted access with them.
    const VInstr& in = cp.code[fault_vpc_];
    switch (in.op) {
      case VOp::kLoad:
      case VOp::kLoadFmaF32:
      case VOp::kLoadFmaF64:
      case VOp::kLoadAddF32:
      case VOp::kLoadAddF64:
      case VOp::kLoadSubF32:
      case VOp::kLoadSubF64:
      case VOp::kLoadMulF32:
      case VOp::kLoadMulF64:
      case VOp::kLoadSplatF32:
      case VOp::kLoadSplatF64:
        --out->loads;
        out->load_bytes -= in.access_bytes;
        break;
      case VOp::kLoadFmaLoopEndF32:
      case VOp::kLoadFmaLoopEndF64:
        --out->loads;
        out->load_bytes -= static_cast<std::uint64_t>(in.lanes) << in.aux8;
        break;
      case VOp::kStore:
        --out->stores;
        out->store_bytes -= in.access_bytes;
        break;
      case VOp::kAtomicAddI32:
        --out->atomics;
        break;
      default:  // arithmetic faults (division by zero) carry no traffic
        break;
    }
    for (std::uint32_t s = cp.tally_begin[fault_vpc_] + 1;
         s < cp.tally_begin[fault_vpc_ + 1]; ++s) {
      const TallySlot& slot = cp.tally_slots[s];
      out->ops.SubAt(slot.hist_idx);
      if (opcode_tally_ != nullptr) {
        --opcode_tally_[static_cast<std::size_t>(slot.op)];
      }
    }
    fault_vpc_ = kNoFault;
  }
}

}  // namespace malisim::kir::vm
