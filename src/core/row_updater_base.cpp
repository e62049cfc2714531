#include "core/row_updater_base.h"

#include <algorithm>

namespace sns {

void RowUpdaterBase::OnEvent(const SparseTensor& window,
                             const WindowDelta& delta, CpdState& state) {
  if (delta.cells.empty()) return;  // Zero-valued tuple.
  BeginEvent(delta, state);

  const int time_mode = state.num_modes() - 1;
  const int w_size = static_cast<int>(state.model.factor(time_mode).rows());
  const int w = delta.w;

  auto update_row = [&](int mode, int64_t row) {
    gram_cache_.ProductExcept(mode, ws_.h);
    UpdateRow(mode, row, window, delta, state, ws_);
    gram_cache_.NotifyModeChanged(mode);
  };

  // Time-mode rows first (Alg. 3 lines 3-6; 0-based indices). For a slide
  // both the slice the value left (W−w) and the one it entered (W−w−1) are
  // refreshed; arrivals touch only W−1, expiries only 0.
  if (w > 0) update_row(time_mode, w_size - w);
  if (w < w_size) update_row(time_mode, w_size - w - 1);

  // Then the i_m-th row of every non-time factor (Alg. 3 lines 7-8).
  for (int m = 0; m < time_mode; ++m) {
    update_row(m, delta.tuple.index[m]);
  }
}

void RowUpdaterBase::BeginEvent(const WindowDelta& delta,
                                const CpdState& state) {
  time_mode_ = state.num_modes() - 1;
  snap_rank_ = state.rank();
  snap_stride_ = PaddedRank(snap_rank_);
  ws_.Prepare(state.num_modes(), snap_rank_, sample_capacity_);
  gram_cache_.set_kernels(ws_.kernels);
  gram_cache_.BeginEvent(state.grams);
  // No-ops (and allocation-free) once sized for this shape.
  snapshot_values_.Resize((kMaxTensorModes + 2) * snap_stride_);
  if (NeedsPrevGrams()) {
    delta_values_.Resize(2 * (kMaxTensorModes + 2) * snap_stride_);
  }
  num_gram_deltas_ = 0;

  auto copy_row = [&](int mode, int64_t row, int segment) {
    // Full padded stride: the factor row's zero padding lanes come along,
    // keeping each snapshot segment a valid padded row.
    const double* data = state.model.factor(mode).Row(row);
    ws_.kernels->copy(data, snapshot_values_.data() + segment * snap_stride_,
                      snap_stride_);
  };
  // Time-mode rows, deduplicated: a delta may reference the same time slice
  // more than once, and PrevRow must see exactly one snapshot per row. The
  // inline storage assumes at most TWO distinct time rows per delta (the
  // two slices a slide touches) — a delta spanning more would silently
  // lose its third snapshot, so fail loudly instead.
  num_time_snaps_ = 0;
  for (const DeltaCell& cell : delta.cells) {
    const int64_t row = cell.index[time_mode_];
    bool seen = false;
    for (int t = 0; t < num_time_snaps_; ++t) {
      if (time_snap_row_[static_cast<size_t>(t)] == row) seen = true;
    }
    if (seen) continue;
    SNS_DCHECK(num_time_snaps_ < 2);
    if (num_time_snaps_ >= 2) continue;
    time_snap_row_[static_cast<size_t>(num_time_snaps_)] = row;
    copy_row(time_mode_, row, kMaxTensorModes + num_time_snaps_);
    ++num_time_snaps_;
  }
  // One snapshot per non-time mode, indexed by mode.
  for (int m = 0; m < time_mode_; ++m) {
    mode_snap_row_[static_cast<size_t>(m)] = delta.tuple.index[m];
    copy_row(m, delta.tuple.index[m], m);
  }
}

bool RowUpdaterBase::GcpUpdateRow(int mode, int64_t row,
                                  const SparseTensor& window,
                                  const WindowDelta& delta, CpdState& state,
                                  double clip_min, double clip_max,
                                  int64_t sample_threshold, Rng* rng) {
  if (loss_ == nullptr || loss_->kind() == LossKind::kGaussian) return false;
  const bool sampled =
      sample_threshold > 0 && window.Degree(mode, row) > sample_threshold;
  if (sampled) {
    // θ-sampled restriction: uniformly drawn slice cells (zero cells
    // included — their ℓ(0, θ) terms pull spurious model mass down; delta
    // cells excluded by the sampler) plus the event's delta cells at their
    // live window values.
    SampleSliceCellsInto(window, mode, row, sample_threshold, delta, *rng,
                         gcp_ws_.cells);
    for (const DeltaCell& cell : delta.cells) {
      if (cell.index[mode] != row) continue;
      gcp_ws_.cells.push_back({cell.index, window.Get(cell.index)});
    }
    GcpNewtonRowUpdate(state, mode, row, *loss_, gcp_ws_.cells, clip_min,
                       clip_max, gcp_ws_);
  } else {
    GcpNewtonRowUpdateOnSlice(window, state, mode, row, *loss_, clip_min,
                              clip_max, gcp_ws_);
  }
  // Commit unconditionally: gcp_ws_.old_row holds the pre-update row either
  // way (GcpNewtonRowUpdate snapshots before deciding), and the Gram /
  // prev-Gram bookkeeping degenerates gracefully when the row is unchanged.
  CommitRow(mode, row, gcp_ws_.old_row.data(), state);
  return true;
}

const double* RowUpdaterBase::PrevRow(int mode, int64_t row,
                                      const CpdState& state) const {
  if (mode == time_mode_) {
    for (int t = 0; t < num_time_snaps_; ++t) {
      if (time_snap_row_[static_cast<size_t>(t)] == row) {
        return snapshot_values_.data() + (kMaxTensorModes + t) * snap_stride_;
      }
    }
  } else if (mode_snap_row_[static_cast<size_t>(mode)] == row) {
    return snapshot_values_.data() + mode * snap_stride_;
  }
  return state.model.factor(mode).Row(row);
}

double RowUpdaterBase::EvaluatePrevModel(const ModeIndex& index,
                                         const CpdState& state) const {
  const int modes = state.num_modes();
  const int64_t rank = state.rank();
  const double* rows[kMaxTensorModes];
  for (int m = 0; m < modes; ++m) rows[m] = PrevRow(m, index[m], state);
  double sum = 0.0;
  for (int64_t r = 0; r < rank; ++r) {
    double prod = 1.0;
    for (int m = 0; m < modes; ++m) prod *= rows[m][r];
    sum += prod;
  }
  return sum;
}

void RowUpdaterBase::CommitRow(int mode, int64_t row, const double* old_row,
                               CpdState& state) {
  const double* new_row = state.model.factor(mode).Row(row);
  ApplyGramRowUpdate(state.grams[static_cast<size_t>(mode)], old_row, new_row,
                     *ws_.kernels);
  if (NeedsPrevGrams()) {
    // Record the rank-1 correction U(mode) = Q(mode) + (p−a)'a. old_row is
    // also the event-start (prev) row p: rows update once per event. Both
    // segments span the full padded stride (padding: 0 − 0 = 0).
    SNS_CHECK(num_gram_deltas_ < static_cast<int>(delta_mode_.size()));
    double* diff = delta_values_.data() + 2 * num_gram_deltas_ * snap_stride_;
    double* saved_new = diff + snap_stride_;
    for (int64_t r = 0; r < snap_stride_; ++r) {
      diff[r] = old_row[r] - new_row[r];
      saved_new[r] = new_row[r];
    }
    delta_mode_[static_cast<size_t>(num_gram_deltas_)] = mode;
    ++num_gram_deltas_;
  }
}

void RowUpdaterBase::HadamardOfPrevGramsExcept(const CpdState& state,
                                               int skip_mode,
                                               UpdateWorkspace& ws) const {
  ws.h_prev.Fill(1.0);
  for (int n = 0; n < state.num_modes(); ++n) {
    if (n == skip_mode) continue;
    const Matrix& gram = state.grams[static_cast<size_t>(n)];
    bool has_delta = false;
    for (int k = 0; k < num_gram_deltas_; ++k) {
      if (delta_mode_[static_cast<size_t>(k)] == n) has_delta = true;
    }
    if (!has_delta) {
      // No row of mode n committed yet this event: U(n) = Q(n).
      HadamardAccumulate(ws.h_prev, gram, *ws.kernels);
      continue;
    }
    ws.u_scratch.CopyFrom(gram);
    for (int k = 0; k < num_gram_deltas_; ++k) {
      if (delta_mode_[static_cast<size_t>(k)] != n) continue;
      const double* diff = delta_values_.data() + 2 * k * snap_stride_;
      AddOuterProduct(ws.u_scratch, diff, diff + snap_stride_, *ws.kernels);
    }
    HadamardAccumulate(ws.h_prev, ws.u_scratch, *ws.kernels);
  }
}

}  // namespace sns
