#include "tensor/sparse_tensor.h"

#include <cmath>

#include "common/serial.h"

namespace sns {

SparseTensor::SparseTensor(std::vector<int64_t> dims, int64_t expected_nnz)
    : dims_(std::move(dims)), pool_(static_cast<int>(dims_.size())) {
  SNS_CHECK(!dims_.empty());
  SNS_CHECK(static_cast<int>(dims_.size()) <= kMaxTensorModes);
  buckets_.resize(dims_.size());
  for (size_t m = 0; m < dims_.size(); ++m) {
    SNS_CHECK(dims_[m] > 0);
    buckets_[m].resize(static_cast<size_t>(dims_[m]));
  }
  Reserve(expected_nnz);
}

void SparseTensor::Reserve(int64_t expected_nnz) {
  if (expected_nnz > 0) pool_.Reserve(static_cast<size_t>(expected_nnz));
}

double SparseTensor::Get(const ModeIndex& index) const {
  SNS_DCHECK(IndexInBounds(index));
  const uint32_t id = pool_.Find(index);
  return id == EntryPool::kInvalidId ? 0.0 : pool_.value(id);
}

double SparseTensor::Add(const ModeIndex& index, double delta) {
  SNS_DCHECK(IndexInBounds(index));
  const auto [id, inserted] = pool_.FindOrInsert(index, delta);
  if (inserted) {
    if (std::fabs(delta) < kZeroEpsilon) {
      // Net-zero insert: the entry is the pool tail and owns no bucket
      // slots yet, so EraseSwap alone undoes it.
      pool_.EraseSwap(id);
      return 0.0;
    }
    InsertIntoBuckets(id);
    return delta;
  }
  const double value = (pool_.value(id) += delta);
  if (std::fabs(value) < kZeroEpsilon) {
    EraseEntry(id);
    return 0.0;
  }
  return value;
}

void SparseTensor::Set(const ModeIndex& index, double value) {
  SNS_DCHECK(IndexInBounds(index));
  if (std::fabs(value) < kZeroEpsilon) {
    const uint32_t id = pool_.Find(index);
    if (id != EntryPool::kInvalidId) EraseEntry(id);
    return;
  }
  const auto [id, inserted] = pool_.FindOrInsert(index, value);
  if (inserted) {
    InsertIntoBuckets(id);
  } else {
    pool_.value(id) = value;
  }
}

void SparseTensor::Clear() {
  pool_.Clear();
  for (auto& mode_buckets : buckets_) {
    for (auto& bucket : mode_buckets) bucket.clear();
  }
}

double SparseTensor::FrobeniusNormSquared() const {
  double sum = 0.0;
  const uint32_t n = pool_.size();
  for (uint32_t id = 0; id < n; ++id) {
    const double v = pool_.value(id);
    sum += v * v;
  }
  return sum;
}

double SparseTensor::MaxAbsValue() const {
  double best = 0.0;
  const uint32_t n = pool_.size();
  for (uint32_t id = 0; id < n; ++id) {
    best = std::max(best, std::fabs(pool_.value(id)));
  }
  return best;
}

bool SparseTensor::IndexInBounds(const ModeIndex& index) const {
  if (index.size() != num_modes()) return false;
  for (int m = 0; m < index.size(); ++m) {
    if (index[m] < 0 || index[m] >= dims_[m]) return false;
  }
  return true;
}

void SparseTensor::InsertIntoBuckets(uint32_t id) {
  const ModeIndex& index = pool_.coords(id);
  uint32_t* pos = pool_.bucket_pos(id);
  for (int m = 0; m < index.size(); ++m) {
    auto& bucket = buckets_[m][static_cast<size_t>(index[m])];
    pos[m] = static_cast<uint32_t>(bucket.size());
    bucket.push_back(id);
  }
}

void SparseTensor::RemoveFromBuckets(uint32_t id) {
  const ModeIndex& index = pool_.coords(id);
  const uint32_t* pos = pool_.bucket_pos(id);
  for (int m = 0; m < index.size(); ++m) {
    auto& bucket = buckets_[m][static_cast<size_t>(index[m])];
    const uint32_t p = pos[m];
    SNS_DCHECK(p < bucket.size() && bucket[p] == id);
    const uint32_t last = static_cast<uint32_t>(bucket.size()) - 1;
    if (p != last) {
      // Swap-erase: relocate the tail id and fix its stored position.
      bucket[p] = bucket[last];
      pool_.bucket_pos(bucket[p])[m] = p;
    }
    bucket.pop_back();
  }
}

void SparseTensor::SerializeTo(serial::Writer& w) const {
  const int modes = num_modes();
  w.U32(static_cast<uint32_t>(modes));
  for (int m = 0; m < modes; ++m) w.I64(dims_[static_cast<size_t>(m)]);
  const uint32_t n = pool_.size();
  w.U64(n);
  for (uint32_t id = 0; id < n; ++id) {
    const ModeIndex& coords = pool_.coords(id);
    for (int m = 0; m < modes; ++m) w.I32(coords[m]);
    w.F64(pool_.value(id));
    const uint32_t* pos = pool_.bucket_pos(id);
    for (int m = 0; m < modes; ++m) w.U32(pos[m]);
  }
}

Status SparseTensor::RestoreFrom(serial::Reader& r) {
  if (nnz() != 0) {
    return Status::FailedPrecondition(
        "SparseTensor::RestoreFrom requires an empty tensor");
  }
  const int modes = num_modes();
  uint32_t stored_modes = 0;
  SNS_RETURN_IF_ERROR(r.U32(&stored_modes));
  if (static_cast<int>(stored_modes) != modes) {
    return Status::DataLoss("tensor mode count mismatch: stored " +
                            std::to_string(stored_modes) + ", expected " +
                            std::to_string(modes));
  }
  for (int m = 0; m < modes; ++m) {
    int64_t dim = 0;
    SNS_RETURN_IF_ERROR(r.I64(&dim));
    if (dim != dims_[static_cast<size_t>(m)]) {
      return Status::DataLoss("tensor shape mismatch in mode " +
                              std::to_string(m));
    }
  }
  uint64_t n = 0;
  SNS_RETURN_IF_ERROR(r.U64(&n));
  if (n > EntryPool::kInvalidId) {
    return Status::DataLoss("implausible tensor nnz " + std::to_string(n));
  }
  // The pool grows as entries arrive rather than reserving `n` up front: a
  // corrupt count then ends in a short read (kDataLoss), not in a
  // multi-gigabyte allocation.
  for (uint64_t i = 0; i < n; ++i) {
    ModeIndex coords;
    for (int m = 0; m < modes; ++m) {
      int32_t c = 0;
      SNS_RETURN_IF_ERROR(r.I32(&c));
      coords.PushBack(c);
    }
    double value = 0.0;
    SNS_RETURN_IF_ERROR(r.F64(&value));
    if (!IndexInBounds(coords)) {
      return Status::DataLoss("tensor entry " + std::to_string(i) +
                              " out of bounds at " + coords.ToString());
    }
    if (std::fabs(value) < kZeroEpsilon || !std::isfinite(value)) {
      // A live tensor never stores near-zero or non-finite cells (Add/Set
      // erase below kZeroEpsilon), so such an entry marks corruption.
      return Status::DataLoss("tensor entry " + std::to_string(i) +
                              " holds an invalid value");
    }
    const auto [id, inserted] = pool_.FindOrInsert(coords, value);
    if (!inserted || id != static_cast<uint32_t>(i)) {
      return Status::DataLoss("duplicate tensor cell at " + coords.ToString());
    }
    uint32_t* pos = pool_.bucket_pos(id);
    for (int m = 0; m < modes; ++m) SNS_RETURN_IF_ERROR(r.U32(&pos[m]));
  }
  // Rebuild the per-(mode, index) buckets at the serialized positions: size
  // each bucket to its degree, then place every pool id at its recorded
  // slot, validating that the slots tile each bucket exactly.
  for (int m = 0; m < modes; ++m) {
    for (auto& bucket : buckets_[static_cast<size_t>(m)]) bucket.clear();
  }
  const uint32_t count = pool_.size();
  for (uint32_t id = 0; id < count; ++id) {
    const ModeIndex& coords = pool_.coords(id);
    for (int m = 0; m < modes; ++m) {
      buckets_[static_cast<size_t>(m)][static_cast<size_t>(coords[m])]
          .push_back(EntryPool::kInvalidId);
    }
  }
  for (uint32_t id = 0; id < count; ++id) {
    const ModeIndex& coords = pool_.coords(id);
    const uint32_t* pos = pool_.bucket_pos(id);
    for (int m = 0; m < modes; ++m) {
      auto& bucket =
          buckets_[static_cast<size_t>(m)][static_cast<size_t>(coords[m])];
      const uint32_t p = pos[m];
      if (p >= bucket.size() || bucket[p] != EntryPool::kInvalidId) {
        return Status::DataLoss("inconsistent bucket position for entry at " +
                                coords.ToString());
      }
      bucket[p] = id;
    }
  }
  return Status::OK();
}

void SparseTensor::EraseEntry(uint32_t id) {
  RemoveFromBuckets(id);
  const uint32_t moved = pool_.EraseSwap(id);
  if (moved != EntryPool::kInvalidId) {
    // The entry formerly at `moved` now lives at `id`; repoint the bucket
    // slots that still hold its old pool id.
    const ModeIndex& index = pool_.coords(id);
    const uint32_t* pos = pool_.bucket_pos(id);
    for (int m = 0; m < index.size(); ++m) {
      auto& bucket = buckets_[m][static_cast<size_t>(index[m])];
      SNS_DCHECK(pos[m] < bucket.size() && bucket[pos[m]] == moved);
      bucket[pos[m]] = id;
    }
  }
}

}  // namespace sns
