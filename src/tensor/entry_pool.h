// Flat entry pool: the contiguous storage engine behind SparseTensor.
//
// Non-zero entries live in one SoA pool — parallel arrays of coordinates,
// values, and per-mode bucket back-pointers — addressed by dense uint32_t
// pool ids. The bucket back-pointers are M-wide: one flat array holding M
// positions per entry for an M-mode tensor (12 B per entry at M = 3). A
// separate open-addressed hash index (FNV-1a over the coordinate,
// power-of-two capacity, linear probing, tombstone-free backshift
// deletion) maps coordinate → pool id. The index is kept at most a quarter
// full, in growth and in Reserve alike: probe and backshift runs stay
// near one slot, for 16–32 B of table per entry. Erasure swaps the last
// pool entry into the vacated id so the pool stays dense; the caller is
// told which entry moved so it can repoint external references (the
// per-(mode, index) buckets of SparseTensor).
//
// Why this layout: every SliceNStitch update rule iterates slice non-zeros
// (Eqs. 12 & 21, Alg. 4) and the per-event cost bounds of Theorems 1-4 only
// hold in hardware terms if that iteration is a linear walk over contiguous
// memory with no per-entry hashing. The pool gives O(1) point lookups for
// the window bookkeeping and hash-free, value-carrying iteration for the
// solvers.

#ifndef SLICENSTITCH_TENSOR_ENTRY_POOL_H_
#define SLICENSTITCH_TENSOR_ENTRY_POOL_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/mode_index.h"

namespace sns {

/// Dense pool of (coordinate, value) entries plus an open-addressed
/// coordinate → id index. Ids are dense in [0, size()); erasing an entry
/// moves the last entry into its id (see EraseSwap).
class EntryPool {
 public:
  /// Sentinel for "no entry" / empty hash slot.
  static constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

  /// An empty pool of `modes`-mode entries.
  explicit EntryPool(int modes) : modes_(modes) {
    table_.assign(kMinTableCapacity, kInvalidId);
  }

  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }
  bool empty() const { return values_.empty(); }

  /// Pre-sizes the pool arrays and the hash table for `expected` entries so
  /// warm-up ingestion avoids rehash/realloc storms.
  void Reserve(size_t expected) {
    coords_.reserve(expected);
    values_.reserve(expected);
    bucket_pos_.reserve(expected * static_cast<size_t>(modes_));
    size_t capacity = kMinTableCapacity;
    while (expected * kMaxLoadInverse > capacity) capacity <<= 1;
    if (capacity > table_.size()) Rehash(capacity);
  }

  void Clear() {
    coords_.clear();
    values_.clear();
    bucket_pos_.clear();
    table_.assign(table_.size(), kInvalidId);
  }

  const ModeIndex& coords(uint32_t id) const { return coords_[id]; }
  double value(uint32_t id) const { return values_[id]; }
  double& value(uint32_t id) { return values_[id]; }

  /// The M per-mode positions of entry `id` inside its (mode, index)
  /// buckets; maintained by the owner (SparseTensor), relocated intact on
  /// EraseSwap. Invalidated by growth (FindOrInsert, Reserve).
  const uint32_t* bucket_pos(uint32_t id) const {
    return bucket_pos_.data() + static_cast<size_t>(id) * modes_;
  }
  uint32_t* bucket_pos(uint32_t id) {
    return bucket_pos_.data() + static_cast<size_t>(id) * modes_;
  }

  /// Id of the entry at `key`, or kInvalidId when absent. O(1) expected.
  uint32_t Find(const ModeIndex& key) const {
    ++hash_lookups_;
    return table_[FindSlot(key)];
  }

  /// Single-probe upsert: returns (id, inserted). When `key` is absent a
  /// new entry holding `value` is created; an existing entry is untouched.
  /// One probe sequence serves both the miss detection and the insert slot,
  /// except when the insert grows the index, which probes again.
  std::pair<uint32_t, bool> FindOrInsert(const ModeIndex& key, double value) {
    ++hash_lookups_;
    size_t slot = FindSlot(key);
    if (table_[slot] != kInvalidId) return {table_[slot], false};
    // Only a real insert grows the index, so updates of existing cells
    // never allocate.
    if ((values_.size() + 1) * kMaxLoadInverse > table_.size()) {
      Rehash(table_.size() * 2);
      ++hash_lookups_;
      slot = FindSlot(key);
    }
    const uint32_t id = size();
    table_[slot] = id;
    coords_.push_back(key);
    values_.push_back(value);
    bucket_pos_.resize(bucket_pos_.size() + static_cast<size_t>(modes_));
    return {id, true};
  }

  /// Erases entry `id` by swapping the last entry into its slot. Returns the
  /// *old* id of the entry that moved (always the previous last id), or
  /// kInvalidId when `id` was the last entry. After the call the moved
  /// entry's coords/value/bucket_pos live at `id` and the hash index already
  /// reflects the move; only external id references (buckets) remain for the
  /// caller to repoint.
  uint32_t EraseSwap(uint32_t id) {
    SNS_DCHECK(id < size());
    EraseKey(coords_[id]);
    const uint32_t last = size() - 1;
    uint32_t moved = kInvalidId;
    if (id != last) {
      // Redirect the hash slot of the last entry before moving its record.
      ++hash_lookups_;
      const size_t slot = FindSlot(coords_[last]);
      SNS_DCHECK(table_[slot] == last);
      table_[slot] = id;
      coords_[id] = coords_[last];
      values_[id] = values_[last];
      std::copy_n(bucket_pos(last), modes_, bucket_pos(id));
      moved = last;
    }
    coords_.pop_back();
    values_.pop_back();
    bucket_pos_.resize(bucket_pos_.size() - static_cast<size_t>(modes_));
    return moved;
  }

  /// Number of hash-index probe sequences performed since construction.
  /// Instrumentation for regression tests: slice/pool iteration must not
  /// touch the hash index at all.
  uint64_t hash_lookup_count() const { return hash_lookups_; }

 private:
  static constexpr size_t kMinTableCapacity = 16;
  // The index holds at most capacity / kMaxLoadInverse entries.
  static constexpr size_t kMaxLoadInverse = 4;

  size_t Home(const ModeIndex& key, size_t mask) const {
    return ModeIndexHash{}(key) & mask;
  }

  /// Slot holding `key`'s id, or the first empty slot of its probe chain.
  size_t FindSlot(const ModeIndex& key) const {
    const size_t mask = table_.size() - 1;
    size_t slot = Home(key, mask);
    while (table_[slot] != kInvalidId && !(coords_[table_[slot]] == key)) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Removes `key`'s slot with backshift compaction (no tombstones): probe
  /// chain members past the hole are shifted back unless that would move
  /// them before their home slot.
  void EraseKey(const ModeIndex& key) {
    ++hash_lookups_;
    const size_t mask = table_.size() - 1;
    size_t hole = FindSlot(key);
    SNS_DCHECK(table_[hole] != kInvalidId);
    size_t probe = hole;
    while (true) {
      probe = (probe + 1) & mask;
      const uint32_t occupant = table_[probe];
      if (occupant == kInvalidId) break;
      const size_t home = Home(coords_[occupant], mask);
      // `occupant` may fill the hole iff its home is cyclically outside
      // (hole, probe] — otherwise the shift would break its probe chain.
      const bool movable = hole <= probe ? (home <= hole || home > probe)
                                         : (home <= hole && home > probe);
      if (movable) {
        table_[hole] = occupant;
        hole = probe;
      }
    }
    table_[hole] = kInvalidId;
  }

  void Rehash(size_t capacity) {
    table_.assign(capacity, kInvalidId);
    const size_t mask = capacity - 1;
    for (uint32_t id = 0; id < size(); ++id) {
      size_t slot = Home(coords_[id], mask);
      while (table_[slot] != kInvalidId) slot = (slot + 1) & mask;
      table_[slot] = id;
    }
  }

  // SoA entry arrays, indexed by pool id.
  std::vector<ModeIndex> coords_;
  std::vector<double> values_;
  int modes_;
  // bucket_pos_[id·M + m]: position of entry id inside its mode-m bucket.
  std::vector<uint32_t> bucket_pos_;
  // Open-addressed coordinate → id index; power-of-two capacity.
  std::vector<uint32_t> table_;
  mutable uint64_t hash_lookups_ = 0;
};

}  // namespace sns

#endif  // SLICENSTITCH_TENSOR_ENTRY_POOL_H_
