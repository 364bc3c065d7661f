#ifndef ROTIND_CORE_FLAT_DATASET_H_
#define ROTIND_CORE_FLAT_DATASET_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "src/core/aligned.h"
#include "src/core/series.h"
#include "src/core/status.h"

namespace rotind {

/// Zero-copy view of n contiguous doubles: one series.
using SeriesView = std::span<const double>;

/// Contiguous, cache-friendly storage for a database of equal-length series.
///
/// Every item is stored ONCE, n doubles at stride n in one 64-byte-aligned
/// buffer (AlignedBuffer), so scans walk memory linearly instead of chasing
/// per-item heap allocations (`std::vector<Series>` costs one indirection
/// and a likely cache miss per object). Rotations are the query's business:
/// the wedges enclose the query's rotations (RotationSet), never a
/// candidate's, so no rotated copy of a row is kept.
///
/// The src/simd/ blocked-scoring kernels want candidates TRANSPOSED into
/// 8-lane structure-of-arrays tiles; CopyTile fills one such tile from the
/// rows on demand, into a buffer the scan owns, so the dataset holds no
/// second copy of its rows.
///
/// Labels and names ride along (empty when absent), making FlatDataset a
/// drop-in for the `Dataset` aggregate in engine-facing code.
class FlatDataset {
 public:
  /// Candidates per SoA tile group — the blocked-scoring lane width.
  static constexpr std::size_t kTileLanes = 8;

  FlatDataset() = default;

  /// Builds from owned series. All items must share one length: asserted in
  /// debug builds, and a release build leaves out an item of another length
  /// (Add refuses it). Use FromItemsChecked at untrusted boundaries.
  static FlatDataset FromItems(const std::vector<Series>& items);

  /// Builds from a labelled Dataset, carrying labels/names over.
  static FlatDataset FromDataset(const Dataset& dataset);

  /// Validated builder: rejects ragged or empty-item inputs with a Status.
  [[nodiscard]] static StatusOr<FlatDataset> FromItemsChecked(
      const std::vector<Series>& items);

  /// Appends one series. The first Add fixes the length; a later series of
  /// another length is refused with kInvalidArgument naming both lengths,
  /// leaving the dataset unchanged.
  [[nodiscard]] Status Add(const Series& s);

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Common length n of every item (0 when empty).
  std::size_t length() const { return n_; }

  /// Pointer to item i: n contiguous doubles, valid until the next Add.
  const double* data(std::size_t i) const { return buffer_.data() + i * n_; }

  /// Item i as a zero-copy view.
  SeriesView view(std::size_t i) const { return {data(i), n_}; }

  /// Number of SoA tile groups (ceil(size / kTileLanes)).
  std::size_t tile_groups() const {
    return (count_ + kTileLanes - 1) / kTileLanes;
  }

  /// Writes group g's SoA tile into `tile` (kTileLanes * n doubles): items
  /// [g*kTileLanes, g*kTileLanes + kTileLanes) lane-interleaved, element t
  /// of lane l at `tile[t * kTileLanes + l]`, lanes past size() zero
  /// (finite, so blocked kernels compute them safely; callers ignore
  /// them). One aligned load of a 64-byte-aligned `tile` then fetches
  /// element t of eight consecutive candidates.
  void CopyTile(std::size_t g, double* tile) const;

  /// Item i as an owned Series (for callers that need a value).
  Series Materialize(std::size_t i) const;

  const std::vector<int>& labels() const { return labels_; }
  const std::vector<std::string>& names() const { return names_; }
  int label(std::size_t i) const { return labels_[i]; }

 private:
  std::size_t n_ = 0;
  std::size_t count_ = 0;
  /// n doubles per item: item i occupies [i*n, (i+1)*n).
  AlignedBuffer buffer_;
  std::vector<int> labels_;
  std::vector<std::string> names_;
};

}  // namespace rotind

#endif  // ROTIND_CORE_FLAT_DATASET_H_
