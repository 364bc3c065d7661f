#include "src/core/flat_dataset.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace rotind {

FlatDataset FlatDataset::FromItems(const std::vector<Series>& items) {
  FlatDataset out;
  if (items.empty()) return out;
  out.n_ = items[0].size();
  out.buffer_.reserve(items.size() * out.n_);
  for (const Series& s : items) {
    [[maybe_unused]] const Status added = out.Add(s);
    assert(added.ok() && "FromItems needs items of one length");
  }
  return out;
}

FlatDataset FlatDataset::FromDataset(const Dataset& dataset) {
  FlatDataset out = FromItems(dataset.items);
  out.labels_ = dataset.labels;
  out.names_ = dataset.names;
  return out;
}

StatusOr<FlatDataset> FlatDataset::FromItemsChecked(
    const std::vector<Series>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].empty()) {
      return Status::InvalidArgument("item " + std::to_string(i) +
                                     " is empty");
    }
    if (items[i].size() != items[0].size()) {
      return Status::InvalidArgument(
          "item " + std::to_string(i) + " has length " +
          std::to_string(items[i].size()) + ", item 0 has length " +
          std::to_string(items[0].size()));
    }
  }
  return FromItems(items);
}

Status FlatDataset::Add(const Series& s) {
  if (count_ == 0 && n_ == 0) n_ = s.size();
  if (s.size() != n_) {
    return Status::InvalidArgument(
        "series has length " + std::to_string(s.size()) +
        ", the dataset's items have length " + std::to_string(n_));
  }
  const std::size_t old = buffer_.size();
  buffer_.resize(old + n_);
  if (n_ != 0) {
    std::memcpy(buffer_.data() + old, s.data(), n_ * sizeof(double));
  }
  ++count_;
  return Status::Ok();
}

void FlatDataset::CopyTile(std::size_t g, double* tile) const {
  const std::size_t base = g * kTileLanes;
  const std::size_t valid = std::min(kTileLanes, count_ - base);
  for (std::size_t l = 0; l < valid; ++l) {
    const double* row = data(base + l);
    for (std::size_t t = 0; t < n_; ++t) tile[t * kTileLanes + l] = row[t];
  }
  for (std::size_t l = valid; l < kTileLanes; ++l) {
    for (std::size_t t = 0; t < n_; ++t) tile[t * kTileLanes + l] = 0.0;
  }
}

Series FlatDataset::Materialize(std::size_t i) const {
  const double* p = data(i);
  return Series(p, p + n_);
}

}  // namespace rotind
