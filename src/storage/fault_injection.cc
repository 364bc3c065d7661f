#include "src/storage/fault_injection.h"

#include <thread>

namespace rotind::storage {

FaultSchedule::FaultSchedule(const FaultScheduleSpec& spec)
    : spec_(spec), rng_(spec.seed) {}

FaultAction FaultSchedule::Decide(std::uint64_t key) {
  MutexLock lock(mutex_);
  FaultAction action;
  if (spec_.permanent_fail_key >= 0 &&
      key == static_cast<std::uint64_t>(spec_.permanent_fail_key)) {
    action.kind = FaultKind::kTransientRead;  // fails on every attempt
    ++counters_.transient_errors;
    return action;
  }
  const auto burst = burst_remaining_.find(key);
  if (burst != burst_remaining_.end()) {
    if (--burst->second <= 0) burst_remaining_.erase(burst);
    action.kind = FaultKind::kTransientRead;
    ++counters_.transient_errors;
    return action;
  }
  const double draw = rng_.NextDouble();
  if (draw < spec_.transient_read_prob) {
    if (spec_.transient_burst > 1) {
      burst_remaining_[key] = spec_.transient_burst - 1;
    }
    action.kind = FaultKind::kTransientRead;
    ++counters_.transient_errors;
  } else if (draw < spec_.transient_read_prob + spec_.torn_page_prob) {
    action.kind = FaultKind::kTornPage;
    ++counters_.torn_pages;
  } else if (draw < spec_.transient_read_prob + spec_.torn_page_prob +
                        spec_.latency_spike_prob) {
    action.kind = FaultKind::kLatencySpike;
    action.latency = spec_.latency_spike;
    ++counters_.latency_spikes;
  }
  return action;
}

FaultCounters FaultSchedule::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

Status FaultInjectingSource::ReadPage(std::size_t page, char* out) const {
  const FaultAction action = schedule_.Decide(page);
  switch (action.kind) {
    case FaultKind::kTransientRead:
      return Status::IoError("injected transient read error on page " +
                             std::to_string(page));
    case FaultKind::kTornPage:
      // A torn page reads back real bytes that fail checksum; model the
      // *detected* outcome directly with the code IndexFile reports.
      return Status(StatusCode::kCorruptHeader,
                    "injected torn page " + std::to_string(page) +
                        ": checksum mismatch");
    case FaultKind::kLatencySpike:
      // Reached through a pool miss, the sleep runs with no pool lock
      // held: it delays this pin and the pins waiting for the same page,
      // as a slow disk read would, and pins of other pages proceed.
      std::this_thread::sleep_for(action.latency);
      break;
    case FaultKind::kNone:
      break;
  }
  return inner_.ReadPage(page, out);
}

}  // namespace rotind::storage
