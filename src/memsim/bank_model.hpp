// Row-buffer-level DRAM bank model.
//
// This is the physical mechanism behind the paper's Cartesian-product
// argument (section 3.3): "To retrieve a vector up to a few hundreds of
// bytes, a DRAM spends most of the time initiating the row buffer, while
// the following short sequential scan is less significant" -- so merging
// two vectors into one access nearly halves latency.
//
// The model tracks the open row per bank: a read that hits the open row
// skips the activation (precharge + RAS) cost and pays only column access
// plus burst transfer. The channel-level ChannelTiming used everywhere
// else is the closed-row special case of this model; a cross-check test
// asserts the two agree on random single reads.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "memsim/dram_timing.hpp"

namespace microrec {

struct DramBankTiming {
  /// Precharge + row activate (tRP + tRCD): the "initiation" cost a random
  /// access pays before any data moves.
  Nanoseconds activate_ns = 280.0;
  /// Column access (CAS) issued once per read command.
  Nanoseconds cas_ns = 33.6;
  /// Transfer time per interface beat.
  Nanoseconds beat_ns = 5.23;
  std::uint32_t beat_bytes = 4;      ///< 32-bit AXI data path
  std::uint32_t row_bytes = 1024;    ///< row-buffer (page) size

  /// The equivalent closed-row channel timing (activate + CAS as base).
  ChannelTiming AsChannelTiming() const;
};

/// Timing parameters consistent with the calibrated HbmChannelTiming().
DramBankTiming DefaultHbmBankTiming();

/// Access statistics of one bank.
struct DramBankStats {
  std::uint64_t reads = 0;
  std::uint64_t row_activations = 0;
  std::uint64_t row_hits = 0;   ///< reads (or row segments) served from the open row
  Bytes bytes_read = 0;

  double row_hit_rate() const {
    const std::uint64_t total = row_activations + row_hits;
    return total == 0 ? 0.0
                      : static_cast<double>(row_hits) /
                            static_cast<double>(total);
  }
};

class DramBank {
 public:
  explicit DramBank(DramBankTiming timing = DefaultHbmBankTiming());

  const DramBankTiming& timing() const { return timing_; }
  const DramBankStats& stats() const { return stats_; }

  /// Latency of reading `bytes` starting at byte address `addr`. Reads
  /// crossing row boundaries activate each touched row (unless already
  /// open). Updates the open-row state.
  Nanoseconds Read(std::uint64_t addr, Bytes bytes);

  /// Closes the open row (models refresh / precharge-all).
  void PrechargeAll();

 private:
  DramBankTiming timing_;
  std::uint64_t open_row_ = kNoOpenRow;
  DramBankStats stats_;

  static constexpr std::uint64_t kNoOpenRow = ~0ull;
};

/// Convenience for the section-3.3 analysis: latency of fetching the two
/// member vectors separately (two random reads) vs as one merged product
/// vector (one random read), on a closed-row bank.
struct CartesianAccessComparison {
  Nanoseconds separate_ns = 0.0;
  Nanoseconds merged_ns = 0.0;
  double speedup = 0.0;
};
CartesianAccessComparison CompareSeparateVsMerged(
    Bytes vector_a_bytes, Bytes vector_b_bytes,
    const DramBankTiming& timing = DefaultHbmBankTiming());

}  // namespace microrec
