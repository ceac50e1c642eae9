// Shared quantile arithmetic for every latency summary in the repo.
//
// The serving summarizer, the system and update-serving simulators, and
// the system simulator's p99-item ranking all funnel through these
// helpers, so "p99" means the same interpolation everywhere (closest-rank
// linear interpolation over the sorted samples) -- and the critical-path
// attribution engine ranks queries with the exact index formula the
// SystemSimulator report uses, keeping the two views of "the p99 item"
// literally the same item.
#pragma once

#include <cstddef>
#include <vector>

namespace microrec::obs {

/// Linear interpolation between closest ranks over an already-sorted,
/// non-empty sample vector; q in [0, 1] (both checked).
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Sorts a copy and interpolates; convenience for one-shot summaries.
double Quantile(std::vector<double> samples, double q);

/// Rank index of the q-quantile element among n samples, matching the
/// SystemSimulator's p99-item selection: floor(q * (n - 1)).
std::size_t QuantileRankIndex(std::size_t n, double q);

/// Index (into the original vector) of the q-ranked element: argsort by
/// value, then pick rank QuantileRankIndex(n, q). The argsort is the exact
/// code the SystemSimulator used inline (std::sort over the index vector),
/// so the selected item is unchanged, ties included.
std::size_t ArgQuantileIndex(const std::vector<double>& values, double q);

}  // namespace microrec::obs
