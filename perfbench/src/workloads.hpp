// The benchmark's three workloads. Each generates its inputs from the seed
// before any timing starts, hands the program only those inputs, measures
// for `seconds`, checks the outputs, and returns its metrics: the
// end-to-end set when untraced, the per-layer set (from spans recorded
// around public calls) when traced. README.md gives the rationale.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cpu/cpu_engine.hpp"
#include "harness.hpp"
#include "nn/mlp.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace JSON); empty
  /// writes nothing.
  std::string trace_out;
};

Result RunPooledOffline(const RunConfig& config);
Result RunProdOnline(const RunConfig& config);
Result RunSimServing(const RunConfig& config);

/// Constructs the engine (which materializes its tables) in place of the
/// one in `engine`; returns the seconds it took and records them as an
/// "embedding.materialize" span. The workloads call it once per segment of
/// the run, so the median set-up time samples the host's speed over the
/// whole run: on a shared host it changes by up to 1.5x within seconds.
double MaterializeEngine(const microrec::RecModelSpec& model,
                         std::uint64_t row_cap, std::size_t threads,
                         std::optional<microrec::CpuEngine>& engine,
                         SpanRecorder& rec);

/// FLOPs of one item's forward pass, computed from tensor sizes:
/// 2 * sum(K * N) over the hidden layers and the 1-unit head.
double ForwardFlopsPerItem(const microrec::MlpSpec& mlp);

/// Writes the recorder's spans to config.trace_out (when set); false on an
/// I/O failure.
bool WriteTrace(const RunConfig& config, const SpanRecorder& recorder);

}  // namespace perfbench
