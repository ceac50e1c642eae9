// Benchmark entry point:
//   perfbench --workload <pooled-offline|prod-online|sim-serving>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
// Prints human-readable progress lines, then the result as one JSON line.
// Exits 0 when the run completed (the JSON reports failed operations) and
// 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

double MaterializeEngine(const microrec::RecModelSpec& model,
                         std::uint64_t row_cap, std::size_t threads,
                         std::optional<microrec::CpuEngine>& engine,
                         SpanRecorder& rec) {
  engine.reset();
  const std::int64_t t0 = NowNs();
  engine.emplace(model, row_cap, microrec::FrameworkOverheadParams{}, threads);
  const std::int64_t t1 = NowNs();
  rec.Add({"embedding.materialize", t0, t1, -1, -1});
  return static_cast<double>(t1 - t0) / 1e9;
}

double ForwardFlopsPerItem(const microrec::MlpSpec& mlp) {
  double macs = mlp.hidden.back();  // 1-unit head
  for (std::size_t i = 0; i < mlp.hidden.size(); ++i) {
    macs += static_cast<double>(mlp.LayerInputDim(i)) * mlp.hidden[i];
  }
  return 2.0 * macs;
}

bool WriteTrace(const RunConfig& config, const SpanRecorder& recorder) {
  if (config.trace_out.empty()) return true;
  if (!recorder.WriteChromeTrace(config.trace_out)) {
    std::printf("error: cannot write trace to %s\n", config.trace_out.c_str());
    return false;
  }
  std::printf("trace: %zu spans written to %s\n", recorder.spans().size(),
              config.trace_out.c_str());
  return true;
}

}  // namespace perfbench

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "<pooled-offline|prod-online|sim-serving> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               message);
  return 2;
}

bool ParseUint(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0' && text[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("flag without a value");
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, n)) return Usage("--seed must be an integer");
      config.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, n) || n < 1 || n > 600) {
        return Usage("--seconds must be an integer in [1, 600]");
      }
      config.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_seed || !have_seconds) return Usage("--seed and --seconds are required");

  const perfbench::CpuTicks before = perfbench::ReadCpuTicks();
  perfbench::Result result;
  if (workload == "pooled-offline") {
    result = perfbench::RunPooledOffline(config);
  } else if (workload == "prod-online") {
    result = perfbench::RunProdOnline(config);
  } else if (workload == "sim-serving") {
    result = perfbench::RunSimServing(config);
  } else {
    return Usage("unknown --workload");
  }
  const perfbench::CpuTicks after = perfbench::ReadCpuTicks();
  if (after.total > before.total) {
    std::printf("host: %.2f%% of CPU time was stolen by the hypervisor during "
                "the run\n",
                100.0 * static_cast<double>(after.steal - before.steal) /
                    static_cast<double>(after.total - before.total));
  }
  std::printf("%s: sent %llu, succeeded %llu, failed %llu, outputs %s\n",
              workload.c_str(),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.attempted - result.failed),
              static_cast<unsigned long long>(result.failed),
              result.correct ? "correct" : "INCORRECT");
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
