// System-calibration example: the one-time per-system step the paper
// prescribes (§6) — measure per-operator instruction footprints via dynamic
// call graphs and find the cardinality threshold via the Query-1 template —
// then persist the result so future sessions can load instead of re-running.
// The file uses the one calibration format sim::CodeLayout::LoadCalibration
// reads: a `func <name> <bytes>` pin per measured function plus a
// `threshold <rows>` line.
//
//   ./build/examples/calibrate_system [output_path]
//
// Exits 1 when calibration, saving or reloading fails, or when the reloaded
// threshold differs from the one written.

#include <cstdio>
#include <string>

#include "core/plan_refiner.h"
#include "core/threshold_calibration.h"
#include "profile/calibration_queries.h"
#include "sim/code_layout.h"

using namespace bufferdb;  // NOLINT: example code.

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : "bufferdb_calibration.txt";

  std::printf("Calibrating (footprints + cardinality threshold)...\n\n");
  const profile::FootprintTable footprints = profile::CalibrateFootprints();
  const double threshold = CalibrateCardinalityThreshold().threshold;
  std::printf("%s", footprints.ToString().c_str());
  std::printf("\ncardinality threshold: %.0f\n", threshold);

  FuncSet measured;
  for (int m = 0; m < sim::kNumModuleIds; ++m) {
    measured.UnionWith(footprints.funcs(static_cast<sim::ModuleId>(m)));
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open for writing: %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "# system calibration: measured functions + threshold\n");
  for (sim::FuncId f : measured.ToVector()) {
    std::fprintf(out, "func %s %u\n", sim::FuncName(f),
                 sim::CodeLayout::Default().info(f).size_bytes);
  }
  std::fprintf(out, "threshold %.17g\n", threshold);
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "write failed: %s\n", path.c_str());
    return 1;
  }
  std::printf("saved %zu function pins to %s\n\n", measured.count(),
              path.c_str());

  // A later session loads the file instead of re-measuring, and feeds the
  // threshold into the plan refiner.
  std::string error;
  double reloaded = 0;
  if (!sim::CodeLayout::LoadCalibration(path, &error, &reloaded)) {
    std::fprintf(stderr, "reload failed: %s\n", error.c_str());
    return 1;
  }
  if (reloaded != threshold) {
    std::fprintf(stderr, "reloaded threshold %.17g != written %.17g\n",
                 reloaded, threshold);
    return 1;
  }
  RefinementOptions options;
  options.cardinality_threshold = reloaded;
  PlanRefiner refiner(options);
  std::printf("reloaded OK; PlanRefiner configured with threshold %.0f and "
              "L1I capacity %llu bytes\n",
              refiner.options().cardinality_threshold,
              static_cast<unsigned long long>(
                  refiner.options().l1i_capacity_bytes));

  // Show the static-vs-dynamic contrast the paper discusses in §6.1.
  std::printf("\nstatic vs dynamic footprint (why the paper profiles "
              "dynamically):\n");
  for (auto module : {sim::ModuleId::kSeqScan, sim::ModuleId::kSort}) {
    std::printf("  %-12s dynamic %5llu B   static estimate %5llu B\n",
                sim::ModuleName(module),
                static_cast<unsigned long long>(
                    footprints.footprint_bytes(module)),
                static_cast<unsigned long long>(
                    footprints.StaticEstimateBytes(module)));
  }
  return 0;
}
