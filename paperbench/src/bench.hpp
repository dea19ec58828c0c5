// Shared declarations of the paper-workload benchmark: the workload
// interface, per-pass results, the traced-run layer attribution, and the
// calibrated kernel costs. See ../README.md for the workloads and metrics.
#pragma once

#include <array>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/mna.hpp"
#include "rf/pss.hpp"
#include "runtime/thread_pool.hpp"
#include "util/telemetry.hpp"

namespace paperbench {

using psmn::Real;
using psmn::RealVector;

inline double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// CPU seconds the process has used so far, all threads, user + system.
/// Unlike wall time it leaves out the time the host gives the benchmark's
/// vCPUs to other guests (paravirtual steal accounting), which on a shared
/// host is the largest part of the run-to-run spread (README.md, "Noise").
inline double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Thread CPU seconds of one run of the host speed probe (host_probe.cpp).
double hostProbeSeconds();

struct Config {
  uint64_t seed = 1;
  size_t jobs = 1;       // min(4, nproc): MC, sweep and ring63 RF pools
  std::string deckDir;   // examples/decks
};

/// psmn's seven modules, the layers the traced run attributes time to.
enum Layer : size_t {
  kCircuit = 0,
  kNumeric,
  kEngine,
  kRf,
  kCore,
  kRuntime,
  kMeas,
  kNumLayers,
};
inline constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "circuit", "numeric", "engine", "rf", "core", "runtime", "meas"};

/// Registry counter totals folded into the counts the metrics name.
struct Counts {
  uint64_t evals = 0, factors = 0, solveCols = 0, newton = 0, steps = 0;
  uint64_t sparseFactors = 0, nnzTotal = 0;

  void addRegistry(const psmn::TelemetryRegistry::Totals& after,
                   const psmn::TelemetryRegistry::Totals& before);
  void addStats(const psmn::SolveStats& s);
  void add(const Counts& o);
};

/// Calibrated per-call costs of the three kernels on one circuit at its
/// operating point.
struct KernelCost {
  double evalUs = 0.0, factorUs = 0.0, solveUsPerCol = 0.0;
};

/// Times MnaSystem::evalDense/evalSparse, DenseLU::factor or
/// SparseLU::refactor on J = G + C/h, and solveManyInPlace, at `x`.
/// The backend follows the engines' automatic choice for sys.size().
KernelCost calibrateKernels(const psmn::MnaSystem& sys, const RealVector& x,
                            Real h);

/// Exact LPTV solve columns of a pseudo-noise analysis: reruns
/// PnoiseAnalysis on the analysis's PSS result under a private registry
/// (TransientMismatchAnalysis runs PSS and pnoise inside one call, so the
/// traced pass cannot separate their counters).
uint64_t countLptvSolveCols(const psmn::MnaSystem& sys,
                            const psmn::PssResult& pss,
                            psmn::ThreadPool* pool);

/// Calibration of one traced run: kernel costs per circuit (keys as in
/// PassResult::counts) and the exact LPTV solve columns of one pass.
struct Calibration {
  std::map<std::string, KernelCost> kernels;
  uint64_t lptvSolveCols = 0;
};

/// What one pass of a workload produced. Times are wall seconds measured
/// with tracing off (or on, in the traced pass).
struct PassResult {
  double wallS = 0.0;
  double cpuS = 0.0;    // process CPU seconds of the whole pass
  /// Process CPU seconds to the workload's sigma: the pseudo-noise
  /// analyses (table2, ring63_pn) or the deck sweeps (deck_sweep).
  double sigmaCpuS = 0.0;
  /// Thread CPU seconds of the host speed probe, the mean of one run just
  /// before and one just after the pass.
  double probeS = 0.0;
  double pnS = 0.0;     // pseudo-noise analyses (ring warmups included)
  double mcS = 0.0;     // MonteCarloEngine::run, summed
  uint64_t mcSamples = 0;
  double sweepS = 0.0;  // runScenarioSweep, summed over decks
  uint64_t scenarios = 0;
  uint64_t attempted = 0, failed = 0, retries = 0;
  /// Deterministic pseudo-noise sigmas by circuit; MC (or sweep) sigmas
  /// with the successful sample counts behind them.
  std::map<std::string, double> pnSigma, mcSigma;
  std::map<std::string, uint64_t> mcN;
  /// Per-circuit wall seconds of the pseudo-noise and MC runs (speedup).
  std::map<std::string, double> pnTime, mcTime;
  /// Traced pass only: exact kernel counts per circuit — registry counter
  /// deltas, except MC samples, whose counts are summed from the
  /// per-sample TransientResult/DcResult stats.
  std::map<std::string, Counts> counts;
  uint64_t pssShootingIters = 0, pssSteps = 0;  // from the PssResults
};

/// Seed-independent correctness checks a workload makes after measuring.
struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One full pass over the workload's analyses; `passSeed` seeds the MC
  /// and sweep draws (pseudo-noise is deterministic).
  virtual PassResult runPass(uint64_t passSeed, bool traced) = 0;
  /// Seed-independent checks, run once after the measured passes.
  virtual std::vector<CheckResult> check(uint64_t seed) = 0;
  /// Called after a traced pass with no registry bound.
  virtual Calibration calibrate() = 0;
  /// Fan-out regions of the traced run: span name -> slots it runs on.
  virtual std::map<std::string, size_t> regions() const = 0;
};

/// Constructing a workload is its set-up: fixtures, decks, pools.
std::unique_ptr<Workload> makeTable2(const Config& cfg);
std::unique_ptr<Workload> makeRing63(const Config& cfg);
std::unique_ptr<Workload> makeDeckSweep(const Config& cfg);

/// Reference mode: one table2 pass with `samples` MC samples per circuit.
PassResult runTable2Reference(const Config& cfg, size_t samples);

/// Traced-run attribution of one pass (see trace.cpp).
struct Attribution {
  double wallS = 0.0;
  /// Wall-share self time per layer: inside a fan-out region each instant
  /// is split equally among the region's slots.
  std::array<double, kNumLayers> selfS{};
  /// Same self times unscaled, in thread-seconds.
  std::array<double, kNumLayers> selfThreadS{};
  double glueS = 0.0;     // the benchmark's own code between layer calls
  double idleS = 0.0;     // idle slot share inside regions (in runtime)
  double busyThreadS = 0.0, capacityThreadS = 0.0;
  std::vector<double> busyPerSlot;
  size_t badNesting = 0;  // spans that overlap without nesting
  size_t strays = 0;      // worker-slot spans outside every region
  std::map<std::string, double> inclusiveS;  // per span name, summed
  std::map<std::string, uint64_t> spanCount;
};

Attribution attribute(const std::vector<psmn::TraceEvent>& events,
                      const std::map<std::string, size_t>& regions,
                      size_t slots);

/// Traced runs: binds the calling thread to a registry slot for the
/// duration of an MC sample. The benchmark's own callbacks do this because
/// MonteCarloEngine's private pool is never attached to a registry.
class SampleBinding {
 public:
  explicit SampleBinding(psmn::TelemetryRegistry* reg);
  ~SampleBinding();
  SampleBinding(const SampleBinding&) = delete;
  SampleBinding& operator=(const SampleBinding&) = delete;

  /// Forgets thread->slot assignments (each MC run has fresh threads).
  static void resetSlots();

 private:
  std::unique_ptr<psmn::TelemetryScope> scope_;
};

/// Registry of the current traced pass (null when tracing is off).
psmn::TelemetryRegistry* tracedRegistry();
void setTracedRegistry(psmn::TelemetryRegistry* reg);

}  // namespace paperbench
