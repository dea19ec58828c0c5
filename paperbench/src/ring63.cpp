// Workload `ring63_pn`: warmup, autonomous PSS and pseudo-noise on a
// 63-stage ring oscillator, with a `jobs`-slot pool in PssOptions::pool and
// PnoiseOptions::pool. n = 65 unknowns puts it above the 40-unknown sparse
// crossover, the only workload that exercises SparseLU refactors, the fill
// ordering, the RF pool fan-out and the memory held by the LPTV envelopes.
#include "bench.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "rf/pss.hpp"
#include "runtime/thread_pool.hpp"

namespace paperbench {

using namespace psmn;

namespace {

constexpr Phase kSpan = Phase::kKernel;

// Settings of the 63-stage regression in tests/test_robustness.cpp:
// 630 steps per period resolve the ~T/126 stage delay; the warmup starts
// from the railed alternating state, which seeds the fundamental mode.
constexpr int kStages = 63;
constexpr int kStepsPerPeriod = 630;
constexpr Real kWarmRunTime = 200e-9;
constexpr Real kWarmDt = 25e-12;

class Ring63 final : public Workload {
 public:
  explicit Ring63(const Config& cfg)
      : kit_(ProcessKit::cmos130()), pool_(cfg.jobs) {
    RingOscillatorOptions ropt;
    ropt.stages = kStages;
    osc_ = buildRingOscillator(nl_, kit_, ropt);
    sys_ = std::make_unique<MnaSystem>(nl_);
  }

  std::map<std::string, size_t> regions() const override { return {}; }

  PassResult runPass(uint64_t, bool traced) override {
    PassResult r;
    TelemetryRegistry* reg = traced ? tracedRegistry() : nullptr;
    pool_.attachTelemetry(reg);
    const auto before = reg != nullptr ? reg->totals()
                                       : TelemetryRegistry::Totals{};
    const auto t0 = std::chrono::steady_clock::now();
    const double c0 = processCpuSeconds();
    {
      TraceSpan span(kSpan, "bench.workload");
      {
        TraceSpan warmSpan(kSpan, "engine.warmup");
        warm_ = modeCorrectedRingWarmup(*sys_, osc_, kWarmRunTime, kWarmDt);
      }
      r.pnTime["warmup"] = secondsSince(t0);
      MismatchAnalysisOptions opt;
      opt.pss.stepsPerPeriod = kStepsPerPeriod;
      opt.pss.pool = &pool_;
      opt.pnoise.pool = &pool_;
      TransientMismatchAnalysis an(*sys_, opt);
      {
        TraceSpan anSpan(kSpan, "core.mismatch_analysis");
        an.runAutonomous(warm_.periodEstimate, warm_.phaseIndex, warm_.state);
      }
      r.pnTime["analysis"] = secondsSince(t0) - r.pnTime["warmup"];
      {
        TraceSpan readSpan(kSpan, "core.readout");
        r.pnSigma["ring63"] = an.frequencyVariation(warm_.phaseIndex).sigma();
      }
      period_ = an.pss().period;
      modes_ = countRingModes(*sys_, osc_, an.pss().states.front());
      if (traced) {
        lastPss_ = an.pss();
        r.pssShootingIters = an.pss().shootingIterations;
        r.pssSteps = an.pss().stats.steps;
      }
    }
    r.wallS = secondsSince(t0);
    r.pnS = r.wallS;
    r.cpuS = r.sigmaCpuS = processCpuSeconds() - c0;
    r.attempted = 1;
    if (reg != nullptr) r.counts["ring63"].addRegistry(reg->totals(), before);
    pool_.attachTelemetry(nullptr);
    return r;
  }

  std::vector<CheckResult> check(uint64_t) override {
    CheckResult cr;
    cr.name = "ring63_fundamental_mode";
    cr.ok = modes_ == 1;
    cr.detail = std::to_string(modes_) + " circulating wave(s) on the orbit";
    return {cr};
  }

  Calibration calibrate() override {
    Calibration c;
    c.kernels["ring63"] =
        calibrateKernels(*sys_, warm_.state, period_ / kStepsPerPeriod);
    c.lptvSolveCols = countLptvSolveCols(*sys_, lastPss_, &pool_);
    return c;
  }

 private:
  ProcessKit kit_;
  Netlist nl_;
  RingOscillatorCircuit osc_;
  std::unique_ptr<MnaSystem> sys_;
  ThreadPool pool_;
  RingWarmup warm_;
  PssResult lastPss_;  // traced pass, for calibrate
  Real period_ = 0.0;
  int modes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeRing63(const Config& cfg) {
  return std::make_unique<Ring63>(cfg);
}

}  // namespace paperbench
