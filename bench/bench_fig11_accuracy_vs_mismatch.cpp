// Paper Fig. 11: error of the pseudo-noise sigma estimate and the
// normalized skewness of the Monte-Carlo distribution versus the amount of
// transistor mismatch, for the ring-oscillator frequency.
//
// Substitution note (see DESIGN.md): our smoothed square-law MOSFET is
// more linear than the paper's foundry BSIM models, so the error crosses
// 10% at a larger 3sigma(IDS) than the paper's 39%. To exercise the
// nonlinear regime we run a near-threshold ring (VDD = 0.7 V, small
// devices) and sweep the Pelgrom constants; the paper's qualitative shape
// — |error| growing with mismatch while the distribution skews away from
// Gaussian — is what this bench regenerates.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "core/pseudo_noise.hpp"
#include "engine/transient.hpp"
#include "meas/measure.hpp"
#include "rf/pss.hpp"

using namespace psmn;
using namespace psmn::benchutil;

namespace {

struct Point {
  Real sigma3Ids;
  Real sigmaPnRel;
  Real sigmaMcRel;
  Real errorPct;
  Real skewness;
  size_t failed;
  std::map<std::string, size_t> reasons;  // failure text -> samples
};

Point runPoint(Real scale, size_t samples) {
  Netlist nl;
  auto kit = ProcessKit::cmos130(scale);
  kit.vdd = 0.7;
  RingOscillatorOptions oo;
  oo.wn = 0.5e-6;
  oo.wp = 1e-6;
  oo.cLoad = 10e-15;
  const auto osc = buildRingOscillator(nl, kit, oo);
  MnaSystem sys(nl);
  const RingWarmup warm = warmupRingOscillator(sys, osc, 60e-9, 20e-12);

  MismatchAnalysisOptions opt;
  opt.pss.stepsPerPeriod = 400;
  TransientMismatchAnalysis an(sys, opt);
  an.runAutonomous(warm.periodEstimate, warm.phaseIndex, warm.state);
  const Real f0 = 1.0 / an.pss().period;
  const Real sigmaPn = an.frequencyVariation(warm.phaseIndex).sigma();

  const Real dt = an.pss().period / 400;
  auto measure = [&](const MnaSystem& s) -> RealVector {
    TranOptions t2;
    t2.method = IntegrationMethod::kBackwardEuler;
    t2.initialState = &warm.state;
    const TransientResult tr =
        runTransient(s, 0.0, 25 * warm.periodEstimate, dt, t2);
    const Waveform w = makeWaveform(tr.times, tr.states, warm.phaseIndex);
    return {measureFrequency(w, kit.vdd / 2, 8)};
  };
  McOptions mo;
  mo.samples = samples;
  mo.keepSamples = false;
  const McResult mc = MonteCarloEngine(sys, mo).run({"f"}, measure);

  Point p;
  // Report the severity on the paper's x-axis: relative IDS sigma of the
  // switching devices at their on-state overdrive.
  p.sigma3Ids = 3.0 * relativeIdsSigma(*kit.nmos, oo.wn, kit.lmin,
                                       kit.vdd - kit.nmos->vt0);
  p.sigmaPnRel = sigmaPn / f0;
  p.sigmaMcRel = mc.sigma() / mc.meanOf();
  p.errorPct = 100.0 * (p.sigmaPnRel / p.sigmaMcRel - 1.0);
  p.skewness = mc.moments[0].normalizedSkewness();
  p.failed = mc.failedSamples;
  for (const McFailure& f : mc.failures) ++p.reasons[f.error];
  return p;
}

}  // namespace

int main() {
  header("Fig. 11: sigma-estimation error and skewness vs mismatch "
         "severity (near-threshold ring oscillator)");
  const size_t samples = scaled(500);
  std::printf("%10s %12s %12s %10s %10s %8s\n", "3sig(IDS)", "sigma_pn/f0",
              "sigma_mc/f0", "error", "skewness", "failed");
  for (Real scale : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5}) {
    const Point p = runPoint(scale, samples);
    std::printf("%9.1f%% %11.3f%% %11.3f%% %+9.1f%% %+10.3f %8zu\n",
                100.0 * p.sigma3Ids, 100.0 * p.sigmaPnRel,
                100.0 * p.sigmaMcRel, p.errorPct, p.skewness, p.failed);
    for (const auto& [reason, count] : p.reasons) {
      std::printf("%14zu x %s\n", count, reason.c_str());
    }
  }
  rule();
  std::printf("Paper's shape: the linear pseudo-noise estimate degrades and "
              "the distribution\nskews as mismatch grows (their 10%% error "
              "point: 3sig(IDS)=39%% on BSIM;\nthe square-law substrate is "
              "more linear, shifting the crossover right).\n");
  return 0;
}
