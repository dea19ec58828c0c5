// Paper Fig. 12: ring-oscillator frequency histogram from Monte-Carlo at
// severe mismatch, against the Gaussian PDF implied by the (linear)
// pseudo-noise analysis.
//
// Paper result at 3sigma(IDS)=44%: the linear analysis underestimates the
// true sigma by 15.9% and the distribution is visibly non-Gaussian. We run
// the near-threshold ring at the severity where our substrate shows the
// same behaviour (see bench_fig11 for the sweep and DESIGN.md for the
// model-linearity substitution note).
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "core/pseudo_noise.hpp"
#include "engine/transient.hpp"
#include "meas/histogram.hpp"
#include "meas/measure.hpp"
#include "numeric/statistics.hpp"
#include "rf/pss.hpp"

using namespace psmn;
using namespace psmn::benchutil;

int main() {
  header("Fig. 12: oscillator frequency histogram at severe mismatch");
  const Real scale = 3.5;
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
  std::printf("severity: 3sig(IDS) ~ %.0f%%  f0 = %.3f GHz  pseudo-noise "
              "sigma_f = %.2f MHz (%.2f%%)\n",
              300.0 * relativeIdsSigma(*kit.nmos, oo.wn, kit.lmin,
                                       kit.vdd - kit.nmos->vt0),
              f0 / 1e9, sigmaPn / 1e6, 100.0 * sigmaPn / f0);

  const size_t samples = scaled(1000);
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
  const McResult mc = MonteCarloEngine(sys, mo).run({"f"}, measure);
  const Real under = 100.0 * (1.0 - sigmaPn / mc.sigma());
  std::printf("monte-carlo (%zu samples, %zu failed): sigma_f = %.2f MHz "
              "(%.2f%%), skewness = %+.3f\n",
              samples, mc.failedSamples, mc.sigma() / 1e6,
              100.0 * mc.sigma() / mc.meanOf(),
              mc.moments[0].normalizedSkewness());
  std::printf("linear analysis underestimates sigma by %.1f%% (paper at "
              "3sig(IDS)=44%%: 15.9%%)\n\n",
              under);

  const Histogram h =
      Histogram::fromSamples(mc.column(0), 31, f0 - 4.0 * mc.sigma(),
                             f0 + 4.0 * mc.sigma());
  std::printf("histogram (#) with linear pseudo-noise Gaussian PDF (*):\n%s\n",
              h.render(56, [&](Real x) {
                 return gaussPdf(x, f0, sigmaPn);
               }).c_str());
  return 0;
}
