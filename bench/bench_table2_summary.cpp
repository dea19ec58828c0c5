// Paper Table II: benchmark summary.
//
// For each of the three benchmark circuits — clocked-comparator input
// offset, logic-path delay, ring-oscillator frequency — this bench runs
//   (a) the pseudo-noise sensitivity analysis (PSS + LPTV noise at 1 Hz),
//   (b) Monte-Carlo with N samples (N=1000 by default; PSMN_MC_SCALE
//       rescales),
// and prints sigma from both, the agreement, the wall-clock times, and the
// speedup (including the projection to a 10000-point MC, which is what the
// paper's 100-1000x headline compares against).
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "meas/measure.hpp"
#include "numeric/statistics.hpp"
#include "rf/pss.hpp"
#include "util/units.hpp"

using namespace psmn;
using namespace psmn::benchutil;

namespace {

struct Row {
  std::string name;
  std::string unit;
  Real sigmaPn = 0.0;
  double timePn = 0.0;
  Real sigmaMc = 0.0;
  double timeMc = 0.0;
  size_t mcSamples = 0;
  size_t mcFailed = 0;
};

void printRow(const Row& r) {
  const double perSample = r.timeMc / static_cast<double>(r.mcSamples);
  const double mc1k = perSample * 1000.0;
  const double mc10k = perSample * 10000.0;
  std::printf("%-22s sigma=%8s%s  t=%7.2fs |", r.name.c_str(),
              formatEng(r.sigmaPn, 3).c_str(), r.unit.c_str(), r.timePn);
  std::printf(" MC-%zu: sigma=%8s%s t=%7.1fs", r.mcSamples,
              formatEng(r.sigmaMc, 3).c_str(), r.unit.c_str(), r.timeMc);
  if (r.mcFailed > 0) std::printf(" (%zu failed)", r.mcFailed);
  std::printf("\n%-22s ratio(pn/mc)=%.3f   speedup vs MC-1k: %.0fx   vs "
              "MC-10k: %.0fx\n",
              "", r.sigmaPn / r.sigmaMc, mc1k / r.timePn, mc10k / r.timePn);
}

Row benchComparator(size_t samples) {
  Row row;
  row.name = "comparator offset";
  row.unit = "V";
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto tb = buildComparatorTestbench(nl, kit);
  MnaSystem sys(nl);
  const Real T = tb.clkPeriod;

  {
    Stopwatch sw;
    MismatchAnalysisOptions opt;
    opt.pss.stepsPerPeriod = 400;
    opt.pss.warmupCycles = 40;
    TransientMismatchAnalysis an(sys, opt);
    an.runDriven(T);
    row.sigmaPn = an.dcVariation(tb.vosIndex).sigma();
    row.timePn = sw.seconds();
  }

  // Each sample integrates the testbench from power-up (vos = 0) until
  // the offset loop settles — the paper's "long transient" cost. Settling
  // is detected in 10-cycle blocks.
  auto measure = [&](const MnaSystem& s) -> RealVector {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    topt.storeStates = false;
    RealVector x = solveDc(s, {}).x;
    x[tb.vosIndex] = 0.0;
    Real prev = 1e9;
    TranOptions t2 = topt;
    for (int block = 0; block < 30; ++block) {
      t2.initialState = &x;
      const TransientResult tr = runTransient(s, 0.0, 10 * T, T / 100, t2);
      x = tr.finalState;
      if (std::fabs(x[tb.vosIndex] - prev) < 1e-4) break;
      prev = x[tb.vosIndex];
    }
    return {x[tb.vosIndex]};
  };
  McOptions mo;
  mo.samples = samples;
  mo.keepSamples = false;
  const McResult mc = MonteCarloEngine(sys, mo).run({"vos"}, measure);
  row.sigmaMc = mc.sigma();
  row.timeMc = mc.elapsedSeconds;
  row.mcSamples = samples;
  row.mcFailed = mc.failedSamples;
  return row;
}

Row benchLogicPath(size_t samples) {
  Row row;
  row.name = "logic-path delay";
  row.unit = "s";
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto lp = buildLogicPath(nl, kit, {});
  MnaSystem sys(nl);
  const int aIdx = sys.netlist().nodeIndex(lp.outA);
  const Real half = kit.vdd / 2;

  {
    Stopwatch sw;
    MismatchAnalysisOptions opt;
    opt.pss.stepsPerPeriod = 800;
    opt.pss.warmupCycles = 2;
    TransientMismatchAnalysis an(sys, opt);
    an.runDriven(lp.period);
    row.sigmaPn = an.edgeDelayVariation(aIdx, half, -1).sigma();
    row.timePn = sw.seconds();
  }

  auto measure = [&](const MnaSystem& s) -> RealVector {
    TranOptions topt;
    topt.method = IntegrationMethod::kBackwardEuler;
    const TransientResult tr =
        runTransient(s, 0.0, lp.period, lp.period / 800, topt);
    const Waveform wy =
        makeWaveform(tr.times, tr.states, s.netlist().nodeIndex(lp.y));
    const Waveform wa = makeWaveform(tr.times, tr.states, aIdx);
    return {measureDelay(wy, wa, half, +1, -1)};
  };
  McOptions mo;
  mo.samples = samples;
  mo.keepSamples = false;
  const McResult mc = MonteCarloEngine(sys, mo).run({"delay"}, measure);
  row.sigmaMc = mc.sigma();
  row.timeMc = mc.elapsedSeconds;
  row.mcSamples = samples;
  row.mcFailed = mc.failedSamples;
  return row;
}

Row benchRingOscillator(size_t samples) {
  Row row;
  row.name = "oscillator frequency";
  row.unit = "Hz";
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit);
  MnaSystem sys(nl);
  const RingWarmup warm = warmupRingOscillator(sys, osc);

  Real period = 0.0;
  {
    Stopwatch sw;
    MismatchAnalysisOptions opt;
    opt.pss.stepsPerPeriod = 400;
    TransientMismatchAnalysis an(sys, opt);
    an.runAutonomous(warm.periodEstimate, warm.phaseIndex, warm.state);
    row.sigmaPn = an.frequencyVariation(warm.phaseIndex).sigma();
    row.timePn = sw.seconds();
    period = an.pss().period;
  }

  const Real dt = period / 400;
  auto measure = [&](const MnaSystem& s) -> RealVector {
    TranOptions t2;
    t2.method = IntegrationMethod::kBackwardEuler;
    t2.initialState = &warm.state;
    const TransientResult tr = runTransient(s, 0.0, 20 * period, dt, t2);
    const Waveform w = makeWaveform(tr.times, tr.states, warm.phaseIndex);
    return {measureFrequency(w, 0.6, 6)};
  };
  McOptions mo;
  mo.samples = samples;
  mo.keepSamples = false;
  const McResult mc = MonteCarloEngine(sys, mo).run({"f"}, measure);
  row.sigmaMc = mc.sigma();
  row.timeMc = mc.elapsedSeconds;
  row.mcSamples = samples;
  row.mcFailed = mc.failedSamples;
  return row;
}

}  // namespace

int main() {
  header("Table II: benchmark summary (pseudo-noise vs Monte-Carlo)");
  std::printf("MC confidence (95%%): +-%.1f%% at N=1000, +-%.1f%% at "
              "N=10000 (paper SS VI)\n",
              100.0 * sigmaConfidence95(1000), 100.0 * sigmaConfidence95(10000));
  rule();
  printRow(benchLogicPath(scaled(1000)));
  rule();
  printRow(benchRingOscillator(scaled(1000)));
  rule();
  printRow(benchComparator(scaled(1000)));
  rule();
  std::printf("Paper's shape: matching sigma, 100-1000x speedup, largest "
              "for the comparator\n(long settling per MC sample).\n");
  return 0;
}
