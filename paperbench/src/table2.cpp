// Workload `table2`: the paper's Table II on its three circuits — the
// logic path (edge delay), the 5-stage ring (frequency) and the comparator
// testbench (offset). Fixtures, PSS options and MC measurement lambdas are
// those of bench/bench_table2_summary.cpp. Each circuit gets one pseudo-noise
// run with no pool (the library default; an RF pool makes analyses of this
// size slower), then a seeded MonteCarloEngine run on `jobs` slots.
#include <cmath>
#include <cstring>
#include <mutex>

#include "bench.hpp"
#include "circuit/stdcell.hpp"
#include "core/mismatch_analysis.hpp"
#include "core/monte_carlo.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "meas/measure.hpp"
#include "rf/pss.hpp"

namespace paperbench {

using namespace psmn;

namespace {

// The benchmark's spans use the kernel category: at phase detail psmn
// records no kernel spans of its own, so the category stays unambiguous.
constexpr Phase kSpan = Phase::kKernel;

// MC samples per circuit per pass: each circuit's MC takes roughly the same
// wall time, so no one circuit dominates mc_samples_per_s.
constexpr size_t kLogicSamples = 64;
constexpr size_t kRingSamples = 32;
constexpr size_t kComparatorSamples = 16;

/// Per-sample cost counters the measure lambdas see (TransientResult and
/// DcResult stats). MonteCarloEngine's private pool is never attached to a
/// registry, so these are the MC counts.
class SampleCounts {
 public:
  void add(const SolveStats& s) {
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.addStats(s);
  }
  Counts take() {
    std::lock_guard<std::mutex> lock(mutex_);
    Counts c = counts_;
    counts_ = Counts{};
    return c;
  }

 private:
  std::mutex mutex_;
  Counts counts_;
};

struct Circuit {
  std::string key;
  std::unique_ptr<Netlist> nl = std::make_unique<Netlist>();
  std::unique_ptr<MnaSystem> sys;
};

class Table2 final : public Workload {
 public:
  explicit Table2(const Config& cfg) : cfg_(cfg), kit_(ProcessKit::cmos130()) {
    logic_.key = "logic_path";
    lp_ = buildLogicPath(*logic_.nl, kit_, {});
    logic_.sys = std::make_unique<MnaSystem>(*logic_.nl);
    ring_.key = "ring_osc";
    osc_ = buildRingOscillator(*ring_.nl, kit_);
    ring_.sys = std::make_unique<MnaSystem>(*ring_.nl);
    cmp_.key = "comparator";
    tb_ = buildComparatorTestbench(*cmp_.nl, kit_);
    cmp_.sys = std::make_unique<MnaSystem>(*cmp_.nl);
  }

  std::map<std::string, size_t> regions() const override {
    return {{"core.mc_run", cfg_.jobs}};
  }

  PassResult runPass(uint64_t passSeed, bool traced) override {
    return pass(passSeed, traced, {kLogicSamples, kRingSamples,
                                   kComparatorSamples});
  }

  /// One pass with the given MC sample counts (logic path, ring,
  /// comparator).
  PassResult pass(uint64_t passSeed, bool traced,
                  std::array<size_t, 3> samples) {
    PassResult r;
    traced_ = traced;
    const auto t0 = std::chrono::steady_clock::now();
    const double c0 = processCpuSeconds();
    {
      TraceSpan span(kSpan, "bench.workload");
      logicPath(passSeed, cfg_.jobs, samples[0], r);
      ringOsc(passSeed, cfg_.jobs, samples[1], r);
      comparator(passSeed, cfg_.jobs, samples[2], r);
    }
    r.wallS = secondsSince(t0);
    r.cpuS = processCpuSeconds() - c0;
    return r;
  }

  Calibration calibrate() override {
    Calibration c;
    c.kernels[logic_.key] = calibrateKernels(
        *logic_.sys, solveDc(*logic_.sys, {}).x, lp_.period / 800);
    c.kernels[ring_.key] =
        calibrateKernels(*ring_.sys, warm_.state, ringPeriod_ / 400);
    c.kernels[cmp_.key] = calibrateKernels(
        *cmp_.sys, solveDc(*cmp_.sys, {}).x, tb_.clkPeriod / 100);
    for (const Circuit* ckt : {&logic_, &ring_, &cmp_}) {
      c.lptvSolveCols +=
          countLptvSolveCols(*ckt->sys, lastPss_.at(ckt->key), nullptr);
    }
    return c;
  }

  std::vector<CheckResult> check(uint64_t seed) override {
    // The first MC samples must be bit-identical between jobs = 1 and
    // jobs = N: every sample's stream is a function of (seed, index) only.
    std::vector<CheckResult> out;
    const size_t k = std::max<size_t>(2, cfg_.jobs);
    traced_ = false;
    for (int c = 0; c < 3; ++c) {
      PassResult serial, parallel;
      const McResult a = runCircuitMc(c, seed, 1, k, true, serial);
      const McResult b = runCircuitMc(c, seed, cfg_.jobs, k, true, parallel);
      bool same = a.samples.size() == b.samples.size() &&
                  a.failedSamples == b.failedSamples;
      for (size_t i = 0; same && i < a.samples.size(); ++i) {
        same = a.samples[i].size() == b.samples[i].size() &&
               std::memcmp(a.samples[i].data(), b.samples[i].data(),
                           a.samples[i].size() * sizeof(Real)) == 0;
      }
      CheckResult cr;
      cr.name = "mc_bit_identical_jobs." + circuitKey(c);
      cr.ok = same;
      cr.detail = std::to_string(a.samples.size()) + " samples at jobs=1 vs " +
                  std::to_string(cfg_.jobs);
      out.push_back(cr);
    }
    return out;
  }

 private:
  const std::string& circuitKey(int c) const {
    return c == 0 ? logic_.key : c == 1 ? ring_.key : cmp_.key;
  }

  McResult runCircuitMc(int c, uint64_t seed, size_t jobs, size_t samples,
                        bool keep, PassResult& r) {
    if (c == 0) return logicMc(seed, jobs, samples, keep, r);
    if (c == 1) {
      if (ringPeriod_ == 0.0) ringPn(r);
      return ringMc(seed, jobs, samples, keep, r);
    }
    return comparatorMc(seed, jobs, samples, keep, r);
  }

  McOptions mcOptions(uint64_t seed, size_t jobs, size_t samples,
                      bool keep) const {
    McOptions mo;
    mo.samples = samples;
    mo.keepSamples = keep;
    mo.seed = seed;
    mo.jobs = jobs;
    return mo;
  }

  McResult runMc(MonteCarloEngine& eng, const std::string& name,
                 const McMeasure& measure, const Circuit& c, PassResult& r) {
    SampleBinding::resetSlots();
    McResult mc;
    const auto t0 = std::chrono::steady_clock::now();
    {
      TraceSpan span(kSpan, "core.mc_run");
      mc = eng.run({name}, measure);
    }
    r.mcTime[c.key] = secondsSince(t0);
    r.mcS += r.mcTime[c.key];
    r.mcSamples += mc.moments[0].count() + mc.failedSamples;
    r.attempted += mc.moments[0].count() + mc.failedSamples;
    r.failed += mc.failedSamples;
    r.mcSigma[c.key] = mc.sigma();
    r.mcN[c.key] = mc.moments[0].count();
    if (traced_) r.counts[c.key].add(sampleCounts_.take());
    return mc;
  }

  /// Pseudo-noise analyses run with the registry's counters captured
  /// around them; the MC counts come from the sample stats instead.
  template <class Fn>
  void pnCounted(const std::string& key, PassResult& r, Fn&& fn) {
    TelemetryRegistry* reg = traced_ ? tracedRegistry() : nullptr;
    const auto before = reg != nullptr ? reg->totals()
                                       : TelemetryRegistry::Totals{};
    fn();
    if (reg != nullptr) r.counts[key].addRegistry(reg->totals(), before);
  }

  // ------------------------------------------------------- logic path
  void logicPath(uint64_t seed, size_t jobs, size_t samples, PassResult& r) {
    const auto t0 = std::chrono::steady_clock::now();
    const double c0 = processCpuSeconds();
    pnCounted(logic_.key, r, [&] {
      const int aIdx = logic_.sys->netlist().nodeIndex(lp_.outA);
      MismatchAnalysisOptions opt;
      opt.pss.stepsPerPeriod = 800;
      opt.pss.warmupCycles = 2;
      TransientMismatchAnalysis an(*logic_.sys, opt);
      {
        TraceSpan span(kSpan, "core.mismatch_analysis");
        an.runDriven(lp_.period);
      }
      TraceSpan span(kSpan, "core.readout");
      r.pnSigma[logic_.key] =
          an.edgeDelayVariation(aIdx, kit_.vdd / 2, -1).sigma();
      if (traced_) recordPss(logic_.key, an.pss(), r);
    });
    r.pnS += r.pnTime[logic_.key] = secondsSince(t0);
    r.sigmaCpuS += processCpuSeconds() - c0;
    r.attempted += 1;
    logicMc(seed, jobs, samples, false, r);
  }

  McResult logicMc(uint64_t seed, size_t jobs, size_t samples, bool keep,
                   PassResult& r) {
    const int aIdx = logic_.sys->netlist().nodeIndex(lp_.outA);
    const Real half = kit_.vdd / 2;
    TelemetryRegistry* reg = traced_ ? tracedRegistry() : nullptr;
    auto measure = [&, reg](const MnaSystem& s) -> RealVector {
      SampleBinding bind(reg);
      TraceSpan sample(kSpan, "runtime.sample");
      TranOptions topt;
      topt.method = IntegrationMethod::kBackwardEuler;
      TransientResult tr;
      {
        TraceSpan span(kSpan, "engine.transient");
        tr = runTransient(s, 0.0, lp_.period, lp_.period / 800, topt);
      }
      if (reg != nullptr) sampleCounts_.add(tr.stats);
      TraceSpan span(kSpan, "meas.delay");
      const Waveform wy =
          makeWaveform(tr.times, tr.states, s.netlist().nodeIndex(lp_.y));
      const Waveform wa = makeWaveform(tr.times, tr.states, aIdx);
      return {measureDelay(wy, wa, half, +1, -1)};
    };
    MonteCarloEngine eng(*logic_.sys, mcOptions(seed, jobs, samples, keep));
    eng.setNetlistFactory([this] {
      TraceSpan span(kSpan, "circuit.build");
      auto nl = std::make_unique<Netlist>();
      buildLogicPath(*nl, kit_, {});
      return nl;
    });
    return runMc(eng, "delay", measure, logic_, r);
  }

  // ------------------------------------------------------------- ring
  void ringPn(PassResult& r) {
    const auto t0 = std::chrono::steady_clock::now();
    const double c0 = processCpuSeconds();
    pnCounted(ring_.key, r, [&] {
      {
        TraceSpan span(kSpan, "engine.warmup");
        warm_ = warmupRingOscillator(*ring_.sys, osc_);
      }
      MismatchAnalysisOptions opt;
      opt.pss.stepsPerPeriod = 400;
      TransientMismatchAnalysis an(*ring_.sys, opt);
      {
        TraceSpan span(kSpan, "core.mismatch_analysis");
        an.runAutonomous(warm_.periodEstimate, warm_.phaseIndex, warm_.state);
      }
      TraceSpan span(kSpan, "core.readout");
      r.pnSigma[ring_.key] = an.frequencyVariation(warm_.phaseIndex).sigma();
      ringPeriod_ = an.pss().period;
      if (traced_) recordPss(ring_.key, an.pss(), r);
    });
    r.pnS += r.pnTime[ring_.key] = secondsSince(t0);
    r.sigmaCpuS += processCpuSeconds() - c0;
    r.attempted += 1;
  }

  void ringOsc(uint64_t seed, size_t jobs, size_t samples, PassResult& r) {
    ringPn(r);
    ringMc(seed, jobs, samples, false, r);
  }

  McResult ringMc(uint64_t seed, size_t jobs, size_t samples, bool keep,
                  PassResult& r) {
    const Real period = ringPeriod_;
    const Real dt = period / 400;
    TelemetryRegistry* reg = traced_ ? tracedRegistry() : nullptr;
    auto measure = [&, reg](const MnaSystem& s) -> RealVector {
      SampleBinding bind(reg);
      TraceSpan sample(kSpan, "runtime.sample");
      TranOptions t2;
      t2.method = IntegrationMethod::kBackwardEuler;
      t2.initialState = &warm_.state;
      TransientResult tr;
      {
        TraceSpan span(kSpan, "engine.transient");
        tr = runTransient(s, 0.0, 20 * period, dt, t2);
      }
      if (reg != nullptr) sampleCounts_.add(tr.stats);
      TraceSpan span(kSpan, "meas.frequency");
      const Waveform w = makeWaveform(tr.times, tr.states, warm_.phaseIndex);
      try {
        return {measureFrequency(w, 0.6, 6)};
      } catch (const Error& e) {
        throw SampleFailure(e.what());
      }
    };
    MonteCarloEngine eng(*ring_.sys, mcOptions(seed, jobs, samples, keep));
    eng.setNetlistFactory([this] {
      TraceSpan span(kSpan, "circuit.build");
      auto nl = std::make_unique<Netlist>();
      buildRingOscillator(*nl, kit_);
      return nl;
    });
    return runMc(eng, "f", measure, ring_, r);
  }

  // ------------------------------------------------------- comparator
  void comparator(uint64_t seed, size_t jobs, size_t samples, PassResult& r) {
    const auto t0 = std::chrono::steady_clock::now();
    const double c0 = processCpuSeconds();
    pnCounted(cmp_.key, r, [&] {
      MismatchAnalysisOptions opt;
      opt.pss.stepsPerPeriod = 400;
      opt.pss.warmupCycles = 40;
      TransientMismatchAnalysis an(*cmp_.sys, opt);
      {
        TraceSpan span(kSpan, "core.mismatch_analysis");
        an.runDriven(tb_.clkPeriod);
      }
      TraceSpan span(kSpan, "core.readout");
      r.pnSigma[cmp_.key] = an.dcVariation(tb_.vosIndex).sigma();
      if (traced_) recordPss(cmp_.key, an.pss(), r);
    });
    r.pnS += r.pnTime[cmp_.key] = secondsSince(t0);
    r.sigmaCpuS += processCpuSeconds() - c0;
    r.attempted += 1;
    comparatorMc(seed, jobs, samples, false, r);
  }

  McResult comparatorMc(uint64_t seed, size_t jobs, size_t samples, bool keep,
                        PassResult& r) {
    const Real T = tb_.clkPeriod;
    const int vos = tb_.vosIndex;
    TelemetryRegistry* reg = traced_ ? tracedRegistry() : nullptr;
    // Each sample integrates the testbench from power-up (vos = 0) until
    // the offset loop settles, detected in 10-cycle blocks.
    auto measure = [&, reg](const MnaSystem& s) -> RealVector {
      SampleBinding bind(reg);
      TraceSpan sample(kSpan, "runtime.sample");
      TranOptions topt;
      topt.method = IntegrationMethod::kBackwardEuler;
      topt.storeStates = false;
      RealVector x;
      {
        TraceSpan span(kSpan, "engine.dc");
        DcResult dc = solveDc(s, {});
        if (reg != nullptr) sampleCounts_.add(dc.stats);
        x = std::move(dc.x);
      }
      x[vos] = 0.0;
      Real prev = 1e9;
      TranOptions t2 = topt;
      for (int block = 0; block < 30; ++block) {
        t2.initialState = &x;
        TransientResult tr;
        {
          TraceSpan span(kSpan, "engine.transient");
          tr = runTransient(s, 0.0, 10 * T, T / 100, t2);
        }
        if (reg != nullptr) sampleCounts_.add(tr.stats);
        x = tr.finalState;
        if (std::fabs(x[vos] - prev) < 1e-4) break;
        prev = x[vos];
      }
      return {x[vos]};
    };
    MonteCarloEngine eng(*cmp_.sys, mcOptions(seed, jobs, samples, keep));
    eng.setNetlistFactory([this] {
      TraceSpan span(kSpan, "circuit.build");
      auto nl = std::make_unique<Netlist>();
      buildComparatorTestbench(*nl, kit_);
      return nl;
    });
    return runMc(eng, "vos", measure, cmp_, r);
  }

  // ------------------------------------------------------------ traced
  void recordPss(const std::string& key, const PssResult& pss,
                 PassResult& r) {
    lastPss_[key] = pss;
    r.pssShootingIters += pss.shootingIterations;
    r.pssSteps += pss.stats.steps;
  }

  Config cfg_;
  ProcessKit kit_;
  Circuit logic_, ring_, cmp_;
  LogicPathCircuit lp_;
  RingOscillatorCircuit osc_;
  ComparatorTestbench tb_;
  RingWarmup warm_;
  Real ringPeriod_ = 0.0;
  bool traced_ = false;
  SampleCounts sampleCounts_;
  std::map<std::string, PssResult> lastPss_;  // traced pass, for calibrate
};

}  // namespace

std::unique_ptr<Workload> makeTable2(const Config& cfg) {
  return std::make_unique<Table2>(cfg);
}

PassResult runTable2Reference(const Config& cfg, size_t samples) {
  Table2 t(cfg);
  return t.pass(cfg.seed, false, {samples, samples, samples});
}

}  // namespace paperbench
