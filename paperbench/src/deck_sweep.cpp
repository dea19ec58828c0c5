// Workload `deck_sweep`: the `netlist_runner <deck> --sweep mc:N` scenario
// list, built exactly as the runner builds it (re-parse per scenario,
// applyMismatchSample(seed, k), retry.maxRetries = 2, storeStates = false),
// run through runScenarioSweep on a `jobs`-slot pool over the two BJT decks
// with probe `out`. The user-facing sweep path: BJT evaluation, the
// per-scenario parse and DC prologue, and the second MC mechanism beside
// MonteCarloEngine.
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "circuit/parser.hpp"
#include "core/monte_carlo.hpp"
#include "engine/dc.hpp"
#include "numeric/statistics.hpp"
#include "runtime/scenario_sweep.hpp"
#include "util/units.hpp"

namespace paperbench {

using namespace psmn;

namespace {

constexpr Phase kSpan = Phase::kKernel;

constexpr size_t kScenariosPerDeck = 128;  // per deck per pass
constexpr size_t kCheckScenarios = 8;     // compared with netlist_runner
const char* const kProbe = "out";

struct Deck {
  std::string name;
  std::shared_ptr<const std::string> text;
  Real dt = 0.0, tstop = 0.0;
  int probeIdx = -1;
  ParsedCircuit nominal;  // the main-thread parse, as in the runner
};

class DeckSweep final : public Workload {
 public:
  explicit DeckSweep(const Config& cfg) : pool_(cfg.jobs) {
    for (const char* name : {"bjt_diffamp.sp", "bjt_outputstage.sp"}) {
      Deck d;
      d.name = name;
      const std::string path = cfg.deckDir + "/" + name;
      std::ifstream in(path);
      PSMN_CHECK(static_cast<bool>(in), "cannot open deck " + path);
      std::ostringstream os;
      os << in.rdbuf();
      d.text = std::make_shared<const std::string>(os.str());
      d.nominal = parseNetlistString(*d.text);
      for (const auto& card : d.nominal.analyses) {
        if (card.kind == "tran" && card.args.size() >= 2) {
          d.dt = parseSpiceNumber(card.args[0]).value_or(0.0);
          d.tstop = parseSpiceNumber(card.args[1]).value_or(0.0);
        }
      }
      PSMN_CHECK(d.dt > 0.0 && d.tstop > 0.0, "deck has no .tran card");
      d.probeIdx = d.nominal.netlist->nodeIndex(kProbe);
      decks_.push_back(std::move(d));
    }
  }

  std::map<std::string, size_t> regions() const override {
    return {{"runtime.sweep", pool_.jobCount()}};
  }

  PassResult runPass(uint64_t passSeed, bool traced) override {
    PassResult r;
    TelemetryRegistry* reg = traced ? tracedRegistry() : nullptr;
    pool_.attachTelemetry(reg);
    const auto t0 = std::chrono::steady_clock::now();
    const double c0 = processCpuSeconds();
    {
      TraceSpan span(kSpan, "bench.workload");
      for (const Deck& d : decks_) {
        const auto before = reg != nullptr ? reg->totals()
                                           : TelemetryRegistry::Totals{};
        sweep(d, passSeed, kScenariosPerDeck, r);
        if (reg != nullptr) r.counts[d.name].addRegistry(reg->totals(), before);
      }
    }
    r.wallS = secondsSince(t0);
    r.cpuS = processCpuSeconds() - c0;
    r.sigmaCpuS = r.cpuS;
    pool_.attachTelemetry(nullptr);
    return r;
  }

  std::vector<CheckResult> check(uint64_t seed) override {
    // The summary line netlist_runner prints for the same sweep; run.py
    // runs netlist_runner and compares the two lines verbatim.
    std::vector<CheckResult> out;
    for (const Deck& d : decks_) {
      PassResult r;
      const std::string summary = sweep(d, seed, kCheckScenarios, r);
      CheckResult cr;
      cr.name = "runner_summary." + d.name;
      cr.ok = true;
      cr.detail = summary;
      out.push_back(cr);
    }
    return out;
  }

  Calibration calibrate() override {
    Calibration c;
    for (const Deck& d : decks_) {
      MnaSystem sys(*d.nominal.netlist);
      c.kernels[d.name] = calibrateKernels(sys, solveDc(sys, {}).x, d.dt);
    }
    return c;
  }

 private:
  /// Runs one deck's sweep; returns netlist_runner's summary line for it.
  std::string sweep(const Deck& d, uint64_t seed, size_t count,
                    PassResult& r) {
    std::vector<SweepScenario> scenarios;
    for (size_t k = 0; k < count; ++k) {
      SweepScenario sc;
      sc.name = "mc" + std::to_string(k);
      sc.make = [deck = d.text, seed, k] {
        ParsedCircuit spc = [&] {
          TraceSpan span(kSpan, "circuit.parse");
          return parseNetlistString(*deck);
        }();
        {
          TraceSpan span(kSpan, "circuit.finalize");
          spc.netlist->finalize();
        }
        TraceSpan span(kSpan, "core.mismatch_apply");
        applyMismatchSample(spc.netlist->mismatchParams(), nullptr, seed, k);
        return std::move(spc.netlist);
      };
      sc.analysis = SweepAnalysis::kTransient;
      sc.outNode = kProbe;
      sc.t1 = d.tstop;
      sc.dt = d.dt;
      sc.tran.storeStates = false;
      sc.retry.maxRetries = 2;
      scenarios.push_back(std::move(sc));
    }
    std::vector<SweepResult> results;
    const auto t0 = std::chrono::steady_clock::now();
    {
      TraceSpan span(kSpan, "runtime.sweep");
      results = runScenarioSweep(scenarios, pool_);
    }
    r.sweepS += secondsSince(t0);

    MomentAccumulator acc;
    size_t failures = 0;
    for (const SweepResult& res : results) {
      r.retries += static_cast<uint64_t>(res.attempts - 1);
      if (!res.ok) {
        ++failures;
        continue;
      }
      acc.add(res.finalState.at(d.probeIdx));
    }
    r.scenarios += results.size();
    r.attempted += results.size();
    r.failed += failures;
    r.mcSigma[d.name] = acc.stddev();
    char line[256];
    std::snprintf(line, sizeof(line),
                  "summary: mean = %sV, sigma = %sV over %zu scenarios "
                  "(%zu failed)",
                  formatEng(acc.mean()).c_str(),
                  formatEng(acc.stddev()).c_str(),
                  static_cast<size_t>(acc.count()), failures);
    return line;
  }

  ThreadPool pool_;
  std::vector<Deck> decks_;
};

}  // namespace

std::unique_ptr<Workload> makeDeckSweep(const Config& cfg) {
  return std::make_unique<DeckSweep>(cfg);
}

}  // namespace paperbench
