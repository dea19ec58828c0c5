#include "core/monte_carlo.hpp"

#include <algorithm>

#include "runtime/scenario_sweep.hpp"
#include "util/telemetry.hpp"

namespace psmn {

void applyMismatchSample(const std::vector<Netlist::MismatchRef>& params,
                         const CorrelatedMismatch* corr, uint64_t seed,
                         size_t k) {
  Rng rng = Rng::forSample(seed, k);
  // Independent parameters first (a fixed draw order keeps the stream
  // deterministic), then the correlated groups.
  for (const auto& p : params) {
    if (corr && corr->covers(p.device, p.index)) continue;
    Real delta = rng.gaussian(0.0, p.param.sigma);
    // Relative current-factor mismatch cannot physically reach -100%;
    // truncate the Gaussian tail the way production MC flows do. Only
    // matters for extreme severity sweeps (Fig. 11/12 at several x the
    // process mismatch).
    if (p.param.kind == MismatchKind::kBetaRel) {
      delta = std::max(delta, -0.95);
    }
    p.device->setMismatchDelta(p.index, delta);
  }
  if (corr) corr->applySample(rng);
}

Real McResult::correlationBetween(size_t i, size_t j) const {
  PSMN_CHECK(!samples.empty(), "sample matrix was not kept");
  CorrelationAccumulator acc;
  for (const auto& row : samples) acc.add(row.at(i), row.at(j));
  return acc.correlation();
}

RealVector McResult::column(size_t j) const {
  PSMN_CHECK(!samples.empty(), "sample matrix was not kept");
  RealVector out;
  out.reserve(samples.size());
  for (const auto& row : samples) out.push_back(row.at(j));
  return out;
}

MonteCarloEngine::MonteCarloEngine(const MnaSystem& sys, McOptions opt)
    : sys_(&sys), opt_(opt) {}

McResult MonteCarloEngine::run(std::vector<std::string> names,
                               const McMeasure& measure) {
  TraceSpan span(Phase::kMc, "monte_carlo");
  McResult result;
  result.names = std::move(names);
  result.moments.assign(result.names.size(), MomentAccumulator{});

  const auto tStart = std::chrono::steady_clock::now();
  const size_t wanted = opt_.jobs == 0 ? ThreadPool::hardwareJobs() : opt_.jobs;
  const size_t jobs = factory_ && corr_ == nullptr
                          ? std::max<size_t>(1, std::min(wanted, opt_.samples))
                          : 1;
  ThreadPool pool(jobs);

  // One stack per sweep slot: slot 0 borrows the primary netlist, slots
  // 1..J-1 own a factory netlist built once per run.
  Netlist& primary = const_cast<Netlist&>(sys_->netlist());
  std::vector<ScenarioContext> slots(pool.jobCount());
  std::vector<std::vector<Netlist::MismatchRef>> params(slots.size());
  slots[0].sys = sys_;
  params[0] = primary.mismatchParams();
  for (size_t s = 1; s < slots.size(); ++s) {
    std::unique_ptr<Netlist> nl = factory_();
    PSMN_CHECK(nl != nullptr, "netlist factory returned null");
    slots[s].own(std::move(nl));
    PSMN_CHECK(slots[s].sys->size() == sys_->size(),
               "netlist factory built a different circuit");
    params[s] = slots[s].sys->netlist().mismatchParams();
  }

  // Each sample's stream is seeded by its index, so the draw never depends
  // on the slot that runs it. Re-applying it on a slot overwrites every
  // delta the slot's previous sample left, so no clearing is needed.
  std::vector<SweepScenario> scenarios(opt_.samples);
  for (size_t k = 0; k < scenarios.size(); ++k) {
    scenarios[k].analysis = SweepAnalysis::kMeasure;
    scenarios[k].measure = std::cref(measure);
    scenarios[k].acquire = [&, k](size_t slot) {
      applyMismatchSample(params[slot], corr_, opt_.seed, k);
      return &slots[slot];
    };
  }
  std::vector<SweepResult> rows = runScenarioSweep(scenarios, pool);
  primary.clearMismatch();

  // Streams the rows into the statistics in sample order, so the
  // accumulation is independent of evaluation order.
  for (SweepResult& row : rows) {
    if (!row.ok) {
      ++result.failedSamples;
      result.failures.push_back({row.index, std::move(row.error),
                                 row.hasDiagnostics,
                                 std::move(row.diagnostics)});
      continue;
    }
    PSMN_CHECK(row.values.size() == result.names.size(),
               "measurement count mismatch");
    for (size_t j = 0; j < row.values.size(); ++j) {
      result.moments[j].add(row.values[j]);
    }
    if (opt_.keepSamples) result.samples.push_back(std::move(row.values));
  }
  result.elapsedSeconds =
      std::chrono::duration<Real>(std::chrono::steady_clock::now() - tStart)
          .count();
  return result;
}

}  // namespace psmn
