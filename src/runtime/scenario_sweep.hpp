// Scenario sweep: fans one analysis specification across N scenarios on
// the execution runtime — corners, mismatch configurations, the samples of
// a seeded MC run (MonteCarloEngine runs every sample as one kMeasure
// scenario) — the production sign-off loop around the paper's single
// sensitivity solve.
//
// Ownership rules (docs/architecture.md "The parallel runtime"): every
// scenario owns its full stack — a private Netlist built by its factory on
// the evaluating slot, the MnaSystem over it, and the engine workspaces
// (TransientWorkspace/PssWorkspace) the analyses allocate internally — or
// borrows one that is confined to its evaluating slot (`acquire`). Nothing
// is shared between concurrently running scenarios, so device mutation
// (mismatch deltas) and workspace reuse need no locking. Results land in input
// order; a failing scenario (ConvergenceError, NumericalError, ...) is
// reported in its SweepResult instead of aborting the sweep.
#pragma once

#include <array>
#include <functional>
#include <span>

#include "core/monte_carlo.hpp"
#include "engine/transient.hpp"
#include "rf/pss.hpp"
#include "runtime/thread_pool.hpp"
#include "util/fault_injection.hpp"
#include "util/telemetry.hpp"

namespace psmn {

enum class SweepAnalysis {
  kTransient,             // waveform of `outNode`
  kTransientSensitivity,  // waveform + mismatch sigma(t) of `outNode`
  kPssDriven,             // periodic steady-state waveform of `outNode`
  kMeasure,               // caller's `measure` row (one MC sample)
};

/// Per-scenario bounded-escalation retry policy. Retry k (k = 1..
/// maxRetries) reruns the failed scenario with the timestep scaled by
/// tightenFactor^k and the Newton budgets doubled; when robustFinalAttempt
/// is set the last retry additionally falls back to the backward-Euler
/// integrator (the most heavily damped one). DC solves inside the analysis
/// escalate on their own through the gmin/source ladders into arclength
/// continuation (engine/dc). A scenario that still fails reports its
/// FailureDiagnostics in the SweepResult instead of aborting the sweep.
struct SweepRetryPolicy {
  int maxRetries = 0;        // extra attempts after the first (0 = off)
  Real tightenFactor = 0.5;  // dt multiplier per retry
  bool robustFinalAttempt = true;
};

/// Slot-confined reusable execution context for scenarios that share a
/// circuit: the MnaSystem over a finalized netlist (whose cached CSC
/// stamping pattern is the expensive value-independent symbolic state),
/// and a transient workspace whose pattern caches, scatter maps, and
/// buffer allocations persist across runs. The system is either borrowed
/// (MonteCarloEngine's slot 0 runs on the primary netlist) or owned by the
/// context (`own`). The process-sweep workers hand one of these per (slot,
/// deck) to SweepScenario::acquire, MonteCarloEngine one per slot; the
/// sweep resets the workspace per scenario
/// (TransientWorkspace::resetForNewValues) so results stay bit-identical to
/// the fresh-stack `make` path.
struct ScenarioContext {
  const MnaSystem* sys = nullptr;
  TransientWorkspace tran;
  /// The stack `sys` points into when the context owns it.
  std::unique_ptr<Netlist> ownedNetlist;
  std::unique_ptr<MnaSystem> ownedSys;

  /// Finalizes `nl`, builds its system, and points `sys` at it.
  void own(std::unique_ptr<Netlist> nl) {
    nl->finalize();
    ownedSys = std::make_unique<MnaSystem>(*nl);
    ownedNetlist = std::move(nl);
    sys = ownedSys.get();
  }
};

struct SweepScenario {
  std::string name;
  /// Builds this scenario's private netlist (finalize() is called by the
  /// sweep). Runs on the evaluating slot; must not touch shared state.
  NetlistFactory make;

  /// Alternative to `make`: given the evaluating slot (in [0, jobCount())
  /// of the sweep's pool), returns a borrowed, slot-confined context whose
  /// netlist is already finalized and carries this scenario's device
  /// values (e.g. its mismatch draw applied). The callee keeps ownership
  /// and may hand the same context to every scenario on the slot — the
  /// sweep resets the workspace per scenario, never caches value-dependent
  /// state across scenarios, and supports kTransient,
  /// kTransientSensitivity and kMeasure only on this path. Takes
  /// precedence over `make` when set. Called once per attempt, so the draw
  /// must be re-applied idempotently (applyMismatchSample is).
  std::function<ScenarioContext*(size_t slot)> acquire;

  SweepAnalysis analysis = SweepAnalysis::kTransient;
  /// Node whose waveform (and sigma(t)) is recorded; required for every
  /// analysis except kMeasure.
  std::string outNode;

  // kTransient / kTransientSensitivity window and engine options. The
  // TranOptions::pool field is ignored here: scenarios already occupy the
  // pool, and nested parallelFor would serialize anyway.
  Real t0 = 0.0, t1 = 0.0, dt = 0.0;
  TranOptions tran;

  // kPssDriven.
  Real period = 0.0;
  PssOptions pss;

  // kMeasure: runs on this scenario's system; its row lands in
  // SweepResult::values, and any Error it throws fails the scenario.
  McMeasure measure;

  /// Retry escalation when this scenario's analysis throws.
  SweepRetryPolicy retry;
  /// Deterministic fault injection (tests): the plan is armed in a
  /// FaultScope around ALL of this scenario's attempts on its evaluating
  /// slot. FaultScope is thread-confined and the hit counters persist
  /// across retries, so what fires is a pure function of the scenario —
  /// never of scheduling — and a count=1 fault fires on the first attempt
  /// only, exercising exactly one recovery.
  FaultPlan faults;
};

struct SweepResult {
  size_t index = 0;  // input-order position
  std::string name;
  bool ok = false;
  std::string error;  // exception text when !ok
  int attempts = 1;        // 1 + retries actually taken
  bool recovered = false;  // ok on a retry after at least one failure
  /// Structured post-mortem of the most recent failed attempt (whether or
  /// not a later retry recovered). Check `hasDiagnostics` before reading.
  bool hasDiagnostics = false;
  FailureDiagnostics diagnostics;

  /// Cost counters of the successful attempt (zero when !ok, and for
  /// kMeasure, whose costs stay internal to the measurement).
  SolveStats stats;

  /// Registry-counter deltas over ALL of this scenario's attempts,
  /// captured when the sweep runs in counter-capture mode (see
  /// runScenarioSweep). The process-sweep workers ship these with each
  /// result so the parent's merged registry totals match an in-process
  /// run exactly — including the counts of failed attempts, which
  /// `stats` deliberately excludes. Zero when capture is off.
  bool hasCounters = false;
  std::array<uint64_t, kNumCounters> counters{};

  // Waveform analyses.
  std::vector<Real> times;
  RealVector waveform;  // outNode at each time point
  RealVector sigma;     // kTransientSensitivity: mismatch sigma(t)
  RealVector finalState;

  // kMeasure.
  RealVector values;
};

/// Called (serialized under an internal mutex) as each scenario finishes,
/// in completion order — progress reporting, not result consumption;
/// results still land in input order in the returned vector.
using SweepProgressFn = std::function<void(const SweepResult&)>;

/// Runs every scenario on the pool, one slot per scenario at a time, and
/// returns results in input order. Deterministic: scenario evaluation is
/// self-contained, so results are independent of the pool's job count (the
/// optional progress callback observes completion order, which is not).
///
/// With `captureCounters` set, each scenario's registry-counter deltas are
/// recorded into its SweepResult::counters instead of any bound registry:
/// a scenario-local one-slot registry is bound around the attempts (every
/// scenario runs wholly on its evaluating thread, so the local scope sees
/// exactly that scenario's probes). The process-sweep workers run in this
/// mode so completed scenarios' counters survive a later worker crash —
/// they travel with the result frame, not with the process.
std::vector<SweepResult> runScenarioSweep(
    std::span<const SweepScenario> scenarios, ThreadPool& pool,
    const SweepProgressFn& onProgress = nullptr,
    bool captureCounters = false);

}  // namespace psmn
