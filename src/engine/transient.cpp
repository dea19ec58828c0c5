#include "engine/transient.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/fault_injection.hpp"
#include "util/telemetry.hpp"
#include "util/units.hpp"

namespace psmn {

RealVector TransientResult::waveform(int mnaIndex) const {
  PSMN_CHECK(mnaIndex >= 0, "waveform of ground requested");
  RealVector w(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    w[i] = states[i][static_cast<size_t>(mnaIndex)];
  }
  return w;
}

namespace {

// Max-norm that propagates non-finites: std::max drops NaN (the comparison
// is false), so a poisoned residual would otherwise read as norm 0 and be
// accepted as converged.
Real maxAbsVec(std::span<const Real> v) {
  Real m = 0.0;
  for (Real x : v) {
    if (!std::isfinite(x)) return std::numeric_limits<Real>::quiet_NaN();
    m = std::max(m, std::fabs(x));
  }
  return m;
}

/// Cold-path failure recorder for integrateStep.
void recordStepFailure(TransientWorkspace& ws, const MnaSystem& sys,
                       const char* stage, int iteration, Real residual,
                       Real t, bool nonFinite) {
  ws.lastFailure = {};
  ws.lastFailure.analysis = "transient";
  ws.lastFailure.stage = stage;
  ws.lastFailure.iteration = iteration;
  if (std::isfinite(residual)) ws.lastFailure.residual = residual;
  ws.lastFailure.time = t;
  ws.lastFailure.hasTime = true;
  ws.lastFailure.suspectNodes = sys.suspectUnknowns(ws.r);
  ws.lastFailure.injectedFault = lastFiredFaultSite();
  ws.haveFailure = true;
  ws.lastFailureNonFinite = nonFinite;
}

/// Method actually used for a step: BE forcing (first step, post-breakpoint)
/// and the Gear2 startup fallback when no q[n-2] exists yet.
IntegrationMethod stepMethod(IntegrationMethod method, bool beStep,
                             bool haveQm1) {
  IntegrationMethod m = beStep ? IntegrationMethod::kBackwardEuler : method;
  if (m == IntegrationMethod::kGear2 && !haveQm1) {
    m = IntegrationMethod::kBackwardEuler;
  }
  return m;
}

/// Integration coefficient `a` of R = f1 + a*q1 + rhsQ (J = G + a*C);
/// fills rhsQ from the charge state.
Real stepCoefficients(IntegrationMethod m, Real h, const RealVector& q,
                      const RealVector& qd, const RealVector* qm1,
                      RealVector& rhsQ) {
  // Integration coefficients: R = f1 + a*q1 + rhsQ, J = G1 + a*C1.
  const size_t n = q.size();
  Real a = 0.0;
  rhsQ.resize(n);
  switch (m) {
    case IntegrationMethod::kBackwardEuler:
      a = 1.0 / h;
      for (size_t i = 0; i < n; ++i) rhsQ[i] = -q[i] / h;
      break;
    case IntegrationMethod::kTrapezoidal:
      a = 2.0 / h;
      for (size_t i = 0; i < n; ++i) rhsQ[i] = -2.0 * q[i] / h - qd[i];
      break;
    case IntegrationMethod::kGear2:
      a = 1.5 / h;
      for (size_t i = 0; i < n; ++i) {
        rhsQ[i] = (-4.0 * q[i] + (*qm1)[i]) / (2.0 * h);
      }
      break;
  }
  return a;
}

enum class NewtonTailOutcome { kContinue, kConverged, kFailed };

/// One Newton iteration's post-evaluation tail: the caller has just
/// evaluated the system at ws.x1/t1 into ws.f/ws.q1 and ws.gsp/ws.csp.
/// Assembles J = G + a*C, forms the residual, factors, solves, and applies
/// the clamped update to ws.x1. kFailed records the post-mortem on ws.
NewtonTailOutcome newtonIterationTail(const MnaSystem& sys,
                                      const TranOptions& opt,
                                      TransientWorkspace& ws, Real a, Real t1,
                                      int iter) {
  const size_t n = sys.size();
  // Assemble J = G + a*C from the evaluation the caller just wrote into ws.
  if (ws.jac.assemble(ws.gsp, ws.csp, a)) {
    ws.sluSymbolic = false;  // pattern changed: next factor is symbolic
  }
  ++ws.stats.evals;
  ws.r.resize(n);
  for (size_t i = 0; i < n; ++i) ws.r[i] = ws.f[i] + a * ws.q1[i] + ws.rhsQ[i];
  const Real resNorm = maxAbsVec(ws.r);
  // Non-finite residual early-out (matching newtonSolve): the iterate
  // escaped the devices' range; further iteration cannot recover and a
  // NaN would poison the factorization, so fail the step now and let the
  // caller cut the timestep.
  if (!std::isfinite(resNorm)) {
    recordStepFailure(ws, sys, "tran-newton/non-finite-residual", iter,
                      -1.0, t1, /*nonFinite=*/true);
    return NewtonTailOutcome::kFailed;
  }

  // Factor: numeric refactorization on the kept pivot sequence, full
  // factor only on the first step or after a pivot breakdown.
  try {
    if (ws.sluSymbolic && ws.slu.refactor(ws.jac.matrix)) {
      ++ws.stats.refactorizations;
    } else {
      ws.slu.factor(ws.jac.matrix, 0.1, opt.ordering);
      ws.sluSymbolic = true;
      ++ws.stats.factorizations;
    }
    ws.stats.factorNnz = ws.slu.factorNonZeros();
  } catch (const NumericalError&) {
    recordStepFailure(ws, sys, "tran-newton/factorization", iter, resNorm,
                      t1, /*nonFinite=*/false);
    return NewtonTailOutcome::kFailed;
  }

  // Newton direction, solved in place on the negated residual.
  for (Real& v : ws.r) v = -v;
  ws.slu.solveInPlace(ws.r);
  ++ws.stats.solves;

  const Real stepNorm = maxAbsVec(ws.r);
  if (!std::isfinite(stepNorm)) {  // don't poison the iterate
    recordStepFailure(ws, sys, "tran-newton/non-finite-step", iter, resNorm,
                      t1, /*nonFinite=*/true);
    return NewtonTailOutcome::kFailed;
  }
  Real scale = 1.0;
  if (stepNorm > opt.maxStep) scale = opt.maxStep / stepNorm;
  for (size_t i = 0; i < n; ++i) ws.x1[i] += scale * ws.r[i];
  ++ws.stats.newtonIterations;
  telemetryCount(Counter::kNewtonIterations);
  if (resNorm < opt.residualTol && stepNorm * scale < opt.updateTol) {
    // Injected stagnation: refuse the acceptance and keep iterating (see
    // the matching probe in newtonSolve).
    if (faultShouldFire("tran.newton.converge")) {
      return NewtonTailOutcome::kContinue;
    }
    // Accept x1 after this sub-updateTol correction, but keep the final
    // iteration's q1/C/factored-J: they were evaluated a distance
    // < updateTol from the accepted point, an O(dx) error the tolerances
    // already admit, and skipping the re-evaluation removes one full
    // system eval per step. The sensitivity engine reuses the same
    // factorization, so each step factors the Jacobian exactly once.
    return NewtonTailOutcome::kConverged;
  }
  return NewtonTailOutcome::kContinue;
}

/// Accepted-step epilogue: updates the charge state from the accepted-point
/// q1 and swaps (x, q, qd) with the workspace buffers.
void acceptIntegrationStep(IntegrationMethod m, Real h, RealVector& x,
                           RealVector& q, RealVector& qd,
                           const RealVector* qm1, TransientWorkspace& ws) {
  // Update the charge state from the accepted-point q1 (already evaluated).
  const size_t n = q.size();
  ws.qd1.resize(n);
  switch (m) {
    case IntegrationMethod::kBackwardEuler:
      for (size_t i = 0; i < n; ++i) ws.qd1[i] = (ws.q1[i] - q[i]) / h;
      break;
    case IntegrationMethod::kTrapezoidal:
      for (size_t i = 0; i < n; ++i) {
        ws.qd1[i] = 2.0 * (ws.q1[i] - q[i]) / h - qd[i];
      }
      break;
    case IntegrationMethod::kGear2:
      for (size_t i = 0; i < n; ++i) {
        ws.qd1[i] = (3.0 * ws.q1[i] - 4.0 * q[i] + (*qm1)[i]) / (2.0 * h);
      }
      break;
  }
  // Swap (not move) so the workspace keeps the old buffers' capacity and
  // the next step's copies stay allocation-free.
  std::swap(x, ws.x1);
  std::swap(q, ws.q1);
  std::swap(qd, ws.qd1);
}

/// Newton iterations for the step to t1 from the start already in ws.x1;
/// on failure the post-mortem is on ws.
bool solveStep(const MnaSystem& sys, const TranOptions& opt,
               TransientWorkspace& ws, Real a, Real t1) {
  MnaSystem::EvalOptions eopt;
  eopt.gshunt = opt.gshunt;
  for (int iter = 0; iter < opt.maxNewton; ++iter) {
    TraceSpan iterSpan(Phase::kNewton, "newton_iter", TraceDetail::kKernel);
    sys.evalSparse(ws.x1, t1, &ws.f, &ws.q1, &ws.gsp, &ws.csp, eopt);
    const NewtonTailOutcome outcome =
        newtonIterationTail(sys, opt, ws, a, t1, iter);
    if (outcome == NewtonTailOutcome::kFailed) return false;
    if (outcome == NewtonTailOutcome::kConverged) return true;
  }
  recordStepFailure(ws, sys, "tran-newton/stagnation", opt.maxNewton, -1.0,
                    t1, /*nonFinite=*/false);
  return false;
}

/// runTransient's Newton predictor over one breakpoint segment. It
/// extrapolates through the segment's accepted points: the current one and
/// the two before it, whose states are ws.xHist1/ws.xHist2 (newest first).
///
/// A polynomial start beats the previous point only while the step
/// resolves the trajectory's curvature. Where a node turns into a rail, or
/// a stiff component has already decayed within one step, extrapolating
/// overshoots and costs iterations. So after each accepted step the
/// predictor checks whether its extrapolation would have landed closer to
/// the accepted point than the previous point did, and predicts the next
/// step only if it would.
struct SegmentHistory {
  int points = 1;  // accepted points in the segment, its start included
  Real t1 = 0.0, t2 = 0.0;  // times of ws.xHist1 / ws.xHist2
  bool trusted = true;

  void restart() {
    points = 1;
    trusted = true;
  }

  /// Extrapolation order the history supports: none on the segment's
  /// first step, linear on its second, quadratic after.
  int available() const { return std::min(points - 1, 2); }
  /// Order the next step starts from (0: the previous point).
  int order() const { return trusted ? available() : 0; }

  /// Lagrange weights at tNext of the current point (time t) and the
  /// history points.
  std::array<Real, 3> weights(int ord, Real tNext, Real t) const {
    if (ord == 1) {
      const Real w0 = (tNext - t1) / (t - t1);
      return {w0, 1.0 - w0, 0.0};
    }
    return {(tNext - t1) * (tNext - t2) / ((t - t1) * (t - t2)),
            (tNext - t) * (tNext - t2) / ((t1 - t) * (t1 - t2)),
            (tNext - t) * (tNext - t1) / ((t2 - t) * (t2 - t1))};
  }

  /// Component i of the order-`ord` extrapolation through x and the
  /// history.
  static Real extrapolated(int ord, const std::array<Real, 3>& w,
                           const RealVector& x, const TransientWorkspace& ws,
                           size_t i) {
    const Real v = w[0] * x[i] + w[1] * ws.xHist1[i];
    return ord == 2 ? v + w[2] * ws.xHist2[i] : v;
  }

  /// Records the accepted step from tPrev to tNew, now at x. The accepted
  /// step swapped its start point into ws.x1, so rotating the three
  /// buffers moves it into the history without a copy.
  void accept(Real tPrev, Real tNew, const RealVector& x,
              TransientWorkspace& ws) {
    const int ord = available();
    if (ord > 0) {
      const std::array<Real, 3> w = weights(ord, tNew, tPrev);
      Real predErr = 0.0, prevErr = 0.0;
      for (size_t i = 0; i < x.size(); ++i) {
        const Real predicted = extrapolated(ord, w, ws.x1, ws, i);
        predErr = std::max(predErr, std::fabs(predicted - x[i]));
        prevErr = std::max(prevErr, std::fabs(ws.x1[i] - x[i]));
      }
      trusted = predErr <= prevErr;
    }
    std::swap(ws.xHist2, ws.xHist1);
    std::swap(ws.xHist1, ws.x1);
    t2 = t1;
    t1 = tPrev;
    points = std::min(points + 1, 3);
  }
};

/// One step from (x, q, qd, t) to t+h. Newton starts from the previous
/// point unless `hist` offers an extrapolation order; then it starts from
/// the extrapolated point and, if that Newton fails, re-solves once from
/// the previous point (`*retried` is then set), so a predicted step is
/// never less robust than an unpredicted one.
bool stepFrom(const MnaSystem& sys, IntegrationMethod method, bool beStep,
              Real t, Real h, RealVector& x, RealVector& q, RealVector& qd,
              const RealVector* qm1, const TranOptions& opt,
              TransientWorkspace& ws, const SegmentHistory* hist,
              bool* retried) {
  TraceSpan stepSpan(Phase::kStep, "tran_step", TraceDetail::kStep);
  const Real t1 = t + h;
  const IntegrationMethod m = stepMethod(method, beStep, qm1 != nullptr);
  const Real a = stepCoefficients(m, h, q, qd, qm1, ws.rhsQ);
  ws.acceptedA = a;

  bool converged = false;
  const int ord = hist != nullptr ? hist->order() : 0;
  if (ord > 0) {
    const std::array<Real, 3> w = hist->weights(ord, t1, t);
    ws.x1.resize(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      ws.x1[i] = SegmentHistory::extrapolated(ord, w, x, ws, i);
    }
    converged = solveStep(sys, opt, ws, a, t1);
    *retried = !converged;
  }
  if (!converged) {
    ws.x1.assign(x.begin(), x.end());  // start from the previous point
    if (!solveStep(sys, opt, ws, a, t1)) return false;
  }
  acceptIntegrationStep(m, h, x, q, qd, qm1, ws);
  return true;
}

}  // namespace

bool integrateStep(const MnaSystem& sys, IntegrationMethod method, bool beStep,
                   Real t, Real h, RealVector& x, RealVector& q,
                   RealVector& qd, const RealVector* qm1,
                   const TranOptions& opt, TransientWorkspace& ws) {
  return stepFrom(sys, method, beStep, t, h, x, q, qd, qm1, opt, ws, nullptr,
                  nullptr);
}

bool integrateStep(const MnaSystem& sys, IntegrationMethod method, bool beStep,
                   Real t, Real h, RealVector& x, RealVector& q,
                   RealVector& qd, const RealVector* qm1,
                   const TranOptions& opt) {
  TransientWorkspace ws;
  return integrateStep(sys, method, beStep, t, h, x, q, qd, qm1, opt, ws);
}

namespace {

/// The breakpoint-segmented stop list runTransient integrates over; the
/// last entry is t1.
std::vector<Real> transientStops(const MnaSystem& sys, Real t0, Real t1,
                                 Real dt, bool useBreakpoints) {
  // Segment the window at breakpoints; merge stops closer than a fraction
  // of the nominal step (a breakpoint coinciding with t1 would otherwise
  // create a degenerate femtosecond segment).
  std::vector<Real> stops;
  if (useBreakpoints) {
    for (Real bp : sys.collectBreakpoints(t0, t1)) {
      if (bp < t1 - 1e-3 * dt &&
          (stops.empty() || bp - stops.back() > 1e-3 * dt)) {
        stops.push_back(bp);
      }
    }
  }
  stops.push_back(t1);
  return stops;
}

/// Builds and throws the run-level error from the workspace post-mortem: a
/// NaN/Inf escape surfaces as NumericalError, a stalled Newton as
/// ConvergenceError.
[[noreturn]] void throwStepFailure(const TransientWorkspace& ws, Real t,
                                   const std::string& what) {
  FailureDiagnostics diag;
  if (ws.haveFailure) diag = ws.lastFailure;
  diag.analysis = "transient";
  if (!diag.hasTime) {
    diag.time = t;
    diag.hasTime = true;
  }
  const std::string msg = what + ": " + diag.describe();
  if (ws.haveFailure && ws.lastFailureNonFinite) {
    throw NumericalError(msg, std::move(diag));
  }
  throw ConvergenceError(msg, std::move(diag));
}

}  // namespace

TransientResult runTransient(const MnaSystem& sys, Real t0, Real t1, Real dt,
                             const TranOptions& opt) {
  TransientWorkspace ws;
  return runTransient(sys, t0, t1, dt, opt, ws);
}

TransientResult runTransient(const MnaSystem& sys, Real t0, Real t1, Real dt,
                             const TranOptions& opt, TransientWorkspace& ws) {
  PSMN_CHECK(t1 > t0 && dt > 0.0, "bad transient window");
  TraceSpan span(Phase::kTransient, "transient");
  const size_t n = sys.size();
  const SolveStats statsBefore = ws.stats;
  TransientResult result;

  // Initial state: DC operating point unless an explicit state is given.
  RealVector x;
  if (opt.initialState) {
    PSMN_CHECK(opt.initialState->size() == n, "bad initial state size");
    x = *opt.initialState;
  } else {
    DcOptions dopt;
    dopt.time = t0;
    dopt.gshunt = opt.gshunt;
    dopt.ordering = opt.ordering;
    x = solveDc(sys, dopt).x;
  }
  RealVector q;
  sys.evalDense(x, t0, nullptr, &q, nullptr, nullptr, {});
  RealVector qd(n, 0.0);
  RealVector qPrev;  // q at the pre-previous accepted point (Gear2)
  bool havePrev = false;

  if (opt.storeStates) {
    result.times.push_back(t0);
    result.states.push_back(x);
  }

  const std::vector<Real> stops =
      transientStops(sys, t0, t1, dt, opt.useBreakpoints);

  const Real dtMin = opt.dtMin > 0.0 ? opt.dtMin : dt * 1e-6;
  const Real dtMax = opt.dtMax > 0.0 ? opt.dtMax : dt * 4.0;

  // The workspace (caller-owned or the wrapper's throwaway) carries the
  // sparsity pattern, symbolic factorization, step scratch and predictor
  // history across every step below. The save buffers are swapped (never
  // moved-from) so the steady-state loop does not allocate.
  RealVector qSave, xSave, qdSave;
  SegmentHistory hist;
  const SegmentHistory* histIn = opt.predictor ? &hist : nullptr;
  // Commits an accepted step that started at tPrev: its predictor
  // counters and the history rotation.
  auto acceptStep = [&](Real tPrev, Real tNew, bool retried) {
    if (histIn == nullptr) return;
    if (hist.order() > 0) {
      ++ws.stats.predictedSteps;
      if (retried) ++ws.stats.predictorRetries;
    }
    hist.accept(tPrev, tNew, x, ws);
  };

  Real t = t0;
  Real h = dt;
  bool forceBE = true;  // first step and first step after each breakpoint
  for (Real stop : stops) {
    if (stop <= t) continue;
    if (!opt.adaptive) {
      // Uniform grid within the segment.
      const auto count = static_cast<size_t>(
          std::max<Real>(1.0, std::ceil((stop - t) / dt - 1e-9)));
      const Real hseg = (stop - t) / static_cast<Real>(count);
      for (size_t k = 0; k < count; ++k) {
        qSave.assign(q.begin(), q.end());
        bool retried = false;
        if (!stepFrom(sys, opt.method, forceBE, t, hseg, x, q, qd,
                      havePrev ? &qPrev : nullptr, opt, ws, histIn,
                      &retried)) {
          throwStepFailure(ws, t + hseg, "transient Newton failed at t=" +
                                             formatEng(t + hseg) + "s");
        }
        acceptStep(t, t + hseg, retried);
        std::swap(qPrev, qSave);
        havePrev = true;
        forceBE = false;
        t += hseg;
        ++ws.stats.steps;
        telemetryCount(Counter::kStepsAccepted);
        if (opt.storeStates) {
          result.times.push_back(t);
          result.states.push_back(x);
        }
      }
    } else {
      while (t < stop - 1e-15 * (t1 - t0)) {
        Real hTry = std::min({h, dtMax, stop - t});
        hTry = std::max(hTry, dtMin);
        xSave.assign(x.begin(), x.end());
        qSave.assign(q.begin(), q.end());
        qdSave.assign(qd.begin(), qd.end());
        bool retried = false;
        bool ok = stepFrom(sys, opt.method, forceBE, t, hTry, x, q, qd,
                           havePrev ? &qPrev : nullptr, opt, ws, histIn,
                           &retried);
        Real err = 0.0;
        if (ok) {
          // Step-size control from the local charge-derivative change; a
          // cheap curvature proxy that needs no extra evaluations.
          for (size_t i = 0; i < n; ++i) {
            const Real dqd = std::fabs(qd[i] - qdSave[i]) * hTry;
            const Real scale = opt.reltol * std::fabs(q[i]) + opt.abstol;
            err = std::max(err, dqd / scale);
          }
        }
        if (!ok || (err > 2.0 && hTry > dtMin * 1.01)) {
          // Reject and retry with half the step.
          std::swap(x, xSave);
          std::swap(q, qSave);
          std::swap(qd, qdSave);
          h = std::max(hTry * 0.5, dtMin);
          if (!ok && hTry <= dtMin * 1.01) {
            throwStepFailure(ws, t + hTry,
                             "transient Newton failed at minimum step");
          }
          continue;
        }
        acceptStep(t, t + hTry, retried);
        std::swap(qPrev, qSave);
        havePrev = true;
        forceBE = false;
        t += hTry;
        ++ws.stats.steps;
        telemetryCount(Counter::kStepsAccepted);
        if (opt.storeStates) {
          result.times.push_back(t);
          result.states.push_back(x);
        }
        if (err < 0.5) h = std::min(hTry * 1.5, dtMax);
        else h = hTry;
      }
    }
    forceBE = true;  // restart the integrator after each breakpoint
    havePrev = false;
    hist.restart();  // and the predictor: the solution kinks there
  }

  result.stats = SolveStats::since(statsBefore, ws.stats);
  result.finalState = std::move(x);
  return result;
}

}  // namespace psmn
