#include "engine/batch_eval.hpp"

#include <cmath>
#include <limits>

#include "util/fault_injection.hpp"
#include "util/telemetry.hpp"
#include "util/units.hpp"

namespace psmn {

namespace {

/// One lane's private integrator state. The workspace is the same
/// TransientWorkspace the scalar path uses, so each lane owns its pattern
/// caches, merged-Jacobian scatter maps, and SparseLU pivot sequence —
/// sharing any of those across lanes would round differently than a
/// scalar run of that scenario.
struct LaneState {
  TransientWorkspace ws;
  RealVector x, q, qd, qPrev, qSave;
  bool running = false;  // DC init succeeded and no step has failed yet
  bool stepConverged = false;
  bool stepFailed = false;
  Real a = 0.0;
  BatchLaneOutcome out;
};

Stamper makeLaneStamper(LaneState& ln, Real t1, size_t n,
                        const MnaSystem::EvalOptions& eopt) {
  Stamper s(ln.ws.x1, t1, n);
  s.attachVectors(&ln.ws.f, &ln.ws.q1);
  s.attachSparse(&ln.ws.gsp, &ln.ws.csp);
  s.setSourceScale(eopt.sourceScale);
  s.setGmin(eopt.gmin);
  return s;
}

/// Symbolic discovery for one lane: a triplet-mode walk of that lane alone
/// at its current iterate, frozen into the lane's pattern matrices exactly
/// as MnaSystem::evalSparse does for a scalar scenario.
void buildLanePattern(const MnaSystem& sys, const DeviceBatch& batch,
                      std::vector<LaneState>& lanes, size_t l, Real t1,
                      const MnaSystem::EvalOptions& eopt,
                      std::vector<Stamper>& scratch,
                      std::vector<unsigned char>& solo) {
  const size_t n = sys.size();
  std::vector<Triplet<Real>> gTrips, cTrips;
  scratch.clear();
  for (size_t j = 0; j < lanes.size(); ++j) {
    scratch.emplace_back(lanes[j].ws.x1, t1, n);
  }
  scratch[l].attachTriplets(&gTrips, &cTrips);
  scratch[l].setSourceScale(eopt.sourceScale);
  scratch[l].setGmin(eopt.gmin);
  solo.assign(lanes.size(), 0);
  solo[l] = 1;
  batch.evalLanes(scratch, solo);
  mnaRebuildPattern(&lanes[l].ws.gsp, n, gTrips, sys.nodeUnknowns());
  mnaRebuildPattern(&lanes[l].ws.csp, n, cTrips, 0);
}

/// One Newton iteration's system evaluation for every active lane:
/// replicates MnaSystem::evalSparse per lane but performs a
/// single structural device walk that stamps all of them (the batched
/// inner loops in Device::evalBatch).
void batchEvalIteration(const MnaSystem& sys, const DeviceBatch& batch,
                        std::vector<LaneState>& lanes,
                        const std::vector<unsigned char>& active, Real t1,
                        const MnaSystem::EvalOptions& eopt,
                        std::vector<Stamper>& stampers,
                        std::vector<Stamper>& scratch,
                        std::vector<unsigned char>& solo) {
  const size_t n = sys.size();
  const size_t L = lanes.size();

  // Counter parity with the scalar eval entry points: one kMnaEvals per
  // lane evaluated, regardless of how many walks deliver them.
  for (size_t l = 0; l < L; ++l) {
    if (active[l]) telemetryCount(Counter::kMnaEvals);
  }

  // Amortized symbolic construction: the first lane needing a pattern
  // runs the triplet discovery pass; the rest copy its CSC skeleton (the
  // copy carries no stamp tape: each lane records its own on its first
  // pass). Sound because stamp POSITIONS are value-independent (a
  // MOSFET's operating-region frame swap permutes the same 8-slot
  // multiset, and fromTriplets sorts/dedups), so discovery in any lane
  // yields the same pattern — hence the same AMD ordering and the same
  // rounding — that a scalar run of each scenario would have built for
  // itself.
  int src = -1;
  for (size_t l = 0; l < L; ++l) {
    if (active[l] && lanes[l].ws.gsp.rows() == n) {
      src = static_cast<int>(l);
      break;
    }
  }
  for (size_t l = 0; l < L; ++l) {
    if (!active[l] || lanes[l].ws.gsp.rows() == n) continue;
    if (src >= 0) {
      lanes[l].ws.gsp = lanes[static_cast<size_t>(src)].ws.gsp;
      lanes[l].ws.csp = lanes[static_cast<size_t>(src)].ws.csp;
      telemetryCount(Counter::kBatchSymbolicReuse);
    } else {
      buildLanePattern(sys, batch, lanes, l, t1, eopt, scratch, solo);
      src = static_cast<int>(l);
    }
  }

  stampers.clear();
  for (size_t l = 0; l < L; ++l) {
    LaneState& ln = lanes[l];
    if (active[l]) {
      ln.ws.f.assign(n, 0.0);
      ln.ws.q1.assign(n, 0.0);
      ln.ws.gsp.zeroValues();
      ln.ws.csp.zeroValues();
    }
    stampers.push_back(makeLaneStamper(ln, t1, n, eopt));
  }
  batch.evalLanes(stampers, active);

  // Pattern-miss fixups stay lane-local, mirroring evalSparse's
  // two-attempt loop: rebuild that lane's pattern, re-stamp only it.
  uint64_t tapeMisses = 0;
  for (size_t l = 0; l < L; ++l) {
    if (!active[l]) continue;
    tapeMisses += stampers[l].tapeMisses();
    if (!stampers[l].sparseMiss()) continue;
    buildLanePattern(sys, batch, lanes, l, t1, eopt, scratch, solo);
    LaneState& ln = lanes[l];
    ln.ws.f.assign(n, 0.0);
    ln.ws.q1.assign(n, 0.0);
    ln.ws.gsp.zeroValues();
    ln.ws.csp.zeroValues();
    stampers[l] = makeLaneStamper(ln, t1, n, eopt);
    solo.assign(L, 0);
    solo[l] = 1;
    batch.evalLanes(stampers, solo);
    PSMN_CHECK(!stampers[l].sparseMiss(),
               "batched eval: pattern miss after rebuild");
  }
  if (tapeMisses > 0) telemetryCount(Counter::kStampTapeMisses, tapeMisses);

  // gshunt homotopy shunt and fault poisoning, per lane, exactly as the
  // scalar eval tail applies them.
  for (size_t l = 0; l < L; ++l) {
    if (!active[l]) continue;
    LaneState& ln = lanes[l];
    if (eopt.gshunt > 0.0) {
      for (size_t i = 0; i < sys.nodeUnknowns(); ++i) {
        ln.ws.f[i] += eopt.gshunt * ln.ws.x1[i];
        *ln.ws.gsp.find(static_cast<int>(i), static_cast<int>(i)) +=
            eopt.gshunt;
      }
    }
    if (faultShouldFire("mna.eval")) {
      ln.ws.f[0] = std::numeric_limits<Real>::quiet_NaN();
    }
  }
}

}  // namespace

std::vector<BatchLaneOutcome> runTransientBatch(const MnaSystem& sys,
                                                DeviceBatch& batch, Real t0,
                                                Real t1, Real dt,
                                                const TranOptions& opt) {
  PSMN_CHECK(t1 > t0 && dt > 0.0, "bad transient window");
  PSMN_CHECK(!opt.adaptive, "runTransientBatch: fixed grid only");
  PSMN_CHECK(opt.initialState == nullptr,
             "runTransientBatch: per-lane DC init only");
  PSMN_CHECK(&batch.netlist() == &sys.netlist(),
             "runTransientBatch: batch built over a different netlist");
  TraceSpan span(Phase::kTransient, "transient_batch");
  const size_t n = sys.size();
  const size_t L = batch.laneCount();
  std::vector<LaneState> lanes(L);

  // Per-lane prologue: scalar DC operating point and charge init, with the
  // lane's deltas applied to the shared netlist for the duration. This is
  // the same code path (and so the same bits) as the scalar runTransient
  // prologue for that scenario.
  for (size_t l = 0; l < L; ++l) {
    LaneState& ln = lanes[l];
    batch.applyLane(l);
    try {
      DcOptions dopt;
      dopt.time = t0;
      dopt.gshunt = opt.gshunt;
      dopt.ordering = opt.ordering;
      ln.x = solveDc(sys, dopt).x;
    } catch (const Error& e) {
      ln.out.error = e.what();
      if (const FailureDiagnostics* d = e.diagnostics()) {
        ln.out.diagnostics = *d;
        ln.out.hasDiagnostics = true;
      }
      continue;
    }
    sys.evalDense(ln.x, t0, nullptr, &ln.q, nullptr, nullptr, {});
    ln.qd.assign(n, 0.0);
    ln.running = true;
    if (opt.storeStates) {
      ln.out.result.times.push_back(t0);
      ln.out.result.states.push_back(ln.x);
    }
  }

  const std::vector<Real> stops =
      transientStops(sys, t0, t1, dt, opt.useBreakpoints);
  MnaSystem::EvalOptions eopt;
  eopt.gshunt = opt.gshunt;

  std::vector<Stamper> stampers, scratch;
  stampers.reserve(L);
  scratch.reserve(L);
  std::vector<unsigned char> active(L, 0), solo(L, 0);

  // Lockstep stepping over the shared fixed grid: every surviving lane
  // takes the same (t, h) sequence the scalar runTransient would, and
  // every per-lane state transition runs through the shared step-kernel
  // pieces of engine/transient.hpp. The only batched code is the device
  // walk inside batchEvalIteration.
  Real t = t0;
  bool forceBE = true;   // first step and first step after each breakpoint
  bool havePrev = false;
  for (Real stop : stops) {
    if (stop <= t) continue;
    const auto count = static_cast<size_t>(
        std::max<Real>(1.0, std::ceil((stop - t) / dt - 1e-9)));
    const Real hseg = (stop - t) / static_cast<Real>(count);
    for (size_t k = 0; k < count; ++k) {
      const Real tNext = t + hseg;
      const IntegrationMethod m = stepMethod(opt.method, forceBE, havePrev);
      for (size_t l = 0; l < L; ++l) {
        LaneState& ln = lanes[l];
        if (!ln.running) continue;
        ln.qSave.assign(ln.q.begin(), ln.q.end());
        ln.a = stepCoefficients(m, hseg, ln.q, ln.qd,
                                havePrev ? &ln.qPrev : nullptr, ln.ws.rhsQ);
        ln.ws.acceptedA = ln.a;
        ln.ws.x1.assign(ln.x.begin(), ln.x.end());
        ln.stepConverged = false;
        ln.stepFailed = false;
      }
      for (int iter = 0; iter < opt.maxNewton; ++iter) {
        size_t pending = 0;
        for (size_t l = 0; l < L; ++l) {
          LaneState& ln = lanes[l];
          active[l] =
              (ln.running && !ln.stepConverged && !ln.stepFailed) ? 1 : 0;
          pending += active[l];
        }
        if (pending == 0) break;
        TraceSpan iterSpan(Phase::kNewton, "newton_iter_batch",
                           TraceDetail::kKernel);
        batchEvalIteration(sys, batch, lanes, active, tNext, eopt, stampers,
                           scratch, solo);
        for (size_t l = 0; l < L; ++l) {
          if (!active[l]) continue;
          LaneState& ln = lanes[l];
          const NewtonTailOutcome outcome =
              newtonIterationTail(sys, opt, ln.ws, ln.a, tNext, iter);
          if (outcome == NewtonTailOutcome::kConverged) {
            ln.stepConverged = true;
          } else if (outcome == NewtonTailOutcome::kFailed) {
            ln.stepFailed = true;
          }
        }
      }
      for (size_t l = 0; l < L; ++l) {
        LaneState& ln = lanes[l];
        if (!ln.running) continue;
        if (ln.stepConverged) {
          acceptIntegrationStep(m, hseg, ln.x, ln.q, ln.qd,
                                havePrev ? &ln.qPrev : nullptr, ln.ws);
          std::swap(ln.qPrev, ln.qSave);
          ++ln.ws.stats.steps;
          telemetryCount(Counter::kStepsAccepted);
          if (opt.storeStates) {
            ln.out.result.times.push_back(tNext);
            ln.out.result.states.push_back(ln.x);
          }
        } else {
          // Same post-mortem (and error text) the scalar runTransient
          // attaches when it throws for this scenario; the lane drops out
          // and the surviving lanes keep stepping.
          if (!ln.stepFailed) recordNewtonStagnation(sys, opt, ln.ws, tNext);
          FailureDiagnostics diag = stepFailureDiagnostics(ln.ws, tNext);
          ln.out.error = "transient Newton failed at t=" + formatEng(tNext) +
                         "s: " + diag.describe();
          ln.out.diagnostics = std::move(diag);
          ln.out.hasDiagnostics = true;
          ln.running = false;
        }
      }
      havePrev = true;
      forceBE = false;
      t = tNext;
    }
    forceBE = true;  // restart the integrator after each breakpoint
    havePrev = false;
  }

  std::vector<BatchLaneOutcome> out;
  out.reserve(L);
  for (size_t l = 0; l < L; ++l) {
    LaneState& ln = lanes[l];
    if (ln.running) {
      ln.out.ok = true;
      ln.out.result.stats = SolveStats::since(SolveStats{}, ln.ws.stats);
      ln.out.result.finalState = std::move(ln.x);
    }
    out.push_back(std::move(ln.out));
  }
  return out;
}

}  // namespace psmn
