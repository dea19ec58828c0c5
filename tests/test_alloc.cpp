// Allocation-tracking tests: the transient stepping kernel must not touch
// the heap in the steady state (after the first step has sized the
// workspace, cached the sparsity pattern, and done the symbolic
// factorization). Global operator new/delete are overridden in this
// binary to count allocations; the counters are read only around the
// measured stepping loops, so gtest's own bookkeeping does not interfere.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "circuit/stdcell.hpp"
#include "engine/dc.hpp"
#include "engine/transient.hpp"
#include "rf/pss.hpp"
#include "util/telemetry.hpp"

namespace {
std::atomic<size_t> gAllocCount{0};
}  // namespace

void* operator new(std::size_t size) {
  ++gAllocCount;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++gAllocCount;
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace psmn {
namespace {

// Steps a `stages`-stage ring (stages + 2 unknowns) `warmup + measured`
// times with a persistent workspace and returns the number of allocations
// during the measured tail.
size_t allocationsPerSteadyState(int stages, size_t warmup, size_t measured) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  RingOscillatorOptions oopt;
  oopt.stages = stages;
  const auto osc = buildRingOscillator(nl, kit, oopt);
  MnaSystem sys(nl);
  const size_t n = sys.size();

  RealVector x = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    x[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.2 : -0.2);
  }
  RealVector q;
  sys.evalDense(x, 0.0, nullptr, &q, nullptr, nullptr, {});
  RealVector qd(n, 0.0);

  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  TransientWorkspace ws;
  const Real h = 5e-12;
  Real t = 0.0;
  bool beStep = true;
  for (size_t k = 0; k < warmup; ++k) {
    EXPECT_TRUE(integrateStep(sys, opt.method, beStep, t, h, x, q, qd,
                              nullptr, opt, ws));
    beStep = false;
    t += h;
  }
  const size_t before = gAllocCount.load();
  for (size_t k = 0; k < measured; ++k) {
    integrateStep(sys, opt.method, false, t, h, x, q, qd, nullptr, opt, ws);
    t += h;
  }
  return gAllocCount.load() - before;
}

TEST(Allocation, SteadyStateStepsAreHeapFree) {
  EXPECT_EQ(allocationsPerSteadyState(65, 20, 100), 0u);
}

TEST(Allocation, SmallRingSteadyStateStepsAreHeapFree) {
  // The 5-stage ring (n = 7) of the paper's Table II: the size that ran
  // the dense backend before every size went sparse. Its stamp tapes are
  // recorded during the warmup and replayed in place afterwards.
  EXPECT_EQ(allocationsPerSteadyState(5, 20, 100), 0u);
}

// Allocations of one whole runTransient over `steps` fixed steps of the
// 5-stage ring (n = 7) from a kicked start, states not stored.
size_t runTransientAllocations(size_t steps) {
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  const auto osc = buildRingOscillator(nl, kit, {});
  MnaSystem sys(nl);
  RealVector x = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    x[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.2 : -0.2);
  }
  TranOptions opt;
  opt.method = IntegrationMethod::kBackwardEuler;
  opt.storeStates = false;
  opt.initialState = &x;
  const Real h = 5e-12;
  const size_t before = gAllocCount.load();
  const TransientResult tr =
      runTransient(sys, 0.0, static_cast<Real>(steps) * h, h, opt);
  const size_t count = gAllocCount.load() - before;
  EXPECT_EQ(tr.stats.steps, steps);
  EXPECT_EQ(tr.stats.predictedSteps, steps - 1);
  return count;
}

TEST(Allocation, RunTransientPredictorHistoryIsHeapFree) {
  // The whole run allocates its workspace, result and predictor history
  // once; doubling the step count adds nothing, so the extrapolation and
  // its history rotation cost no allocation per step.
  const size_t n = runTransientAllocations(200);
  EXPECT_EQ(runTransientAllocations(400), n);
}

TEST(Allocation, TelemetryProbesStayHeapFree) {
  // The tests above already pin the telemetry-DISABLED case (no
  // registry is bound, every probe is one thread-local pointer test). A
  // BOUND registry must not regress the steady state either: counters are
  // plain adds into preallocated slots and spans above the configured
  // detail are compiled down to a load+compare. Only event COLLECTION
  // (--trace) is allowed to allocate, which is why it is opt-in.
  TelemetryRegistry reg(1);  // counters + phase timers, no events
  TelemetryScope scope(reg, 0);
  EXPECT_EQ(allocationsPerSteadyState(65, 20, 100), 0u);
  EXPECT_GT(reg.counterTotal(Counter::kNewtonIterations), 0u);
  EXPECT_GT(reg.counterTotal(Counter::kSparseRefactors), 0u);
}

TEST(Allocation, SparsePssPeriodIntegrationIsHeapFree) {
  // The shooting engines' inner loop: after one warm period integration
  // (pattern cached, symbolic factorization kept, charge-state buffers
  // sized), integrating further periods through the shared PssWorkspace
  // must not touch the heap.
  Netlist nl;
  auto kit = ProcessKit::cmos130();
  RingOscillatorOptions oopt;
  oopt.stages = 65;
  const auto osc = buildRingOscillator(nl, kit, oopt);
  MnaSystem sys(nl);

  RealVector x = solveDc(sys, {}).x;
  for (size_t i = 0; i < osc.stages.size(); ++i) {
    x[nl.nodeIndex(osc.stages[i])] += (i % 2 ? 0.2 : -0.2);
  }

  PssOptions opt;
  PssWorkspace ws;
  const Real period = 1e-9;
  const int steps = 100;
  integratePeriodInPlace(sys, x, 0.0, period, steps, opt, ws);  // warm
  const size_t before = gAllocCount.load();
  integratePeriodInPlace(sys, x, period, period, steps, opt, ws);
  EXPECT_EQ(gAllocCount.load() - before, 0u);
}

}  // namespace
}  // namespace psmn
