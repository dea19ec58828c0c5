// Golden tests for the RF engines on the production (sparse) path:
// shooting PSS (driven and autonomous), the LPTV solver, periodic noise,
// the time-domain statistical waveform and the PPV sweep. Engine-level
// results are compared against references frozen from the retired dense
// backend (dense_reference.hpp); the stored orbit linearizations and the
// monodromy are checked live against the evalDense / DenseLU oracles.
//
// Also holds the regression fixture for the autonomous-shooting FD step:
// shooting on the ring oscillator must converge in a handful of
// iterations (the 1e-7*T finite-difference step once made it limp to the
// iteration cap).
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/stdcell.hpp"
#include "dense_reference.hpp"
#include "engine/dc.hpp"
#include "numeric/dense_lu.hpp"
#include "rf/lptv.hpp"
#include "rf/pnoise.hpp"
#include "rf/ppv.hpp"
#include "rf/pss.hpp"
#include "rf/timedomain_noise.hpp"
#include "runtime/thread_pool.hpp"

namespace psmn {
namespace {

constexpr Real kGoldenTol = 1e-8;

PssOptions pssOptions(int stepsPerPeriod) {
  PssOptions opt;
  opt.stepsPerPeriod = stepsPerPeriod;
  return opt;
}

void expectStatesMatch(const PssResult& a, const PssResult& b, Real tol) {
  ASSERT_EQ(a.states.size(), b.states.size());
  for (size_t k = 0; k < a.states.size(); ++k) {
    for (size_t i = 0; i < a.states[k].size(); ++i) {
      EXPECT_NEAR(a.states[k][i], b.states[k][i], tol)
          << "k=" << k << " unknown " << i;
    }
  }
}

/// Compares every orbit state against a flattened frozen reference.
void expectStatesMatchFrozen(const PssResult& pss,
                             std::span<const double> ref, Real tol) {
  const size_t n = pss.states[0].size();
  ASSERT_EQ(ref.size(), pss.states.size() * n);
  for (size_t k = 0; k < pss.states.size(); ++k) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(pss.states[k][i], ref[k * n + i], tol)
          << "k=" << k << " unknown " << i;
    }
  }
}

// ------------------------------------------------------------ driven PSS

struct ChainFixture {
  Netlist nl;
  std::unique_ptr<MnaSystem> sys;
  Real period = 0.0;
  int outIdx = -1;
  std::vector<InjectionSource> sources;

  explicit ChainFixture(int rows) {
    auto kit = ProcessKit::cmos130();
    InverterChainOptions copt;
    copt.stages = 8;
    copt.rows = rows;
    const auto chain = buildInverterChain(nl, kit, copt);
    sys = std::make_unique<MnaSystem>(nl);
    period = copt.period;
    outIdx = nl.nodeIndex(chain.taps.back());
    sources = sys->collectSources(true, false);
  }
};

class PssDrivenGolden : public ::testing::TestWithParam<int> {};

TEST_P(PssDrivenGolden, OrbitMatchesDenseReferenceAndOracles) {
  const int rows = GetParam();
  ChainFixture ckt(rows);
  const PssResult pss = solvePssDriven(*ckt.sys, ckt.period, pssOptions(100));
  const size_t n = ckt.sys->size();

  // Same discrete problem, same Newton: the shooting trajectory matches
  // the dense reference.
  EXPECT_EQ(static_cast<size_t>(pss.shootingIterations),
            rows == 1 ? dense_ref::kPssDrivenRows1ShootingIters
                      : dense_ref::kPssDrivenRows8ShootingIters);
  if (rows == 1) {
    expectStatesMatchFrozen(pss, dense_ref::kPssDrivenRows1States, kGoldenTol);
  } else {
    expectStatesMatchFrozen(pss, dense_ref::kPssDrivenRows8States, kGoldenTol);
  }

  // Monodromy oracle: Phi = prod_k (G_k + C_k/h)^{-1} (C_{k-1}/h) rebuilt
  // from the stored linearizations with dense LU.
  ASSERT_EQ(pss.gSpMats.size(), pss.states.size());
  const Real h = pss.stepSize();
  RealMatrix phi = RealMatrix::identity(n);
  for (size_t k = 1; k <= pss.stepCount(); ++k) {
    RealMatrix j = pss.gSpMats[k].toDense();
    const RealMatrix c = pss.cSpMats[k].toDense();
    const RealMatrix cPrev = pss.cSpMats[k - 1].toDense();
    for (size_t r = 0; r < n; ++r) {
      for (size_t col = 0; col < n; ++col) j(r, col) += c(r, col) / h;
    }
    RealVector rhs(n * n);
    for (size_t col = 0; col < n; ++col) {
      for (size_t r = 0; r < n; ++r) {
        Real acc = 0.0;
        for (size_t m = 0; m < n; ++m) acc += cPrev(r, m) * phi(m, col);
        rhs[col * n + r] = acc / h;
      }
    }
    DenseLU<Real>(j).solveManyInPlace(rhs, n);
    for (size_t col = 0; col < n; ++col) {
      for (size_t r = 0; r < n; ++r) phi(r, col) = rhs[col * n + r];
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(pss.monodromy(i, j), phi(i, j), kGoldenTol);
    }
  }

  // Stored linearizations: the sparse pattern holds every entry of the
  // evalDense oracle at the stored orbit point (G/C were evaluated at the
  // final Newton iterate, within the inner update tolerance of it).
  const size_t kMid = pss.stepCount() / 2;
  RealMatrix g, c;
  ckt.sys->evalDense(pss.states[kMid], pss.times[kMid], nullptr, nullptr, &g,
                     &c, {});
  EXPECT_LT(maxAbsDiff(pss.gSpMats[kMid].toDense(), g), 1e-9);
  EXPECT_LT(maxAbsDiff(pss.cSpMats[kMid].toDense(), c), 1e-9);
}

// rows=1: ~12 unknowns (ran dense before the backends merged); rows=8:
// ~66 unknowns.
INSTANTIATE_TEST_SUITE_P(ChainSizes, PssDrivenGolden, ::testing::Values(1, 8));

// -------------------------------------------------------- autonomous PSS

struct RingGolden {
  Netlist nl;
  std::unique_ptr<MnaSystem> sys;
  RingOscillatorCircuit osc;
  RingWarmup warm;

  explicit RingGolden(int stages, Real runTime, Real dt) {
    auto kit = ProcessKit::cmos130();
    RingOscillatorOptions oopt;
    oopt.stages = stages;
    osc = buildRingOscillator(nl, kit, oopt);
    sys = std::make_unique<MnaSystem>(nl);
    warm = warmupRingOscillator(*sys, osc, runTime, dt);
  }
};

/// Autonomous shooting against the frozen dense reference: period (the
/// headline quantity of the oscillator analyses), orbit, and dxdT.
void expectAutonomousMatchesReference(const PssResult& pss, Real refPeriod,
                                      std::span<const double> refStates,
                                      std::span<const double> refDxdT,
                                      Real periodTol, Real stateTol,
                                      Real dxdTTol) {
  EXPECT_NEAR(pss.period, refPeriod, periodTol * refPeriod);
  expectStatesMatchFrozen(pss, refStates, stateTol);
  // dxdT is a finite difference over dT = 1e-4*T, so the Newton noise
  // floor is amplified by 1/dT: compare it to a tolerance that respects
  // the fixture's conditioning, not the golden tolerance.
  ASSERT_EQ(pss.dxdT.size(), refDxdT.size());
  for (size_t i = 0; i < refDxdT.size(); ++i) {
    EXPECT_NEAR(pss.dxdT[i], refDxdT[i],
                dxdTTol * std::max(1.0, std::fabs(refDxdT[i])));
  }
}

TEST(PssAutonomousGolden, SmallRingMatchesDenseReference) {
  // 7 unknowns: the full shooting sequence from the transient warmup
  // state.
  RingGolden ring(5, 30e-9, 10e-12);
  const PssResult pss =
      solvePssAutonomous(*ring.sys, ring.warm.periodEstimate,
                         ring.warm.phaseIndex, ring.warm.state,
                         pssOptions(300));
  expectAutonomousMatchesReference(
      pss, dense_ref::kSmallRingPeriod, dense_ref::kSmallRingStates,
      dense_ref::kSmallRingDxdT, 1e-8, 1e-7, 1e-6);
}

TEST(PssAutonomousGolden, LargeRingMatchesDenseReference) {
  // 63 stages = 65 unknowns. The alternating kick settles onto a
  // multi-wave rotating mode: (Phi - I) is badly conditioned and the
  // phase level is crossed once per wave, so distinct far-from-orbit
  // starts can legitimately lock onto different (time shifted) solutions.
  // For a meaningful golden comparison, shoot once to land on the orbit,
  // then solve the seeded problem the reference solved — every ingredient
  // (period integration, monodromy accumulation, bordered update,
  // trajectory pack) runs again, and the answers must coincide almost to
  // machine precision.
  RingGolden ring(63, 400e-9, 20e-12);
  const PssResult seed = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(180));
  const PssResult pss = solvePssAutonomous(
      *ring.sys, seed.period, ring.warm.phaseIndex, seed.states[0],
      pssOptions(180));
  expectAutonomousMatchesReference(
      pss, dense_ref::kLargeRingPeriod, dense_ref::kLargeRingStates,
      dense_ref::kLargeRingDxdT, 1e-10, 1e-9, 5e-3);
}

TEST(PssAutonomousGolden, ShootingConvergesFastOnRingOscillator) {
  // Regression fixture for the FD period-derivative step: with the step at
  // 1e-7*T the bordered Jacobian drowned in inner-Newton noise and
  // shooting limped to ~58 iterations; at 1e-4*T it converges in ~14. Pin
  // a hard ceiling so the fragility cannot silently return.
  RingGolden ring(5, 30e-9, 10e-12);
  const PssResult pss = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(300));
  EXPECT_LE(pss.shootingIterations, 20);
}

// ------------------------------------------------------------- LPTV

TEST(LptvGolden, TransferMatchesDenseReferenceOnLargeChain) {
  ChainFixture ckt(8);
  const PssResult pss =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(80));

  const std::span<const InjectionSource> srcs(ckt.sources.data(), 12);
  LptvSolver solver(*ckt.sys, pss);
  const Real fOff = 1.0;
  const LptvSolution sol = solver.solveDirect(srcs, fOff);
  size_t at = 0;
  for (size_t s = 0; s < srcs.size(); ++s) {
    for (int harmonic : {0, 1, -1}) {
      const Cplx ref(dense_ref::kLptvDirectHarmonics[at],
                     dense_ref::kLptvDirectHarmonics[at + 1]);
      at += 2;
      const Cplx got = sol.harmonic(s, ckt.outIdx, harmonic);
      EXPECT_LT(std::abs(got - ref), kGoldenTol + 1e-6 * std::abs(ref))
          << "source " << s << " harmonic " << harmonic;
    }
  }
  // Adjoint path: transposed sparse solves against the dense adjoint.
  const CplxVector adj = solver.solveAdjoint(srcs, fOff, ckt.outIdx, 0);
  for (size_t s = 0; s < srcs.size(); ++s) {
    const Cplx ref(dense_ref::kLptvAdjoint[2 * s],
                   dense_ref::kLptvAdjoint[2 * s + 1]);
    EXPECT_LT(std::abs(adj[s] - ref), kGoldenTol + 1e-6 * std::abs(ref));
  }
  // And adjoint == direct.
  for (size_t s = 0; s < srcs.size(); ++s) {
    const Cplx d = sol.harmonic(s, ckt.outIdx, 0);
    EXPECT_LT(std::abs(adj[s] - d), 1e-9 + 1e-6 * std::abs(d));
  }
}

// ----------------------------------------------------- noise / sigma(t)

TEST(PnoiseGolden, SidebandPsdAndStatisticalWaveformMatchDenseReference) {
  ChainFixture ckt(8);
  const PssResult pss =
      solvePssDriven(*ckt.sys, ckt.period, pssOptions(80));

  std::vector<InjectionSource> srcs(ckt.sources.begin(),
                                    ckt.sources.begin() + 12);
  PnoiseAnalysis pn(*ckt.sys, pss, srcs, PnoiseOptions{});
  pn.run();

  const struct {
    int harmonic;
    Real total;
    std::span<const double> contribution;
  } refs[] = {
      {0, dense_ref::kPnoiseH0TotalPsd, dense_ref::kPnoiseH0Contribution},
      {1, dense_ref::kPnoiseH1TotalPsd, dense_ref::kPnoiseH1Contribution},
  };
  for (const auto& ref : refs) {
    const PnoiseSideband sb = pn.sideband(ckt.outIdx, ref.harmonic);
    EXPECT_NEAR(sb.totalPsd, ref.total, kGoldenTol + 1e-6 * ref.total);
    ASSERT_EQ(sb.contribution.size(), ref.contribution.size());
    for (size_t s = 0; s < srcs.size(); ++s) {
      EXPECT_NEAR(sb.contribution[s], ref.contribution[s],
                  kGoldenTol + 1e-6 * ref.contribution[s]);
    }
  }

  // sigma(t): the paper's pseudo-noise product.
  const StatisticalWaveform sw = statisticalWaveform(pn, ckt.outIdx);
  ASSERT_EQ(sw.sigma.size(), std::size(dense_ref::kPnoiseSigma));
  for (size_t k = 0; k < sw.sigma.size(); ++k) {
    EXPECT_NEAR(sw.sigma[k], dense_ref::kPnoiseSigma[k],
                kGoldenTol + 1e-6 * dense_ref::kPnoiseSigma[k]);
    EXPECT_NEAR(sw.nominal[k], dense_ref::kPnoiseNominal[k], kGoldenTol);
  }
}

// ------------------------------------- parallel RF paths (pool handles)

constexpr Real kParallelTol = 1e-12;

TEST(PssParallelGolden, DrivenMonodromyMatchesSerialAcrossJobCounts) {
  // The parallel monodromy partitions the column block across pool slots
  // against the shared accepted-step factorization: each column's
  // assembly, solve, and write-back involve only that column, so the
  // whole shooting solve must match the serial path to the last bit —
  // asserted here at 1e-12 on a small and a large chain and several jobs
  // counts.
  for (int rows : {1, 8}) {
    ChainFixture ckt(rows);
    const PssOptions sopt = pssOptions(60);
    const PssResult serial = solvePssDriven(*ckt.sys, ckt.period, sopt);
    for (size_t jobs : {2u, 4u}) {
      ThreadPool pool(jobs);
      PssOptions popt = sopt;
      popt.pool = &pool;
      const PssResult par = solvePssDriven(*ckt.sys, ckt.period, popt);
      EXPECT_EQ(par.shootingIterations, serial.shootingIterations);
      expectStatesMatch(serial, par, kParallelTol);
      for (size_t i = 0; i < ckt.sys->size(); ++i) {
        for (size_t j = 0; j < ckt.sys->size(); ++j) {
          EXPECT_NEAR(par.monodromy(i, j), serial.monodromy(i, j),
                      kParallelTol)
              << "rows=" << rows << " jobs=" << jobs << " (" << i << ","
              << j << ")";
        }
      }
    }
  }
}

TEST(PssParallelGolden, AutonomousShootingMatchesSerialWithPool) {
  RingGolden ring(5, 30e-9, 10e-12);
  const PssOptions sopt = pssOptions(200);
  const PssResult serial =
      solvePssAutonomous(*ring.sys, ring.warm.periodEstimate,
                         ring.warm.phaseIndex, ring.warm.state, sopt);
  ThreadPool pool(4);
  PssOptions popt = sopt;
  popt.pool = &pool;
  const PssResult par =
      solvePssAutonomous(*ring.sys, ring.warm.periodEstimate,
                         ring.warm.phaseIndex, ring.warm.state, popt);
  EXPECT_EQ(par.shootingIterations, serial.shootingIterations);
  EXPECT_NEAR(par.period, serial.period, kParallelTol * serial.period);
  expectStatesMatch(serial, par, kParallelTol);
}

TEST(PssParallelGolden, IntegrateMonodromyMatchesSerialOnWarmOrbit) {
  // The exposed kernel (what BM_MonodromyParallel times): one period of
  // monodromy accumulation from a warm state, pool vs serial.
  RingGolden ring(5, 30e-9, 10e-12);
  PssOptions opt = pssOptions(200);
  PssWorkspace wsSerial;
  RealVector xSerial = ring.warm.state;
  const RealMatrix serial =
      integrateMonodromy(*ring.sys, xSerial, 0.0, ring.warm.periodEstimate,
                         opt.stepsPerPeriod, opt, wsSerial);
  ThreadPool pool(4);
  opt.pool = &pool;
  PssWorkspace wsPar;
  RealVector xPar = ring.warm.state;
  const RealMatrix par =
      integrateMonodromy(*ring.sys, xPar, 0.0, ring.warm.periodEstimate,
                         opt.stepsPerPeriod, opt, wsPar);
  for (size_t i = 0; i < ring.sys->size(); ++i) {
    EXPECT_EQ(xPar[i], xSerial[i]) << i;  // integration itself is serial
    for (size_t j = 0; j < ring.sys->size(); ++j) {
      EXPECT_NEAR(par(i, j), serial(i, j), kParallelTol);
    }
  }
}

TEST(LptvParallelGolden, DirectAndAdjointMatchSerialAcrossJobCounts) {
  // The B_k / V_k recursions fan their column blocks across the pool;
  // every envelope and every adjoint transfer must match the serial
  // solver at 1e-12, on a small and a large chain.
  for (int rows : {1, 8}) {
    ChainFixture ckt(rows);
    const PssResult pss =
        solvePssDriven(*ckt.sys, ckt.period, pssOptions(60));
    const std::span<const InjectionSource> srcs(ckt.sources.data(), 8);
    const Real fOff = 1.0;
    const LptvSolver serial(*ckt.sys, pss);
    const LptvSolution sSol = serial.solveDirect(srcs, fOff);
    const CplxVector sAdj = serial.solveAdjoint(srcs, fOff, ckt.outIdx, 0);
    for (size_t jobs : {2u, 4u}) {
      ThreadPool pool(jobs);
      const LptvSolver par(*ckt.sys, pss, LptvOptions{&pool});
      const LptvSolution pSol = par.solveDirect(srcs, fOff);
      ASSERT_EQ(pSol.envelopes.size(), sSol.envelopes.size());
      for (size_t s = 0; s < srcs.size(); ++s) {
        ASSERT_EQ(pSol.envelopes[s].size(), sSol.envelopes[s].size());
        for (size_t k = 0; k < sSol.envelopes[s].size(); ++k) {
          for (size_t i = 0; i < ckt.sys->size(); ++i) {
            EXPECT_NEAR(std::abs(pSol.envelopes[s][k][i] -
                                 sSol.envelopes[s][k][i]),
                        0.0, kParallelTol)
                << "jobs=" << jobs << " s=" << s << " k=" << k;
          }
        }
      }
      const CplxVector pAdj = par.solveAdjoint(srcs, fOff, ckt.outIdx, 0);
      for (size_t s = 0; s < srcs.size(); ++s) {
        EXPECT_NEAR(std::abs(pAdj[s] - sAdj[s]), 0.0, kParallelTol)
            << "jobs=" << jobs << " s=" << s;
      }
    }
  }
}

// --------------------------------------------------------------- PPV

TEST(PpvGolden, FrequencySensitivityMatchesDenseReference) {
  RingGolden ring(5, 30e-9, 10e-12);
  const PssResult pss = solvePssAutonomous(
      *ring.sys, ring.warm.periodEstimate, ring.warm.phaseIndex,
      ring.warm.state, pssOptions(300));
  const PpvResult ppv = computePpv(*ring.sys, pss);
  const auto sources = ring.sys->collectSources(true, false);
  ASSERT_GE(sources.size(), std::size(dense_ref::kSmallRingFreqSens));
  for (size_t s = 0; s < std::size(dense_ref::kSmallRingFreqSens); ++s) {
    const Real ref = dense_ref::kSmallRingFreqSens[s];
    const Real got = ppv.frequencySensitivity(*ring.sys, pss, sources[s]);
    EXPECT_NEAR(got, ref, 1e-6 * std::fabs(ref) + 1e-9) << sources[s].name;
  }
}

}  // namespace
}  // namespace psmn
