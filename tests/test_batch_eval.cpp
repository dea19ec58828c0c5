// Scenario-batched evaluation tests (CTest label: batch).
//
// The contract under test (engine/batch_eval.hpp, docs/architecture.md
// "Batched evaluation"): batched stamps and full batched runs are
// BIT-IDENTICAL to the scalar path, which stays the oracle. Three tiers:
//   * stamp level — fdcheck::checkBatchedLanes sweeps every device class
//     with randomized per-lane draws: scalar-as-oracle bit-identity,
//     Richardson FD through a randomly chosen batch lane, and
//     lane-crosstalk (a perturbation in lane k never leaks into lane w);
//   * run level — runScenarioSweepBatched vs runScenarioSweep on MOSFET
//     chain and BJT op-amp fixtures, pool jobs 1/2/8, including the
//     failed-lane delegation to the scalar retry ladder;
//   * engine level — MonteCarloEngine's batched path vs its scalar path,
//     plus the kBatchEvals / kBatchSymbolicReuse telemetry counters.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "circuit/bjt.hpp"
#include "circuit/bjt_opamp.hpp"
#include "circuit/controlled.hpp"
#include "circuit/diode.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"
#include "circuit/stdcell.hpp"
#include "core/monte_carlo.hpp"
#include "engine/batch_eval.hpp"
#include "fd_check.hpp"
#include "runtime/scenario_sweep.hpp"
#include "runtime/thread_pool.hpp"

namespace psmn {
namespace {

// ------------------------------------------------ stamp-level (fd_check)

void expectBatchedLanesClean(Netlist& nl, size_t lanes = 5,
                             fdcheck::FdOptions opt = {}) {
  const auto failures = fdcheck::checkBatchedLanes(nl, lanes, opt);
  for (const auto& msg : failures) ADD_FAILURE() << msg;
  EXPECT_TRUE(failures.empty());
}

TEST(BatchStamps, PassivesAndIndependentSources) {
  Netlist nl;
  const NodeId a = nl.node("a"), b = nl.node("b"), c = nl.node("c");
  nl.add<Resistor>("R1", a, b, 1e3, nl, 50.0);
  nl.add<Capacitor>("C1", b, kGround, 1e-12, nl, 0.05e-12);
  nl.add<Inductor>("L1", b, c, 1e-6, nl, 0.02e-6);
  nl.add<VSource>("V1", a, kGround, SourceWave::dc(1.0), nl);
  nl.add<ISource>("I1", c, kGround, SourceWave::dc(1e-3), nl);
  expectBatchedLanesClean(nl);
}

TEST(BatchStamps, ControlledSources) {
  // No mismatch parameters: every lane must still reproduce the scalar
  // stamps bit for bit through the no-mismatch evalBatch overrides.
  Netlist nl;
  const NodeId in1 = nl.node("in1"), in2 = nl.node("in2");
  const NodeId o1 = nl.node("o1"), o2 = nl.node("o2"), o3 = nl.node("o3"),
               o4 = nl.node("o4");
  nl.add<Resistor>("Rt1", o1, kGround, 1e3, nl);
  nl.add<Resistor>("Rt2", o2, kGround, 1e3, nl);
  nl.add<Resistor>("Rt3", o3, kGround, 1e3, nl);
  nl.add<Resistor>("Rt4", o4, kGround, 1e3, nl);
  const int senseBranch = static_cast<int>(nl.nodeCount()) - 1;
  nl.add<VSource>("Vsense", in1, kGround, SourceWave::dc(0.0), nl);
  nl.add<Vcvs>("E1", o1, kGround, nl,
               std::vector<ControlTerm>{{nl.nodeIndex(in1), -1, 2.0},
                                        {nl.nodeIndex(in2), -1, -0.5}},
               0.1);
  nl.add<Vccs>("G1", o2, kGround, in1, in2, 1e-3, nl);
  nl.add<Ccvs>("H1", o3, kGround, senseBranch, 50.0, nl);
  nl.add<Cccs>("F1", o4, kGround, senseBranch, 3.0, nl);
  expectBatchedLanesClean(nl);
}

TEST(BatchStamps, DiodeWithJunctionCap) {
  Netlist nl;
  const NodeId a = nl.node("a"), c = nl.node("c");
  DiodeModel dm;
  dm.is = 1e-14;
  dm.n = 1.5;
  dm.cj0 = 2e-12;
  nl.add<Diode>("D1", a, c, dm, nl);
  nl.add<Resistor>("R1", a, kGround, 1e3, nl, 20.0);
  nl.add<Resistor>("R2", c, kGround, 1e3, nl, 20.0);
  expectBatchedLanesClean(nl);
}

std::shared_ptr<const MosModel> mosModel(bool pmos) {
  auto m = std::make_shared<MosModel>();
  m->pmos = pmos;
  m->lambda = 0.05;
  m->gamma = 0.4;
  return m;
}

TEST(BatchStamps, MosfetNmos) {
  Netlist nl;
  const NodeId d = nl.node("d"), g = nl.node("g"), s = nl.node("s"),
               b = nl.node("b");
  nl.add<Mosfet>("M1", d, g, s, b, mosModel(false), 2e-6, 0.13e-6, nl);
  nl.add<Resistor>("Rd", d, kGround, 1e4, nl);
  nl.add<Resistor>("Rs", s, kGround, 1e4, nl);
  expectBatchedLanesClean(nl);
}

TEST(BatchStamps, MosfetPmos) {
  Netlist nl;
  const NodeId d = nl.node("d"), g = nl.node("g"), s = nl.node("s"),
               b = nl.node("b");
  nl.add<Mosfet>("M1", d, g, s, b, mosModel(true), 2e-6, 0.13e-6, nl);
  nl.add<Resistor>("Rd", d, kGround, 1e4, nl);
  nl.add<Resistor>("Rs", s, kGround, 1e4, nl);
  expectBatchedLanesClean(nl);
}

std::shared_ptr<const BjtModel> bjtModel(bool pnp) {
  auto m = std::make_shared<BjtModel>();
  m->pnp = pnp;
  m->is = 5e-15;
  m->bf = 150.0;
  m->br = 4.0;
  m->vaf = 80.0;
  m->cje = 1e-12;
  m->cjc = 0.5e-12;
  m->tf = 0.4e-9;
  return m;
}

TEST(BatchStamps, BjtNpnAndPnp) {
  Netlist nl;
  const NodeId c = nl.node("c"), b = nl.node("b"), e = nl.node("e"),
               c2 = nl.node("c2"), e2 = nl.node("e2");
  nl.add<Bjt>("Q1", c, b, e, bjtModel(false), 1.0, nl);
  nl.add<Bjt>("Q2", c2, b, e2, bjtModel(true), 2.0, nl);
  nl.add<Resistor>("Rc", c, kGround, 1e4, nl);
  nl.add<Resistor>("Re", e, kGround, 1e4, nl);
  nl.add<Resistor>("Rc2", c2, kGround, 1e4, nl);
  nl.add<Resistor>("Re2", e2, kGround, 1e4, nl);
  expectBatchedLanesClean(nl);
}

TEST(BatchStamps, MixedDeviceNetlist) {
  // Everything at once: catches cross-device batched-walk issues (a view
  // pointed at the wrong SoA block, a stale lane mask) that the
  // per-family fixtures cannot.
  Netlist nl;
  const NodeId n1 = nl.node("n1"), n2 = nl.node("n2"), n3 = nl.node("n3"),
               n4 = nl.node("n4");
  nl.add<VSource>("V1", n1, kGround, SourceWave::dc(1.0), nl);
  nl.add<Resistor>("R1", n1, n2, 1e3, nl, 20.0);
  nl.add<Capacitor>("C1", n2, kGround, 1e-12, nl, 0.02e-12);
  nl.add<Mosfet>("M1", n3, n2, kGround, kGround, mosModel(false), 1e-6,
                 0.13e-6, nl);
  nl.add<Bjt>("Q1", n4, n3, kGround, bjtModel(false), 1.0, nl);
  nl.add<Diode>("D1", n4, kGround, DiodeModel{.is = 1e-14, .cj0 = 1e-12}, nl);
  nl.add<Inductor>("L1", n4, n1, 1e-6, nl, 0.01e-6);
  expectBatchedLanesClean(nl, /*lanes=*/8);
}

// --------------------------------------------------- run-level (sweeps)

std::unique_ptr<Netlist> makeChainNetlist() {
  auto nl = std::make_unique<Netlist>();
  const ProcessKit kit = ProcessKit::cmos130();
  InverterChainOptions copt;
  copt.stages = 4;
  copt.cLoad = 4e-15;
  buildInverterChain(*nl, kit, copt);
  return nl;
}

std::unique_ptr<Netlist> makeFollowerNetlist() {
  auto nl = std::make_unique<Netlist>();
  const BjtKit kit = BjtKit::bipolar5();
  BjtFollowerOptions fopt;
  fopt.tStep = 2e-9;
  fopt.tEdge = 1e-9;
  fopt.cLoad = 10e-12;
  buildBjtFollower(*nl, kit, fopt);
  return nl;
}

struct RunFixture {
  NetlistFactory make;
  std::string outNode;
  Real t1 = 0.0, dt = 0.0;
};

RunFixture chainFixture() {
  return {[] { return makeChainNetlist(); }, "ch4", 2e-9, 40e-12};
}

RunFixture followerFixture() {
  return {[] { return makeFollowerNetlist(); }, "out", 8e-9, 0.2e-9};
}

BatchSweepSpec specFor(const RunFixture& fx, size_t count, uint64_t seed) {
  BatchSweepSpec spec;
  spec.make = fx.make;
  spec.configure = [seed](Netlist& nl, size_t k) {
    applyMismatchSample(nl.mismatchParams(), nullptr, seed, k);
  };
  spec.count = count;
  spec.outNode = fx.outNode;
  spec.t1 = fx.t1;
  spec.dt = fx.dt;
  spec.retry.maxRetries = 2;
  spec.batch.enabled = true;
  spec.batch.lanes = 4;  // count=10 -> one ragged tail tile
  return spec;
}

/// The scalar oracle for `spec`: the same scenarios the batched driver
/// would delegate on failure, run through the plain sweep.
std::vector<SweepScenario> scalarScenarios(const BatchSweepSpec& spec) {
  std::vector<SweepScenario> scenarios;
  for (size_t k = 0; k < spec.count; ++k) {
    SweepScenario sc;
    sc.name = spec.namePrefix + std::to_string(k);
    sc.make = [make = spec.make, configure = spec.configure, k] {
      std::unique_ptr<Netlist> nl = make();
      nl->finalize();
      configure(*nl, k);
      return nl;
    };
    sc.analysis = SweepAnalysis::kTransient;
    sc.outNode = spec.outNode;
    sc.t0 = spec.t0;
    sc.t1 = spec.t1;
    sc.dt = spec.dt;
    sc.tran = spec.tran;
    sc.retry = spec.retry;
    scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

void expectResultsBitIdentical(const std::vector<SweepResult>& a,
                               const std::vector<SweepResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].name, b[i].name);
    ASSERT_EQ(a[i].ok, b[i].ok) << a[i].name << ": " << a[i].error << " vs "
                                << b[i].error;
    EXPECT_EQ(a[i].error, b[i].error);
    EXPECT_EQ(a[i].attempts, b[i].attempts);
    EXPECT_EQ(a[i].recovered, b[i].recovered);
    ASSERT_EQ(a[i].times.size(), b[i].times.size());
    for (size_t k = 0; k < a[i].times.size(); ++k) {
      EXPECT_EQ(a[i].times[k], b[i].times[k]) << a[i].name << " t[" << k
                                              << "]";
    }
    ASSERT_EQ(a[i].waveform.size(), b[i].waveform.size());
    for (size_t k = 0; k < a[i].waveform.size(); ++k) {
      EXPECT_EQ(a[i].waveform[k], b[i].waveform[k])
          << a[i].name << " waveform[" << k << "]";
    }
    ASSERT_EQ(a[i].finalState.size(), b[i].finalState.size());
    for (size_t k = 0; k < a[i].finalState.size(); ++k) {
      EXPECT_EQ(a[i].finalState[k], b[i].finalState[k])
          << a[i].name << " finalState[" << k << "]";
    }
    EXPECT_EQ(a[i].stats.steps, b[i].stats.steps) << a[i].name;
    EXPECT_EQ(a[i].stats.newtonIterations, b[i].stats.newtonIterations)
        << a[i].name;
  }
}

TEST(BatchSweepIdentity, ChainMatchesScalarAcrossJobCounts) {
  const BatchSweepSpec spec =
      specFor(chainFixture(), /*count=*/10, /*seed=*/7);
  const auto scenarios = scalarScenarios(spec);
  ThreadPool p1(1), p2(2), p8(8);
  const auto scalar = runScenarioSweep(scenarios, p1);
  const auto b1 = runScenarioSweepBatched(spec, p1);
  const auto b2 = runScenarioSweepBatched(spec, p2);
  const auto b8 = runScenarioSweepBatched(spec, p8);
  for (const auto& r : scalar) ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
  expectResultsBitIdentical(scalar, b1);
  expectResultsBitIdentical(scalar, b2);
  expectResultsBitIdentical(scalar, b8);
}

TEST(BatchSweepIdentity, BjtFollowerMatchesScalar) {
  const BatchSweepSpec spec =
      specFor(followerFixture(), /*count=*/6, /*seed=*/3);
  const auto scenarios = scalarScenarios(spec);
  ThreadPool p1(1), p2(2);
  const auto scalar = runScenarioSweep(scenarios, p1);
  const auto b2 = runScenarioSweepBatched(spec, p2);
  for (const auto& r : scalar) ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
  expectResultsBitIdentical(scalar, b2);
}

TEST(BatchSweep, FailedLanesDelegateToScalarRetryLadder) {
  // A Newton budget of 1 cannot track the chain through its switching
  // edges: lanes fail in the batch, delegate wholesale to the scalar
  // sweep, and its retry ladder (x2 Newton budget, dt/2, final-attempt
  // BE) recovers them. Outcome records — attempts, recovered, error text
  // of unrecovered lanes — must be exactly what a scalar-only sweep
  // produces.
  BatchSweepSpec spec =
      specFor(chainFixture(), /*count=*/8, /*seed=*/11);
  spec.tran.maxNewton = 1;
  const auto scenarios = scalarScenarios(spec);
  ThreadPool p1(1), p2(2);
  const auto scalar = runScenarioSweep(scenarios, p1);
  const auto batched = runScenarioSweepBatched(spec, p2);
  expectResultsBitIdentical(scalar, batched);
  bool anyRetried = false;
  for (const auto& r : scalar) anyRetried |= r.attempts > 1;
  EXPECT_TRUE(anyRetried)
      << "fixture no longer exercises the delegation path";
}

TEST(BatchSweep, TelemetryCountsBatchedWalksAndPatternReuse) {
  const BatchSweepSpec spec =
      specFor(chainFixture(), /*count=*/8, /*seed=*/7);
  TelemetryRegistry reg(2);
  ThreadPool pool(2);
  pool.attachTelemetry(&reg);
  const auto results = runScenarioSweepBatched(spec, pool);
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;
  const auto totals = reg.totals();
  const auto count = [&](Counter c) {
    return totals.counters[static_cast<size_t>(c)];
  };
  EXPECT_GT(count(Counter::kBatchEvals), 0u);
  // Two tiles of 4 lanes: each builds one pattern and copies it to the
  // other 3 lanes.
  EXPECT_EQ(count(Counter::kBatchSymbolicReuse), 6u);
  EXPECT_EQ(count(Counter::kScenariosRun), 8u);
}

// ------------------------------------------------- engine level (MC)

std::unique_ptr<Netlist> makeRcNetlist() {
  auto nl = std::make_unique<Netlist>();
  const NodeId top = nl->node("top");
  const NodeId mid = nl->node("mid");
  nl->add<VSource>(
      "V1", top, kGround,
      SourceWave::pulse(0.0, 2.0, 1e-9, 0.5e-9, 0.5e-9, 6e-9, 20e-9), *nl);
  nl->add<Resistor>("R1", top, mid, 1e3, *nl, /*sigma=*/10.0);
  nl->add<Resistor>("R2", mid, kGround, 1e3, *nl, /*sigma=*/10.0);
  nl->add<Capacitor>("C1", mid, kGround, 1e-12, *nl, /*sigma=*/0.02e-12);
  return nl;
}

TEST(BatchMc, BatchedEngineMatchesScalarBitForBit) {
  const Real t1 = 10e-9, dt = 0.1e-9;
  auto primary = makeRcNetlist();
  primary->finalize();
  MnaSystem sys(*primary);
  const int midIdx = primary->nodeIndex("mid");
  ASSERT_GE(midIdx, 0);

  TranOptions tran;
  tran.storeStates = false;
  const McMeasure measure = [&, midIdx](const MnaSystem& s) {
    const TransientResult tr = runTransient(s, 0.0, t1, dt, tran);
    return RealVector{tr.finalState.at(midIdx)};
  };

  McOptions opt;
  opt.samples = 11;  // lanes=4 -> ragged tail tile
  opt.seed = 5;

  MonteCarloEngine scalarEngine(sys, opt);
  scalarEngine.setNetlistFactory([] { return makeRcNetlist(); });
  const McResult scalar = scalarEngine.run({"vmid"}, measure);

  opt.batch.enabled = true;
  opt.batch.lanes = 4;
  MonteCarloEngine batchedEngine(sys, opt);
  batchedEngine.setNetlistFactory([] { return makeRcNetlist(); });
  McTransientSpec mspec;
  mspec.t1 = t1;
  mspec.dt = dt;
  mspec.tran = tran;
  mspec.measure = [midIdx](const Netlist&, const TransientResult& tr) {
    return RealVector{tr.finalState.at(midIdx)};
  };
  batchedEngine.setTransientMeasurement(std::move(mspec));
  const McResult batched = batchedEngine.run({"vmid"}, measure);

  ASSERT_EQ(scalar.samples.size(), batched.samples.size());
  for (size_t k = 0; k < scalar.samples.size(); ++k) {
    ASSERT_EQ(scalar.samples[k].size(), batched.samples[k].size());
    for (size_t j = 0; j < scalar.samples[k].size(); ++j) {
      EXPECT_EQ(scalar.samples[k][j], batched.samples[k][j]) << "sample " << k;
    }
  }
  EXPECT_EQ(scalar.failedSamples, batched.failedSamples);
  EXPECT_EQ(scalar.sigma(), batched.sigma());
  EXPECT_EQ(scalar.meanOf(), batched.meanOf());
}

}  // namespace
}  // namespace psmn
