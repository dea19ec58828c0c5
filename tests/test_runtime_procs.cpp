// Multi-process sweep robustness: the wire/frame layers under
// truncation and corruption, and the coordinator's crash-tolerance
// contract — a worker killed mid-shard (injected "worker.exit" SIGKILL),
// a corrupted result frame ("ipc.frame"), a hung worker (inactivity
// timeout), and a worker binary that cannot start must all degrade into
// per-scenario SweepResult data with FailureDiagnostics, bounded
// retries, and input-order completion — never a lost or hung sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include <sys/socket.h>
#include <unistd.h>

#include "runtime/ipc.hpp"
#include "runtime/process_sweep.hpp"
#include "util/wire.hpp"

namespace psmn {
namespace {

// ------------------------------------------------------------ wire layer

TEST(Wire, PrimitivesRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.boolean(true);
  w.str("hello");
  w.f64vec(std::vector<double>{1.5, -2.25, 0.0});
  w.u64vec(std::vector<uint64_t>{7, 8});
  w.strvec({"a", "", "bc"});

  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  const RealVector v = r.f64vec();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1.5);
  EXPECT_EQ(v[1], -2.25);
  EXPECT_EQ(v[2], 0.0);
  EXPECT_EQ(r.u64vec(), (std::vector<uint64_t>{7, 8}));
  EXPECT_EQ(r.strvec(), (std::vector<std::string>{"a", "", "bc"}));
  EXPECT_TRUE(r.atEnd());
}

TEST(Wire, DoublesRoundTripBitExactly) {
  // The cross-topology byte-identity guarantee rides on this: NaN
  // payloads, signed zeros, denormals, and infinities must all survive.
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           -1.7976931348623157e308};
  WireWriter w;
  for (double v : values) w.f64(v);
  WireReader r(w.bytes());
  for (double v : values) {
    const double got = r.f64();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0) << v;
  }
}

TEST(Wire, TruncatedPayloadThrowsInsteadOfReadingGarbage) {
  WireWriter w;
  w.u64(12345);
  const std::string bytes = w.bytes();
  WireReader r(std::string_view(bytes).substr(0, 5));
  EXPECT_THROW(r.u64(), Error);
}

TEST(Wire, CorruptLengthPrefixCannotDriveAHugeAllocation) {
  // A length prefix claiming more elements than bytes remain must throw
  // (bounded by remaining()), not attempt a multi-GB vector.
  WireWriter w;
  w.u64(std::numeric_limits<uint64_t>::max());
  WireReader r(w.bytes());
  EXPECT_THROW(r.str(), Error);
}

TEST(Wire, UtilCodecsRoundTrip) {
  SolveStats s;
  s.newtonIterations = 11;
  s.steps = 22;
  s.factorizations = 3;
  s.refactorizations = 19;
  s.solves = 44;
  s.evals = 55;
  s.factorNnz = 1234;

  FailureDiagnostics d;
  d.analysis = "transient";
  d.stage = "newton";
  d.rung = 2;
  d.iteration = 17;
  d.residual = 3.5e-4;
  d.time = 1.25e-9;
  d.hasTime = true;
  d.suspectNodes = {"out", "mid"};
  d.injectedFault = "solver.factor";

  FaultPlan p;
  p.points.push_back(FaultPoint{"worker.exit", 1, 2});
  p.points.push_back(FaultPoint{"ipc.frame", 0, -1});

  WireWriter w;
  wireWrite(w, s);
  wireWrite(w, d);
  wireWrite(w, p);

  WireReader r(w.bytes());
  SolveStats s2;
  FailureDiagnostics d2;
  FaultPlan p2;
  wireRead(r, s2);
  wireRead(r, d2);
  wireRead(r, p2);
  EXPECT_TRUE(r.atEnd());

  EXPECT_EQ(s2.newtonIterations, s.newtonIterations);
  EXPECT_EQ(s2.steps, s.steps);
  EXPECT_EQ(s2.factorizations, s.factorizations);
  EXPECT_EQ(s2.refactorizations, s.refactorizations);
  EXPECT_EQ(s2.solves, s.solves);
  EXPECT_EQ(s2.evals, s.evals);
  EXPECT_EQ(s2.factorNnz, s.factorNnz);

  EXPECT_EQ(d2.analysis, d.analysis);
  EXPECT_EQ(d2.stage, d.stage);
  EXPECT_EQ(d2.rung, d.rung);
  EXPECT_EQ(d2.iteration, d.iteration);
  EXPECT_EQ(d2.residual, d.residual);
  EXPECT_EQ(d2.time, d.time);
  EXPECT_EQ(d2.hasTime, d.hasTime);
  EXPECT_EQ(d2.suspectNodes, d.suspectNodes);
  EXPECT_EQ(d2.injectedFault, d.injectedFault);

  ASSERT_EQ(p2.points.size(), 2u);
  EXPECT_EQ(p2.points[0].site, "worker.exit");
  EXPECT_EQ(p2.points[0].firstHit, 1);
  EXPECT_EQ(p2.points[0].count, 2);
  EXPECT_EQ(p2.points[1].site, "ipc.frame");
  EXPECT_EQ(p2.points[1].count, -1);
}

// ----------------------------------------------------------- frame layer

TEST(IpcFrame, RoundTripsThroughTheParser) {
  const std::string frame = buildFrame(7, "payload bytes");
  FrameParser parser;
  parser.feed(frame.data(), frame.size());
  uint32_t type = 0;
  std::string payload;
  ASSERT_EQ(parser.next(type, payload), FrameParser::Status::kFrame);
  EXPECT_EQ(type, 7u);
  EXPECT_EQ(payload, "payload bytes");
  EXPECT_EQ(parser.next(type, payload), FrameParser::Status::kNeedMore);
}

TEST(IpcFrame, ReassemblesFromSingleByteFeeds) {
  const std::string a = buildFrame(1, "first");
  const std::string b = buildFrame(2, "second");
  const std::string stream = a + b;
  FrameParser parser;
  uint32_t type = 0;
  std::string payload;
  std::vector<std::pair<uint32_t, std::string>> got;
  for (char c : stream) {
    parser.feed(&c, 1);
    while (parser.next(type, payload) == FrameParser::Status::kFrame) {
      got.emplace_back(type, payload);
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<uint32_t, std::string>{1, "first"}));
  EXPECT_EQ(got[1], (std::pair<uint32_t, std::string>{2, "second"}));
}

TEST(IpcFrame, ChecksumFlipAndBadMagicAreStickyCorrupt) {
  std::string frame = buildFrame(3, "data");
  frame[frame.size() - 1] ^= 0x01;  // payload bit flip vs stored checksum
  FrameParser parser;
  parser.feed(frame.data(), frame.size());
  uint32_t type = 0;
  std::string payload;
  EXPECT_EQ(parser.next(type, payload), FrameParser::Status::kCorrupt);
  // Sticky by design: feeding good bytes after corruption cannot
  // resynchronize a byte stream safely.
  const std::string good = buildFrame(3, "data");
  parser.feed(good.data(), good.size());
  EXPECT_EQ(parser.next(type, payload), FrameParser::Status::kCorrupt);

  FrameParser parser2;
  std::string bad = buildFrame(3, "data");
  bad[0] ^= 0xff;  // magic
  parser2.feed(bad.data(), bad.size());
  EXPECT_EQ(parser2.next(type, payload), FrameParser::Status::kCorrupt);
}

TEST(IpcFrame, ForceCorruptBuildsAFrameTheParserRejects) {
  const std::string frame = buildFrame(4, "xyz", /*forceCorrupt=*/true);
  FrameParser parser;
  parser.feed(frame.data(), frame.size());
  uint32_t type = 0;
  std::string payload;
  EXPECT_EQ(parser.next(type, payload), FrameParser::Status::kCorrupt);
}

TEST(IpcFrame, StaleProtocolHelloEndsWithTheMismatchDiagnostic) {
  // A worker handed a hello frame from an older protocol must refuse it
  // with the version diagnostic and a nonzero exit code, not misparse the
  // rest of the stream or crash.
  WireWriter hello;
  hello.u32(kIpcProtocolVersion - 1);
  hello.u64(1);  // jobs
  wireWrite(hello, FaultPlan{});
  int sv[2];  // [0]: the parent's end, [1]: the worker's stdin/stdout
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // Frame type 1 is the protocol's hello.
  ASSERT_TRUE(writeFrameBlocking(sv[0], 1, hello.bytes()));
  ::shutdown(sv[0], SHUT_WR);
  ::testing::internal::CaptureStderr();
  const int code = runSweepWorker(sv[1], sv[1]);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ::close(sv[0]);
  ::close(sv[1]);
  EXPECT_EQ(code, 3);
  EXPECT_NE(err.find("protocol version mismatch"), std::string::npos) << err;
}

// ------------------------------------------------- coordinator robustness

constexpr const char* kRcDeck = R"(* robustness deck
v1 top 0 pulse(0 2 1n 0.5n 0.5n 6n 20n)
r1 top mid 1k sigma=10
r2 mid 0 1k sigma=10
c1 mid 0 1p
)";

std::string siblingWorkerExe() {
  const std::string self = selfExecutablePath();
  return self.substr(0, self.find_last_of('/') + 1) + "psmn_sweep_worker";
}

std::vector<ProcessScenario> rcScenarios(int n, Real t1 = 20e-9,
                                         Real dt = 0.2e-9) {
  std::vector<ProcessScenario> scenarios;
  for (int k = 0; k < n; ++k) {
    ProcessScenario ps;
    ps.name = "mc" + std::to_string(k);
    ps.deckIndex = 0;
    ps.analysis = SweepAnalysis::kTransient;
    ps.outNode = "mid";
    ps.t1 = t1;
    ps.dt = dt;
    ps.applyMismatch = true;
    ps.seed = 3;
    ps.sampleIndex = size_t(k);
    ps.retry.maxRetries = 2;
    scenarios.push_back(std::move(ps));
  }
  return scenarios;
}

ProcessSweepOptions workerOptions(size_t procs) {
  ProcessSweepOptions opt;
  opt.procs = procs;
  opt.jobsPerWorker = 1;
  opt.workerExe = siblingWorkerExe();
  return opt;
}

TEST(ProcessSweepRobustness, SigkilledWorkerMidShardRecoversInOrder) {
  const auto scenarios = rcScenarios(4);
  const std::vector<std::string> decks = {kRcDeck};

  ProcessSweepOptions opt = workerOptions(1);
  FaultPoint fp;
  fp.site = "worker.exit";
  fp.firstHit = 2;  // SIGKILL before the third result write
  fp.count = 1;
  opt.workerFaults.points.push_back(fp);

  size_t progressCalls = 0;
  const auto results = runProcessSweep(
      decks, scenarios, opt, nullptr,
      [&](const SweepResult&) { ++progressCalls; });

  ASSERT_EQ(results.size(), scenarios.size());
  EXPECT_EQ(progressCalls, scenarios.size());
  size_t recovered = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);  // merged back in input order
    EXPECT_EQ(results[i].name, scenarios[i].name);
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].error;
    EXPECT_TRUE(results[i].hasCounters) << i;
    if (results[i].recovered) {
      ++recovered;
      EXPECT_GE(results[i].attempts, 2) << i;
    }
  }
  // Exactly one scenario was outstanding when the worker died: the
  // respawn re-ran it (the second spawn's fault ordinal never reaches 2
  // with only the remainder left, so no further kill fires).
  EXPECT_EQ(recovered, 1u);
}

TEST(ProcessSweepRobustness, CorruptResultFrameRecoversViaRespawn) {
  const auto scenarios = rcScenarios(4);
  const std::vector<std::string> decks = {kRcDeck};

  ProcessSweepOptions opt = workerOptions(1);
  FaultPoint fp;
  fp.site = "ipc.frame";
  // Corrupt the THIRD result frame's checksum: the respawn then holds
  // only two scenarios, whose write ordinals (0, 1) never reach the
  // fault again — exactly one recovery.
  fp.firstHit = 2;
  fp.count = 1;
  opt.workerFaults.points.push_back(fp);

  const auto results = runProcessSweep(decks, scenarios, opt);
  ASSERT_EQ(results.size(), scenarios.size());
  size_t recovered = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    ASSERT_TRUE(results[i].ok) << i << ": " << results[i].error;
    if (results[i].recovered) ++recovered;
  }
  EXPECT_EQ(recovered, 1u);
}

TEST(ProcessSweepRobustness, CrashPastRetryBudgetFailsAsDataWithDiagnostics) {
  // Every result write dies (count = -1) and the budget is zero: every
  // scenario must come back as a FAILED SweepResult with process-sweep
  // diagnostics — never an exception, never a hang, still input order.
  auto scenarios = rcScenarios(3);
  for (auto& ps : scenarios) ps.retry.maxRetries = 0;
  const std::vector<std::string> decks = {kRcDeck};

  ProcessSweepOptions opt = workerOptions(1);
  FaultPoint fp;
  fp.site = "worker.exit";
  fp.firstHit = 0;
  fp.count = -1;
  opt.workerFaults.points.push_back(fp);

  const auto results = runProcessSweep(decks, scenarios, opt);
  ASSERT_EQ(results.size(), scenarios.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].name, scenarios[i].name);
    EXPECT_FALSE(results[i].ok) << i;
    EXPECT_NE(results[i].error.find("worker failure"), std::string::npos)
        << results[i].error;
    ASSERT_TRUE(results[i].hasDiagnostics) << i;
    EXPECT_EQ(results[i].diagnostics.analysis, "process-sweep");
    EXPECT_FALSE(results[i].diagnostics.stage.empty());
  }
}

TEST(ProcessSweepRobustness, UnstartableWorkerFailsShardFastNotBudgetSlow) {
  // /bin/false exits immediately without speaking the protocol. The
  // maxSpawnsWithoutProgress fast path must fail the whole shard after a
  // few spawns even though each scenario's own retry budget is large.
  auto scenarios = rcScenarios(6);
  for (auto& ps : scenarios) ps.retry.maxRetries = 50;
  const std::vector<std::string> decks = {kRcDeck};

  ProcessSweepOptions opt = workerOptions(1);
  opt.workerExe = "/bin/false";
  opt.maxSpawnsWithoutProgress = 3;

  const auto results = runProcessSweep(decks, scenarios, opt);
  ASSERT_EQ(results.size(), scenarios.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].ok) << i;
    EXPECT_NE(results[i].error.find("worker"), std::string::npos)
        << results[i].error;
    EXPECT_TRUE(results[i].hasDiagnostics) << i;
  }
}

TEST(ProcessSweepRobustness, InactivityTimeoutKillsAHungWorker) {
  // One scenario whose transient is far slower than the inactivity
  // window, budget zero: the parent must kill the worker and fail the
  // scenario as data instead of waiting forever.
  auto scenarios = rcScenarios(1, /*t1=*/2e-6, /*dt=*/1e-12);
  scenarios[0].retry.maxRetries = 0;
  scenarios[0].tran.storeStates = false;
  const std::vector<std::string> decks = {kRcDeck};

  ProcessSweepOptions opt = workerOptions(1);
  opt.inactivityTimeout = 0.2;

  const auto results = runProcessSweep(decks, scenarios, opt);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("inactivity timeout"), std::string::npos)
      << results[0].error;
  ASSERT_TRUE(results[0].hasDiagnostics);
  EXPECT_EQ(results[0].diagnostics.analysis, "process-sweep");
}

TEST(ProcessSweepRobustness, UnsupportedAnalysisIsRejectedUpFront) {
  auto scenarios = rcScenarios(1);
  scenarios[0].analysis = SweepAnalysis::kPssDriven;
  const std::vector<std::string> decks = {kRcDeck};
  EXPECT_THROW(
      runProcessSweep(decks, scenarios, workerOptions(1)), Error);
}

TEST(ProcessSweepRobustness, EmptyScenarioListIsANoop) {
  const std::vector<std::string> decks = {kRcDeck};
  const auto results =
      runProcessSweep(decks, std::vector<ProcessScenario>{}, workerOptions(2));
  EXPECT_TRUE(results.empty());
}

}  // namespace
}  // namespace psmn
