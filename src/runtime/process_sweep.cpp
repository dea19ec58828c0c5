#include "runtime/process_sweep.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "circuit/parser.hpp"
#include "core/monte_carlo.hpp"
#include "runtime/ipc.hpp"
#include "util/telemetry.hpp"
#include "util/wire.hpp"

namespace psmn {
namespace {

using Clock = std::chrono::steady_clock;

// Protocol frame types. Parent -> worker: hello, deck, scenario,
// end-of-shard, shutdown. Worker -> parent: result.
enum FrameType : uint32_t {
  kFrameHello = 1,
  kFrameDeck = 2,
  kFrameScenario = 3,
  kFrameEndOfShard = 4,
  kFrameShutdown = 5,
  kFrameResult = 6,
};

// ---------------------------------------------------------------------------
// Wire codecs for the protocol payloads.

void writeTranOptions(WireWriter& w, const TranOptions& o) {
  w.u8(static_cast<uint8_t>(o.method));
  w.i32(o.maxNewton);
  w.f64(o.residualTol);
  w.f64(o.updateTol);
  w.f64(o.maxStep);
  w.f64(o.gshunt);
  w.boolean(o.useBreakpoints);
  w.boolean(o.storeStates);
  w.u8(static_cast<uint8_t>(o.ordering));
  w.boolean(o.adaptive);
  w.f64(o.reltol);
  w.f64(o.abstol);
  w.f64(o.dtMin);
  w.f64(o.dtMax);
  w.boolean(o.predictor);
}

void readTranOptions(WireReader& r, TranOptions& o) {
  o.method = static_cast<IntegrationMethod>(r.u8());
  o.maxNewton = r.i32();
  o.residualTol = r.f64();
  o.updateTol = r.f64();
  o.maxStep = r.f64();
  o.gshunt = r.f64();
  o.useBreakpoints = r.boolean();
  o.storeStates = r.boolean();
  o.ordering = static_cast<OrderingKind>(r.u8());
  o.adaptive = r.boolean();
  o.reltol = r.f64();
  o.abstol = r.f64();
  o.dtMin = r.f64();
  o.dtMax = r.f64();
  o.predictor = r.boolean();
}

std::string encodeScenario(uint64_t globalIndex, const ProcessScenario& ps) {
  WireWriter w;
  w.u64(globalIndex);
  w.str(ps.name);
  w.u64(ps.deckIndex);
  w.u8(static_cast<uint8_t>(ps.analysis));
  w.str(ps.outNode);
  w.f64(ps.t0);
  w.f64(ps.t1);
  w.f64(ps.dt);
  writeTranOptions(w, ps.tran);
  w.boolean(ps.applyMismatch);
  w.u64(ps.seed);
  w.u64(ps.sampleIndex);
  w.i32(ps.retry.maxRetries);
  w.f64(ps.retry.tightenFactor);
  w.boolean(ps.retry.robustFinalAttempt);
  wireWrite(w, ps.faults);
  return w.take();
}

uint64_t decodeScenario(WireReader& r, ProcessScenario& ps) {
  const uint64_t globalIndex = r.u64();
  ps.name = r.str();
  ps.deckIndex = r.u64();
  ps.analysis = static_cast<SweepAnalysis>(r.u8());
  ps.outNode = r.str();
  ps.t0 = r.f64();
  ps.t1 = r.f64();
  ps.dt = r.f64();
  readTranOptions(r, ps.tran);
  ps.applyMismatch = r.boolean();
  ps.seed = r.u64();
  ps.sampleIndex = r.u64();
  ps.retry.maxRetries = r.i32();
  ps.retry.tightenFactor = r.f64();
  ps.retry.robustFinalAttempt = r.boolean();
  wireRead(r, ps.faults);
  return globalIndex;
}

std::string encodeResult(uint64_t globalIndex, const SweepResult& res) {
  WireWriter w;
  w.u64(globalIndex);
  w.str(res.name);
  w.boolean(res.ok);
  w.str(res.error);
  w.i32(res.attempts);
  w.boolean(res.recovered);
  w.boolean(res.hasDiagnostics);
  if (res.hasDiagnostics) wireWrite(w, res.diagnostics);
  wireWrite(w, res.stats);
  w.boolean(res.hasCounters);
  if (res.hasCounters) {
    w.u64vec(std::span<const uint64_t>(res.counters.data(), kNumCounters));
  }
  w.f64vec(res.times);
  w.f64vec(res.waveform);
  w.f64vec(res.sigma);
  w.f64vec(res.finalState);
  return w.take();
}

uint64_t decodeResult(WireReader& r, SweepResult& res) {
  const uint64_t globalIndex = r.u64();
  res.name = r.str();
  res.ok = r.boolean();
  res.error = r.str();
  res.attempts = r.i32();
  res.recovered = r.boolean();
  res.hasDiagnostics = r.boolean();
  if (res.hasDiagnostics) wireRead(r, res.diagnostics);
  wireRead(r, res.stats);
  res.hasCounters = r.boolean();
  if (res.hasCounters) {
    const auto v = r.u64vec();
    PSMN_CHECK(v.size() == kNumCounters, "ipc: bad counter vector size");
    std::copy(v.begin(), v.end(), res.counters.begin());
  }
  res.times = r.f64vec();
  res.waveform = r.f64vec();
  res.sigma = r.f64vec();
  res.finalState = r.f64vec();
  return globalIndex;
}

// ---------------------------------------------------------------------------
// Worker side.

/// Manual fault check against the hello-shipped plan: worker-level sites
/// fire by result-write ordinal, counted process-wide (results are
/// written from pool threads, where a thread-confined FaultScope armed on
/// the protocol thread would never be consulted).
bool planFires(const FaultPlan& plan, const char* site, int hit) {
  for (const FaultPoint& p : plan.points) {
    if (p.site == site && hit >= p.firstHit &&
        (p.count < 0 || hit < p.firstHit + p.count)) {
      return true;
    }
  }
  return false;
}

/// Per-thread shard cache: one reusable ScenarioContext per deck hash.
/// Thread-local (not worker-global) so every pool slot owns its private
/// netlist/system/workspace — the same no-sharing rule the in-process
/// sweep's per-scenario stacks follow, with no locking.
std::unordered_map<uint64_t, std::unique_ptr<ScenarioContext>>&
threadContextCache() {
  static thread_local std::unordered_map<uint64_t,
                                         std::unique_ptr<ScenarioContext>>
      cache;
  return cache;
}

SweepScenario toSweepScenario(const ProcessScenario& ps,
                              std::shared_ptr<const std::string> deck,
                              uint64_t deckHash) {
  SweepScenario sc;
  sc.name = ps.name;
  sc.analysis = ps.analysis;
  sc.outNode = ps.outNode;
  sc.t0 = ps.t0;
  sc.t1 = ps.t1;
  sc.dt = ps.dt;
  sc.tran = ps.tran;
  sc.retry = ps.retry;
  sc.faults = ps.faults;
  sc.acquire = [deck = std::move(deck), deckHash, apply = ps.applyMismatch,
                seed = ps.seed, k = ps.sampleIndex](size_t) {
    auto& slot = threadContextCache()[deckHash];
    if (!slot) {
      slot = std::make_unique<ScenarioContext>();
      slot->own(parseNetlistString(*deck).netlist);
    }
    // The context is shared across this slot's scenarios, so the draw (or
    // its absence) must overwrite whatever the previous scenario left.
    const auto& params = slot->sys->netlist().mismatchParams();
    if (apply) {
      applyMismatchSample(params, nullptr, seed, k);
    } else {
      for (const auto& p : params) p.device->setMismatchDelta(p.index, 0.0);
    }
    return slot.get();
  };
  return sc;
}

int workerLoop(int inFd, int outFd) {
  FrameParser inParser;  // persists across reads: frames arrive in bursts
  uint32_t type = 0;
  std::string payload;
  if (!readFrameBlocking(inFd, inParser, type, payload)) return 0;
  PSMN_CHECK(type == kFrameHello, "worker: expected hello frame");
  WireReader hello(payload);
  const uint32_t version = hello.u32();
  PSMN_CHECK(version == kIpcProtocolVersion,
             "worker: protocol version mismatch");
  const uint64_t jobs = hello.u64();
  FaultPlan workerFaults;
  wireRead(hello, workerFaults);

  ThreadPool pool(jobs == 0 ? 1 : jobs);
  std::unordered_map<uint64_t,
                     std::pair<std::shared_ptr<const std::string>, uint64_t>>
      decks;  // deckIndex -> (text, hash)
  std::vector<uint64_t> globalIndex;
  std::vector<SweepScenario> batch;
  std::atomic<int> resultWrites{0};

  // Streams one completed scenario back per progress callback (serialized
  // by the sweep). A completed-but-unsent scenario dying with the process
  // is exactly what the "worker.exit" site injects; the parent's resend
  // makes it cost one bounded retry.
  const SweepProgressFn streamResult = [&](const SweepResult& r) {
    const int ordinal = resultWrites.fetch_add(1);
    if (planFires(workerFaults, "worker.exit", ordinal)) {
      ::raise(SIGKILL);
    }
    const bool corrupt = planFires(workerFaults, "ipc.frame", ordinal);
    const std::string bytes = encodeResult(globalIndex[r.index], r);
    if (!writeFrameBlocking(outFd, kFrameResult, bytes, corrupt)) {
      // Parent is gone; nothing left to compute for.
      std::_Exit(0);
    }
  };

  for (;;) {
    if (!readFrameBlocking(inFd, inParser, type, payload)) {
      return 0;  // parent gone
    }
    switch (type) {
      case kFrameShutdown:
        return 0;
      case kFrameDeck: {
        WireReader r(payload);
        const uint64_t index = r.u64();
        auto text = std::make_shared<const std::string>(r.str());
        const uint64_t hash = ipcChecksum(*text);
        decks[index] = {std::move(text), hash};
        break;
      }
      case kFrameScenario: {
        WireReader r(payload);
        ProcessScenario ps;
        const uint64_t gi = decodeScenario(r, ps);
        const auto it = decks.find(ps.deckIndex);
        PSMN_CHECK(it != decks.end(), "worker: scenario before its deck");
        PSMN_CHECK(ps.analysis == SweepAnalysis::kTransient ||
                       ps.analysis == SweepAnalysis::kTransientSensitivity,
                   "worker: unsupported analysis kind");
        globalIndex.push_back(gi);
        batch.push_back(
            toSweepScenario(ps, it->second.first, it->second.second));
        break;
      }
      case kFrameEndOfShard: {
        if (!batch.empty()) {
          runScenarioSweep(batch, pool, streamResult,
                           /*captureCounters=*/true);
          batch.clear();
          globalIndex.clear();
        }
        break;
      }
      default:
        PSMN_CHECK(false, "worker: unexpected frame type " +
                              std::to_string(type));
    }
  }
}

// ---------------------------------------------------------------------------
// Parent side.

struct WorkerSlot {
  ChildProcess proc;
  FrameParser parser;
  std::string outBuf;             // serialized frames awaiting write
  std::deque<uint64_t> pending;   // outstanding global indices, send order
  bool shutdownSent = false;
  bool dead = false;  // reaped; no fd, no pending work
  bool progressedThisSpawn = false;
  int spawnsWithoutProgress = 0;
  Clock::time_point lastActivity;
};

}  // namespace

std::vector<SweepResult> runProcessSweep(
    std::span<const std::string> decks,
    std::span<const ProcessScenario> scenarios, const ProcessSweepOptions& opt,
    TelemetryRegistry* registry, const SweepProgressFn& onProgress) {
  const size_t n = scenarios.size();
  std::vector<SweepResult> results(n);
  if (n == 0) return results;
  for (const ProcessScenario& ps : scenarios) {
    PSMN_CHECK(ps.analysis == SweepAnalysis::kTransient ||
                   ps.analysis == SweepAnalysis::kTransientSensitivity,
               "process sweep supports transient analyses only");
    PSMN_CHECK(ps.deckIndex < decks.size(),
               "scenario deckIndex out of range");
  }

  const size_t procs = std::min(std::max<size_t>(1, opt.procs), n);
  const std::string exe =
      opt.workerExe.empty() ? selfExecutablePath() : opt.workerExe;
  std::vector<std::string> args = opt.workerArgs;
  args.push_back("--worker");

  std::vector<bool> done(n, false);
  std::vector<int> infraStrikes(n, 0);
  size_t completed = 0;

  const auto finishScenario = [&](uint64_t i, SweepResult&& out) {
    results[i] = std::move(out);
    done[i] = true;
    ++completed;
    if (registry != nullptr && results[i].hasCounters) {
      registry->addExternalCounters(results[i].counters);
    }
    if (onProgress) onProgress(results[i]);
  };

  std::vector<WorkerSlot> workers(procs);
  // Deterministic contiguous block shards: worker p owns
  // [p*n/P, (p+1)*n/P). The partition is a pure function of (n, P);
  // results merge by global index, so the topology never shows in the
  // output.
  for (size_t p = 0; p < procs; ++p) {
    const size_t lo = p * n / procs;
    const size_t hi = (p + 1) * n / procs;
    for (size_t i = lo; i < hi; ++i) workers[p].pending.push_back(i);
  }

  // Serializes one spawn's full outbound conversation: hello, the decks
  // the shard references, every outstanding scenario, end-of-shard. Used
  // both for the initial spawn and for crash respawns (which resend the
  // outstanding scenarios UNCHANGED — infrastructure retries must not
  // alter numerical options or results would depend on crash timing).
  const auto loadOutbound = [&](WorkerSlot& w) {
    WireWriter hello;
    hello.u32(kIpcProtocolVersion);
    hello.u64(opt.jobsPerWorker);
    wireWrite(hello, opt.workerFaults);
    w.outBuf += buildFrame(kFrameHello, hello.bytes());
    std::unordered_set<size_t> sentDecks;
    for (uint64_t i : w.pending) {
      const size_t di = scenarios[i].deckIndex;
      if (!sentDecks.insert(di).second) continue;
      WireWriter d;
      d.u64(di);
      d.str(decks[di]);
      w.outBuf += buildFrame(kFrameDeck, d.bytes());
    }
    for (uint64_t i : w.pending) {
      w.outBuf += buildFrame(kFrameScenario, encodeScenario(i, scenarios[i]));
    }
    w.outBuf += buildFrame(kFrameEndOfShard, {});
  };

  const auto spawn = [&](WorkerSlot& w) {
    w.parser = FrameParser();
    w.outBuf.clear();
    w.shutdownSent = false;
    w.progressedThisSpawn = false;
    w.proc = spawnWorkerProcess(exe, args);
    loadOutbound(w);
    w.lastActivity = Clock::now();
  };

  // Worker failure: kill + reap, strike the first outstanding scenario
  // (the only one whose processing the parent cannot rule out as the
  // cause; each failure strikes exactly one, bounding total respawns by
  // the sum of per-scenario budgets), then respawn with the remainder.
  const auto failWorker = [&](WorkerSlot& w, const std::string& reason) {
    const int status = killAndReapChild(w.proc.pid);
    ::close(w.proc.fd);
    w.proc = ChildProcess{};
    std::string describe = reason;
    if (status >= 0) describe += ", " + describeWaitStatus(status);

    if (w.progressedThisSpawn) {
      w.spawnsWithoutProgress = 0;
    } else {
      ++w.spawnsWithoutProgress;
    }

    const auto failScenario = [&](uint64_t i, const std::string& why) {
      SweepResult out;
      out.index = i;
      out.name = scenarios[i].name;
      out.ok = false;
      out.error = "worker failure: " + why;
      out.attempts = std::max(1, infraStrikes[i]);
      out.hasDiagnostics = true;
      out.diagnostics.analysis = "process-sweep";
      out.diagnostics.stage = reason;
      finishScenario(i, std::move(out));
    };

    if (!w.pending.empty()) {
      const uint64_t suspect = w.pending.front();
      ++infraStrikes[suspect];
      if (infraStrikes[suspect] > scenarios[suspect].retry.maxRetries) {
        w.pending.pop_front();
        failScenario(suspect, describe);
      }
    }
    if (w.spawnsWithoutProgress >= std::max(1, opt.maxSpawnsWithoutProgress)) {
      // The worker binary cannot even start (bad exe, immediate death):
      // fail the whole remaining shard instead of burning every
      // scenario's budget one respawn at a time.
      while (!w.pending.empty()) {
        const uint64_t i = w.pending.front();
        w.pending.pop_front();
        infraStrikes[i] = std::max(infraStrikes[i], 1);
        failScenario(i, "worker cannot start (" + describe + ")");
      }
    }
    if (w.pending.empty()) {
      w.dead = true;
      return;
    }
    spawn(w);
  };

  // Drains and verifies one result frame; false demands a worker failure.
  const auto handleResult = [&](WorkerSlot& w, const std::string& payload) {
    SweepResult out;
    uint64_t idx = 0;
    try {
      WireReader r(payload);
      idx = decodeResult(r, out);
    } catch (const Error&) {
      return false;
    }
    if (idx >= n || done[idx]) return false;
    const auto it = std::find(w.pending.begin(), w.pending.end(), idx);
    if (it == w.pending.end()) return false;
    w.pending.erase(it);
    out.index = idx;
    // Infrastructure strikes ride on top of the worker's own attempt
    // count; a scenario that succeeded after a crash-forced resend is a
    // recovery even when the rerun itself passed first try.
    out.attempts += infraStrikes[idx];
    if (out.ok && infraStrikes[idx] > 0) out.recovered = true;
    w.progressedThisSpawn = true;
    w.lastActivity = Clock::now();
    finishScenario(idx, std::move(out));
    return true;
  };

  const auto flushOutbound = [&](WorkerSlot& w) {
    while (!w.outBuf.empty()) {
      const ssize_t k = ::send(w.proc.fd, w.outBuf.data(), w.outBuf.size(),
                               MSG_NOSIGNAL);
      if (k > 0) {
        w.outBuf.erase(0, size_t(k));
        continue;
      }
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (k < 0 && errno == EINTR) continue;
      return false;  // EPIPE and friends: the worker died mid-send
    }
    return true;
  };

  for (auto& w : workers) spawn(w);

  std::vector<pollfd> fds;
  std::vector<size_t> fdOwner;
  char readBuf[65536];
  while (completed < n) {
    fds.clear();
    fdOwner.clear();
    for (size_t p = 0; p < procs; ++p) {
      WorkerSlot& w = workers[p];
      if (w.dead) continue;
      // A finished worker gets its shutdown queued here; it exits and the
      // EOF below reaps it.
      if (w.pending.empty() && !w.shutdownSent) {
        w.outBuf += buildFrame(kFrameShutdown, {});
        w.shutdownSent = true;
      }
      pollfd pf{};
      pf.fd = w.proc.fd;
      pf.events = POLLIN;
      if (!w.outBuf.empty()) pf.events |= POLLOUT;
      fds.push_back(pf);
      fdOwner.push_back(p);
    }
    if (fds.empty()) break;  // everything remaining was failed as data

    const int timeoutMs = opt.inactivityTimeout > 0.0 ? 50 : -1;
    const int rc = ::poll(fds.data(), nfds_t(fds.size()), timeoutMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw Error(std::string("process sweep: poll failed: ") +
                  std::strerror(errno));
    }

    for (size_t k = 0; k < fds.size(); ++k) {
      WorkerSlot& w = workers[fdOwner[k]];
      if (w.dead) continue;
      const short rev = fds[k].revents;
      if (rev & POLLOUT) {
        if (!flushOutbound(w)) {
          failWorker(w, "worker died during send");
          continue;
        }
      }
      if (rev & (POLLIN | POLLHUP | POLLERR)) {
        bool failed = false;
        bool eof = false;
        for (;;) {
          const ssize_t got = ::read(w.proc.fd, readBuf, sizeof readBuf);
          if (got > 0) {
            w.parser.feed(readBuf, size_t(got));
            continue;
          }
          if (got == 0) {
            eof = true;
            break;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          failed = true;
          break;
        }
        uint32_t type = 0;
        std::string payload;
        while (!failed) {
          const auto st = w.parser.next(type, payload);
          if (st == FrameParser::Status::kNeedMore) break;
          if (st == FrameParser::Status::kCorrupt) {
            failWorker(w, "corrupt result frame");
            failed = true;
            break;
          }
          if (type != kFrameResult || !handleResult(w, payload)) {
            failWorker(w, "protocol violation from worker");
            failed = true;
            break;
          }
        }
        if (failed) continue;
        if (eof) {
          if (w.pending.empty() && w.shutdownSent) {
            // Clean exit after shutdown.
            ::close(w.proc.fd);
            reapChild(w.proc.pid, /*graceMs=*/2000);
            w.proc = ChildProcess{};
            w.dead = true;
          } else {
            failWorker(w, "worker exited unexpectedly");
          }
          continue;
        }
      }
    }

    if (opt.inactivityTimeout > 0.0) {
      const auto now = Clock::now();
      for (auto& w : workers) {
        if (w.dead || w.pending.empty()) continue;
        const double idle =
            std::chrono::duration<double>(now - w.lastActivity).count();
        if (idle > opt.inactivityTimeout) {
          failWorker(w, "inactivity timeout");
        }
      }
    }
  }

  // Sweep complete (or everything failed as data): shut the survivors
  // down. Remaining outbound bytes are best-effort — the workers exit on
  // EOF anyway when the fd closes.
  for (auto& w : workers) {
    if (w.dead) continue;
    if (!w.shutdownSent) {
      w.outBuf += buildFrame(kFrameShutdown, {});
      w.shutdownSent = true;
    }
    flushOutbound(w);
    ::close(w.proc.fd);
    reapChild(w.proc.pid, /*graceMs=*/2000);
    w.dead = true;
  }
  return results;
}

int runSweepWorker(int inFd, int outFd) {
  try {
    return workerLoop(inFd, outFd);
  } catch (const std::exception& err) {
    // stderr passes through to the parent's terminal for diagnostics;
    // stdout is the frame channel and stays untouched.
    std::fprintf(stderr, "worker: %s\n", err.what());
    return 3;
  }
}

}  // namespace psmn
