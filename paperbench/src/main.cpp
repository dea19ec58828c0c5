// paperbench: runs one workload of the paper-workload benchmark and prints
// its raw measurements as one JSON object on the last line of stdout.
// run.py builds this program, turns the raw figures into the benchmark's
// metrics and makes the correctness checks; see ../README.md.
//
//   paperbench --workload table2|ring63_pn|deck_sweep --seed S --seconds T
//              --trace 0|1 --decks DIR [--jobs J] [--min-passes P]
//   paperbench --reference N --seed S [--jobs J] --decks DIR
//
// Untraced runs set up three times before each pass and run whole passes of
// the workload until T seconds have passed (at least P passes), timing the
// host speed probe just before and just after every pass. Traced runs
// alternate an untraced and a traced pass, so the difference between the
// two is the tracing overhead, and attribute every traced pass to psmn's
// layers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "bench.hpp"
#include "util/trace_export.hpp"

using namespace paperbench;
using namespace psmn;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t jobs = 0;
  std::string deckDir;
  size_t minPasses = 3;
  size_t referenceSamples = 0;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", k.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--jobs") {
      a.jobs = std::strtoul(v, nullptr, 10);
    } else if (k == "--decks") {
      a.deckDir = v;
    } else if (k == "--min-passes") {
      a.minPasses = std::max<size_t>(1, std::strtoul(v, nullptr, 10));
    } else if (k == "--reference") {
      a.referenceSamples = std::strtoul(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return true;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       const Config& cfg) {
  if (name == "table2") return makeTable2(cfg);
  if (name == "ring63_pn") return makeRing63(cfg);
  if (name == "deck_sweep") return makeDeckSweep(cfg);
  return nullptr;
}

constexpr int kSetupReps = 3;  // set-ups timed before every pass

/// Per-pass seeds: distinct per pass and per run seed.
uint64_t passSeed(uint64_t seed, size_t pass) {
  return seed * 1000003ULL + pass;
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void writeMap(JsonWriter& w, const char* key,
              const std::map<std::string, double>& m) {
  w.key(key);
  w.beginObject();
  for (const auto& [k, v] : m) w.field(k, v);
  w.endObject();
}

void writePass(JsonWriter& w, const PassResult& r) {
  w.beginObject();
  w.field("wall_s", r.wallS);
  w.field("cpu_s", r.cpuS);
  w.field("sigma_cpu_s", r.sigmaCpuS);
  w.field("probe_s", r.probeS);
  w.field("pn_s", r.pnS);
  w.field("mc_s", r.mcS);
  w.field("mc_samples", r.mcSamples);
  w.field("sweep_s", r.sweepS);
  w.field("scenarios", r.scenarios);
  w.field("attempted", r.attempted);
  w.field("failed", r.failed);
  w.field("retries", r.retries);
  writeMap(w, "pn_sigma", r.pnSigma);
  writeMap(w, "mc_sigma", r.mcSigma);
  writeMap(w, "pn_time", r.pnTime);
  writeMap(w, "mc_time", r.mcTime);
  w.key("mc_n");
  w.beginObject();
  for (const auto& [k, v] : r.mcN) w.field(k, v);
  w.endObject();
  w.endObject();
}

/// The named per-layer metrics of one traced pass.
std::map<std::string, double> layerMetrics(const PassResult& r,
                                           const Attribution& a,
                                           const Calibration& cal,
                                           size_t jobs) {
  std::map<std::string, double> m;
  const auto incl = [&](const std::string& name) {
    const auto it = a.inclusiveS.find(name);
    return it == a.inclusiveS.end() ? 0.0 : it->second;
  };
  const auto meanUs = [&](const std::string& name) {
    const auto it = a.spanCount.find(name);
    return it == a.spanCount.end()
               ? 0.0
               : 1e6 * incl(name) / static_cast<double>(it->second);
  };

  m["wall_s"] = a.wallS;
  double layerSum = 0.0;
  for (size_t l = 0; l < kNumLayers; ++l) {
    m[std::string("self_s.") + kLayerNames[l]] = a.selfS[l];
    layerSum += a.selfS[l];
  }
  m["glue_s"] = a.glueS;
  m["reconcile_err_pct"] =
      a.wallS > 0.0 ? 100.0 * std::fabs(layerSum - a.wallS) / a.wallS : 100.0;
  m["trace.bad_nesting"] = static_cast<double>(a.badNesting);
  m["trace.stray_spans"] = static_cast<double>(a.strays);

  Counts total;
  double evalUs = 0.0, factorUs = 0.0, solveUs = 0.0;
  for (const auto& [key, c] : r.counts) {
    total.add(c);
    const auto it = cal.kernels.find(key);
    if (it == cal.kernels.end()) continue;
    evalUs += it->second.evalUs * static_cast<double>(c.evals);
    factorUs += it->second.factorUs * static_cast<double>(c.factors);
    solveUs += it->second.solveUsPerCol * static_cast<double>(c.solveCols);
  }
  const auto per = [](double us, uint64_t n) {
    return n > 0 ? us / static_cast<double>(n) : 0.0;
  };
  const double solverS = a.selfThreadS[kEngine] + a.selfThreadS[kRf];
  m["circuit.parse_us"] = meanUs("circuit.parse");
  m["circuit.evals"] = static_cast<double>(total.evals);
  m["circuit.eval_us"] = per(evalUs, total.evals);
  m["circuit.eval_share_est"] = solverS > 0.0 ? 1e-6 * evalUs / solverS : 0.0;
  m["numeric.factors"] = static_cast<double>(total.factors);
  m["numeric.factor_us"] = per(factorUs, total.factors);
  m["numeric.solve_cols"] = static_cast<double>(total.solveCols);
  m["numeric.solve_us_per_col"] = per(solveUs, total.solveCols);
  m["numeric.factor_nnz"] =
      total.sparseFactors > 0
          ? static_cast<double>(total.nnzTotal) /
                static_cast<double>(total.sparseFactors)
          : 0.0;
  m["numeric.lu_share_est"] =
      solverS > 0.0 ? 1e-6 * (factorUs + solveUs) / solverS : 0.0;
  m["engine.transient_s"] = incl("transient");
  m["engine.dc_s"] = incl("dc");
  m["engine.newton_iters"] = static_cast<double>(total.newton);
  m["engine.steps"] = static_cast<double>(total.steps);
  m["engine.warmup_s"] = incl("engine.warmup");
  m["rf.pss_s"] = incl("pss_driven") + incl("pss_autonomous");
  m["rf.pnoise_s"] = incl("pnoise");
  m["rf.pss_shooting_iters"] = static_cast<double>(r.pssShootingIters);
  m["rf.pss_steps"] = static_cast<double>(r.pssSteps);
  m["rf.lptv_solve_cols"] = static_cast<double>(cal.lptvSolveCols);
  m["core.mc_run_s"] = incl("core.mc_run");
  m["core.readout_s"] = incl("core.readout");
  m["core.mismatch_apply_us"] = meanUs("core.mismatch_apply");
  m["runtime.busy_frac"] =
      a.capacityThreadS > 0.0 ? a.busyThreadS / a.capacityThreadS : 0.0;
  double maxBusy = 0.0, sumBusy = 0.0;
  for (size_t s = 0; s < std::min(jobs, a.busyPerSlot.size()); ++s) {
    maxBusy = std::max(maxBusy, a.busyPerSlot[s]);
    sumBusy += a.busyPerSlot[s];
  }
  m["runtime.slot_imbalance"] =
      sumBusy > 0.0 ? maxBusy / (sumBusy / static_cast<double>(jobs)) : 0.0;
  m["runtime.retries"] = static_cast<double>(r.retries);
  double measS = 0.0;
  for (const auto& [k, v] : a.inclusiveS) {
    if (k.rfind("meas.", 0) == 0) measS += v;
  }
  m["meas.s"] = measS;
  return m;
}

int runReference(const Args& args, const Config& cfg) {
  const PassResult t2 = runTable2Reference(cfg, args.referenceSamples);
  const PassResult ring = makeRing63(cfg)->runPass(0, false);
  JsonWriter w(std::cout);
  w.beginObject();
  w.field("samples", static_cast<uint64_t>(args.referenceSamples));
  w.field("seed", args.seed);
  w.field("jobs", static_cast<uint64_t>(cfg.jobs));
  std::map<std::string, double> pn = t2.pnSigma;
  pn.insert(ring.pnSigma.begin(), ring.pnSigma.end());
  writeMap(w, "pn_sigma", pn);
  writeMap(w, "mc_sigma", t2.mcSigma);
  w.key("mc_n");
  w.beginObject();
  for (const auto& [k, v] : t2.mcN) w.field(k, v);
  w.endObject();
  w.field("mc_s", t2.mcS);
  w.endObject();
  std::cout << std::endl;
  return 0;
}

int run(const Args& args, const Config& cfg) {
  // Set-up is repeated before every pass, so its samples spread over the
  // run like the passes do; each pass runs on the last workload built.
  std::vector<double> setupCpuS;
  std::unique_ptr<Workload> w;
  const auto setUp = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      w.reset();
      const double c0 = processCpuSeconds();
      w = makeWorkload(args.workload, cfg);
      setupCpuS.push_back(processCpuSeconds() - c0);
    }
  };
  setUp();
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<PassResult> passes, tracedPasses;
  std::vector<std::map<std::string, double>> traced;
  std::optional<Calibration> cal;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t p = 0;; ++p) {
    const size_t done = args.trace ? traced.size() : passes.size();
    if (done >= args.minPasses && secondsSince(t0) >= args.seconds) break;
    if (p > 0 && !args.trace) setUp();
    const double probeBefore = hostProbeSeconds();
    passes.push_back(w->runPass(passSeed(args.seed, p), false));
    passes.back().probeS = 0.5 * (probeBefore + hostProbeSeconds());
    if (!args.trace) continue;

    TelemetryRegistry::Options topt;
    topt.collectEvents = true;
    TelemetryRegistry reg(cfg.jobs, topt);
    PassResult r;
    {
      TelemetryScope scope(reg, 0);
      setTracedRegistry(&reg);
      r = w->runPass(passSeed(args.seed, p), true);
      setTracedRegistry(nullptr);
    }
    if (!cal) cal = w->calibrate();
    const Attribution a = attribute(reg.events(), w->regions(), cfg.jobs);
    traced.push_back(layerMetrics(r, a, *cal, cfg.jobs));
    tracedPasses.push_back(std::move(r));
  }
  const std::vector<CheckResult> checks = w->check(args.seed);

  JsonWriter out(std::cout);
  out.beginObject();
  out.field("workload", args.workload);
  out.field("jobs", static_cast<uint64_t>(cfg.jobs));
  out.key("setup_cpu_s");
  out.beginArray();
  for (double s : setupCpuS) out.value(s);
  out.endArray();
  out.key("passes");
  out.beginArray();
  for (const PassResult& r : passes) writePass(out, r);
  out.endArray();
  out.key("traced");
  out.beginArray();
  for (const auto& m : traced) {
    out.beginObject();
    for (const auto& [k, v] : m) out.field(k, v);
    out.endObject();
  }
  out.endArray();
  out.key("traced_passes");
  out.beginArray();
  for (const PassResult& r : tracedPasses) writePass(out, r);
  out.endArray();
  out.field("peak_rss_mb", peakRssMb());
  out.key("checks");
  out.beginArray();
  for (const CheckResult& c : checks) {
    out.beginObject();
    out.field("name", c.name);
    out.field("ok", c.ok);
    out.field("detail", c.detail);
    out.endObject();
  }
  out.endArray();
  out.endObject();
  std::cout << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) return 2;
  Config cfg;
  cfg.seed = args.seed;
  cfg.jobs = args.jobs != 0
                 ? args.jobs
                 : std::min<size_t>(4, ThreadPool::hardwareJobs());
  cfg.deckDir = args.deckDir;
  try {
    if (args.referenceSamples > 0) return runReference(args, cfg);
    return run(args, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paperbench: %s\n", e.what());
    return 1;
  }
}
