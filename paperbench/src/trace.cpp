// Traced-run support: span attribution to psmn's layers, the per-sample
// registry binding, counter folding, and kernel-cost calibration.
//
// Spans come from two sources that share one TelemetryRegistry (and hence
// one clock and one slot numbering):
//   * the benchmark's own psmn::TraceSpan calls around each call into a
//     layer's public function, named "<layer>.<what>";
//   * the spans psmn already records at its phase boundaries ("transient",
//     "dc", "pss_driven", "pnoise", "monte_carlo", "scenario", ...), which
//     subdivide calls the benchmark cannot wrap from outside.
// A span's self time is its duration minus its direct children on the same
// slot. Inside a fan-out region (a slot-0 span whose work spreads over J
// slots) every instant is split equally among the J slots, so the layer
// self times, the glue and the idle slot share add up to the wall time.
#include <algorithm>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "numeric/dense_lu.hpp"
#include "numeric/sparse_lu.hpp"
#include "rf/pnoise.hpp"

namespace paperbench {

using namespace psmn;

namespace {

TelemetryRegistry* gRegistry = nullptr;

std::mutex gSlotMutex;
std::unordered_map<std::thread::id, size_t> gSlotOf;

/// Layer of a span: the benchmark's spans carry it as a name prefix; the
/// library's phase spans map by name. Unknown names are glue (-1).
int layerOf(const std::string& name) {
  const auto dot = name.find('.');
  if (dot != std::string::npos) {
    const std::string prefix = name.substr(0, dot);
    for (size_t l = 0; l < kNumLayers; ++l) {
      if (prefix == kLayerNames[l]) return static_cast<int>(l);
    }
    return -1;
  }
  static const std::map<std::string, Layer> kLibrary = {
      {"transient", kEngine},   {"transient_batch", kEngine},
      {"dc", kEngine},          {"dc_arclength", kEngine},
      {"transient_sensitivity", kEngine},
      {"pss_driven", kRf},      {"pss_autonomous", kRf},
      {"pnoise", kRf},          {"lptv_direct", kRf},
      {"lptv_adjoint", kRf},    {"monte_carlo", kCore},
      {"scenario", kRuntime},
  };
  const auto it = kLibrary.find(name);
  return it == kLibrary.end() ? -1 : static_cast<int>(it->second);
}

/// Spans that are one unit of fanned-out work (busy time of a slot).
bool isWorkUnit(const std::string& name) {
  return name == "runtime.sample" || name == "scenario";
}

struct Node {
  std::string name;
  int64_t start = 0, end = 0;
  int64_t childNs = 0;
  int parent = -1;
};

}  // namespace

TelemetryRegistry* tracedRegistry() { return gRegistry; }
void setTracedRegistry(TelemetryRegistry* reg) { gRegistry = reg; }

SampleBinding::SampleBinding(TelemetryRegistry* reg) {
  if (reg == nullptr || telemetryBound()) return;
  size_t slot = 0;
  {
    std::lock_guard<std::mutex> lock(gSlotMutex);
    auto [it, inserted] =
        gSlotOf.emplace(std::this_thread::get_id(), gSlotOf.size() + 1);
    slot = std::min(it->second, reg->slotCount() - 1);
  }
  scope_ = std::make_unique<TelemetryScope>(*reg, slot);
}

SampleBinding::~SampleBinding() = default;

void SampleBinding::resetSlots() {
  std::lock_guard<std::mutex> lock(gSlotMutex);
  gSlotOf.clear();
}

void Counts::addRegistry(const TelemetryRegistry::Totals& after,
                         const TelemetryRegistry::Totals& before) {
  const auto d = [&](Counter c) {
    const size_t i = static_cast<size_t>(c);
    return after.counters[i] - before.counters[i];
  };
  evals += d(Counter::kMnaEvals);
  sparseFactors += d(Counter::kSparseFactors) + d(Counter::kSparseRefactors);
  factors += d(Counter::kDenseFactors) + d(Counter::kSparseFactors) +
             d(Counter::kSparseRefactors);
  nnzTotal += d(Counter::kFactorNnzTotal);
  solveCols += d(Counter::kSolveColumns);
  newton += d(Counter::kNewtonIterations);
  steps += d(Counter::kStepsAccepted);
}

void Counts::addStats(const SolveStats& s) {
  evals += s.evals;
  factors += s.totalFactorizations();
  solveCols += s.solves;
  newton += s.newtonIterations;
  steps += s.steps;
}

void Counts::add(const Counts& o) {
  evals += o.evals;
  factors += o.factors;
  solveCols += o.solveCols;
  newton += o.newton;
  steps += o.steps;
  sparseFactors += o.sparseFactors;
  nnzTotal += o.nnzTotal;
}

Attribution attribute(const std::vector<TraceEvent>& events,
                      const std::map<std::string, size_t>& regions,
                      size_t slots) {
  Attribution a;
  a.busyPerSlot.assign(slots, 0.0);
  std::vector<std::vector<Node>> bySlot(slots);
  for (const TraceEvent& ev : events) {
    Node nd;
    nd.name = ev.name != nullptr ? ev.name : "";
    nd.start = ev.startNs;
    nd.end = ev.startNs + ev.durNs;
    bySlot.at(std::min<size_t>(ev.slot, slots - 1)).push_back(nd);
    a.inclusiveS[nd.name] += 1e-9 * static_cast<double>(ev.durNs);
    a.spanCount[nd.name] += 1;
  }

  // Per-slot nesting: spans recorded by scoped objects nest properly on
  // one slot; an overlap that does not nest is counted and reported.
  for (auto& nodes : bySlot) {
    std::sort(nodes.begin(), nodes.end(), [](const Node& x, const Node& y) {
      return x.start != y.start ? x.start < y.start : x.end > y.end;
    });
    std::vector<int> stack;
    for (size_t i = 0; i < nodes.size(); ++i) {
      while (!stack.empty() && nodes[stack.back()].end <= nodes[i].start) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        Node& p = nodes[stack.back()];
        if (nodes[i].end > p.end) ++a.badNesting;
        nodes[i].parent = stack.back();
        p.childNs += nodes[i].end - nodes[i].start;
      }
      stack.push_back(static_cast<int>(i));
    }
  }

  // Fan-out regions on slot 0 and the workload span.
  struct Region {
    int64_t start, end;
    size_t jobs;
  };
  std::vector<Region> regs;
  int64_t wallNs = 0;
  for (const Node& nd : bySlot[0]) {
    if (nd.name == "bench.workload") wallNs += nd.end - nd.start;
    const auto it = regions.find(nd.name);
    if (it != regions.end()) {
      regs.push_back({nd.start, nd.end, std::max<size_t>(1, it->second)});
    }
  }
  a.wallS = 1e-9 * static_cast<double>(wallNs);
  const auto regionOf = [&](int64_t t) -> const Region* {
    for (const Region& r : regs) {
      if (t >= r.start && t < r.end) return &r;
    }
    return nullptr;
  };

  std::vector<int64_t> coveredNs(regs.size(), 0);
  for (size_t s = 0; s < slots; ++s) {
    for (const Node& nd : bySlot[s]) {
      const double selfS =
          1e-9 * static_cast<double>(nd.end - nd.start - nd.childNs);
      const Region* r = regionOf(nd.start);
      if (s != 0 && r == nullptr) ++a.strays;
      const double scale = r != nullptr ? 1.0 / static_cast<double>(r->jobs)
                                        : 1.0;
      const int layer = layerOf(nd.name);
      if (layer >= 0) {
        a.selfS[layer] += selfS * scale;
        a.selfThreadS[layer] += selfS;
      } else {
        a.glueS += selfS * scale;
      }
      if (isWorkUnit(nd.name)) {
        const double dur = 1e-9 * static_cast<double>(nd.end - nd.start);
        a.busyPerSlot[s] += dur;
        a.busyThreadS += dur;
      }
      // Worker-slot top-level spans cover their slot inside the region.
      if (s != 0 && r != nullptr && nd.parent < 0) {
        coveredNs[r - regs.data()] += nd.end - nd.start;
      }
    }
  }
  for (size_t i = 0; i < regs.size(); ++i) {
    const int64_t w = regs[i].end - regs[i].start;
    const double jobs = static_cast<double>(regs[i].jobs);
    const double idleNs =
        std::max<double>(0.0, (jobs - 1.0) * static_cast<double>(w) -
                                  static_cast<double>(coveredNs[i]));
    a.idleS += 1e-9 * idleNs / jobs;
    a.capacityThreadS += 1e-9 * jobs * static_cast<double>(w);
  }
  a.selfS[kRuntime] += a.idleS;
  return a;
}

KernelCost calibrateKernels(const MnaSystem& sys, const RealVector& x,
                            Real h) {
  KernelCost k;
  const size_t n = sys.size();
  // Median of 5 batches, each at least ~5 ms, of per-call microseconds.
  const auto timeUs = [](auto&& fn) {
    size_t reps = 1;
    for (;;) {
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < reps; ++i) fn();
      if (secondsSince(t0) > 5e-3 || reps > (1u << 20)) break;
      reps *= 2;
    }
    std::vector<double> us;
    for (int b = 0; b < 5; ++b) {
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < reps; ++i) fn();
      us.push_back(1e6 * secondsSince(t0) / static_cast<double>(reps));
    }
    std::sort(us.begin(), us.end());
    return us[2];
  };
  // Each timed solve starts from fresh right-hand sides (repeated in-place
  // solves would drift toward overflow or denormals); the refill is timed
  // alone and subtracted.
  constexpr size_t kCols = 16;
  RealVector f, q;
  const RealVector ones(n * kCols, 1.0);
  RealVector rhs = ones;
  const double refillUs = timeUs([&] { rhs = ones; });
  if (n > kSparseSolverThreshold) {
    RealSparse g, c;
    sys.evalSparse(x, 0.0, &f, &q, &g, &c);
    k.evalUs = timeUs([&] { sys.evalSparse(x, 0.0, &f, &q, &g, &c); });
    std::vector<Triplet<Real>> trips;
    for (const auto* m : {&g, &c}) {
      const Real scale = m == &g ? 1.0 : 1.0 / h;
      for (size_t col = 0; col < m->cols(); ++col) {
        for (int p = m->colPointers()[col]; p < m->colPointers()[col + 1];
             ++p) {
          trips.push_back({m->rowIndices()[p], static_cast<int>(col),
                           scale * m->values()[p]});
        }
      }
    }
    const RealSparse jac = RealSparse::fromTriplets(n, n, trips);
    SparseLU<Real> lu(jac);
    k.factorUs = timeUs([&] { lu.refactor(jac); });
    k.solveUsPerCol = (timeUs([&] {
                         rhs = ones;
                         lu.solveManyInPlace(rhs, kCols);
                       }) - refillUs) /
                      static_cast<double>(kCols);
  } else {
    RealMatrix g, c;
    sys.evalDense(x, 0.0, &f, &q, &g, &c);
    k.evalUs = timeUs([&] { sys.evalDense(x, 0.0, &f, &q, &g, &c); });
    RealMatrix jac = g;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) jac(i, j) += c(i, j) / h;
    }
    DenseLU<Real> lu;
    k.factorUs = timeUs([&] { lu.factor(jac); });
    k.solveUsPerCol = (timeUs([&] {
                         rhs = ones;
                         lu.solveManyInPlace(rhs, kCols);
                       }) - refillUs) /
                      static_cast<double>(kCols);
  }
  return k;
}

uint64_t countLptvSolveCols(const MnaSystem& sys, const PssResult& pss,
                            ThreadPool* pool) {
  TelemetryRegistry local(pool != nullptr ? pool->jobCount() : 1);
  TelemetryScope scope(local, 0);
  if (pool != nullptr) pool->attachTelemetry(&local);
  PnoiseOptions opt;
  opt.pool = pool;
  PnoiseAnalysis pn(sys, pss, opt);
  pn.run();
  if (pool != nullptr) pool->attachTelemetry(nullptr);
  return local.counterTotal(Counter::kSolveColumns);
}

}  // namespace paperbench
