#include "util/wire.hpp"

#include <bit>

namespace psmn {

void WireWriter::f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

double WireReader::f64() { return std::bit_cast<double>(u64()); }

std::string_view WireReader::take(size_t n) {
  PSMN_CHECK(remaining() >= n, "wire: truncated payload");
  const std::string_view s = bytes_.substr(pos_, n);
  pos_ += n;
  return s;
}

uint64_t WireReader::readLe(int bytes) {
  const std::string_view s = take(static_cast<size_t>(bytes));
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(s[i])) << (8 * i);
  }
  return v;
}

uint64_t WireReader::len() {
  const uint64_t n = u64();
  PSMN_CHECK(n <= remaining(), "wire: length prefix exceeds payload");
  return n;
}

void wireWrite(WireWriter& w, const SolveStats& s) {
  w.u64(s.newtonIterations);
  w.u64(s.steps);
  w.u64(s.factorizations);
  w.u64(s.refactorizations);
  w.u64(s.solves);
  w.u64(s.evals);
  w.u64(s.factorNnz);
  w.u64(s.predictedSteps);
  w.u64(s.predictorRetries);
}

void wireRead(WireReader& r, SolveStats& s) {
  s.newtonIterations = r.u64();
  s.steps = r.u64();
  s.factorizations = r.u64();
  s.refactorizations = r.u64();
  s.solves = r.u64();
  s.evals = r.u64();
  s.factorNnz = r.u64();
  s.predictedSteps = r.u64();
  s.predictorRetries = r.u64();
}

void wireWrite(WireWriter& w, const FailureDiagnostics& d) {
  w.str(d.analysis);
  w.str(d.stage);
  w.i32(d.rung);
  w.i32(d.iteration);
  w.f64(d.residual);
  w.f64(d.time);
  w.boolean(d.hasTime);
  w.strvec(d.suspectNodes);
  w.str(d.injectedFault);
}

void wireRead(WireReader& r, FailureDiagnostics& d) {
  d.analysis = r.str();
  d.stage = r.str();
  d.rung = r.i32();
  d.iteration = r.i32();
  d.residual = r.f64();
  d.time = r.f64();
  d.hasTime = r.boolean();
  d.suspectNodes = r.strvec();
  d.injectedFault = r.str();
}

void wireWrite(WireWriter& w, const FaultPlan& p) {
  w.u64(p.points.size());
  for (const FaultPoint& pt : p.points) {
    w.str(pt.site);
    w.i32(pt.firstHit);
    w.i32(pt.count);
  }
}

void wireRead(WireReader& r, FaultPlan& p) {
  const uint64_t n = r.u64();
  p.points.clear();
  PSMN_CHECK(n <= 4096, "wire: implausible fault-plan size");
  p.points.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    FaultPoint pt;
    pt.site = r.str();
    pt.firstHit = r.i32();
    pt.count = r.i32();
    p.points.push_back(std::move(pt));
  }
}

}  // namespace psmn
