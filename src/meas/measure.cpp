#include "meas/measure.hpp"

#include <cmath>
#include <string>

#include "util/status.hpp"
#include "util/units.hpp"

namespace psmn {

namespace {

const char* crossingName(int direction) {
  return direction > 0   ? "rising crossing"
         : direction < 0 ? "falling crossing"
                         : "crossing";
}

}  // namespace

// A missing edge or too few crossings is a measurement outcome (a
// Monte-Carlo sample whose circuit stopped switching), not API misuse, so
// it throws a plain Error that says what was found against what was
// needed instead of a PSMN_CHECK failure.
Real measureDelay(const Waveform& stimulus, const Waveform& response,
                  Real level, int fromDir, int toDir) {
  const auto t0 = stimulus.firstCrossing(level, fromDir);
  if (!t0) {
    throw Error(std::string("measureDelay: stimulus has no ") +
                crossingName(fromDir) + " of " + formatEng(level) + "V");
  }
  const auto t1 = response.firstCrossing(level, toDir, *t0);
  if (!t1) {
    throw Error(std::string("measureDelay: response has no ") +
                crossingName(toDir) + " of " + formatEng(level) +
                "V after the stimulus edge at t=" + formatEng(*t0) + "s");
  }
  return *t1 - *t0;
}

Real measurePeriod(const Waveform& w, Real level, int cycles) {
  PSMN_CHECK(cycles >= 1, "need at least one cycle");
  const auto rises = w.crossings(level, +1);
  if (rises.size() < static_cast<size_t>(cycles) + 1) {
    throw Error("measurePeriod: " + std::to_string(rises.size()) +
                " rising crossings of " + formatEng(level) + "V, need " +
                std::to_string(cycles + 1));
  }
  const size_t last = rises.size() - 1;
  return (rises[last] - rises[last - cycles]) / static_cast<Real>(cycles);
}

Real measureFrequency(const Waveform& w, Real level, int cycles) {
  return 1.0 / measurePeriod(w, level, cycles);
}

Real measureSettledValue(const Waveform& w, Real window) {
  PSMN_CHECK(!w.empty(), "empty waveform");
  const Real tEnd = w.times.back();
  const Real tStart = tEnd - window;
  Real acc = 0.0;
  size_t count = 0;
  for (size_t k = 0; k < w.size(); ++k) {
    if (w.times[k] >= tStart) {
      acc += w.values[k];
      ++count;
    }
  }
  PSMN_CHECK(count > 0, "settling window contains no samples");
  return acc / static_cast<Real>(count);
}

bool isSettled(const Waveform& w, Real window, Real tol) {
  if (w.empty()) return false;
  const Real tEnd = w.times.back();
  const Real tStart = tEnd - window;
  const Real ref = w.values.back();
  for (size_t k = 0; k < w.size(); ++k) {
    if (w.times[k] >= tStart && std::fabs(w.values[k] - ref) > tol) {
      return false;
    }
  }
  return true;
}

}  // namespace psmn
