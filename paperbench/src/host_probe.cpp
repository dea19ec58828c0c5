// Host speed probe: a fixed reference computation that does not call psmn.
// On a host shared with other tenants the speed of the benchmark's vCPUs
// drifts by tens of percent over minutes, and the drift moves every pass of
// a run together. Timing this probe next to every pass lets run.py express
// a pass's CPU time in units of the probe's, which the drift cancels from
// while any change to psmn's code still shows in full (README.md, "Noise").
#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "bench.hpp"

namespace paperbench {

namespace {

volatile double gSink = 0.0;

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Dense LU with partial pivoting of a 16x16 matrix, the size of the
/// table2 circuits' Jacobians, `reps` times.
double denseLu(int reps) {
  constexpr int n = 16;
  double a[n][n];
  double acc = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        a[i][j] = (i == j ? 20.0 : 0.0) + 1.0 / (1 + i + j + rep % 7);
      }
    }
    for (int k = 0; k < n; ++k) {
      int piv = k;
      for (int i = k + 1; i < n; ++i) {
        if (std::fabs(a[i][k]) > std::fabs(a[piv][k])) piv = i;
      }
      if (piv != k) {
        for (int j = 0; j < n; ++j) std::swap(a[k][j], a[piv][j]);
      }
      for (int i = k + 1; i < n; ++i) {
        const double f = a[i][k] / a[k][k];
        for (int j = k + 1; j < n; ++j) a[i][j] -= f * a[k][j];
      }
    }
    acc += a[n - 1][n - 1];
  }
  return acc;
}

/// Transcendentals, small heap allocations and a node-based map: the shape
/// of device evaluation and of the engines' bookkeeping.
double mixed(int reps) {
  double acc = 0.0;
  for (int r = 0; r < reps; ++r) {
    std::vector<double> v(64);
    for (int i = 0; i < 64; ++i) {
      v[i] = std::exp(-0.01 * (i + r % 13)) + std::log1p(static_cast<double>(i));
    }
    std::map<int, double> m;
    for (int i = 0; i < 64; ++i) m[(i * 37 + r) % 101] = v[i];
    for (const auto& [k, x] : m) acc += x * k;
  }
  return acc;
}

}  // namespace

double hostProbeSeconds() {
  const double c0 = threadCpuSeconds();
  gSink = denseLu(6000) + mixed(1200);
  return threadCpuSeconds() - c0;
}

}  // namespace paperbench
