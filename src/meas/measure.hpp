// Performance measurements on waveforms: delay, period/frequency, settled
// value. These are what the Monte-Carlo baseline measures per sample; the
// pseudo-noise analysis predicts their variations without sampling.
#pragma once

#include "meas/waveform.hpp"

namespace psmn {

/// Delay from the `fromDir` crossing of `stimulus` through `level` to the
/// `toDir` crossing of `response` through `level` (paper Fig. 7: rising
/// input edge to falling output edge). Throws Error, naming the missing
/// edge, if either edge is missing.
Real measureDelay(const Waveform& stimulus, const Waveform& response,
                  Real level, int fromDir, int toDir);

/// Average period from the rising crossings through `level`, using the
/// last `cycles` full periods. Throws Error stating the crossings found
/// against the `cycles + 1` needed when there are too few.
Real measurePeriod(const Waveform& w, Real level, int cycles = 4);

Real measureFrequency(const Waveform& w, Real level, int cycles = 4);

/// Mean of the waveform over its final `window` span (settled DC value).
Real measureSettledValue(const Waveform& w, Real window);

/// True when the waveform stays within +-tol of its final value over the
/// trailing `window`.
bool isSettled(const Waveform& w, Real window, Real tol);

}  // namespace psmn
