#include "circuit/device.hpp"

namespace psmn {

void Stamper::stampSlotSlow(SparseMatrix<Real>& m, TapeCursor& t, int eq,
                            int var, Real v) {
  Real* slot = m.find(eq, var);
  if (slot == nullptr) {
    // Off-pattern: the assembler rebuilds the pattern (which drops the
    // tape) and re-stamps, so nothing is recorded.
    sparseMiss_ = true;
    return;
  }
  *slot += v;
  t.pos = m.tapeRecord(t.pos, stampKey(eq, var),
                       static_cast<int>(slot - m.values().data()));
  // On a recorded tape every slow-path stamp replaced or extended a
  // replayed entry: a miss. The recording pass itself is not one.
  if (t.recorded) ++tapeMisses_;
}

MismatchParam Device::mismatchParam(size_t) const {
  throw Error("device '" + name() + "' has no mismatch parameters");
}

void Device::setMismatchDelta(size_t, Real) {
  throw Error("device '" + name() + "' has no mismatch parameters");
}

Real Device::mismatchDelta(size_t) const {
  throw Error("device '" + name() + "' has no mismatch parameters");
}

void Device::mismatchStampF(size_t, Stamper&) const {
  throw Error("device '" + name() + "' has no mismatch parameters");
}

void Device::mismatchStampQ(size_t, Stamper&) const {
  // Most mismatch parameters perturb only static currents; devices with
  // reactive mismatch (C, L) override this.
}

NoiseDesc Device::noiseDesc(size_t) const {
  throw Error("device '" + name() + "' has no noise sources");
}

void Device::noiseStamp(size_t, Stamper&) const {
  throw Error("device '" + name() + "' has no noise sources");
}

Real Device::noiseShape(size_t, Real) const {
  throw Error("device '" + name() + "' has no noise sources");
}

void Device::collectBreakpoints(Real, Real, std::vector<Real>&) const {}

}  // namespace psmn
