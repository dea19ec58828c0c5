// Benchmark-circuit library: the three circuits of the paper's evaluation
// (SS IV, VI) built from Mosfet devices on a 0.13 um-flavoured process kit.
//
//  * StrongARM clocked comparator (paper Fig. 10, ref. [19]) with the
//    offset-nulling feedback testbench of Fig. 6,
//  * the two-output logic path of Fig. 7 (Table I correlations),
//  * a 5-stage ring oscillator (SS IV-C, Fig. 11/12).
#pragma once

#include <memory>

#include "circuit/controlled.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/passives.hpp"
#include "circuit/sources.hpp"

namespace psmn {

/// Process kit: transistor models + supply. Paper process anchors:
/// 0.13 um, AVT = 6.5 mV*um, Abeta = 3.25 %*um.
struct ProcessKit {
  std::shared_ptr<const MosModel> nmos;
  std::shared_ptr<const MosModel> pmos;
  Real vdd = 1.2;
  Real lmin = 0.13e-6;

  /// `mismatchScale` multiplies AVT and Abeta (Fig. 11/12 severity sweeps).
  static ProcessKit cmos130(Real mismatchScale = 1.0);
};

// ---------------------------------------------------------------- gates

struct InverterCell {
  Mosfet* mp = nullptr;
  Mosfet* mn = nullptr;
};

/// CMOS inverter between `in` and `out`.
InverterCell addInverter(Netlist& nl, const std::string& name, NodeId in,
                         NodeId out, NodeId vdd, const ProcessKit& kit,
                         Real wn, Real wp);

struct Nand2Cell {
  Mosfet* mpa = nullptr;
  Mosfet* mpb = nullptr;
  Mosfet* mna = nullptr;
  Mosfet* mnb = nullptr;
};

/// CMOS NAND2: out = !(a & b).
Nand2Cell addNand2(Netlist& nl, const std::string& name, NodeId a, NodeId b,
                   NodeId out, NodeId vdd, const ProcessKit& kit, Real wn,
                   Real wp);

// --------------------------------------------------- StrongARM comparator

struct ComparatorCircuit {
  NodeId vddNode, clk, inp, inn, outp, outn, xp, xn, tail;
  std::vector<Mosfet*> fets;  // M1..M11 in paper Fig. 10 order
  Real clkPeriod = 0.0;
  Mosfet* fet(const std::string& name) const;
};

struct ComparatorOptions {
  Real clkPeriod = 2e-9;
  Real wTail = 4e-6;     // M1
  Real wInput = 2e-6;    // M2, M3
  Real wNLatch = 1e-6;   // M4, M5
  Real wPLatch = 1e-6;   // M6, M7
  Real wPre = 1e-6;      // M8..M11 precharge
  /// Output loading. Sized so the in-cycle regenerative gain is ~1e3: the
  /// comparator still decides, but its linear (metastable) window stays
  /// wider than the feedback's per-cycle ripple, which keeps the offset
  /// loop of Fig. 6 settling smoothly and the monodromy double-precision
  /// friendly for the LPTV analysis.
  Real cLoad = 100e-15;
};

/// Bare comparator with ideal clock; inputs are the caller's nodes.
ComparatorCircuit buildComparator(Netlist& nl, const ProcessKit& kit,
                                  NodeId inp, NodeId inn,
                                  const ComparatorOptions& opt = {});

/// Fig. 6 testbench: offset-nulling loop. The VOS node settles to (minus)
/// the input-referred offset; its PSS baseband pseudo-noise PSD is the
/// offset variance (SS V-A).
struct ComparatorTestbench {
  ComparatorCircuit comp;
  NodeId vos;
  int vosIndex = -1;  // MNA index of the VOS node (after finalize)
  Real clkPeriod = 0.0;
};

struct ComparatorTestbenchOptions {
  ComparatorOptions comparator;
  Real vcm = 0.6;       // input common mode
  /// VCCS gain K (A/V). Sized so the per-cycle VOS step stays below the
  /// comparator's linear window: the loop then converges geometrically
  /// (~0.94x per cycle), needing on the order of a hundred clock cycles to
  /// settle a 3-sigma offset — the "long transient" the paper's Table II
  /// charges to Monte-Carlo, while shooting PSS needs a handful of periods.
  Real loopGain = 8e-7;
  Real cIntegrator = 1e-12;
};

ComparatorTestbench buildComparatorTestbench(
    Netlist& nl, const ProcessKit& kit,
    const ComparatorTestbenchOptions& opt = {});

// ----------------------------------------------------- Fig. 7 logic path

/// Two-output logic path (paper Fig. 7). Output A and B fall after the
/// later of (X rise, Y rise):
///   Y -> inv a -> inv b -> yb ;  A = NAND_c(yb, X)
///   X -> inv e -> inv f -> xf ;  B = NAND_d(yb, xf)
/// When X rises first, both critical paths run through gates a and b
/// (highly correlated delays); when Y rises first, the paths through c and
/// through e/f/d share nothing (uncorrelated) — Table I.
struct LogicPathCircuit {
  NodeId x, y, outA, outB;
  NodeId ya, yb, xe, xf;
  Real period = 0.0;
  Real tRiseX = 0.0;  // X rising-edge time within the period
  Real tRiseY = 0.0;
  VSource* srcX = nullptr;
  VSource* srcY = nullptr;
};

struct LogicPathOptions {
  Real period = 8e-9;
  Real tRiseX = 1e-9;
  Real tRiseY = 2e-9;   // Y after X: correlated case. Swap for the other.
  Real edgeTime = 0.1e-9;
  Real wn = 0.6e-6;
  Real wp = 1.2e-6;
  Real cLoad = 10e-15;
};

LogicPathCircuit buildLogicPath(Netlist& nl, const ProcessKit& kit,
                                const LogicPathOptions& opt = {});

// --------------------------------------------------------- inverter chain

/// Driven inverter chain: VDD + pulse source -> `rows` parallel chains of
/// `stages` inverters with load caps, all driven from the same input. The
/// scalable fixture for solver benchmarks and the engine golden tests —
/// node count is rows*stages + 2, while DC difficulty (Newton
/// iterations grow with logic depth) is set by `stages` alone.
struct InverterChainCircuit {
  NodeId vddNode, in;
  std::vector<NodeId> taps;  // outputs of the first row; taps.back() = end
  std::vector<InverterCell> cells;  // all rows, row-major
  VSource* src = nullptr;
};

struct InverterChainOptions {
  int stages = 8;
  int rows = 1;
  Real wn = 0.6e-6;
  Real wp = 1.2e-6;
  Real cLoad = 5e-15;
  Real period = 4e-9;
  Real edgeTime = 0.1e-9;
};

InverterChainCircuit buildInverterChain(Netlist& nl, const ProcessKit& kit,
                                        const InverterChainOptions& opt = {});

// -------------------------------------------------------- ring oscillator

struct RingOscillatorCircuit {
  std::vector<NodeId> stages;  // stage output nodes, stages[0] is "osc1"
  NodeId vddNode;
  std::vector<InverterCell> cells;
};

struct RingOscillatorOptions {
  int stages = 5;      // odd
  Real wn = 8.3e-6;    // sized so 3*sigma(IDS) ~ 14% (paper's anchor)
  Real wp = 16.6e-6;
  Real cLoad = 10e-15;
};

RingOscillatorCircuit buildRingOscillator(Netlist& nl, const ProcessKit& kit,
                                          const RingOscillatorOptions& opt = {});

}  // namespace psmn
