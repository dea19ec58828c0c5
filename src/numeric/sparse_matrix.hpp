// Sparse matrix support: a triplet (COO) accumulator that MNA assembly
// writes into, and a compressed-sparse-column (CSC) form consumed by the
// sparse LU factorization.
//
// Duplicate triplet entries are summed, matching how device stamps
// accumulate conductances onto shared matrix positions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numeric/dense_matrix.hpp"
#include "numeric/types.hpp"

namespace psmn {

template <class T>
struct Triplet {
  int row = 0;
  int col = 0;
  T value{};
};

/// One recorded assembly stamp: the (row, col) position a stamp call
/// addressed, packed into one key so a replay checks it with a single
/// compare, and the value slot find() resolved it to.
struct StampTapeEntry {
  uint64_t key = 0;
  int slot = 0;
};
inline constexpr uint64_t stampKey(int row, int col) {
  return (uint64_t{static_cast<uint32_t>(row)} << 32) |
         static_cast<uint32_t>(col);
}

template <class T>
class SparseMatrix {
 public:
  SparseMatrix() = default;
  SparseMatrix(size_t rows, size_t cols) : rows_(rows), cols_(cols) {}
  // Copies take the pattern and values but never the stamp tape (see
  // stampTape()); moves keep it, since the pattern moves with it.
  SparseMatrix(const SparseMatrix& o)
      : rows_(o.rows_), cols_(o.cols_), colPtr_(o.colPtr_),
        rowIdx_(o.rowIdx_), values_(o.values_) {}
  SparseMatrix& operator=(const SparseMatrix& o) {
    rows_ = o.rows_;
    cols_ = o.cols_;
    colPtr_ = o.colPtr_;
    rowIdx_ = o.rowIdx_;
    values_ = o.values_;
    tape_.clear();
    return *this;
  }
  SparseMatrix(SparseMatrix&&) = default;
  SparseMatrix& operator=(SparseMatrix&&) = default;

  /// Builds CSC from triplets, summing duplicates.
  static SparseMatrix fromTriplets(size_t rows, size_t cols,
                                   std::span<const Triplet<T>> triplets);

  static SparseMatrix fromDense(const Matrix<T>& dense, double dropTol = 0.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nonZeros() const { return values_.size(); }

  std::span<const int> colPointers() const { return colPtr_; }
  std::span<const int> rowIndices() const { return rowIdx_; }
  std::span<const T> values() const { return values_; }
  std::span<T> values() { return values_; }

  /// Pointer to the stored value at (row, col), or nullptr when the
  /// position is not part of the sparsity pattern. Branch-light binary
  /// search within the column (row indices are kept sorted per column);
  /// inline because the MNA assembly path calls it for every device stamp.
  T* find(int row, int col) {
    if (row < 0 || col < 0 || static_cast<size_t>(col) >= cols_) {
      return nullptr;
    }
    const int* base = rowIdx_.data() + colPtr_[col];
    size_t len = static_cast<size_t>(colPtr_[col + 1] - colPtr_[col]);
    while (len > 1) {
      const size_t half = len / 2;
      base += (base[half - 1] < row) ? half : 0;
      len -= half;
    }
    if (len == 0 || *base != row) return nullptr;
    return values_.data() + (base - rowIdx_.data());
  }
  const T* find(int row, int col) const {
    return const_cast<SparseMatrix*>(this)->find(row, col);
  }

  /// Zeroes the stored values, keeping the pattern. Used to reset a cached
  /// assembly pattern before re-stamping.
  void zeroValues() { std::fill(values_.begin(), values_.end(), T{}); }

  /// Stamp tape: the slot sequence of the assembly passes into this
  /// pattern, recorded and replayed by Stamper so a repeated pass resolves
  /// each stamp in O(1) instead of a find(). A cache bound to the pattern:
  /// a pattern rebuild (fromTriplets) starts it empty, and copies start
  /// empty too, so only the matrix that is stamped into ever carries one.
  ///
  /// A pass walks a read-only cursor from tapeBegin(): an entry whose key
  /// matches the stamp is consumed by advancing the cursor; anything else
  /// goes through tapeRecord(). The tape ends in an end-marker entry that
  /// no stamp key matches, so a replay needs no separate bounds check.
  const StampTapeEntry* tapeBegin() {
    if (tape_.empty()) tape_.push_back({kTapeEnd, 0});
    return tape_.data();
  }
  /// True when the tape holds entries from an earlier pass.
  bool tapeRecorded() const { return tape_.size() > 1; }
  /// Records (key, slot) at cursor `at` from tapeBegin() and returns the
  /// advanced cursor: a mismatched entry is overwritten in place; at the
  /// end marker the entry is appended (a recording pass, or a pass with
  /// more stamps than any before it).
  const StampTapeEntry* tapeRecord(const StampTapeEntry* at, uint64_t key,
                                   int slot) {
    if (at->key != kTapeEnd) {
      tape_[static_cast<size_t>(at - tape_.data())] = {key, slot};
      return at + 1;
    }
    tape_.back() = {key, slot};
    tape_.push_back({kTapeEnd, 0});
    return &tape_.back();
  }
  /// The recorded entries plus the end marker (empty before any pass).
  std::span<const StampTapeEntry> stampTape() const { return tape_; }

  /// y = A x.
  std::vector<T> multiply(std::span<const T> x) const;

  /// y = A x into caller storage (no allocation).
  void multiplyInto(std::span<const T> x, std::span<T> y) const;

  Matrix<T> toDense() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<int> colPtr_;  // size cols+1
  std::vector<int> rowIdx_;  // size nnz, sorted within each column
  std::vector<T> values_;    // size nnz
  std::vector<StampTapeEntry> tape_;
  static constexpr uint64_t kTapeEnd = ~uint64_t{0};
};

using RealSparse = SparseMatrix<Real>;
using CplxSparse = SparseMatrix<Cplx>;

/// Merges the patterns of two same-shape matrices into `out` (values
/// zeroed) and fills the scatter maps from each input's value slots into
/// `out`'s, so callers can re-assemble `out = f(a, b)` allocation-free:
///   outVals[aToOut[p]] += aVals[p]; outVals[bToOut[p]] += coef*bVals[p].
/// Shared by the transient workspace's Jacobian (J = G + a*C), the LPTV
/// step matrices (K = G + (1/h + jw) C), and the PPV backward sweep.
template <class T, class U>
void mergeSparsePatterns(const SparseMatrix<U>& a, const SparseMatrix<U>& b,
                         SparseMatrix<T>& out, std::vector<int>& aToOut,
                         std::vector<int>& bToOut);

/// Cached-pattern assembler for the ubiquitous `M = A + coef*B` stamp over
/// two same-shape sparse inputs (transient Jacobian J = G + a*C, LPTV step
/// matrix K = G + (1/h + jw)*C, PPV sweep J = G + C/h). Re-stamping into
/// the cached merged pattern is allocation-free; a pattern change in the
/// inputs (detected by nonzero count — evalSparse patterns only ever grow)
/// rebuilds the merge. Callers holding a factorization of `matrix` must
/// treat it as stale whenever assemble() returns true.
template <class T>
struct MergedSparseAssembler {
  SparseMatrix<T> matrix;

  /// Stamps matrix = a + coef*b; returns true when the cached pattern had
  /// to be rebuilt (symbolic factorizations of `matrix` are then stale).
  bool assemble(const SparseMatrix<Real>& a, const SparseMatrix<Real>& b,
                T coef) {
    bool rebuilt = false;
    if (a.nonZeros() != aMap_.size() || b.nonZeros() != bMap_.size()) {
      mergeSparsePatterns(a, b, matrix, aMap_, bMap_);
      rebuilt = true;
    }
    matrix.zeroValues();
    const auto av = a.values();
    const auto bv = b.values();
    const auto mv = matrix.values();
    for (size_t k = 0; k < av.size(); ++k) mv[aMap_[k]] += av[k];
    for (size_t k = 0; k < bv.size(); ++k) mv[bMap_[k]] += coef * bv[k];
    return rebuilt;
  }

 private:
  std::vector<int> aMap_, bMap_;
};

}  // namespace psmn
