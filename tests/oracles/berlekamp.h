// Berlekamp-Massey errors-and-erasures RS decoder.
//
// A second, algorithmically independent implementation of the same
// bounded-distance decoding problem solved by ReedSolomon::decode (which
// uses the Sugiyama / extended-Euclid key-equation solver). Bounded-
// distance decoding is unique -- if the received word lies within the
// guaranteed radius of a codeword both algorithms MUST return it, and
// outside the radius both must either detect failure or mis-correct to the
// same nearest codeword -- so the two decoders are differential-tested
// against each other over random patterns, including overload
// (tests/test_berlekamp.cpp). This mirrors hardware practice: the RiBM
// key-equation stage modeled in src/hw is a Berlekamp-Massey variant.
// Test-only: part of the rsmem_oracles library, never linked into rsmem.
//
// The algorithm: initialize the locator with the erasure polynomial
// (Lambda = B = Gamma, L = rho) and run the Massey LFSR-synthesis
// iterations for r = rho .. n-k-1; then Chien search and Forney as usual.
#ifndef RSMEM_ORACLES_BERLEKAMP_H
#define RSMEM_ORACLES_BERLEKAMP_H

#include <span>

#include "rs/reed_solomon.h"

namespace rsmem::oracles {

class BerlekampDecoder {
 public:
  // Shares the code definition (and field) with an existing codec; the
  // codec must outlive the decoder.
  explicit BerlekampDecoder(const rs::ReedSolomon& code) : code_(&code) {}

  // Same contract as ReedSolomon::decode: in-place, erasure positions in
  // [0, n), returns the outcome; on ok() the word is a valid codeword.
  rs::DecodeOutcome decode(
      std::span<rs::Element> word,
      std::span<const unsigned> erasure_positions = {}) const;

 private:
  const rs::ReedSolomon* code_;
};

}  // namespace rsmem::oracles

#endif  // RSMEM_ORACLES_BERLEKAMP_H
