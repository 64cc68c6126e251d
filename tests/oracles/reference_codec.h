// Poly-based reference RS codec: the original textbook implementation of
// ReedSolomon's encoder and errors-and-erasures decoder, kept verbatim as
// the differential-testing baseline for the production codec.
//
// Encoding is polynomial division by the generator (Poly::mod); decoding
// walks syndromes -> erasure locator -> modified syndromes -> Sugiyama
// (extended Euclid on whole Poly objects) -> Chien search -> Forney, with
// fresh allocations at every step. ReedSolomon::encode/decode must match it
// bit for bit on every input: same DecodeOutcome, same corrected word, same
// thrown errors, including beyond-capability mis-corrections.
//
// Test-only: part of the rsmem_oracles library (tests/oracles/), never
// linked into rsmem. Built on ReedSolomon's public accessors (n, k, fcr,
// field, generator) alone, so it shares the code definition but none of the
// production pipeline it checks.
#ifndef RSMEM_ORACLES_REFERENCE_CODEC_H
#define RSMEM_ORACLES_REFERENCE_CODEC_H

#include <span>

#include "rs/reed_solomon.h"

namespace rsmem::oracles {

// Systematic encoding: codeword = [data (k symbols) | parity (n-k)].
// Throws std::invalid_argument on size mismatch or out-of-field symbols.
void encode_legacy(const rs::ReedSolomon& code,
                   std::span<const rs::Element> data,
                   std::span<rs::Element> codeword);

// Same contract as ReedSolomon::decode: in-place, erasure positions in
// [0, n), duplicates rejected; on kFailure the word is left untouched.
rs::DecodeOutcome decode_legacy(
    const rs::ReedSolomon& code, std::span<rs::Element> word,
    std::span<const unsigned> erasure_positions = {});

}  // namespace rsmem::oracles

#endif  // RSMEM_ORACLES_REFERENCE_CODEC_H
