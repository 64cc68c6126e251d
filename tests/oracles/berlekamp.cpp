#include "oracles/berlekamp.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "gf/poly.h"

namespace rsmem::oracles {

using gf::GaloisField;
using gf::Poly;
using rs::DecodeOutcome;
using rs::DecodeStatus;
using rs::Element;
using rs::ReedSolomon;

DecodeOutcome BerlekampDecoder::decode(
    std::span<Element> word, std::span<const unsigned> erasure_positions) const {
  const ReedSolomon& code = *code_;
  const GaloisField& f = code.field();
  const unsigned n = code.n();
  const unsigned two_t = code.parity_symbols();
  if (word.size() != n) {
    throw std::invalid_argument("BerlekampDecoder: word size != n");
  }
  std::set<unsigned> erasure_set;
  for (const unsigned p : erasure_positions) {
    if (p >= n) {
      throw std::invalid_argument("BerlekampDecoder: erasure out of range");
    }
    if (!erasure_set.insert(p).second) {
      throw std::invalid_argument("BerlekampDecoder: duplicate erasure");
    }
  }
  for (const Element w : word) {
    if (!f.contains(w)) {
      throw std::invalid_argument("BerlekampDecoder: symbol out of field");
    }
  }
  const unsigned rho = static_cast<unsigned>(erasure_set.size());
  if (rho > two_t) return {DecodeStatus::kFailure, 0, 0};

  // Syndromes S_j = c(alpha^(fcr+j)) with position p holding x^(n-1-p).
  std::vector<Element> synd(two_t);
  bool clean = true;
  for (unsigned j = 0; j < two_t; ++j) {
    const Element x = f.alpha_pow(code.fcr() + j);
    Element acc = 0;
    for (unsigned p = 0; p < n; ++p) {
      acc = GaloisField::add(f.mul(acc, x), word[p]);
    }
    synd[j] = acc;
    clean = clean && (acc == 0);
  }
  if (clean && rho == 0) return {DecodeStatus::kNoError, 0, 0};

  const auto locator_of = [&](unsigned p) {
    return f.alpha_pow(static_cast<long long>(n - 1 - p));
  };

  // Erasure locator Gamma(x) = prod (1 - X_i x).
  Poly gamma = Poly::one();
  for (const unsigned p : erasure_set) {
    gamma = Poly::mul(f, gamma,
                      Poly{std::vector<Element>{1, locator_of(p)}});
  }

  // Berlekamp-Massey with erasure initialization.
  Poly lambda = gamma;
  Poly shift_reg = gamma;  // the "B" polynomial, with 1/b folded in
  unsigned length = rho;   // current LFSR length L
  for (unsigned r = rho; r < two_t; ++r) {
    // Discrepancy: sum over lambda's coefficients against the syndromes.
    Element delta = 0;
    const int deg = lambda.degree();
    for (int j = 0; j <= deg && static_cast<unsigned>(j) <= r; ++j) {
      delta = GaloisField::add(
          delta, f.mul(lambda.coeff(static_cast<std::size_t>(j)),
                       synd[r - static_cast<unsigned>(j)]));
    }
    if (delta == 0) {
      shift_reg = shift_reg.shifted_up(1);
    } else if (2 * length <= r + rho) {
      const Poly updated = Poly::add(
          lambda,
          Poly::scale(f, shift_reg.shifted_up(1), delta));
      shift_reg = Poly::scale(f, lambda, f.inv(delta));
      lambda = updated;
      length = r + 1 + rho - length;
    } else {
      lambda = Poly::add(
          lambda, Poly::scale(f, shift_reg.shifted_up(1), delta));
      shift_reg = shift_reg.shifted_up(1);
    }
  }

  const unsigned deg_lambda =
      static_cast<unsigned>(std::max(0, lambda.degree()));
  if (deg_lambda == 0) {
    // Non-trivial syndromes but an empty locator: detected failure (only
    // reachable without erasures).
    if (!clean) return {DecodeStatus::kFailure, 0, 0};
    return {DecodeStatus::kNoError, 0, 0};
  }
  // Strict bounded-distance semantics (same rule as the Euclidean decoder):
  // reject locators beyond the guaranteed radius 2*nu + rho <= 2t, even
  // when they would pass the root-count and re-syndrome checks. This keeps
  // the two decoders behaviourally identical everywhere.
  if (deg_lambda < rho || 2 * (deg_lambda - rho) + rho > two_t) {
    return {DecodeStatus::kFailure, 0, 0};
  }

  // Evaluator Omega = Lambda * S mod x^(2t), Forney with fcr adjustment.
  const Poly S{std::vector<Element>(synd.begin(), synd.end())};
  const Poly omega = Poly::mul(f, lambda, S).truncated(two_t);
  const Poly lambda_deriv = lambda.derivative();

  unsigned roots_found = 0;
  unsigned errors_corrected = 0;
  unsigned erasures_corrected = 0;
  std::vector<Element> corrected(word.begin(), word.end());
  for (unsigned p = 0; p < n; ++p) {
    const Element X = locator_of(p);
    const Element X_inv = f.inv(X);
    if (lambda.eval(f, X_inv) != 0) continue;
    ++roots_found;
    const Element denom = lambda_deriv.eval(f, X_inv);
    if (denom == 0) return {DecodeStatus::kFailure, 0, 0};
    Element magnitude = f.div(omega.eval(f, X_inv), denom);
    magnitude = f.mul(
        magnitude, f.pow(X, 1 - static_cast<long long>(code.fcr())));
    if (magnitude != 0) {
      corrected[p] = GaloisField::add(corrected[p], magnitude);
      if (erasure_set.count(p) != 0) {
        ++erasures_corrected;
      } else {
        ++errors_corrected;
      }
    }
  }
  if (roots_found != deg_lambda) {
    return {DecodeStatus::kFailure, 0, 0};
  }

  // Final verification against the full syndrome set.
  for (unsigned j = 0; j < two_t; ++j) {
    const Element x = f.alpha_pow(code.fcr() + j);
    Element acc = 0;
    for (unsigned p = 0; p < n; ++p) {
      acc = GaloisField::add(f.mul(acc, x), corrected[p]);
    }
    if (acc != 0) return {DecodeStatus::kFailure, 0, 0};
  }
  std::copy(corrected.begin(), corrected.end(), word.begin());
  if (errors_corrected == 0 && erasures_corrected == 0) {
    return {DecodeStatus::kNoError, 0, 0};
  }
  return {DecodeStatus::kCorrected, errors_corrected, erasures_corrected};
}

}  // namespace rsmem::oracles
