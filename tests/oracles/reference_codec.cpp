#include "oracles/reference_codec.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "gf/poly.h"

namespace rsmem::oracles {

using gf::Element;
using gf::GaloisField;
using gf::Poly;
using rs::DecodeOutcome;
using rs::DecodeStatus;
using rs::ReedSolomon;

namespace {

void validate_encode_args(const ReedSolomon& code,
                          std::span<const Element> data,
                          std::span<Element> codeword) {
  const GaloisField& field = code.field();
  if (data.size() != code.k()) {
    throw std::invalid_argument("ReedSolomon::encode: data size != k");
  }
  if (codeword.size() != code.n()) {
    throw std::invalid_argument("ReedSolomon::encode: codeword size != n");
  }
  for (const Element d : data) {
    if (!field.contains(d)) {
      throw std::invalid_argument("ReedSolomon::encode: symbol out of field");
    }
  }
}

// Syndromes S_j = c(alpha^(fcr+j)), j in [0, n-k). Returns true if all 0.
bool syndromes(const ReedSolomon& code, std::span<const Element> word,
               std::vector<Element>& out) {
  const GaloisField& field = code.field();
  out.assign(code.parity_symbols(), 0);
  bool all_zero = true;
  for (unsigned j = 0; j < code.parity_symbols(); ++j) {
    const Element x = field.alpha_pow(code.fcr() + j);
    // Horner over c(x) = sum_p word[p] x^(n-1-p).
    Element acc = 0;
    for (unsigned p = 0; p < code.n(); ++p) {
      acc = GaloisField::add(field.mul(acc, x), word[p]);
    }
    out[j] = acc;
    all_zero = all_zero && (acc == 0);
  }
  return all_zero;
}

// Locator value of codeword position p: X = alpha^(n-1-p).
Element locator_of_position(const ReedSolomon& code, unsigned p) {
  return code.field().alpha_pow(static_cast<long long>(code.n() - 1 - p));
}

}  // namespace

void encode_legacy(const ReedSolomon& code, std::span<const Element> data,
                   std::span<Element> codeword) {
  const GaloisField& field = code.field();
  validate_encode_args(code, data, codeword);
  // Message polynomial with data[0] as the highest-degree coefficient:
  // M(x) = sum_p data[p] * x^(k-1-p); codeword poly c(x) = M(x)*x^(n-k) - R,
  // R = (M(x)*x^(n-k)) mod g(x). External position p holds coeff of x^(n-1-p).
  std::vector<Element> shifted(code.n(), 0);
  for (unsigned p = 0; p < code.k(); ++p) {
    shifted[code.n() - 1 - p] = data[p];
  }
  const Poly remainder =
      Poly::mod(field, Poly{std::move(shifted)}, code.generator());
  std::copy(data.begin(), data.end(), codeword.begin());
  for (unsigned j = 0; j < code.parity_symbols(); ++j) {
    // Parity position k+j holds coeff of x^(n-1-(k+j)) = x^(n-k-1-j).
    codeword[code.k() + j] = remainder.coeff(code.parity_symbols() - 1 - j);
  }
}

DecodeOutcome decode_legacy(const ReedSolomon& code, std::span<Element> word,
                            std::span<const unsigned> erasure_positions) {
  const GaloisField& field = code.field();
  if (word.size() != code.n()) {
    throw std::invalid_argument("ReedSolomon::decode: word size != n");
  }
  std::set<unsigned> erasure_set;
  for (const unsigned p : erasure_positions) {
    if (p >= code.n()) {
      throw std::invalid_argument(
          "ReedSolomon::decode: erasure position out of range");
    }
    if (!erasure_set.insert(p).second) {
      throw std::invalid_argument(
          "ReedSolomon::decode: duplicate erasure position");
    }
  }
  for (const Element w : word) {
    if (!field.contains(w)) {
      throw std::invalid_argument("ReedSolomon::decode: symbol out of field");
    }
  }

  const unsigned two_t = code.parity_symbols();
  const unsigned rho = static_cast<unsigned>(erasure_set.size());
  if (rho > two_t) {
    return {DecodeStatus::kFailure, 0, 0};
  }

  std::vector<Element> synd;
  const bool clean = syndromes(code, word, synd);
  if (clean && rho == 0) {
    return {DecodeStatus::kNoError, 0, 0};
  }

  // Erasure locator Gamma(x) = prod_i (1 - X_i x), X_i the position locators.
  Poly gamma = Poly::one();
  for (const unsigned p : erasure_set) {
    const Element X = locator_of_position(code, p);
    gamma = Poly::mul(field, gamma, Poly{std::vector<Element>{1, X}});
  }

  // Modified syndrome Xi(x) = S(x) * Gamma(x) mod x^(2t).
  const Poly S{std::vector<Element>(synd.begin(), synd.end())};
  const Poly xi = Poly::mul(field, S, gamma).truncated(two_t);

  Poly lambda = Poly::one();  // error locator (errors only)
  Poly omega;                 // evaluator for the combined locator
  if (xi.is_zero()) {
    // Errors are confined to the erasure positions (if any).
    omega = Poly::zero();
  } else {
    // Sugiyama: extended Euclid on (x^(2t), Xi), tracking the Xi-cofactor.
    Poly r_prev = Poly::monomial(1, two_t);
    Poly r_cur = xi;
    Poly u_prev = Poly::zero();
    Poly u_cur = Poly::one();
    // Stop at the first remainder with 2*deg(r) < 2t + rho.
    while (!r_cur.is_zero() &&
           2 * static_cast<unsigned>(r_cur.degree()) >= two_t + rho) {
      const Poly::DivMod dm = Poly::divmod(field, r_prev, r_cur);
      Poly r_next = dm.remainder;
      Poly u_next =
          Poly::add(u_prev, Poly::mul(field, dm.quotient, u_cur));
      r_prev = std::move(r_cur);
      r_cur = std::move(r_next);
      u_prev = std::move(u_cur);
      u_cur = std::move(u_next);
    }
    const Element u0 = u_cur.coeff(0);
    if (u0 == 0) {
      return {DecodeStatus::kFailure, 0, 0};
    }
    const Element u0_inv = field.inv(u0);
    lambda = Poly::scale(field, u_cur, u0_inv);
    omega = Poly::scale(field, r_cur, u0_inv);
    // Capability check: nu <= (2t - rho) / 2.
    const unsigned nu = static_cast<unsigned>(std::max(0, lambda.degree()));
    if (2 * nu + rho > two_t) {
      return {DecodeStatus::kFailure, 0, 0};
    }
  }

  // Combined locator Psi = Lambda * Gamma and its evaluator.
  const Poly psi = Poly::mul(field, lambda, gamma);
  // Omega above solves Lambda*Xi = Omega mod x^2t; the combined evaluator is
  // Psi*S mod x^2t, which equals Lambda*Gamma*S = Lambda*Xi mod x^2t. Use the
  // direct product to stay correct also when xi was zero (pure erasures).
  const Poly omega_c = Poly::mul(field, psi, S).truncated(two_t);

  const unsigned expected_roots = static_cast<unsigned>(std::max(0, psi.degree()));
  if (expected_roots == 0) {
    // Non-zero syndromes but empty locator: detected failure (can happen only
    // without erasures, when Euclid degenerates).
    if (!clean) return {DecodeStatus::kFailure, 0, 0};
    return {DecodeStatus::kNoError, 0, 0};
  }

  // Chien search restricted to the n valid positions of the shortened code.
  const Poly psi_deriv = psi.derivative();
  unsigned roots_found = 0;
  unsigned errors_corrected = 0;
  unsigned erasures_corrected = 0;
  std::vector<Element> corrected(word.begin(), word.end());
  for (unsigned p = 0; p < code.n(); ++p) {
    const Element X = locator_of_position(code, p);
    const Element X_inv = field.inv(X);
    if (psi.eval(field, X_inv) != 0) continue;
    ++roots_found;
    const Element denom = psi_deriv.eval(field, X_inv);
    if (denom == 0) {
      return {DecodeStatus::kFailure, 0, 0};
    }
    // Forney with first consecutive root fcr: e = X^(1-fcr) * Omega(X^-1)/Psi'(X^-1).
    const Element num = omega_c.eval(field, X_inv);
    Element magnitude = field.div(num, denom);
    magnitude = field.mul(
        magnitude, field.pow(X, 1 - static_cast<long long>(code.fcr())));
    if (magnitude != 0) {
      corrected[p] = GaloisField::add(corrected[p], magnitude);
      if (erasure_set.count(p) != 0) {
        ++erasures_corrected;
      } else {
        ++errors_corrected;
      }
    }
  }
  if (roots_found != expected_roots) {
    // Locator has roots outside the valid position range (or repeated
    // roots): the error pattern is uncorrectable and detected as such.
    return {DecodeStatus::kFailure, 0, 0};
  }

  // Final verification: the corrected word must be a true codeword.
  std::vector<Element> check;
  if (!syndromes(code, corrected, check)) {
    return {DecodeStatus::kFailure, 0, 0};
  }
  std::copy(corrected.begin(), corrected.end(), word.begin());
  if (errors_corrected == 0 && erasures_corrected == 0) {
    return {DecodeStatus::kNoError, 0, 0};
  }
  return {DecodeStatus::kCorrected, errors_corrected, erasures_corrected};
}

}  // namespace rsmem::oracles
