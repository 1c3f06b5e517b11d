"""Exactly computable parity and null-count probabilities.

Everything here has two faces:

* a floating evaluation (mpmath, default 256 bits; complex doubles for
  ``multinomial_parity``), and
* an exact-rational evaluation (``exact=True``) used by the oracle tests,
  built on ``fractions.Fraction`` and exact big-integer binomials.  Every
  exact result is an integer sum over a common denominator, with no number
  field: the parity sums and E[N] below, and the joint parities of
  ``multinomial_parity``, whose law of the counts mod r carries integer
  weights over a power of the cells' common denominator.

The all-even probability P[A(n,m)] = 2^-n sum_j C(n,j) lambda_j^m is
computed for both row models: the binomial allocation scheme (balls into
urns, lambda_j from the closed pgf form) and the exact uniform-support scheme
(lambda_j from hypergeometric even-overlap sums).  The binomial sampler
redraws empty rows, so E[N] in that model conditions lambda_j on a nonempty
row; ``pi_multinomial`` is the urn quantity, empty rows included.  The
``lambda_j^m`` alternate in sign and cancel catastrophically in doubles
already for a few hundred columns.  The lambda_j are exact rationals, so
P[A(n,m)], the expected null count and its weight profile are exact integer
sums over a common denominator of the lambda_j, each rounded once at the
requested precision, with no retry; a true zero comes out as 0.

Every sum here reads the law it is given with its masses as Fractions
scaled to sum to exactly 1 (float masses such as 0.9 + 0.1 sum to
1 + 2^-55), so exact and float results describe one law.  Complementing the
column set J maps |row ∩ J| to W - |row ∩ J|, so when every weight of the
law (weights min(W, n) in the exact scheme) has one parity, lambda_{n-j} =
lambda_j (all even) or -lambda_j (all odd, where every odd power is a
structural zero).  Every parity sum, exact or float, then takes lambda_j
only for j <= n/2 and counts each j < n/2 twice; a law that mixes parities
sums j = 0..n.  The float ``pi_multinomial`` is a guarded mpf sum that
retries at doubled precision whenever its rounding-error bound is too large
relative to the result.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

import mpmath as mp

from .errors import InvalidParam, NumericalResidue, PrecisionLoss, TooLarge
from .weights import MODELS, WeightDist

DEFAULT_PRECISION = 256
_MAX_PRECISION = 1 << 14
_REL_TOL = 1e-15
# n (m+1)^2 in poissonization_check.  The worst call it admits is m = 0,
# n = 2*10^5, at about 9 s, nearly all in pi_multinomial's n/2 big binomials;
# at m >= 1 the convolutions take about 2-4 us per unit, under 1 s.
_POISSON_MAX_WORK = 200_000


def _guarded_sum(term_factory, precision: int, amplification: int = 0):
    """Sum terms at increasing precision until the rounding bound is small.

    ``term_factory()`` yields mpf terms under the current working precision.
    The error bound is (#terms + amplification) ulps of the absolute sum; if
    it exceeds _REL_TOL relative to the result, the precision is doubled, up
    to a hard cap, after which PrecisionLoss is raised.  A total of 0 is
    accepted only when every term is 0: a sum that cancels to 0 certifies
    nothing, so it ends in PrecisionLoss.
    """
    prec = precision
    while True:
        with mp.workprec(prec):
            total = mp.mpf(0)
            abs_total = mp.mpf(0)
            count = 0
            for t in term_factory():
                total += t
                abs_total += abs(t)
                count += 1
            bound = abs_total * mp.mpf(2) ** (4 - prec) * (count + amplification + 1)
            if bound <= _REL_TOL * abs(total):
                return +total
        if prec >= _MAX_PRECISION:
            raise PrecisionLoss(
                f"rounding bound {mp.nstr(bound, 5)} vs result {mp.nstr(total, 5)} "
                f"still above {_REL_TOL} relative at {prec} bits")
        prec *= 2


def _check_args(n: int, m: int, precision: int, exact: bool) -> None:
    if n < 1 or m < 0:
        raise InvalidParam(f"need n >= 1, m >= 0; got n={n}, m={m}")
    if not exact and precision < 1:
        raise InvalidParam(f"precision {precision} < 1 bit")


def _structurally_zero(m: int, weights) -> bool:
    # odd row count with purely odd weights: the total unit count is odd,
    # so the all-even event is impossible.
    return m % 2 == 1 and all(w % 2 == 1 for w in weights)


def _unit_law(law) -> list:
    """The (weight, mass) pairs of ``law`` with the masses as Fractions scaled
    to sum to exactly 1; masses that already do are unchanged."""
    law = [(w, Fraction(p)) for w, p in law]
    total = sum(p for _, p in law)
    return [(w, p / total) for w, p in law]


# lambda_j is the mean of (-1)^|row ∩ J| for a fixed j-subset J of the columns,
# so P[A(n,m)] = 2^-n sum_j C(n,j) lambda_j^m in both row models.  Each model
# defines it in one place, exactly, as a table (c, lams): the _multiplicities
# c and lambda_j for the j that c covers.

def _multiplicities(n: int, law) -> list:
    """c with sum_{j=0}^{n} C(n,j) lambda_j^l = sum_j c_j lambda_j^l for
    every l that _structurally_zero leaves, for a law of total mass 1.

    When every weight of ``law`` has one parity, lambda_{n-j} = lambda_j, or
    -lambda_j with every weight odd (l is then even): the terms of j and
    n - j are equal, so only j <= n/2 is taken, with c_j = 2 C(n,j) for
    j < n/2 and c_{n/2} = C(n,n/2).  Otherwise j runs over 0..n with
    c_j = C(n,j).
    """
    folds = len({w % 2 for w, _ in law}) == 1
    cs = []
    c = 1  # C(n, j), by its recurrence in j
    for j in range(n // 2 + 1 if folds else n + 1):
        cs.append(2 * c if folds and 2 * j < n else c)
        c = c * (n - j) // (j + 1)
    return cs


def _lambdas_binomial(n: int, dist: WeightDist) -> tuple:
    """lambda_j = rho(1 - 2j/n) in the binomial allocation scheme.  Since
    1 - 2(n-j)/n = -(1 - 2j/n), a law whose weights share one parity folds."""
    atoms = _unit_law(dist.atoms)
    cs = _multiplicities(n, atoms)
    return cs, [sum(p * Fraction(n - 2 * j, n) ** k for k, p in atoms) for j in range(len(cs))]


def _lambdas_binomial_rows(n: int, dist: WeightDist) -> tuple:
    """lambda_j of the binomial sampler's rows, which are never empty:
    (lambda_j - P0) / (1 - P0), with P0 = 2^-n sum_j C(n,j) lambda_j the
    chance of an empty throw (0 when every weight is odd)."""
    cs, lams = table = _lambdas_binomial(n, dist)
    if all(k % 2 for k, _ in dist.atoms):
        return table
    p0 = Fraction(*_parity_sum(n, 1, table))
    if p0 == 1:
        raise InvalidParam(f"binomial rows at n={n} need an odd weight; every weight is even")
    return cs, [(q - p0) / (1 - p0) for q in lams]


def _lambdas_exact(n: int, law) -> tuple:
    """lambda_j = 2 p_j - 1 in the uniform-support scheme, where p_j is the
    hypergeometric even-overlap probability under the per-n law.

    Complementing J keeps the parity of |row ∩ J| for an even weight and
    flips it for an odd one, so with total mass 1 a law whose weights share
    one parity folds.
    """
    law = _unit_law(law)
    cs = _multiplicities(n, law)
    return cs, [2 * sum(p * hypergeometric_even_overlap(n, j, r) for r, p in law) - 1
                for j in range(len(cs))]


def _over_common_denominator(lams) -> tuple:
    """(d, a) with lambda_j = a_j / d and d the least common denominator."""
    d = math.lcm(*(q.denominator for q in lams))
    return d, [q.numerator * (d // q.denominator) for q in lams]


def _rounded(num: int, den: int, precision: int):
    """num / den as an mpf, rounded once to ``precision`` bits."""
    if num == 0:  # no need to normalise a huge den
        return mp.mpf(0)
    return mp.make_mpf(mp.libmp.from_rational(num, den, precision, mp.libmp.round_nearest))


def _parity_sum(n: int, m: int, table) -> tuple:
    """(num, den) with 2^-n sum_j C(n,j) lambda_j^m = num / den exactly, from
    a table (c, lams): with lambda_j = a_j / d,
    num = sum_j c_j a_j^m and den = 2^n d^m."""
    cs, lams = table
    d, a = _over_common_denominator(lams)
    return sum(c * x**m for c, x in zip(cs, a)), d**m << n


def pi_multinomial(n: int, m: int, dist: WeightDist, precision: int = DEFAULT_PRECISION,
                   exact: bool = False):
    """P[every column sum is even] in the binomial allocation scheme:
    2^-n * sum_j C(n,j) rho(1 - 2j/n)^m.

    The urn quantity: an empty row counts, though the binomial sampler
    redraws it.  For the point mass at weight 1 this is the classical
    probability that all n cells of a multinomial(m; 1/n, ..., 1/n) vector
    are even.  The float result is a guarded mpf sum with the masses
    rounded to the working precision.
    """
    _check_args(n, m, precision, exact)
    if _structurally_zero(m, (k for k, _ in dist.atoms)):
        return Fraction(0) if exact else mp.mpf(0)
    if exact:
        return Fraction(*_parity_sum(n, m, _lambdas_binomial(n, dist)))
    atoms = _unit_law(dist.atoms)
    cs = _multiplicities(n, atoms)

    def terms():  # the lambda_j^m may alternate in sign, so the sum can cancel
        scale = (mp.mpf(1) / 2) ** n
        masses = [(k, _rounded(p.numerator, p.denominator, mp.mp.prec)) for k, p in atoms]
        for j, c in enumerate(cs):
            s = 1 - 2 * mp.mpf(j) / n
            yield scale * c * sum(p * s**k for k, p in masses) ** m

    return _guarded_sum(terms, precision, amplification=m + n)


def hypergeometric_even_overlap(n: int, j: int, r: int) -> Fraction:
    """P[|H ∩ J| is even] for a uniform r-subset H and a fixed j-subset J of [n]."""
    num = sum(comb(r, i) * comb(n - r, j - i) for i in range(0, min(r, j) + 1, 2))
    return Fraction(num, comb(n, j))


def prob_A_general(n: int, m: int, law, precision: int = DEFAULT_PRECISION,
                   exact: bool = False):
    """P[every column sum is even] in the exact uniform-support scheme:
    2^-n * sum_j C(n,j) (2 p_j - 1)^m with hypergeometric even-overlap p_j.

    ``law`` is the per-n row-weight law as (weight, probability) pairs with
    support inside [1, n].  Weight 0 is tolerated (it contributes an overlap
    probability of 1), which makes the binomial per-n law usable here.  The
    float result is the exact integer sum over 2^n d^m, with d the common
    denominator of the lambda_j, rounded once at ``precision`` bits.
    """
    law = sorted((int(r), p) for r, p in law)
    _check_args(n, m, precision, exact)
    if not law or law[0][0] < 0 or law[-1][0] > n:
        raise InvalidParam(f"law support must lie in [0, {n}]: {law}")
    if _structurally_zero(m, (r for r, _ in law)):
        return Fraction(0) if exact else mp.mpf(0)
    num, den = _parity_sum(n, m, _lambdas_exact(n, law))
    return Fraction(num, den) if exact else _rounded(num, den, precision)


def expected_null_count(n: int, m: int, dist: WeightDist, model: str = "exact",
                        precision: int = DEFAULT_PRECISION, exact: bool = False):
    """E[number of null vectors], including the zero vector, plus its
    decomposition by weight: E[N(n,m;l)] = C(m,l) P[A(n,l)].

    Returns (total, profile) where profile maps l to E[N(n,m;l)].

    In the binomial model lambda_j is that of the sampler's rows, which are
    never empty: (rho(1 - 2j/n) - P0) / (1 - P0), P0 the chance of an empty
    throw.  At n = 1 with every weight even InvalidParam is raised.

    With lambda_j = a_j / d over the least common denominator d,
    E[N(n,m;l)] = C(m,l) S_l / (2^n d^l) where S_l = sum_j C(n,j) a_j^l is an
    integer sum (over j <= n/2 when the law folds), so every entry and the
    total are exact rationals.  The floating result rounds each of them once,
    at ``precision`` bits.
    """
    _check_args(n, m, precision, exact)
    if model == "exact":
        law = dist.per_n_law_exact(n)
        (powers, lams), weights = _lambdas_exact(n, law), [r for r, _ in law]
    elif model == "binomial":
        (powers, lams), weights = _lambdas_binomial_rows(n, dist), [k for k, _ in dist.atoms]
    else:
        raise InvalidParam(f"model {model!r} not in {MODELS}")
    d, a = _over_common_denominator(lams)

    # powers holds c_j a_j^l for the current l; when every weight is odd,
    # every odd l is a structural zero, so l steps by 2
    step = 2 if _structurally_zero(1, weights) else 1
    factors = [x**step for x in a]
    nums = [0] * (m + 1)  # C(m,l) S_l, the numerator of E[N(n,m;l)] over 2^n d^l
    for l in range(0, m + 1, step):
        nums[l] = comb(m, l) * sum(powers)
        if l + step <= m:
            powers = [t * x for t, x in zip(powers, factors)]
    total = 0  # numerator of the sum over 2^n d^m, by Horner's rule in d
    for v in nums:
        total = total * d + v

    out = Fraction if exact else lambda num, den: _rounded(num, den, precision)
    profile = {}
    den = 1 << n
    for l, v in enumerate(nums):
        profile[l] = out(v, den)
        if l < m:
            den *= d
    return out(total, den), profile


def poissonization_check(n: int, m: int, mu: float, precision: int = DEFAULT_PRECISION):
    """Both sides of the Poissonization identity for the weight-1 model.

    lhs is the all-even multinomial probability pi_n(m); rhs rebuilds it as

        P[S_E = m] / P[S = m] * ((1 + e^{-2 mu}) / 2)^n,

    where S sums n i.i.d. Poisson(mu) variables and S_E sums n i.i.d.
    even-conditioned Poisson(mu) variables, both sum pmfs evaluated at m by
    dynamic-programming convolution of the single-variable pmfs, which reads
    their terms k <= m only.  The two convolutions cost about n (m+1)^2
    multiply-adds; TooLarge is raised above ``_POISSON_MAX_WORK``.
    """
    if n < 1 or m < 0 or not (math.isfinite(mu) and mu > 0):
        raise InvalidParam(f"need n >= 1, m >= 0, finite mu > 0; got {n}, {m}, {mu}")
    if n * (m + 1) ** 2 > _POISSON_MAX_WORK:
        raise TooLarge(f"n (m+1)^2 = {n * (m + 1) ** 2:.4g} exceeds {_POISSON_MAX_WORK:.4g}")
    with mp.workprec(precision):
        mpmu = mp.mpf(mu)
        pmf = [mp.exp(-mpmu) * mpmu**k / mp.factorial(k) for k in range(m + 1)]
        p_even = mp.exp(-mpmu) * mp.cosh(mpmu)
        pmf_even = [pmf[k] / p_even if k % 2 == 0 else mp.mpf(0) for k in range(m + 1)]

        def conv_power_at(single):
            dp = [mp.mpf(1)] + [mp.mpf(0)] * m
            for _ in range(n):
                new = [mp.mpf(0)] * (m + 1)
                for t in range(m + 1):
                    acc = mp.mpf(0)
                    for k in range(t + 1):
                        if single[k]:
                            acc += dp[t - k] * single[k]
                    new[t] = acc
                dp = new
            return dp[m]

        rhs = (conv_power_at(pmf_even) / conv_power_at(pmf)) * ((1 + mp.exp(-2 * mpmu)) / 2) ** n
    lhs = pi_multinomial(n, m, WeightDist.fixed(1), precision=precision)
    return lhs, rhs


# --- joint parities of multinomial counts --------------------------------

PARITY_MAX_K = 10
PARITY_MAX_R = 8
# (h, g) pairs r^k 2^k of multinomial_parity's float route, at about 1 us
# each; the largest spec it admits, r = 7 and k = 6, takes about 7 s
_PARITY_MAX_PAIRS = 1 << 23


@dataclass(frozen=True)
class ParitySpec:
    """Joint congruence targets for k = len(targets) events over i.i.d. trials.

    ``cell_probs[g]`` is the single-trial probability of the outcome cell
    indexed by the bitmask g (bit i set means event i occurs); ``targets[i]``
    is the required residue of the count of event i, modulo ``r``.
    """

    r: int
    targets: tuple
    cell_probs: tuple

    @property
    def k(self) -> int:
        return len(self.targets)

    def __post_init__(self):
        if not 1 <= self.k <= PARITY_MAX_K:
            raise InvalidParam(f"k {self.k} outside 1..{PARITY_MAX_K}")
        if not 2 <= self.r <= PARITY_MAX_R:
            raise InvalidParam(f"r {self.r} outside 2..{PARITY_MAX_R}")
        if any(not 0 <= t < self.r for t in self.targets):
            raise InvalidParam(f"targets {self.targets} not all in 0..{self.r - 1}")
        if len(self.cell_probs) != 1 << self.k:
            raise InvalidParam(f"{len(self.cell_probs)} cell probabilities for k={self.k}")
        if not all(math.isfinite(p) and p >= 0 for p in self.cell_probs):
            raise InvalidParam(f"cell probabilities {self.cell_probs} not all finite and >= 0")
        total = sum(self.cell_probs)
        if all(isinstance(p, (int, Fraction)) for p in self.cell_probs):
            if total != 1:
                raise InvalidParam(f"exact cell probabilities sum to {total}")
        elif abs(total - 1.0) > 1e-12:
            raise InvalidParam(f"cell probabilities sum to {total!r}")


def _bit_dot(g: int, h) -> int:
    return sum(h[i] for i in range(len(h)) if (g >> i) & 1)


def _tuple_dot(t, h) -> int:
    return sum(a * b for a, b in zip(t, h))


def multinomial_parity(spec: ParitySpec, n: int, exact: bool = False):
    """P[count of event i = targets[i] (mod r) for every i] over n i.i.d. trials.

    The exact path returns a Fraction, integers over a common denominator like
    every exact result here: with the p_g scaled to sum to exactly 1 and
    p_g = a_g / d over the least common denominator d, it runs the law of the count vector mod r through n trials
    as integer weights d^s P[counts = c (mod r)] on the residue tuples c, and
    reads off the targets' weight over d^n.

    The float path sums r^-k sum_h omega^{-t.h} (sum_g omega^{g.h} p_g)^n over
    complex doubles and discards an imaginary residue of at most 1e-12
    (larger residues raise NumericalResidue).  Its error is absolute, about
    1e-15 at small n, not relative: for k=1, r=4, p=(1 - 1e-6, 1e-6), t=3,
    n=3 it gives 8.3e-18 where the exact value is 1.0e-18.  It visits r^k 2^k
    pairs (h, g) and raises TooLarge above ``_PARITY_MAX_PAIRS``.
    """
    if n < 0:
        raise InvalidParam(f"n {n} < 0")
    k, r, t = spec.k, spec.r, spec.targets

    if exact:
        d, a = _over_common_denominator([p for _, p in _unit_law(enumerate(spec.cell_probs))])
        steps = [(tuple((g >> i) & 1 for i in range(k)), w) for g, w in enumerate(a) if w]
        law = {(0,) * k: 1}
        for _ in range(n):
            nxt = {}
            for c, v in law.items():
                for step, w in steps:
                    key = tuple((x + y) % r for x, y in zip(c, step))
                    nxt[key] = nxt.get(key, 0) + v * w
            law = nxt
        return Fraction(law.get(tuple(t), 0), d**n)

    pairs = (2 * r) ** k
    if pairs > _PARITY_MAX_PAIRS:
        raise TooLarge(f"r^k 2^k = {pairs:.4g} Fourier pairs exceed {_PARITY_MAX_PAIRS:.4g}")
    om = [cmath.exp(2j * cmath.pi * j / r) for j in range(r)]
    total = 0j
    for h in product(range(r), repeat=k):
        inner = sum(p * om[_bit_dot(g, h) % r] for g, p in enumerate(spec.cell_probs))
        total += om[(-_tuple_dot(t, h)) % r] * inner**n
    total /= r**k
    if abs(total.imag) > 1e-12:
        raise NumericalResidue(f"imaginary residue {total.imag:.3e} exceeds 1e-12")
    return total.real


# --- dense uniform-nonzero rows over GF(q) --------------------------------

def _is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    return True


def gfq_dense_survival(q: int, r: int, n: int | None = None) -> float:
    """P[T_n > n + 1 - r] for i.i.d. rows uniform on nonzero GF(q)^n vectors.

    With n omitted, returns the n -> infinity limit prod_{j >= r} (1 - q^-j)
    (truncated once the factors are within 1e-16 of 1); with n given, the
    exact finite-n value (1 - q^-n)^(r-n) * prod_{j=r}^{n-1} (1 - q^-j).
    """
    if not _is_prime_power(q):
        raise InvalidParam(f"q {q} is not a prime power >= 2")
    if r < 0:
        raise InvalidParam(f"r {r} < 0")
    if n is None:
        if r == 0:
            return 0.0
        prod = 1.0
        j = r
        while True:
            f = float(q) ** -j
            prod *= 1.0 - f
            j += 1
            if f < 1e-16:
                return prod
    if not 1 <= r <= n:
        raise InvalidParam(f"need 1 <= r <= n; got r={r}, n={n}")
    prod = (1.0 - float(q) ** -n) ** (r - n)
    for j in range(r, n):
        prod *= 1.0 - float(q) ** -j
    return prod
