"""Closed-form evaluators: binary entropy, the Plotkin cap on achievable
rate-plus-distance, scans for the two-condition prime property, Hamming ball
volumes, the divisor-counting exponent, and the rate-balance function whose
sign dichotomy drives the power-law distance construction.

Everything here is a sanity evaluator in IEEE doubles (exact integers where
displayed); none of it claims asymptotic proof.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .cyclic import DEFAULT_BUDGET, CyclicCode, min_distance, mu
from .gf import DomainError, PrimePower, ord_mod
from .polyring import FPoly, canonical_m1, factor_xn_minus_1


def entropy(x: float) -> float:
    """Binary entropy H(x) = -x log2 x - (1-x) log2 (1-x), on open (0,1)."""
    if not 0 < x < 1:
        raise DomainError("entropy is defined here on the open interval (0,1)")
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def f_delta(delta: float, q: int) -> float:
    """Upper envelope for (relative distance + best rate) at distance delta."""
    if q < 2:
        raise DomainError("q must be at least 2")
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0,1)")
    cap = (q - 1) / q
    if delta < cap:
        return 1 - delta / (q - 1)
    return delta


def plotkin_lambda_cap(q: int) -> Fraction:
    """min of f_delta over (0,1), analytically (q-1)/q; any lambda in the
    two-condition prime property must stay strictly below it."""
    if q < 2:
        raise DomainError("q must be at least 2")
    return Fraction(q - 1, q)


@dataclass(frozen=True)
class WeakUPRow:
    p: int
    ord_qp: int
    mu_lower: int
    mu_upper: int
    mu_exact: bool
    cond_order: bool
    cond_mu: bool | None  # None when the bracket straddles lambda*p

    def json_dict(self):
        return {"p": self.p, "ord": self.ord_qp,
                "mu": self.mu_lower if self.mu_exact else None,
                "mu_lower": self.mu_lower, "mu_upper": self.mu_upper,
                "cond_order": self.cond_order, "cond_mu": self.cond_mu,
                "both": bool(self.cond_order and self.cond_mu)}


def weak_up_scan(q: int, eps: float, lam: float, p_max: int,
                 budget: int = DEFAULT_BUDGET, cache=None) -> list:
    """Per prime p <= p_max: the order of q mod p, the invariant (possibly a
    bracket under the budget), and the two condition flags ord < eps*p and
    mu > lam*p."""
    if not 0 < eps < lam <= 1:
        raise DomainError("need 0 < eps < lambda <= 1")
    from .gf import is_prime

    rows = []
    for p in range(2, p_max + 1):
        if not is_prime(p) or math.gcd(p, q) != 1:
            continue
        o = ord_mod(q, p)
        rec = mu(p, q, budget, cache=cache)
        cond_order = o < eps * p
        if rec.exact:
            cond_mu = rec.mu > lam * p
        elif rec.mu_lower > lam * p:
            cond_mu = True
        elif rec.mu_upper <= lam * p:
            cond_mu = False
        else:
            cond_mu = None
        rows.append(WeakUPRow(p, o, rec.mu_lower, rec.mu_upper, rec.exact,
                              cond_order, cond_mu))
    return rows


def _log2_int(v: int) -> float:
    if v <= 0:
        raise DomainError("log of a nonpositive integer")
    if v.bit_length() <= 900:
        return math.log2(v)
    shift = v.bit_length() - 64
    return shift + math.log2(v >> shift)


def ball_volume_upper(n: int, alpha: float, q: int):
    """(1 + r) C(n, r) (q-1)^r with r = floor(n^alpha): exact integer and log2."""
    if n < 2 or not 0 < alpha < 1 or q < 2:
        raise DomainError("need n >= 2, alpha in (0,1), q >= 2")
    r = math.floor(n**alpha)
    exact = (1 + r) * math.comb(n, r) * (q - 1) ** r
    return exact, _log2_int(exact)


def lambda_n_bound(n: int, p: int, alpha: float, R: float) -> float:
    """log2 of the divisor-count bound: ((n - n^(1-alpha)) / p) * H(R)."""
    if p < 2 or not 0 < alpha < 1 or not 0 < R < 1:
        raise DomainError("need p >= 2, alpha in (0,1), R in (0,1)")
    return (n - n ** (1 - alpha)) / p * entropy(R)


@dataclass(frozen=True)
class RateBalance:
    p: int
    alpha: float
    q: int
    R: float
    growth_term: float    # (1-alpha) ln(q^p - 1) (q^p - 1)^alpha
    counting_term: float  # ln2 H(R) q^p / (p (q^p - 1)^alpha)
    value: float          # growth - counting; negative tail iff alpha < 1/2
    lhs_log: float        # natural log of the assembled product inequality side

    def json_dict(self):
        return {"p": self.p, "alpha": self.alpha, "q": self.q, "R": self.R,
                "growth_term": self.growth_term, "counting_term": self.counting_term,
                "value": self.value, "lhs_log": self.lhs_log}


def f_alpha(p: int, alpha: float, q: int, R: float) -> RateBalance:
    """The two explicit leading terms of the rate-balance exponent (the
    vanishing error term is not computable and is excluded), plus the log of
    the fully assembled product from the same display."""
    if p < 2 or q < 2 or not 0 < alpha < 1 or not 0 < R < 1:
        raise DomainError("need p >= 2, q >= 2, alpha in (0,1), R in (0,1)")
    N = q**p - 1
    lnN = _log2_int(N) * math.log(2)
    Na = math.exp(alpha * lnN)  # (q^p - 1)^alpha
    h = entropy(R)
    growth = (1 - alpha) * lnN * Na
    counting = math.log(2) * h * (N + 1) / (p * Na)
    # assembled left side, in natural log
    lhs = (math.log(2) * h * ((-math.exp((1 - alpha) * lnN) + (q - 1)) / p)
           + (-Na * (alpha - 1) + alpha / 2) * lnN
           + (Na - math.exp((2 * alpha - 1) * lnN))
           + Na * math.log(q - 1)
           + 0.5 * (math.log(N + 1 - q) - math.log(p)))
    return RateBalance(p, alpha, q, R, growth, counting, growth - counting, lhs)


def f_alpha_sweep(primes, alpha: float, q: int, R: float) -> list:
    return [f_alpha(p, alpha, q, R) for p in primes]


def eventual_trend(values) -> str:
    """'decrease' or 'increase' by the sign of the last step, from the last
    two values alone; 'none' when they are equal or fewer than two are given."""
    vs = list(values)
    if len(vs) < 2:
        return "none"
    if vs[-1] < vs[-2]:
        return "decrease"
    if vs[-1] > vs[-2]:
        return "increase"
    return "none"


@dataclass(frozen=True)
class ConstructionReport:
    q: int
    p: int
    n: int
    s: int
    s_prime: int
    chosen: tuple
    gen: str
    dim: int
    rate: float
    target_rate: float
    distance: object  # DistanceResult
    lambda_exponent: float
    ball_exact: int
    ball_log2: float
    binom_exact: int
    binom_stirling: float
    alpha: float

    def json_dict(self):
        return {"q": self.q, "p": self.p, "n": self.n, "s": self.s,
                "s_prime": self.s_prime, "chosen": list(self.chosen),
                "gen": self.gen, "dim": self.dim, "rate": self.rate,
                "target_rate": self.target_rate,
                "d_lower": self.distance.lower, "d_upper": self.distance.upper,
                "d_exact": self.distance.exact,
                "lambda_exponent": self.lambda_exponent,
                "ball_log2": self.ball_log2,
                "binom_exact": self.binom_exact,
                "binom_stirling": self.binom_stirling,
                "alpha": self.alpha}


def construction_demo(q: int, p: int, R: float, seed: int = 0,
                      budget: int = DEFAULT_BUDGET, alpha: float = 0.5) -> ConstructionReport:
    """Factor x^(q^p - 1) - 1, verify the census (q-1 linear factors and s of
    degree p), pick s' = floor(s(1-R)) of the degree-p factors by seed, and
    build the code they generate: dimension n - p*s' by construction."""
    from .gf import is_prime

    if not is_prime(p):
        raise DomainError("p must be prime for the degree census")
    if not 0 < R < 1:
        raise DomainError("R must lie in (0,1)")
    n = q**p - 1
    if n > 127:
        raise DomainError(f"n = q^p - 1 = {n} beyond the construction cap 127")
    field = PrimePower.from_int(q)
    factors = factor_xn_minus_1(n, field, canonical_m1(n, field))  # chosen and gen read labels
    linear = [i for i, f in enumerate(factors) if f.degree == 1]
    deg_p = [i for i, f in enumerate(factors) if f.degree == p]
    if len(linear) != q - 1 or len(linear) + len(deg_p) != len(factors):
        raise DomainError(f"census broken at q={q}, p={p}: {sorted(f.degree for f in factors)}")
    s = len(deg_p)
    if n != q - 1 + s * p:
        raise DomainError("factor census does not match n = q - 1 + s*p")
    s_prime = math.floor(s * (1 - R))
    rng = random.Random(seed)
    chosen = tuple(sorted(rng.sample(range(s), s_prime)))
    gen = FPoly.one(field)
    for i in chosen:
        gen = gen * factors[deg_p[i]]
    code = CyclicCode.from_gen(n, q, gen)
    dist = min_distance(code, budget)
    ball_exact, ball_log2 = ball_volume_upper(n, alpha, q)
    lam = lambda_n_bound(n, p, alpha, R)
    binom = math.comb(s, s_prime)
    if 0 < s_prime < s:
        stirling = 2 ** (s * entropy(s_prime / s)) / math.sqrt(
            2 * math.pi * s * (s_prime / s) * (1 - s_prime / s))
    else:
        stirling = 1.0
    return ConstructionReport(q, p, n, s, s_prime, chosen, gen.to_string(),
                              code.dim, code.dim / n, R, dist, lam,
                              ball_exact, ball_log2, binom, stirling, alpha)
