"""Manufacture integers with many sum-of-two-cubes representations.

Starting from r independent points P_1 ... P_r on x^3 + y^3 = m0 z^3 and a
box size N, form every lattice combination Q_n = n_1 P_1 + ... + n_r P_r for
n in the index set I = [1..N] x C^(r-1), C = [-floor(N/2) .. ceil(N/2) - 1]
(index_ranges; rank 1 is the paper's [1..N]).  I has N^r indices with
|n_i| <= N, none zero and no two negatives of each other.  Each Q_n is a
primitive triple (x_n, y_n, z_n), and

    m = m0 * (z_1 * ... * z_{N^r})^3

is a sum of two coprime cubes in at least N^r ways: scale the n-th point by
the product of all the other z's.  The certificate records the lattice, the
representations, a divisor check controlling gcd(12 m0 z, x + y) for every
lattice point, and the height bookkeeping that bounds log m and yields the
final density inequality N^r > (K2 * hhat)^(-r/(r+2)) * (log m)^(r/(r+2)).
That bookkeeping uses only |n_i| <= N and the count N^r, so it holds for I
as for the paper's box [1..N]^r.

log m follows sum_n hhat(Q_n) = 1/2 sum_ij G_ij S_ij (height_sum), with G
the height Gram matrix.  Centring every coordinate but the first shrinks the
S_ij, and the order and signs of the generators are a free choice:
build_certificate picks the generator for the uncentred first slot and the
signs that minimise that sum (arrangement), and records the generators so
arranged.

One record, Certificate, carries a run.  derive computes everything the
inputs (m0, generators, N, tol) determine and returns it as a Certificate
with no checks: independence, then derive_lattice from the Gram matrix.
build_certificate runs independence once, arranges, runs derive_lattice and
fills in the checks; the verifier derives again from a parsed document's
inputs, never rearranging, and compares field by field.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from functools import reduce

from .curves import (
    CUBIC_IDENTITY,
    CubicPoint,
    CurveConfig,
    cubic_add,
    is_primitive,
    on_cubic,
)
from .heights import independence
from .numeric import ApproxReal, interval_max, log_abs

_TWO_THIRDS = ApproxReal.from_ratio(2, 3)

_BOX_SIZE_CAP = 1_000_000


class GeneratorDependenceError(Exception):
    """The supplied generators fail a certified independence requirement."""


class DivisorCheck(
    namedtuple("DivisorCheck", "d a b divisibility_pass bound_pass")
):
    """Result of the gcd control for one lattice point.

    d = gcd(12 m0 z, x + y) with cofactors a, b satisfying d a = 12 m0 z and
    d b = x + y.  divisibility_pass checks d^2 | 3 * 12^3 * m0^2 * b, and
    bound_pass checks d < 3^(1/3) * 12 * |m0|^(5/2) * z^(1/2), decided
    exactly as d^6 < 9 * 12^6 * |m0|^15 * z^3.  The record is all integers
    and booleans, so it is exact at every size of z.
    """

    __slots__ = ()


def divisor_check(cfg: CurveConfig, p: CubicPoint) -> DivisorCheck:
    if p.z == 0:
        raise ValueError("divisor check applies to affine points only")
    s = p.x + p.y
    dz = 12 * cfg.m0 * p.z
    d = math.gcd(dz, s)
    a = dz // d
    b = s // d
    divisibility = (5184 * cfg.m0 * cfg.m0 * b) % (d * d) == 0
    bound_ok = d**6 < 9 * 12**6 * abs(cfg.m0) ** 15 * p.z**3
    return DivisorCheck(d, a, b, divisibility, bound_ok)


def z_size_constant(cfg: CurveConfig) -> ApproxReal:
    """The additive constant c with log z(Q) <= 4 hhat(Q) + c on this curve.

    c = (2/3) h(b) + 5.92 + (2/3) log 3 + 3 log |m0|.
    """
    return (
        cfg.hb * _TWO_THIRDS
        + ApproxReal.from_decimal("5.92")
        + log_abs(3) * _TWO_THIRDS
        + log_abs(cfg.m0) * 3
    )


def height_factor(rank: int) -> int:
    """hhat(Q_n) <= (3 * 2^(r-1) - 2) N^2 hhat for every n with |n_i| <= N.

    hhat(n_i P_i) = n_i^2 hhat(P_i) <= N^2 hhat, and hhat(A + B) <=
    2 hhat(A) + 2 hhat(B) adds one term at a time: f(1) = 1 and
    f(r) = 2 f(r-1) + 2.  A zero n_i only drops a term.
    """
    return 3 * 2 ** (rank - 1) - 2


def z_factor(rank: int) -> int:
    """sum log z <= (3 * 2^(r+1) - 7) N^(r+2) hhat over N^r such points.

    Each log z <= 4 hhat(Q_n) + c <= 4 height_factor N^2 hhat + c, and
    c <= N^2 hhat once N >= n_min; summing N^r of them gives the factor
    4 height_factor + 1.
    """
    return 3 * 2 ** (rank + 1) - 7


def m_factor(rank: int) -> int:
    """log m <= (9 * 2^(r+1) - 20) N^(r+2) hhat once N >= n_min.

    log m = log |m0| + 3 sum log z, and log |m0| <= N^(r+2) hhat once
    N >= n_min, so the factor is 3 z_factor + 1.  Like z_factor it needs
    only |n_i| <= N and N^r points.
    """
    return 9 * 2 ** (rank + 1) - 20


class ChainConstants(
    namedtuple(
        "ChainConstants",
        "height_factor z_factor m_factor z_constant n_min",
    )
):
    """Rank-dependent constants of the construction, plus the minimal box.

    z_constant is an ApproxReal; the other fields are ints.
    """

    __slots__ = ()


def minimal_box_size(cfg: CurveConfig, rank: int, hhat_bar: ApproxReal) -> int:
    """Smallest N whose index set absorbs the curve constants.

    N must satisfy c <= N^2 hhat and log |m0| <= N^(r+2) hhat, both checked
    against the certified lower end of the height interval.
    """
    if rank < 1:
        raise ValueError("rank must be at least 1")
    h_low = hhat_bar.lower()
    if h_low <= 0.0:
        raise ValueError(
            "minimal box size needs a height interval bounded away from zero"
        )
    c_high = z_size_constant(cfg).upper()
    logm0_high = log_abs(cfg.m0).upper()
    n = 1
    while n * n * h_low < c_high or n ** (rank + 2) * h_low < logm0_high:
        n += 1
        if n > _BOX_SIZE_CAP:
            raise RuntimeError("minimal box size exceeds the supported range")
    return n


def chain_constants(
    cfg: CurveConfig, rank: int, hhat_bar: ApproxReal
) -> ChainConstants:
    return ChainConstants(
        height_factor=height_factor(rank),
        z_factor=z_factor(rank),
        m_factor=m_factor(rank),
        z_constant=z_size_constant(cfg),
        n_min=minimal_box_size(cfg, rank, hhat_bar),
    )


def density_constant(rank: int, hhat_bar: ApproxReal) -> ApproxReal:
    """(K2 * hhat)^(-r/(r+2)), the constant of the representation bound."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    # m_factor(rank) has rank + 5 bits from rank 4 on: refuse one past float
    # range before 2^(rank + 1), which costs time and memory linear in rank
    if rank + 5 > sys.float_info.max_exp:
        raise ValueError(f"a {rank + 5}-bit integer is beyond float range")
    return (ApproxReal.from_int(m_factor(rank)) * hhat_bar).pow_ratio(
        -rank, rank + 2
    )


def representation_bound(rank: int, hhat_upper: float, m: int) -> ApproxReal:
    """(K2 * hhat)^(-r/(r+2)) * (log m)^(r/(r+2)), using the height upper end."""
    if abs(m) == 1:
        return ApproxReal(0.0, 0.0)
    scale = density_constant(rank, ApproxReal.exact(hhat_upper))
    return scale * log_abs(m).pow_ratio(rank, rank + 2)


def index_ranges(rank: int, box_size: int) -> list[range]:
    """The lattice index set I = R_1 x ... x R_r, as its r ranges.

    R_1 = [1..N] and every other R_i is the centred C = [-floor(N/2) ..
    ceil(N/2) - 1], so I has N^r indices with |n_i| <= N.  Since n_1 >= 1,
    I holds neither 0 nor both n and -n, so independent generators give N^r
    distinct points none of which is the identity or the negative of
    another.  Rank 1 is the paper's [1..N].
    """
    centred = range(-(box_size // 2), (box_size + 1) // 2)
    return [range(1, box_size + 1)] + [centred] * (rank - 1)


def generate_lattice_points(
    cfg: CurveConfig, generators: list[CubicPoint], box_size: int
) -> list[tuple[tuple[int, ...], CubicPoint]]:
    """All combinations n_1 P_1 + ... + n_r P_r, n in index_ranges, lex order.

    Callers are expected to have certified the generators independent; any
    collision or identity hit found here proves they were not and raises.
    """
    rank = len(generators)
    if rank < 1:
        raise ValueError("at least one generator is required")
    ranges = index_ranges(rank, checked_box_size(box_size))
    multiples = []
    for p, span in zip(generators, ranges):
        p = CubicPoint.from_triple(*p.triple())
        row = [CUBIC_IDENTITY, p]
        while len(row) <= max(-span.start, span[-1]):
            row.append(cubic_add(cfg, row[-1], p))
        # -cP is cP with x and y swapped
        multiples.append({c: row[c] if c >= 0 else row[-c].neg() for c in span})
    out: list[tuple[tuple[int, ...], CubicPoint]] = []
    seen: dict[CubicPoint, tuple[int, ...]] = {}
    for idx in itertools.product(*ranges):
        q = multiples[0][idx[0]]
        for i in range(1, rank):
            if idx[i]:
                q = cubic_add(cfg, q, multiples[i][idx[i]])
        if q.is_identity:
            raise GeneratorDependenceError(
                f"generators not independent: combination {idx} is the identity"
            )
        if q in seen:
            raise GeneratorDependenceError(
                f"generators not independent: combinations {seen[q]} and "
                f"{idx} collide"
            )
        seen[q] = idx
        out.append((idx, q))
    return out


def height_sum(gram: list[list[ApproxReal]], box_size: int) -> ApproxReal:
    """The summed heights of the lattice points, 1/2 sum_ij G_ij S_ij exactly.

    hhat(sum_i n_i P_i) = 1/2 sum_ij n_i n_j G_ij, since G_ij is the height
    pairing and G_ii = 2 hhat(P_i).  Summed over I = R_1 x ... x R_r, n_i^2
    gives S_ii = N^(r-1) sum_{a in R_i} a^2 and n_i n_j, i != j, gives
    S_ij = N^(r-2) (sum R_i)(sum R_j).
    """
    rank = len(gram)
    ranges = index_ranges(rank, box_size)
    sums = [sum(span) for span in ranges]
    total = ApproxReal(0.0, 0.0)
    for i, span in enumerate(ranges):
        for j in range(rank):
            if i == j:
                s = box_size ** (rank - 1) * sum(a * a for a in span)
            else:
                s = box_size ** (rank - 2) * sums[i] * sums[j]
            total = total + gram[i][j] * ApproxReal.from_int(s)
    return total.ldexp(-1)


def arranged_gram(
    gram: list[list[ApproxReal]], order: tuple[int, ...], signs: tuple[int, ...]
) -> list[list[ApproxReal]]:
    """The Gram matrix of s_1 P_order[0], ..., s_r P_order[r-1].

    The pairing is bilinear, so reordering permutes rows and columns, and
    negating a generator negates its row and column; no height is computed.
    """
    return [
        [gram[a][b] if sa == sb else -gram[a][b] for b, sb in zip(order, signs)]
        for a, sa in zip(order, signs)
    ]


def arrangement(
    gram: list[list[ApproxReal]], box_size: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The generator order and signs that minimise height_sum, at midpoints.

    The first index set R_1 = [1..N] is not centred, so which generator
    takes it matters, and for even N the centred sets sum to -N/2, so the
    signs matter too.  The candidates are the r choices of the first
    generator, the rest kept in their given order, times the 2^(r-1) signs
    with s_1 = +1 (negating all r signs negates every point, which changes
    no z).  Returns (order, signs) for arranged_gram.  A heuristic for the
    smallest m, exact for the summed heights: a strict < keeps the earlier
    candidate on a tie, starting from the given order and signs.
    """
    rank = len(gram)
    best, best_sum = None, math.inf
    for first in range(rank):
        order = (first, *(k for k in range(rank) if k != first))
        for tail in itertools.product((1, -1), repeat=rank - 1):
            signs = (1, *tail)
            candidate = arranged_gram(gram, order, signs)
            total = height_sum(candidate, box_size).value
            if total < best_sum:
                best, best_sum = (order, signs), total
    return best


def product_tree(factors: list[int]) -> int:
    """math.prod(factors), multiplying neighbours level by level.

    Each product pairs factors of about equal size, so the big
    multiplications run at Karatsuba speed instead of one growing product
    times one small factor at a time (Bernstein, "Fast multiplication and
    its applications", 2008).  The result is the same integer.
    """
    level = factors or [1]
    while len(level) > 1:
        paired = [a * b for a, b in zip(level[::2], level[1::2])]
        if len(level) & 1:
            paired.append(level[-1])
        level = paired
    return level[0]


def representations_from_lattice(
    cfg: CurveConfig, lattice: list[tuple[tuple[int, ...], CubicPoint]]
) -> tuple[int, list[tuple[int, int]]]:
    """The manufactured integer m and one representation per lattice point.

    The n-th representation scales (x_n, y_n) by the product of the other
    z's, so its cubes sum to m0 * (prod z)^3 = m exactly.
    """
    z_total = product_tree([q.z for _, q in lattice])
    m = cfg.m0 * z_total**3
    reps = []
    for _, q in lattice:
        f = z_total // q.z
        reps.append((q.x * f, q.y * f))
    return m, reps


CHECK_NAMES = (
    "generators_on_curve",
    "generators_primitive",
    "generators_nontrivial",
    "generators_independent",
    "heights_match",
    "lattice_points_match",
    "lattice_on_curve",
    "lattice_primitive",
    "divisor_divisibility",
    "divisor_bound",
    "divisor_records_match",
    "m_matches_product",
    "representations_match_formula",
    "representation_identity",
    "representations_distinct",
    "representation_count",
    "constants_match",
    "log_m_consistency",
    "theorem_preconditions",
    "chain_bound",
    "bound_rhs_match",
    "final_inequality",
)


class Certificate(
    namedtuple(
        "Certificate",
        "m0 rank box_size tol generators hhat_bar lattice_points "
        "divisor_checks m representations constants bound_rhs checks",
    )
):
    """One run of the construction: what build returns and verify rechecks.

    generators is a list of CubicPoint, lattice_points a list of
    (index tuple, CubicPoint) pairs, divisor_checks a list of DivisorCheck,
    representations a list of (x, y) pairs, hhat_bar and bound_rhs are
    ApproxReal, and checks maps each name in CHECK_NAMES to its verdict.
    derive and parse_certificate leave checks an empty dict of its own;
    build_certificate and verify_certificate fill it in.
    """

    __slots__ = ()

    @property
    def all_checks_pass(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def derive(
    cfg: CurveConfig, generators: list[CubicPoint], box_size: int, tol: float
) -> tuple[bool, Certificate]:
    """Run the construction once; verify starts here.

    Returns the certified independence verdict and the certificate that
    (m0, generators, N, tol) determine, with no checks: independence, then
    derive_lattice on its Gram matrix.  The generators are taken as given.
    """
    gram, independent = independence(cfg, generators, tol)
    return independent, derive_lattice(cfg, generators, gram, box_size, tol)


def derive_lattice(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    gram: list[list[ApproxReal]],
    box_size: int,
    tol: float,
) -> Certificate:
    """The certificate the generators and their Gram matrix determine.

    hhat_bar is read off the Gram diagonal, which holds 2 hhat(P_i):
    halving is exact, so no height is computed twice, and negating a
    generator leaves the diagonal as it is.  The fields after ``hhat_bar``
    are None when two lattice combinations collide or one is the identity;
    ``constants`` and ``bound_rhs`` are None also when the height interval
    is not bounded away from zero.
    """
    rank = len(generators)
    hhat_bar = reduce(interval_max, (gram[i][i].ldexp(-1) for i in range(rank)))
    divisors = m = reps = constants = bound_rhs = None
    try:
        lattice = generate_lattice_points(cfg, generators, box_size)
    except GeneratorDependenceError:
        lattice = None
    else:
        divisors = [divisor_check(cfg, q) for _, q in lattice]
        m, reps = representations_from_lattice(cfg, lattice)
        if hhat_bar.lower() > 0.0:
            constants = chain_constants(cfg, rank, hhat_bar)
            bound_rhs = representation_bound(rank, hhat_bar.upper(), m)
    return Certificate(
        cfg.m0, rank, box_size, tol, list(generators), hhat_bar, lattice,
        divisors, m, reps, constants, bound_rhs, {},
    )


def _generator_checks(cfg: CurveConfig, gens: list[CubicPoint]) -> dict[str, bool]:
    return {
        "generators_on_curve": bool(gens)
        and all(on_cubic(cfg, *p.triple()) for p in gens),
        "generators_primitive": all(is_primitive(p) for p in gens),
        "generators_nontrivial": all(not p.is_identity for p in gens),
    }


def evaluate_checks(
    cfg: CurveConfig, cert: Certificate, independent: bool, derived: Certificate
) -> dict[str, bool]:
    """Compare a certificate against the one derived from its own inputs.

    ``independent, derived`` is derive(cfg, cert.generators, cert.box_size,
    cert.tol).  Each stored value is compared with its derived counterpart;
    nothing is derived again.  The cube-sum identity of the stored
    representations is proved from the lattice alone: when they equal
    (Z/z_n)(x_n, y_n), m equals m0 Z^3 and every lattice point is on the
    curve, x^3 + y^3 = m holds for each.  A document that fails one of those
    three checks fails the identity too, so no representation is ever cubed
    and the work stays linear in the document.  Returns the full check map
    in CHECK_NAMES order.  A lattice collision or a height interval touching
    zero ends it early with the remaining checks false.
    """
    checks = dict.fromkeys(CHECK_NAMES, False) | _generator_checks(
        cfg, cert.generators
    )
    rank = len(cert.generators)
    checks["generators_independent"] = independent
    checks["heights_match"] = derived.hhat_bar.intersects(cert.hhat_bar)

    lattice = derived.lattice_points
    if lattice is None:
        return checks
    checks["lattice_points_match"] = lattice == cert.lattice_points
    checks["lattice_on_curve"] = all(
        on_cubic(cfg, *q.triple()) for _, q in lattice
    )
    checks["lattice_primitive"] = all(is_primitive(q) for _, q in lattice)

    divisors = derived.divisor_checks
    checks["divisor_divisibility"] = all(d.divisibility_pass for d in divisors)
    checks["divisor_bound"] = all(d.bound_pass for d in divisors)
    checks["divisor_records_match"] = divisors == cert.divisor_checks

    checks["m_matches_product"] = cert.m == derived.m
    checks["representations_match_formula"] = (
        cert.representations == derived.representations
    )
    # the three checks prove the identity: each z_n is nonzero and divides
    # Z = prod z_n, so ((Z/z_n) x_n)^3 + ((Z/z_n) y_n)^3 = m0 Z^3 = m
    checks["representation_identity"] = (
        checks["representations_match_formula"]
        and checks["m_matches_product"]
        and checks["lattice_on_curve"]
    )
    checks["representations_distinct"] = len(set(cert.representations)) == len(
        cert.representations
    )
    checks["representation_count"] = (
        len(cert.representations) == cert.box_size**rank
    )

    constants = derived.constants
    if constants is None:
        return checks
    # every field equal, except that the z_constant intervals need only meet
    z_stored = cert.constants.z_constant
    checks["constants_match"] = constants.z_constant.intersects(
        z_stored
    ) and constants._replace(z_constant=z_stored) == cert.constants

    log_m = log_abs(cert.m)
    log_m_from_parts = log_abs(cfg.m0) + sum(
        (log_abs(q.z) * 3 for _, q in lattice), start=ApproxReal(0.0, 0.0)
    )
    checks["log_m_consistency"] = log_m.intersects(log_m_from_parts)

    checks["theorem_preconditions"] = cert.box_size >= constants.n_min
    chain_rhs = (
        ApproxReal.from_int(constants.m_factor)
        * ApproxReal.from_int(cert.box_size ** (rank + 2))
        * ApproxReal.exact(derived.hhat_bar.upper())
    )
    checks["chain_bound"] = log_m.upper() <= chain_rhs.upper()

    checks["bound_rhs_match"] = derived.bound_rhs.intersects(cert.bound_rhs)
    checks["final_inequality"] = cert.box_size**rank > derived.bound_rhs.upper()
    return checks


def verify_checks(cfg: CurveConfig, cert: Certificate) -> dict[str, bool]:
    """The verifier's check map: screen the document, then derive once.

    Nothing is derived unless the generators are nontrivial primitive curve
    points and the document holds exactly N^r representations, so the work
    is bounded by the size of the document (N is compared with the count
    before N^r is formed).  A failed screen leaves every later check false.
    """
    screen = _generator_checks(cfg, cert.generators)
    checks = dict.fromkeys(CHECK_NAMES, False) | screen
    if not all(screen.values()):
        return checks
    count = len(cert.representations)
    if not (cert.box_size <= count and cert.box_size**cert.rank == count):
        return checks
    return evaluate_checks(
        cfg, cert, *derive(cfg, cert.generators, cert.box_size, cert.tol)
    )


def finite_float(value, what: str) -> float:
    """value as a float if it is a non-bool int or float whose float is
    finite; anything else is a ValueError that names what."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, not {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of float range") from None
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number")
    return x


def checked_tol(tol) -> float:
    """The tolerance as a float, under the one rule build and parse share.

    tol must pass finite_float and be positive; anything else is a
    ValueError.  A float needs only the range test, which NaN and inf fail
    with the message zero gets.
    """
    x = float(tol) if isinstance(tol, float) else finite_float(tol, "tol")
    if not 0.0 < x < math.inf:
        raise ValueError("tol must be positive and finite")
    return x


def checked_box_size(box_size) -> int:
    """The box size N under the one rule build and parse share.

    N must be an int, not a bool, and at least 1; anything else is a
    ValueError.  The parser reads a hex string to its int first.
    """
    if isinstance(box_size, bool) or not isinstance(box_size, int):
        raise ValueError(f"N must be an integer, not {type(box_size).__name__}")
    if box_size < 1:
        raise ValueError("N must be at least 1")
    return box_size


def build_certificate(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    box_size: int,
    tol: float = 1e-3,
) -> Certificate:
    """Run the construction and return a fully checked certificate.

    The generators are arranged first: with (order, signs) from
    arrangement(G, N), the certificate records s_1 P_order[0], ...,
    s_r P_order[r-1], from which verify derives as from any other.  The
    heights are computed once: hhat(-P) = hhat(P) and the pairing is
    bilinear, so the arranged Gram matrix is G with rows and columns
    permuted and negated, and the independence verdict, a determinant's
    sign, is unchanged.

    Raises ValueError for unusable inputs, among them a box size that
    checked_box_size refuses and a tol that checked_tol refuses, both
    before any height is computed; GeneratorDependenceError when the
    generators cannot be certified independent at this tolerance; and lets
    PrecisionBudgetError from the height engine propagate.
    """
    box_size = checked_box_size(box_size)
    tol = checked_tol(tol)
    failed = [k for k, ok in _generator_checks(cfg, generators).items() if not ok]
    if failed:
        raise ValueError(f"unusable generators: {', '.join(failed)} failed")
    gram, independent = independence(cfg, generators, tol)
    if not independent:
        raise GeneratorDependenceError(
            "generators not certified independent at this tolerance"
        )
    order, signs = arrangement(gram, box_size)
    arranged_generators = [
        generators[k] if sk > 0 else generators[k].neg()
        for k, sk in zip(order, signs)
    ]
    gram = arranged_gram(gram, order, signs)
    cert = derive_lattice(cfg, arranged_generators, gram, box_size, tol)
    return cert._replace(checks=evaluate_checks(cfg, cert, independent, cert))
