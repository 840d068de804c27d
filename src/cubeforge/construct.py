"""Manufacture integers with many sum-of-two-cubes representations.

Starting from r independent points P_1 ... P_r on x^3 + y^3 = m0 z^3 and a
box size N, form the lattice combination Q_n = n_1 P_1 + ... + n_r P_r for
each n in an index set I of N^r indices with every |n_i| <= N, none zero
and no two negatives of each other.  Each Q_n is a primitive triple
(x_n, y_n, z_n), and

    m = m0 * Z^3,  Z = z_1 * ... * z_{N^r},

is a sum of two coprime cubes in at least N^r ways: the n-th is
(Z/z_n) * (x_n, y_n).  A representation is a pure function of m0 and the
lattice, so the certificate records the lattice and m, not the pairs;
Certificate.representations expands them for a consumer on demand
(representations_from_lattice), and build, write and verify never do.  The
certificate also records a divisor check controlling gcd(12 m0 z, x + y)
for every lattice point, and the height bookkeeping that bounds log m and
yields the final density inequality
N^r > (K2 * hhat)^(-r/(r+2)) * (log m)^(r/(r+2)).  That bookkeeping uses
only |n_i| <= N and the count N^r, so it holds for any such I as for the
paper's box [1..N]^r.

log m follows sum_n hhat(Q_n), and hhat(Q_n) = 1/2 n^T G n with G the
height Gram matrix.  build_certificate takes for I the N^r indices of least
height (index_set), which depends on the lattice and not on the order or
signs of the generators, and records the generators as given.  Rank 1 is
the paper's [1..N].

One record, Certificate, carries a run.  derive_lattice computes everything
the inputs (m0, generators, Gram matrix, indices, N, tol) determine and
returns it as a Certificate with no checks.  build_certificate runs
independence once, chooses I from its Gram matrix, runs derive_lattice and
fills in the checks; the verifier screens the stored indices
(index_set_screen), runs independence and derive_lattice over them, never
choosing again, and compares field by field.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from functools import partial, reduce

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
    f(r) = 2 f(r-1) + 2.  A zero n_i only drops a term.  |n_i| <= N is the
    one fact about the index set used, and index_set_screen checks it on
    every stored index before verify computes a height.
    """
    return 3 * 2 ** (rank - 1) - 2


def z_factor(rank: int) -> int:
    """sum log z <= (3 * 2^(r+1) - 7) N^(r+2) hhat over N^r such points.

    Each log z <= 4 hhat(Q_n) + c <= 4 height_factor N^2 hhat + c, and
    c <= N^2 hhat once N >= n_min; summing N^r of them gives the factor
    4 height_factor + 1.  It uses |n_i| <= N, the count N^r, and an index
    set with no zero, no repeat and no pair n, -n, so that the N^r points
    are distinct affine points; verify screens all of these before deriving.
    """
    return 3 * 2 ** (rank + 1) - 7


def m_factor(rank: int) -> int:
    """log m <= (9 * 2^(r+1) - 20) N^(r+2) hhat once N >= n_min.

    log m = log |m0| + 3 sum log z, and log |m0| <= N^(r+2) hhat once
    N >= n_min, so the factor is 3 z_factor + 1.  Like z_factor it needs
    only what verify screens: the count N^r and index_set_screen.
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


def index_set(
    gram: list[list[ApproxReal]], box_size: int
) -> list[tuple[int, ...]]:
    """The N^r indices of least height, in lex order.

    The candidates are the n with every |n_i| <= N whose first nonzero
    coordinate is positive (n > 0 in lex order): one of each pair n, -n, and
    never 0.  One sort ranks them by 1/2 n^T G n at the Gram midpoints,
    computed as the math.fsum of the float terms G_ii n_i^2 and
    2 G_hi (n_h n_i).  Reordering the basis or negating a generator permutes
    those terms or flips the sign of both factors, which leaves every term's
    float as it is, and fsum rounds the exact sum once; so the ranking is the
    lattice's, not the basis's.  Exact ties are broken by index.  Both
    members of a pair n, -n have one height, so the N^r least values give the
    least sum of hhat(Q_n) over any set of N^r indices in the box with no
    zero and no pair.  The sort holds about 2^(r-1) N^r small tuples, some
    42,000 at rank 4, N = 8.  Rank 1 is [1..N].
    """
    rank = len(gram)
    # G_ii on the diagonal and 2 G_hi off it: each term is one float times
    # one integer, n_i^2 or n_h n_i
    terms = [
        (h, i, gram[h][i].value * (1.0 if h == i else 2.0))
        for i in range(rank)
        for h in range(i + 1)
    ]
    zero = (0,) * rank
    ranked = sorted(
        (math.fsum([w * (n[h] * n[i]) for h, i, w in terms]), n)
        for n in itertools.product(range(-box_size, box_size + 1), repeat=rank)
        if n > zero
    )
    return sorted(n for _, n in ranked[: box_size**rank])


def index_set_screen(indices: list[tuple[int, ...]], box_size: int) -> bool:
    """Whether every |n_i| <= N (tested first, so no huge coordinate is
    negated), no index repeats and no n appears with -n, which rules out
    n = 0 too: with N^r indices, all that the chain factors assume."""
    seen = set(indices)
    return (
        all(-box_size <= k <= box_size for n in indices for k in n)
        and len(seen) == len(indices)
        and not any(tuple(-k for k in n) in seen for n in indices)
    )


def generate_lattice_points(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    indices: list[tuple[int, ...]],
) -> list[tuple[tuple[int, ...], CubicPoint]]:
    """The combinations n_1 P_1 + ... + n_r P_r, one per index, in its order.

    One table of multiples per generator reaches the largest |n_i| used, and
    each point adds its nonzero coordinates only: one cubic_add per point at
    rank 2.  The zero index is a ValueError.  A collision or an identity hit
    proves the generators dependent and raises.
    """
    rank = len(generators)
    if rank < 1:
        raise ValueError("at least one generator is required")
    multiples = []
    for i, p in enumerate(generators):
        top = max((abs(n[i]) for n in indices), default=0)
        row = [CUBIC_IDENTITY, CubicPoint.from_triple(*p.triple())]
        while len(row) <= top:
            row.append(cubic_add(cfg, row[-1], row[1]))
        # read with negative keys from the end: -cP is cP with x and y swapped
        multiples.append(row[: top + 1] + [q.neg() for q in row[top:0:-1]])
    add = partial(cubic_add, cfg)
    out: list[tuple[tuple[int, ...], CubicPoint]] = []
    seen: dict[CubicPoint, tuple[int, ...]] = {}
    for idx in indices:
        terms = [row[k] for row, k in zip(multiples, idx) if k]
        if not terms:
            raise ValueError("the zero index names no lattice point")
        q = reduce(add, terms)
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
    lattice: list[tuple[tuple[int, ...], CubicPoint]],
) -> list[tuple[int, int]]:
    """One representation of m = m0 Z^3 per lattice point, in its order.

    The n-th scales (x_n, y_n) by Z/z_n, the product of the other z's, so
    its cubes sum to m0 Z^3 = m exactly.  Each coordinate is about as long
    as Z, so the pairs together are about 2N^r/3 times as long as m; in the
    package only Certificate.representations calls this.
    """
    z_total = product_tree([q.z for _, q in lattice])
    reps = []
    for _, q in lattice:
        f = z_total // q.z
        reps.append((q.x * f, q.y * f))
    return reps


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
        "divisor_checks m constants bound_rhs checks",
    )
):
    """One run of the construction: what build returns and verify rechecks.

    generators is a list of CubicPoint, lattice_points a list of
    (index tuple, CubicPoint) pairs, divisor_checks a list of DivisorCheck,
    hhat_bar and bound_rhs are ApproxReal, and checks maps each name in
    CHECK_NAMES to its verdict.  derive_lattice and parse_certificate leave
    checks an empty dict of its own; build_certificate and
    verify_certificate fill it in.
    """

    __slots__ = ()

    @property
    def all_checks_pass(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    @property
    def representations(self) -> list[tuple[int, int]] | None:
        """The (x, y) pairs with x^3 + y^3 = m, one per lattice point,
        expanded afresh on each read; None when there is no lattice."""
        if self.lattice_points is None:
            return None
        return representations_from_lattice(self.lattice_points)


def derive_lattice(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    gram: list[list[ApproxReal]],
    indices: list[tuple[int, ...]],
    box_size: int,
    tol: float,
) -> Certificate:
    """The certificate the generators and their Gram matrix determine.

    hhat_bar is read off the Gram diagonal, which holds 2 hhat(P_i):
    halving is exact, so no height is computed twice.  The fields after
    ``hhat_bar`` are None when two lattice combinations collide or one is
    the identity; ``constants`` and ``bound_rhs`` are None also when the
    height interval is not bounded away from zero.
    """
    rank = len(generators)
    hhat_bar = reduce(interval_max, (gram[i][i].ldexp(-1) for i in range(rank)))
    divisors = m = constants = bound_rhs = None
    try:
        lattice = generate_lattice_points(cfg, generators, indices)
    except GeneratorDependenceError:
        lattice = None
    else:
        divisors = [divisor_check(cfg, q) for _, q in lattice]
        m = cfg.m0 * product_tree([q.z for _, q in lattice]) ** 3
        if hhat_bar.lower() > 0.0:
            constants = chain_constants(cfg, rank, hhat_bar)
            bound_rhs = representation_bound(rank, hhat_bar.upper(), m)
    return Certificate(
        cfg.m0, rank, box_size, tol, list(generators), hhat_bar, lattice,
        divisors, m, constants, bound_rhs, {},
    )


def _generator_checks(cfg: CurveConfig, gens: list[CubicPoint]) -> dict[str, bool]:
    return {
        "generators_on_curve": bool(gens)
        and all(on_cubic(cfg, *p.triple()) for p in gens),
        "generators_primitive": all(is_primitive(p) for p in gens),
        "generators_nontrivial": all(not p.is_identity for p in gens),
    }


def evaluate_checks(
    cfg: CurveConfig,
    cert: Certificate,
    generator_checks: dict[str, bool],
    independent: bool,
    derived: Certificate,
) -> dict[str, bool]:
    """Compare a certificate against the one derived from its own inputs.

    ``generator_checks`` is _generator_checks of cert.generators, computed
    once by the caller, which screens on it; ``independent`` is the verdict
    of independence on them, and ``derived`` is derive_lattice over its Gram
    matrix and the stored indices.  Each stored value is compared with its
    derived counterpart; nothing is derived again.  The representations
    (Z/z_n)(x_n, y_n) are never formed: their four checks read the stored
    triples they expand from.  The cube-sum identity is proved from the
    lattice alone: when the stored triples are the derived ones, m equals
    m0 Z^3 and every lattice point is on the curve, x^3 + y^3 = m holds for
    each pair.  A document that fails one of those three checks fails the
    identity too, so nothing is cubed beyond the lattice and the work stays
    linear in the document.  Returns the full check map in CHECK_NAMES
    order.  A lattice collision or a height interval touching zero ends it
    early with the remaining checks false.
    """
    checks = dict.fromkeys(CHECK_NAMES, False) | generator_checks
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
    # the representations are (Z/z_n)(x_n, y_n), expanded from the stored
    # triples, so the four checks on them read the triples
    stored = [q for _, q in cert.lattice_points]
    checks["representations_match_formula"] = stored == [q for _, q in lattice]
    # the three checks prove the identity: each z_n is nonzero and divides
    # Z = prod z_n, so ((Z/z_n) x_n)^3 + ((Z/z_n) y_n)^3 = m0 Z^3 = m
    checks["representation_identity"] = (
        checks["representations_match_formula"]
        and checks["m_matches_product"]
        and checks["lattice_on_curve"]
    )
    # derived triples are primitive with z > 0, so distinct triples give
    # distinct pairs
    checks["representations_distinct"] = len(set(stored)) == len(stored)
    checks["representation_count"] = len(stored) == cert.box_size**rank

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
    points, the document holds exactly N^r lattice entries, and their
    indices pass index_set_screen, so the work is bounded by the size of
    the document (N is compared with the entry count before N^r is
    formed).  The indices are read, never chosen again.  A failed
    screen leaves every later check false without evaluating it: false
    means not established, so generators_independent is false there
    whatever the generators are.
    """
    screen = _generator_checks(cfg, cert.generators)
    checks = dict.fromkeys(CHECK_NAMES, False) | screen
    box_size = cert.box_size
    indices = [idx for idx, _ in cert.lattice_points]
    if not (
        all(screen.values())
        and box_size <= len(indices)
        and box_size**cert.rank == len(indices)
        and index_set_screen(indices, box_size)
    ):
        return checks
    gram, independent = independence(cfg, cert.generators, cert.tol)
    derived = derive_lattice(
        cfg, cert.generators, gram, indices, box_size, cert.tol
    )
    return evaluate_checks(cfg, cert, screen, independent, derived)


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

    The generators are recorded as given, and the lattice runs over
    index_set(G, N), chosen from the Gram matrix that independence already
    computed, so every height is computed once.

    Raises ValueError for unusable inputs, among them a box size that
    checked_box_size refuses and a tol that checked_tol refuses, both
    before any height is computed; GeneratorDependenceError when the
    generators cannot be certified independent at this tolerance; and lets
    PrecisionBudgetError from the height engine propagate.
    """
    box_size = checked_box_size(box_size)
    tol = checked_tol(tol)
    screen = _generator_checks(cfg, generators)
    failed = [k for k, ok in screen.items() if not ok]
    if failed:
        raise ValueError(f"unusable generators: {', '.join(failed)} failed")
    gram, independent = independence(cfg, generators, tol)
    if not independent:
        raise GeneratorDependenceError(
            "generators not certified independent at this tolerance"
        )
    cert = derive_lattice(
        cfg, generators, gram, index_set(gram, box_size), box_size, tol
    )
    return cert._replace(
        checks=evaluate_checks(cfg, cert, screen, independent, cert)
    )
