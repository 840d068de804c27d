"""Manufacture integers with many sum-of-two-cubes representations.

Starting from r independent points P_1 ... P_r on x^3 + y^3 = m0 z^3 and a
box size N, form every lattice combination Q_n = n_1 P_1 + ... + n_r P_r for
n in [1..N]^r.  Each Q_n is a primitive triple (x_n, y_n, z_n), and

    m = m0 * (z_1 * ... * z_{N^r})^3

is a sum of two coprime cubes in at least N^r ways: scale the n-th point by
the product of all the other z's.  The certificate records the lattice, the
representations, a divisor check controlling gcd(12 m0 z, x + y) for every
lattice point, and the height bookkeeping that bounds log m and yields the
final density inequality N^r > (K2 * hhat)^(-r/(r+2)) * (log m)^(r/(r+2)).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
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

_TWO_THIRDS = ApproxReal.from_fraction(Fraction(2, 3))

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
    """Every box combination has hhat(Q_n) <= (3 * 2^(r-1) - 2) N^2 hhat."""
    return 3 * 2 ** (rank - 1) - 2


def z_factor(rank: int) -> int:
    """Summed z sizes obey sum log z <= (3 * 2^(r+1) - 7) N^(r+2) hhat."""
    return 3 * 2 ** (rank + 1) - 7


def m_factor(rank: int) -> int:
    """log m <= (9 * 2^(r+1) - 20) N^(r+2) hhat once N is large enough."""
    return 9 * 2 ** (rank + 1) - 20


class ChainConstants(
    namedtuple(
        "ChainConstants",
        "rank height_factor z_factor m_factor z_constant n_min",
    )
):
    """Rank-dependent constants of the construction, plus the minimal box.

    z_constant is an ApproxReal; the other fields are ints.
    """

    __slots__ = ()


def minimal_box_size(cfg: CurveConfig, rank: int, hhat_bar: ApproxReal) -> int:
    """Smallest N whose box absorbs the curve constants.

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
        rank=rank,
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
    return (ApproxReal.from_int(m_factor(rank)) * hhat_bar).pow_ratio(
        -rank, rank + 2
    )


def representation_bound(rank: int, hhat_upper: float, m: int) -> ApproxReal:
    """(K2 * hhat)^(-r/(r+2)) * (log m)^(r/(r+2)), using the height upper end."""
    if abs(m) == 1:
        return ApproxReal(0.0, 0.0)
    scale = density_constant(rank, ApproxReal.exact(hhat_upper))
    return scale * log_abs(m).pow_ratio(rank, rank + 2)


def generate_lattice_points(
    cfg: CurveConfig, generators: list[CubicPoint], box_size: int
) -> list[tuple[tuple[int, ...], CubicPoint]]:
    """All combinations n_1 P_1 + ... + n_r P_r, n in [1..N]^r, lex order.

    Callers are expected to have certified the generators independent; any
    collision or identity hit found here proves they were not and raises.
    """
    rank = len(generators)
    if rank < 1:
        raise ValueError("at least one generator is required")
    if box_size < 1:
        raise ValueError("box size must be at least 1")
    multiples = []
    for p in generators:
        p = CubicPoint.from_triple(*p.triple())
        row = [CUBIC_IDENTITY, p]
        for _ in range(2, box_size + 1):
            row.append(cubic_add(cfg, row[-1], p))
        multiples.append(row)
    out: list[tuple[tuple[int, ...], CubicPoint]] = []
    seen: dict[CubicPoint, tuple[int, ...]] = {}
    for idx in itertools.product(range(1, box_size + 1), repeat=rank):
        q = multiples[0][idx[0]]
        for i in range(1, rank):
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
        defaults=(None,),
    )
):
    """Everything needed to recheck one run of the construction.

    generators is a list of CubicPoint, lattice_points a list of
    (index tuple, CubicPoint) pairs, divisor_checks a list of DivisorCheck,
    representations a list of (x, y) pairs, hhat_bar and bound_rhs are
    ApproxReal, and checks maps each name in CHECK_NAMES to its verdict.
    Omitted, checks is a fresh empty dict, never one shared by instances.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.checks is not None else self._replace(checks={})

    @property
    def all_checks_pass(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def _failed_checks(done: dict[str, bool]) -> dict[str, bool]:
    out = {name: False for name in CHECK_NAMES}
    out.update(done)
    return {name: out[name] for name in CHECK_NAMES}


class Derivation(
    namedtuple(
        "Derivation",
        "independent hhat_bar lattice divisors m representations constants "
        "bound_rhs",
        defaults=(None,) * 6,
    )
):
    """Everything (m0, generators, N, tol) determine, derived once per process.

    The fields after ``hhat_bar`` are None when two box combinations collide
    or one is the identity; ``constants`` and ``bound_rhs`` are None also
    when the height interval is not bounded away from zero.
    """

    __slots__ = ()


def derive(
    cfg: CurveConfig, generators: list[CubicPoint], box_size: int, tol: float
) -> Derivation:
    """Run the construction once; build and verify both start here.

    hhat_bar is read off the Gram diagonal of the independence certificate,
    which holds 2 hhat(P_i): halving is exact, so no height is computed twice.
    """
    rank = len(generators)
    gram, independent = independence(cfg, generators, tol)
    hhat_bar = reduce(interval_max, (gram[i][i].ldexp(-1) for i in range(rank)))
    try:
        lattice = generate_lattice_points(cfg, generators, box_size)
    except GeneratorDependenceError:
        return Derivation(independent, hhat_bar)
    divisors = [divisor_check(cfg, q) for _, q in lattice]
    m, reps = representations_from_lattice(cfg, lattice)
    constants = bound_rhs = None
    if hhat_bar.lower() > 0.0:
        constants = chain_constants(cfg, rank, hhat_bar)
        bound_rhs = representation_bound(rank, hhat_bar.upper(), m)
    return Derivation(
        independent, hhat_bar, lattice, divisors, m, reps, constants, bound_rhs
    )


def _generator_checks(cfg: CurveConfig, gens: list[CubicPoint]) -> dict[str, bool]:
    return {
        "generators_on_curve": bool(gens)
        and all(on_cubic(cfg, *p.triple()) for p in gens),
        "generators_primitive": all(is_primitive(p) for p in gens),
        "generators_nontrivial": all(not p.is_identity for p in gens),
    }


def evaluate_checks(
    cfg: CurveConfig, cert: Certificate, derived: Derivation
) -> dict[str, bool]:
    """Compare a certificate against the derivation from its own inputs.

    ``derived`` is derive(cfg, cert.generators, cert.box_size, cert.tol).
    Each stored value is compared with its derived counterpart; nothing is
    derived again.  The cube-sum identity of the stored representations is
    proved from the lattice alone: when they equal (Z/z_n)(x_n, y_n), m
    equals m0 Z^3 and every lattice point is on the curve, x^3 + y^3 = m
    holds for each.  A document that fails one of those three checks fails
    the identity too, so no representation is ever cubed and the work stays
    linear in the document.  Returns the full ordered check map.  A lattice
    collision or a height interval touching zero ends it early with the
    remaining checks false.
    """
    checks = _generator_checks(cfg, cert.generators)
    rank = len(cert.generators)
    checks["generators_independent"] = derived.independent
    checks["heights_match"] = derived.hhat_bar.intersects(cert.hhat_bar)

    lattice = derived.lattice
    if lattice is None:
        return _failed_checks(checks)
    checks["lattice_points_match"] = lattice == cert.lattice_points
    checks["lattice_on_curve"] = all(
        on_cubic(cfg, *q.triple()) for _, q in lattice
    )
    checks["lattice_primitive"] = all(is_primitive(q) for _, q in lattice)

    divisors = derived.divisors
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
        return _failed_checks(checks)
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
    return {name: checks[name] for name in CHECK_NAMES}


def verify_checks(cfg: CurveConfig, cert: Certificate) -> dict[str, bool]:
    """The verifier's check map: screen the document, then derive once.

    Nothing is derived unless the generators are nontrivial primitive curve
    points and the document holds exactly N^r representations, so the work
    is bounded by the size of the document (N is compared with the count
    before N^r is formed).  A failed screen returns the partial map.
    """
    checks = _generator_checks(cfg, cert.generators)
    if all(checks.values()):
        count = len(cert.representations)
        checks["representation_count"] = (
            cert.box_size <= count and cert.box_size**cert.rank == count
        )
    if not all(checks.values()):
        return _failed_checks(checks)
    derived = derive(cfg, cert.generators, cert.box_size, cert.tol)
    return evaluate_checks(cfg, cert, derived)


def build_certificate(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    box_size: int,
    tol: float = 1e-3,
) -> Certificate:
    """Run the construction and return a fully checked certificate.

    Raises ValueError for unusable inputs, GeneratorDependenceError when the
    generators cannot be certified independent at this tolerance, and lets
    PrecisionBudgetError from the height engine propagate.
    """
    if box_size < 1:
        raise ValueError("box size must be at least 1")
    failed = [k for k, ok in _generator_checks(cfg, generators).items() if not ok]
    if failed:
        raise ValueError(f"unusable generators: {', '.join(failed)} failed")
    derived = derive(cfg, generators, box_size, tol)
    if not derived.independent:
        raise GeneratorDependenceError(
            "generators not certified independent at this tolerance"
        )
    cert = Certificate(
        m0=cfg.m0,
        rank=len(generators),
        box_size=box_size,
        tol=tol,
        generators=list(generators),
        hhat_bar=derived.hhat_bar,
        lattice_points=derived.lattice,
        divisor_checks=derived.divisors,
        m=derived.m,
        representations=derived.representations,
        constants=derived.constants,
        bound_rhs=derived.bound_rhs,
    )
    return cert._replace(checks=evaluate_checks(cfg, cert, derived))

