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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce

from .curves import (
    CubicPoint,
    CurveConfig,
    INFINITY,
    add,
    from_weierstrass,
    is_primitive,
    on_cubic,
    to_weierstrass,
)
from .heights import canonical_height, independence
from .numeric import ApproxReal, interval_max, log_abs

_TWO_THIRDS = ApproxReal.from_fraction(Fraction(2, 3))
_FIVE_HALVES = ApproxReal.from_fraction(Fraction(5, 2))
_HALF = ApproxReal.from_fraction(Fraction(1, 2))
_THIRD = ApproxReal.from_fraction(Fraction(1, 3))

_BOX_SIZE_CAP = 1_000_000


class GeneratorDependenceError(Exception):
    """The supplied generators fail a certified independence requirement."""


@dataclass(frozen=True)
class DivisorCheck:
    """Result of the gcd control for one lattice point.

    d = gcd(12 m0 z, x + y) with cofactors a, b satisfying d a = 12 m0 z and
    d b = x + y.  divisibility_pass checks d^2 | 3 * 12^3 * m0^2 * b, and
    bound_pass checks d < 3^(1/3) * 12 * |m0|^(5/2) * z^(1/2), decided
    exactly as d^6 < 9 * 12^6 * |m0|^15 * z^3.  ``bound`` is an interval
    enclosure of the right side for reporting.
    """

    d: int
    a: int
    b: int
    divisibility_pass: bool
    bound_pass: bool
    bound: ApproxReal


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
    bound = (
        log_abs(3) * _THIRD
        + log_abs(12)
        + log_abs(cfg.m0) * _FIVE_HALVES
        + log_abs(p.z) * _HALF
    ).exp()
    return DivisorCheck(d, a, b, divisibility, bound_ok, bound)


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


@dataclass(frozen=True)
class ChainConstants:
    """Rank-dependent constants of the construction, plus the minimal box."""

    rank: int
    height_factor: int
    z_factor: int
    m_factor: int
    z_constant: ApproxReal
    n_min: int


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
    gens_w = [to_weierstrass(cfg, p) for p in generators]
    multiples = []
    for w in gens_w:
        row = [INFINITY, w]
        for _ in range(2, box_size + 1):
            row.append(add(cfg, row[-1], w))
        multiples.append(row)
    out: list[tuple[tuple[int, ...], CubicPoint]] = []
    seen: dict[CubicPoint, tuple[int, ...]] = {}
    for idx in itertools.product(range(1, box_size + 1), repeat=rank):
        acc = INFINITY
        for i, n in enumerate(idx):
            acc = add(cfg, acc, multiples[i][n])
        if acc.is_infinity:
            raise GeneratorDependenceError(
                f"generators not independent: combination {idx} is the identity"
            )
        q = from_weierstrass(cfg, acc)
        if q in seen:
            raise GeneratorDependenceError(
                f"generators not independent: combinations {seen[q]} and "
                f"{idx} collide"
            )
        seen[q] = idx
        out.append((idx, q))
    return out


def representations_from_lattice(
    cfg: CurveConfig, lattice: list[tuple[tuple[int, ...], CubicPoint]]
) -> tuple[int, list[tuple[int, int]]]:
    """The manufactured integer m and one representation per lattice point.

    The n-th representation scales (x_n, y_n) by the product of the other
    z's, so its cubes sum to m0 * (prod z)^3 = m exactly.
    """
    z_total = math.prod(q.z for _, q in lattice)
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


@dataclass
class Certificate:
    """Everything needed to recheck one run of the construction."""

    m0: int
    rank: int
    box_size: int
    tol: float
    generators: list[CubicPoint]
    hhat_bar: ApproxReal
    lattice_points: list[tuple[tuple[int, ...], CubicPoint]]
    divisor_checks: list[DivisorCheck]
    m: int
    representations: list[tuple[int, int]]
    constants: ChainConstants
    bound_rhs: ApproxReal
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def _failed_checks(done: dict[str, bool]) -> dict[str, bool]:
    out = {name: False for name in CHECK_NAMES}
    out.update(done)
    return {name: out[name] for name in CHECK_NAMES}


@dataclass(frozen=True)
class Derivation:
    """Everything (m0, generators, N, tol) determine, derived once per process.

    The fields after ``hhat_bar`` are None when two box combinations collide
    or one is the identity; ``constants`` and ``bound_rhs`` are None also
    when the height interval is not bounded away from zero.
    """

    independent: bool
    hhat_bar: ApproxReal
    lattice: list[tuple[tuple[int, ...], CubicPoint]] | None = None
    divisors: list[DivisorCheck] | None = None
    m: int | None = None
    representations: list[tuple[int, int]] | None = None
    constants: ChainConstants | None = None
    bound_rhs: ApproxReal | None = None


def derive(
    cfg: CurveConfig, generators: list[CubicPoint], box_size: int, tol: float
) -> Derivation:
    """Run the construction once; build and verify both start here.

    hhat_bar is read off the Gram diagonal of the independence certificate,
    which holds 2 hhat(P_i): halving is exact, so no height is computed twice.
    """
    rank = len(generators)
    gram, independent = independence(
        cfg, [to_weierstrass(cfg, p) for p in generators], tol
    )
    hhat_bar = reduce(
        interval_max, (gram.entries[i][i].ldexp(-1) for i in range(rank))
    )
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


def _record_matches(got, want, interval: str) -> bool:
    """Equal field by field, except that the named intervals need only meet."""
    mine, theirs = getattr(got, interval), getattr(want, interval)
    return replace(got, **{interval: theirs}) == want and mine.intersects(theirs)


def evaluate_checks(
    cfg: CurveConfig, cert: Certificate, derived: Derivation
) -> dict[str, bool]:
    """Compare a certificate against the derivation from its own inputs.

    ``derived`` is derive(cfg, cert.generators, cert.box_size, cert.tol).
    Each stored value is compared with its derived counterpart, and the
    exact claims (points on the curve, the cube-sum identity of every stored
    representation) are tested on the stored data; nothing is derived again.
    Returns the full ordered check map.  A lattice collision or a height
    interval touching zero ends it early with the remaining checks false.
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
    checks["divisor_records_match"] = len(divisors) == len(
        cert.divisor_checks
    ) and all(
        _record_matches(got, want, "bound")
        for got, want in zip(divisors, cert.divisor_checks)
    )

    checks["m_matches_product"] = cert.m == derived.m
    checks["representations_match_formula"] = (
        cert.representations == derived.representations
    )
    checks["representation_identity"] = all(
        x**3 + y**3 == cert.m for x, y in cert.representations
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
    checks["constants_match"] = _record_matches(
        constants, cert.constants, "z_constant"
    )

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
    cert.checks = evaluate_checks(cfg, cert, derived)
    return cert


def lattice_height_bound_check(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    box_size: int,
    tol: float = 1e-3,
) -> bool:
    """Certify hhat(Q_n) <= A N^2 hhat for every box combination.

    A is the height factor 3 * 2^(r-1) - 2.  The check passes when no
    lattice point refutes the inequality after error propagation.
    """
    rank = len(generators)
    gens_w = [to_weierstrass(cfg, p) for p in generators]
    heights = [canonical_height(cfg, w, tol) for w in gens_w]
    hhat_bar = reduce(interval_max, heights)
    bound = (
        ApproxReal.from_int(height_factor(rank) * box_size * box_size)
        * hhat_bar
    )
    for _, q in generate_lattice_points(cfg, generators, box_size):
        hq = canonical_height(cfg, to_weierstrass(cfg, q), tol)
        if hq.lower() > bound.upper():
            return False
    return True
