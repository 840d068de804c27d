"""Manufacture integers with many sum-of-two-cubes representations.

Starting from r independent points P_1 ... P_r on x^3 + y^3 = m0 z^3 and a
box size N, form the lattice combination Q_n = n_1 P_1 + ... + n_r P_r for
each n in an index set I of N^r indices with every |n_i| <= N, none zero
and no two negatives of each other.  Each sum is formed by curves.cubic_add,
the package's one group law, so each Q_n is a primitive triple
(x_n, y_n, z_n) in the normal form of CubicPoint.from_triple, and

    m = m0 * Z^3,  Z = z_1 * ... * z_{N^r},

is a sum of two coprime cubes in at least N^r ways: the n-th is
(Z/z_n) * (x_n, y_n).  m and every representation are pure functions of m0
and the lattice, so the certificate records the lattice and Z, not m or the
pairs: Certificate.m forms m0 Z^3 and Certificate.representations expands
the pairs from Z (representations_from_lattice) for a consumer on demand,
and build, write and verify never raise Z to a power.  The exact claim
m = m0 Z^3 is the comparison of the stored Z with the derived product, and
every bound on log m reads log |m0| + 3 log Z.  The certificate records
nothing else that the lattice and the inputs determine: evaluate_checks
computes d = gcd(12 m0 z, x + y) of every lattice point, from which it
decides the paper's two divisor lemmas, and the height bookkeeping that
bounds log m and yields the final density inequality
N^r > (K2 * hhat)^(-r/(r+2)) * (log m)^(r/(r+2)).  That bookkeeping uses
only |n_i| <= N and the count N^r, so it holds for any such I as for the
paper's box [1..N]^r.

log m follows sum_n hhat(Q_n), and hhat(Q_n) = 1/2 n^T G n with G the
height Gram matrix.  build_certificate takes for I the N^r indices of least
height (index_set), which depends on the lattice and not on the order or
signs of the generators, and records the generators as given.  Rank 1 is
the paper's [1..N].

One record, Certificate, carries a run: the inputs, hhat_bar, the lattice
and Z.  derive_lattice computes the lattice and Z from the inputs
(m0, generators, Gram matrix, indices, N, tol) and returns them as a
Certificate with no checks.  build_certificate runs independence once,
chooses I from its Gram matrix, runs derive_lattice and fills in the
checks.  The verifier screens the stored indices (index_set_screen), never
choosing them again, and runs independence.  Then it checks each stored
triple Q against the two terms A, B that build adds (lattice_terms) by
the chord rule, A, B and -Q collinear (lattice_proved_by_chords), and
takes the stored lattice as the derived one when that proof holds and
lattice_on_curve and lattice_primitive, its premises, hold on the stored
triples; otherwise it runs derive_lattice over the stored indices.  Either
way it compares field by field, and the check map is the one derivation
gives.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from functools import reduce
from operator import add, eq, itemgetter, le, lt, mod, mul, neg, not_

from .curves import (
    CUBIC_IDENTITY,
    CubicPoint,
    CurveConfig,
    chord_sums,
    cubic_add,
    is_primitive,
    on_cubic,
)
from .heights import independence
from .numeric import ApproxReal, interval_max, log_abs

_TWO_THIRDS = ApproxReal.from_ratio(2, 3)


class GeneratorDependenceError(Exception):
    """The supplied generators fail a certified independence requirement."""


def divisor_records(cfg: CurveConfig, points: list[CubicPoint]) -> list[int]:
    """d = gcd(12 m0 z, x + y) of each affine point, in order.

    12 m0 depends on the curve alone, so it is formed once for all the
    points, and the gcds are one map over the coordinate columns.  No d is
    stored: evaluate_checks computes them from the derived triples, and a
    consumer divides for the cofactors 12 m0 z / d and (x + y) / d.  A
    point with z = 0 is a ValueError.
    """
    xs, ys, zs = _columns(points, 3)
    if 0 in zs:
        raise ValueError("divisor check applies to affine points only")
    return list(map(math.gcd, map(mul, itertools.repeat(12 * cfg.m0), zs),
                    map(add, xs, ys)))


def _columns(rows, width: int) -> list:
    """The columns of rows, width empty ones when there are no rows."""
    return list(zip(*rows)) or [()] * width


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


def minimal_box_size(z_constant: ApproxReal, hhat_bar: ApproxReal) -> int:
    """Smallest N whose index set absorbs the curve constants.

    N must satisfy c <= N^2 hhat and log |m0| <= N^(r+2) hhat, decided at
    the lower end h = p/q of hhat and the upper end cn/cd of c, each float
    read as its as_integer_ratio.  The first is N^2 >= k with
    k = ceil(cn q / (cd p)), so N = isqrt(k - 1) + 1; k >= 1 since c > 0.
    The second follows from the first.  z_constant encloses
    c = (2/3) h(b) + 5.92 + (2/3) log 3 + 3 log |m0|, and h(b) = log |b| > 0,
    so c.upper() >= c >= 3 log |m0| + 5.92.  log_abs(m0).upper() exceeds
    log |m0| >= 0 by at most twice its radius and an ulp, under
    1e-13 + 3e-15 log |m0|, so it lies below c.upper().  Hence
    N^(r+2) h >= N^2 h >= c.upper() > log_abs(m0).upper() for every rank
    r >= 0, and no rank is needed.
    """
    h_low = hhat_bar.lower()
    if h_low <= 0.0:
        raise ValueError(
            "minimal box size needs a height interval bounded away from zero"
        )
    p, q = h_low.as_integer_ratio()
    cn, cd = z_constant.upper().as_integer_ratio()
    k = -(-cn * q // (cd * p))
    return math.isqrt(k - 1) + 1


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


def log_m(m0: int, z_total: int) -> ApproxReal:
    """An enclosure of log |m| for m = m0 Z^3, without forming m: the sum
    log |m0| + 3 log |Z|, one log_abs each."""
    return log_abs(m0) + log_abs(z_total) * 3


def index_set(
    gram: list[list[ApproxReal]], box_size: int
) -> list[tuple[int, ...]]:
    """The N^r indices of least height, in lex order.

    The candidates are the n with every |n_i| <= N whose first nonzero
    coordinate is positive (n > 0 in lex order): one of each pair n, -n, and
    never 0.  They are generated lead coordinate by lead coordinate, the
    last lead first, so the list is in lex order and nothing is filtered.
    One sort ranks them by 1/2 n^T G n at the Gram midpoints, computed as
    the math.fsum of the float terms G_ii n_i^2 and 2 G_hi (n_h n_i).
    Reordering the basis or negating a generator permutes those terms or
    flips the sign of both factors, which leaves every term's float as it
    is, and fsum rounds the exact sum once; so the ranking is the
    lattice's, not the basis's.  The sort is stable on the lex-ordered
    list, so exact ties are broken by index.  Both members of a pair n, -n
    have one height, so the N^r least values give the least sum of
    hhat(Q_n) over any set of N^r indices in the box with no zero and no
    pair.  Each term is a lazy C-level map over the coordinate columns,
    and one map of fsum over their rows gives the keys, so no Python code
    runs per candidate and no term is stored.  There are about
    2^(r-1) N^r candidates, some 42,000 at rank 4, N = 8.  Rank 1 is
    [1..N].
    """
    rank = len(gram)
    side = range(-box_size, box_size + 1)
    candidates = list(
        itertools.chain.from_iterable(
            itertools.product(
                *[(0,)] * lead,
                range(1, box_size + 1),
                *[side] * (rank - 1 - lead),
            )
            for lead in reversed(range(rank))
        )
    )
    coords = list(zip(*candidates))
    # G_ii on the diagonal and 2 G_hi off it: each term is one float times
    # one integer, n_i^2 or n_h n_i
    terms = []
    for i in range(rank):
        for h in range(i + 1):
            weight = gram[h][i].value * (1.0 if h == i else 2.0)
            products = map(mul, coords[h], coords[i])
            terms.append(map(mul, itertools.repeat(weight), products))
    keys = list(map(math.fsum, zip(*terms)))
    chosen = sorted(range(len(candidates)), key=keys.__getitem__)
    chosen = sorted(chosen[: box_size**rank])
    return list(map(candidates.__getitem__, chosen))


def index_set_screen(indices: list[tuple[int, ...]], box_size: int) -> bool:
    """Whether every |n_i| <= N (tested first, by min and max over all the
    coordinates, so no huge coordinate is negated), no index repeats and no
    n appears with -n, which rules out n = 0 too: with N^r indices, all
    that the chain factors assume."""
    flat = list(itertools.chain.from_iterable(indices))
    if flat and not (-box_size <= min(flat) and max(flat) <= box_size):
        return False
    seen = set(indices)
    return len(seen) == len(indices) and seen.isdisjoint(
        map(tuple, map(map, itertools.repeat(neg), indices))
    )


def lattice_terms(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    indices: list[tuple[int, ...]],
) -> tuple[list[CubicPoint | None], list[CubicPoint | None]]:
    """Each index's two terms, as two columns: the sum over all its
    coordinates but the last, and n_r P_r, with None for an empty sum or a
    zero n_r.

    One table of multiples per generator reaches the largest |n_i| used,
    and -cP is read from the end of it as cP with x and y swapped.  The
    partial sums are memoized by index prefix, each one prefix shorter plus
    one table entry by cubic_add, so the N^r indices share them: at rank 2
    a partial sum is a table entry, and at rank 4 half the additions of
    adding every point term by term are saved.  A partial sum may be the
    identity.  Every point is the primitive triple cubic_add or from_triple
    gives.  Python runs once per distinct prefix; the columns are C-level
    lookups.  Build adds the two terms (generate_lattice_points); verify
    checks the stored sum against them (lattice_proved_by_chords).
    """
    if not generators:
        raise ValueError("at least one generator is required")
    multiples = []
    for i, p in enumerate(generators):
        top = max(map(abs, map(itemgetter(i), indices)), default=0)
        row = [CUBIC_IDENTITY, CubicPoint.from_triple(*p.triple())]
        while len(row) <= top:
            row.append(cubic_add(cfg, row[-1], row[1]))
        multiples.append(row[: top + 1] + [q.neg() for q in row[top:0:-1]])
    partial: dict[tuple[int, ...], CubicPoint | None] = {(): None}

    def head(prefix):
        if prefix not in partial:
            q, k = head(prefix[:-1]), prefix[-1]
            if k:
                term = multiples[len(prefix) - 1][k]
                q = term if q is None else cubic_add(cfg, q, term)
            partial[prefix] = q
        return partial[prefix]

    # the prefixes are sliced twice, not kept: one tuple per index would
    # stay alive until the columns are built
    prefix = itemgetter(slice(-1))
    for distinct in dict.fromkeys(map(prefix, indices)):
        head(distinct)
    # the last table with None in the place of 0 P
    ends = [None, *multiples[-1][1:]]
    return (
        list(map(partial.__getitem__, map(prefix, indices))),
        list(map(ends.__getitem__, map(itemgetter(-1), indices))),
    )


def generate_lattice_points(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    indices: list[tuple[int, ...]],
) -> list[tuple[tuple[int, ...], CubicPoint]]:
    """The combinations n_1 P_1 + ... + n_r P_r, one per index, in its order.

    Each point adds its two lattice_terms with cubic_add, or is the one
    term it has: one addition per point at rank 2, besides the tables.  So
    every point is the primitive triple cubic_add gives.  The zero index is
    a ValueError.  A collision or an identity hit proves the generators
    dependent and raises.
    """
    out: list[tuple[tuple[int, ...], CubicPoint]] = []
    seen: dict[CubicPoint, tuple[int, ...]] = {}
    for idx, a, b in zip(indices, *lattice_terms(cfg, generators, indices)):
        q = b if a is None else a if b is None else cubic_add(cfg, a, b)
        if q is None:
            raise ValueError("the zero index names no lattice point")
        if q.z == 0:
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


def _bits(points) -> map:
    """The largest coordinate bit length of each point."""
    xs, ys, zs = _columns(points, 3)
    bit_length = int.bit_length
    return map(max, map(bit_length, xs), map(bit_length, ys),
               map(bit_length, zs))


def lattice_proved_by_chords(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    lattice: list[tuple[tuple[int, ...], CubicPoint]],
) -> bool:
    """Whether the stored lattice is the one generate_lattice_points would
    derive over its indices, given that its triples are primitive points of
    the curve (lattice_on_curve and lattice_primitive, which the caller
    decides on them).

    The indices must have passed index_set_screen.  lattice_terms gives each
    entry's terms A and B from the generators, points of the curve in normal
    form.  An entry with one term must equal it.  Every other stored Q is
    screened in this order, each step before the next one's work:
    - size, before any multiplication: cubic_add's formulas are of degree 2
      in A's coordinates and 2 in B's, with m0 in the rotated ones, and the
      gcd only shrinks them, so each coordinate of A + B has at most
      2 (bits A + bits B) + bits |m0| + 2 bits;
    - every stored z > 0 and no two stored triples equal, which the derived
      lattice has, or derivation would raise;
    - Q = A + B by the chord rule (curves.chord_sums), which also needs
      -Q not in {A, B} and A != B.
    With the caller's two premises the stored triples are then the sums
    cubic_add would give, in the same normal form, and the lattice over
    the stored indices is the derived one, so verify need not add.
    """
    indices = list(map(itemgetter(0), lattice))
    heads, lasts = lattice_terms(cfg, generators, indices)
    stored = list(map(itemgetter(1), lattice))
    # entries with both terms; the rest have one, or none for the zero index
    both = list(map(all, zip(heads, lasts)))
    for a, b, q in itertools.compress(
        zip(heads, lasts, stored), map(not_, both)
    ):
        if q != (b if a is None else a):
            return False
    heads = list(itertools.compress(heads, both))
    lasts = list(itertools.compress(lasts, both))
    sums = list(itertools.compress(stored, both))
    sizes = map(add, _bits(heads), _bits(lasts))
    bounds = map(add, map(mul, itertools.repeat(2), sizes),
                 itertools.repeat(abs(cfg.m0).bit_length() + 2))
    return (
        all(map(le, _bits(sums), bounds))
        and min(_columns(stored, 3)[2], default=1) > 0
        and len(set(stored)) == len(stored)
        and chord_sums(heads, lasts, sums)
    )


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
    lattice: list[tuple[tuple[int, ...], CubicPoint]], z_total: int
) -> list[tuple[int, int]]:
    """One representation of m = m0 Z^3 per lattice point, in its order.

    z_total is Z, the product of the lattice's z's, as the certificate
    stores it.  The n-th scales (x_n, y_n) by Z/z_n, the product of the
    other z's, so its cubes sum to m0 Z^3 = m exactly.  Each coordinate is
    about as long as Z, so the pairs together are about 2N^r times as long
    as Z; in the package only Certificate.representations calls this.
    """
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
        "m0 rank box_size tol generators hhat_bar lattice_points Z checks",
    )
):
    """One run of the construction: what build returns and verify rechecks.

    The inputs m0, rank, box_size, tol and generators (a list of
    CubicPoint); hhat_bar, the ApproxReal largest generator height;
    lattice_points, a list of (index tuple, CubicPoint) pairs; Z, the
    product of the lattice's z's; and checks, which maps each name in
    CHECK_NAMES to its verdict.  Everything else the run claims, the
    divisor records, the chain constants and the representation bound, is
    a function of these, and the checks derive it.  derive_lattice and
    parse_certificate leave checks an empty dict of its own;
    build_certificate and verify_certificate fill it in.
    """

    __slots__ = ()

    @property
    def all_checks_pass(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    @property
    def m(self) -> int | None:
        """The manufactured integer m0 Z^3, formed afresh on each read;
        None when there is no lattice."""
        if self.Z is None:
            return None
        return self.m0 * self.Z**3

    @property
    def representations(self) -> list[tuple[int, int]] | None:
        """The (x, y) pairs with x^3 + y^3 = m, one per lattice point,
        expanded from Z afresh on each read; None when there is no
        lattice."""
        if self.lattice_points is None:
            return None
        return representations_from_lattice(self.lattice_points, self.Z)


def derive_lattice(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    gram: list[list[ApproxReal]],
    indices: list[tuple[int, ...]],
    box_size: int,
    tol: float,
) -> Certificate:
    """The certificate the generators and their Gram matrix determine: the
    lattice over the given indices and Z, the product of its z's.

    The lattice and Z are None when two lattice combinations collide or
    one is the identity.
    """
    try:
        lattice = generate_lattice_points(cfg, generators, indices)
    except GeneratorDependenceError:
        lattice = None
    return _with_lattice(cfg, generators, gram, lattice, box_size, tol)


def _with_lattice(
    cfg: CurveConfig,
    generators: list[CubicPoint],
    gram: list[list[ApproxReal]],
    lattice: list[tuple[tuple[int, ...], CubicPoint]] | None,
    box_size: int,
    tol: float,
) -> Certificate:
    """The certificate of this lattice, Z the product of its z's.

    hhat_bar is read off the Gram diagonal, which holds 2 hhat(P_i):
    halving is exact, so no height is computed twice.
    """
    rank = len(generators)
    hhat_bar = reduce(interval_max, (gram[i][i].ldexp(-1) for i in range(rank)))
    z_total = None
    if lattice is not None:
        z_total = product_tree([q.z for _, q in lattice])
    return Certificate(
        cfg.m0, rank, box_size, tol, list(generators), hhat_bar, lattice,
        z_total, {},
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
    matrix and the stored indices, or, in verify_checks, the stored lattice
    itself once the chord proof holds.  Each stored value is compared with
    its derived counterpart; nothing is derived again.  The two divisor lemmas
    are decided on the d's of the derived triples (divisor_records), with
    5184 m0^2 and 9 * 12^6 * |m0|^15 formed once per call:
    d^3 | 5184 m0^2 (x + y) and d^6 < 9 * 12^6 * |m0|^15 * z^3.
    Neither m = m0 Z^3 nor a representation (Z/z_n)(x_n, y_n) is formed:
    m_matches_product compares the stored Z with the derived product of the
    z_n exactly, which is m = m0 Z^3, and the four representation checks
    read the stored triples the pairs expand from.  The cube-sum identity
    is proved from the lattice alone: when the stored triples are the
    derived ones, Z is their product and every lattice point is on the
    curve, x^3 + y^3 = m holds for each pair.  A document that fails one of
    those three checks fails the identity too, so nothing is cubed beyond
    the lattice and the work stays linear in the document.  Every bound
    reads log m as log_m(m0, Z), log |m0| + 3 log Z, from the stored Z, and
    log_m_consistency meets it with log_m of the derived Z, the exact
    product of the derived z_n, so no log is taken per lattice point.  The
    passes over the lattice are C-level maps over the x, y, z and d
    columns, each check still decided on its own: z^3 is formed once for
    the curve equation and the bound.  lattice_on_curve and
    lattice_primitive are independent exact checks of the lattice pass,
    and the premises of verify's chord proof when it takes the stored
    lattice as derived.  The chain constants are m_factor(r) and n_min,
    computed here from m0, r and the derived hhat_bar.  chain_bound and final_inequality
    are one exact comparison on the stored Z: the paper's inequality raised
    to the power (r+2)/r is log m < K N^(r+2) hhat, decided in integers
    with the floats log_m(m0, Z).upper() and hhat_bar.upper() read as their
    integer ratios.  The document stores no d, no constant and no bound, so
    the three checks that compared stored copies, divisor_records_match,
    constants_match and bound_rhs_match, are the verdicts of the checks
    that carry their claims: lattice_points_match, heights_match and the
    chain.  Returns the full check map in CHECK_NAMES order.  A lattice
    collision or a height interval touching zero ends it early with the
    remaining checks false.
    """
    checks = dict.fromkeys(CHECK_NAMES, False) | generator_checks
    rank = len(cert.generators)
    checks["generators_independent"] = independent
    checks["heights_match"] = derived.hhat_bar.intersects(cert.hhat_bar)

    lattice = derived.lattice_points
    if lattice is None:
        return checks
    checks["lattice_points_match"] = lattice == cert.lattice_points
    points = list(map(itemgetter(1), lattice))
    xs, ys, zs = _columns(points, 3)
    repeat = itertools.repeat
    z_cubes = list(map(pow, zs, repeat(3)))
    # x^3 + y^3 = m0 z^3 and (x, y, z) != (0, 0, 0), as on_cubic decides it
    cube_sums = map(add, map(pow, xs, repeat(3)), map(pow, ys, repeat(3)))
    checks["lattice_on_curve"] = all(
        map(eq, cube_sums, map(mul, repeat(cfg.m0), z_cubes))
    ) and (0, 0, 0) not in points
    # is_primitive is gcd 1 and z > 0, or the identity; with every gcd 1
    # and z > 0 nothing is left to read point by point
    checks["lattice_primitive"] = all(
        map(eq, map(math.gcd, xs, ys, zs), repeat(1))
    ) and (min(zs, default=1) > 0 or all(map(is_primitive, points)))

    # the lemmas are the paper's for affine points, which are all that
    # derive_lattice gives: x + y = d b, so d^2 | 5184 m0^2 b iff
    # d^3 | 5184 m0^2 d b = 5184 m0^2 (x + y); and the paper's
    # d < 3^(1/3) 12 |m0|^(5/2) z^(1/2) is d^6 < 9 * 12^6 * |m0|^15 * z^3
    if 0 not in zs:
        divisors = divisor_records(cfg, points)
        square = 5184 * cfg.m0**2
        bound = 9 * 12**6 * abs(cfg.m0) ** 15
        numerators = map(mul, repeat(square), map(add, xs, ys))
        checks["divisor_divisibility"] = not any(
            map(mod, numerators, map(pow, divisors, repeat(3)))
        )
        checks["divisor_bound"] = all(
            map(lt, map(pow, divisors, repeat(6)),
                map(mul, repeat(bound), z_cubes))
        )
    # no d is stored: each is gcd(12 m0 z, x + y) of its triple
    checks["divisor_records_match"] = checks["lattice_points_match"]

    # m = m0 Z^3 on both sides, so equal m is equal Z
    checks["m_matches_product"] = cert.Z == derived.Z
    # the representations are (Z/z_n)(x_n, y_n), expanded from the stored
    # triples, so the four checks on them read the triples; the derived
    # lattice runs over the stored indices, so it equals the stored one
    # exactly when the triples do
    checks["representations_match_formula"] = checks["lattice_points_match"]
    # the three checks prove the identity: each z_n is nonzero and divides
    # Z = prod z_n, so ((Z/z_n) x_n)^3 + ((Z/z_n) y_n)^3 = m0 Z^3 = m
    checks["representation_identity"] = (
        checks["representations_match_formula"]
        and checks["m_matches_product"]
        and checks["lattice_on_curve"]
    )
    # derived triples are primitive with z > 0, so distinct triples give
    # distinct pairs
    stored = list(map(itemgetter(1), cert.lattice_points))
    checks["representations_distinct"] = len(set(stored)) == len(stored)
    checks["representation_count"] = len(stored) == cert.box_size**rank

    if derived.hhat_bar.lower() <= 0.0:
        return checks
    # the constants are functions of m0, r and the derived hhat_bar, which
    # heights_match meets with the stored one
    checks["constants_match"] = checks["heights_match"]

    log_m_stored = log_m(cfg.m0, cert.Z)
    checks["log_m_consistency"] = log_m_stored.intersects(
        log_m(cfg.m0, derived.Z)
    )

    n_min = minimal_box_size(z_size_constant(cfg), derived.hhat_bar)
    checks["theorem_preconditions"] = cert.box_size >= n_min
    # log m < K N^(r+2) hhat_up, with log m's upper end a/b and hhat_up = p/q
    a, b = log_m_stored.upper().as_integer_ratio()
    p, q = derived.hhat_bar.upper().as_integer_ratio()
    chain = a * q < m_factor(rank) * cert.box_size ** (rank + 2) * p * b
    # the bound (K hhat)^(-r/(r+2)) (log m)^(r/(r+2)) < N^r is the chain
    for name in ("chain_bound", "bound_rhs_match", "final_inequality"):
        checks[name] = chain
    return checks


def verify_checks(cfg: CurveConfig, cert: Certificate) -> dict[str, bool]:
    """The verifier's check map: screen the document, then prove the stored
    lattice or derive it.

    Nothing is computed unless the generators are nontrivial primitive curve
    points, the document holds exactly N^r lattice entries, and their
    indices pass index_set_screen, so the work is bounded by the size of
    the document (N is compared with the entry count before N^r is
    formed).  The indices are read, never chosen again.  A failed
    screen leaves every later check false without evaluating it: false
    means not established, so generators_independent is false there
    whatever the generators are.

    Past the screen, independence runs once.  When lattice_proved_by_chords
    accepts the stored lattice, it is taken as the derived one, and its
    proof's premises are two of the checks that evaluate_checks decides on
    it: lattice_on_curve and lattice_primitive.  When both hold, that check
    map is the one derivation would give, and no lattice point is added.
    Otherwise, the screen refused or a premise failed, derive_lattice
    derives the lattice with cubic_add and the checks compare against it,
    so every check map is the derivation's.
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
    if lattice_proved_by_chords(cfg, cert.generators, cert.lattice_points):
        proved = _with_lattice(
            cfg, cert.generators, gram, cert.lattice_points, box_size, cert.tol
        )
        checks = evaluate_checks(cfg, cert, screen, independent, proved)
        if checks["lattice_on_curve"] and checks["lattice_primitive"]:
            return checks
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
