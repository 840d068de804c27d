"""The inner loops of construct as they were before they were flattened,
kept as references.

Each function here computes what a package kernel computes, the plain way:

- hessian_sum_monomials, the first addition formulas of curves.cubic_add
  as eighteen multiplications of monomials (cubic_add takes twelve);
- lattice_points, one reduce(cubic_add) over each index's table terms.
  construct.generate_lattice_points also adds with cubic_add, one term at
  a time, so this is no un-inlined twin of it: it is the reference for
  the order of the fold and for the GeneratorDependenceError messages;
- index_set, one fsum per candidate over the filtered (2N+1)^r box
  (construct.index_set maps over coordinate columns);
- good_height, Tate's series with an ApproxReal per term
  (heights._good_height adds values and radii as floats).

The tests compare each kernel with its reference; none of these is on a
production path.
"""

from __future__ import annotations

import itertools
import math
from functools import partial, reduce

from cubeforge.construct import GeneratorDependenceError
from cubeforge.curves import CUBIC_IDENTITY, CubicPoint, cubic_add
from cubeforge.heights import _TAIL, _fixed_point_error
from cubeforge.numeric import ApproxReal, icbrt, log_abs


def hessian_sum_monomials(p, q) -> tuple[int, int, int]:
    x1, y1, z1 = p
    x2, y2, z2 = q
    return (
        y1 * y1 * x2 * z2 - y2 * y2 * x1 * z1,
        x1 * x1 * y2 * z2 - x2 * x2 * y1 * z1,
        z1 * z1 * x2 * y2 - z2 * z2 * x1 * y1,
    )


def lattice_points(cfg, generators, indices):
    multiples = []
    for i, p in enumerate(generators):
        top = max((abs(n[i]) for n in indices), default=0)
        row = [CUBIC_IDENTITY, CubicPoint.from_triple(*p.triple())]
        while len(row) <= top:
            row.append(cubic_add(cfg, row[-1], row[1]))
        multiples.append(row[: top + 1] + [q.neg() for q in row[top:0:-1]])
    add = partial(cubic_add, cfg)
    out = []
    seen = {}
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


def index_set(gram, box_size):
    rank = len(gram)
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


def good_height(c: int, a: int, d: int, tol: float) -> ApproxReal:
    terms = 0
    while math.ldexp(_TAIL, -2 * terms) > 0.5 * tol:
        terms += 1
    err = _fixed_point_error(c, terms)
    bits = max(8, math.ceil(math.log2(err) - math.log2(tol)) + 3)
    one = 1 << bits
    t_max = icbrt((1 << 3 * bits) // c)[0]
    t = min((d << bits) // a, t_max)
    series = ApproxReal(0.0)
    for k in range(terms):
        u = (c * t * t * t) >> (2 * bits)
        z = one + 8 * u
        series += ApproxReal.from_ratio(z, one).log().ldexp(-2 * k)
        t = min((4 * t * (one - u)) // z, t_max)
    e_fp = ApproxReal.from_int(err).ldexp(-bits).upper()
    tail = math.ldexp(_TAIL, -2 * terms)
    return (
        log_abs(a).ldexp(-1)
        + series.ldexp(-3)
        + ApproxReal.from_endpoints(-e_fp, tail + e_fp)
    )
