"""Constructors for the named example polytopes and seeded random disguises."""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from . import linalg
from .polytope import Polytope, _array_polytope

# entry bound for random unimodular maps; keeps transformed coordinates
# comfortably below 2**31 for readable test output
_MAP_ENTRY_BOUND = 2**12

# the most vertex entries (n * d) a generator builds; a larger output is
# refused before any row is built
MAX_ENTRIES = 10**8


def _check_size(name: str, param: int, n: int, d: int) -> None:
    if n * d > MAX_ENTRIES:
        raise ValueError(f"{name} {param} would have {n} x {d} vertex entries, "
                         f"more than {MAX_ENTRIES}")


def hexagon() -> Polytope:
    """The smooth Fano hexagon: maximal vertex count in dimension 2."""
    return Polytope(2, ((1, 0), (0, 1), (-1, 1), (1, -1), (-1, 0), (0, -1)))


def pentagon() -> Polytope:
    """The hexagon with vertex (1, -1) removed; still smooth Fano."""
    return Polytope(2, ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)))


def simplex(d: int) -> Polytope:
    """conv(e_1, ..., e_d, -e_1-...-e_d): the d-simplex with interior origin."""
    (d,) = linalg._ints([d], "simplex dimension")
    if d < 1:
        raise ValueError(f"simplex dimension must be positive, got {d}")
    _check_size("simplex", d, d + 1, d)
    rows = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    rows.append(tuple(-1 for _ in range(d)))
    return Polytope(d, tuple(rows))


def example4d() -> Polytope:
    """A 4-dimensional smooth Fano polytope with 10 vertices (deficit k = 2)
    in which two pairs of facet vertices share an opposite vertex."""
    return Polytope(4, (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (-1, -1, 1, 1),
        (1, 1, -1, -1),
        (-1, 0, 0, 0),
        (0, -1, 0, 0),
        (0, 0, -1, 0),
        (0, 0, 0, -1),
    ))


_HEX_BLOCK = ((1, 0), (0, 1), (-1, 1), (1, -1), (-1, 0), (0, -1))


def bundle_b(dprime: int) -> Polytope:
    """The 3d'-dimensional bundle polytope with 7d'+1 vertices.

    Vertices: the simplex {v, e_1, ..., e_d'} where v is -1 on the first d'
    coordinates and 1 on coordinates d'+2, d'+4, ..., 3d' (1-based), plus a
    hexagon in each coordinate pair (d'+2i-1, d'+2i).  It is smooth Fano and
    does not split into lower-dimensional smooth Fano polytopes.
    """
    (dprime,) = linalg._ints([dprime], "bundleB parameter")
    if dprime < 1:
        raise ValueError(f"bundleB parameter must be positive, got {dprime}")
    _check_size("bundleB", dprime, 7 * dprime + 1, 3 * dprime)
    d = 3 * dprime
    rows: list[tuple[int, ...]] = []
    v = [0] * d
    for i in range(dprime):
        v[i] = -1
        v[dprime + 2 * i + 1] = 1
    rows.append(tuple(v))
    for i in range(dprime):
        rows.append(tuple(1 if j == i else 0 for j in range(d)))
    for block in range(dprime):
        base = dprime + 2 * block
        for a, b in _HEX_BLOCK:
            w = [0] * d
            w[base] = a
            w[base + 1] = b
            rows.append(tuple(w))
    return Polytope(d, tuple(rows))


def random_image(p: Polytope, seed: int) -> Polytope:
    """Image of p under a seeded random unimodular map, vertex order shuffled.

    The map is a product of elementary row operations (shears by -2..2,
    coordinate swaps, sign flips); shears that would push map entries past a
    fixed bound are skipped so coordinates stay small.  It is applied to the
    vertex array as one exact product (`linalg._vertex_products`: int64 when
    `_products_fit` proves it, sparse at large d), and the result keeps that
    array, with no vertex tuple.
    """
    rng = random.Random(seed)
    d = p.dim
    m = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    steps = 3 * d + 4
    for _ in range(steps):
        op = rng.randrange(3)
        if op == 0 and d >= 2:
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-2, -1, 1, 2))
            new_row = [a + c * b for a, b in zip(m[i], m[j])]
            if max(abs(x) for x in new_row) <= _MAP_ENTRY_BOUND:
                m[i] = new_row
        elif op == 1 and d >= 2:
            i, j = rng.sample(range(d), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i = rng.randrange(d)
            m[i] = [-a for a in m[i]]
    image = linalg._vertex_products(p._array, np.array(m, dtype=np.int64), p._abs_max)
    order = list(range(p.n))
    rng.shuffle(order)
    return _array_polytope(image[order], linalg._max_abs(image))


_NO_PARAMS = {"hexagon": hexagon, "pentagon": pentagon, "example4d": example4d}
_ONE_PARAM = {"simplex": (simplex, "the dimension", "simplex dimension"),
              "bundleB": (bundle_b, "d'", "bundleB parameter")}


def generate(name: str, params: Sequence = (), seed: int | None = None) -> Polytope:
    """Build a named polytope.

    Names: hexagon, pentagon, simplex (param: dimension), example4d,
    bundleB (param: d'), random_image (params: base name other than
    random_image with its params; requires a seed).  ValueError otherwise.
    """
    if name in _NO_PARAMS:
        if params:
            raise ValueError(f"{name} takes no parameters")
        return _NO_PARAMS[name]()
    if name in _ONE_PARAM:
        build, what, label = _ONE_PARAM[name]
        if len(params) != 1:
            raise ValueError(f"{name} takes exactly one parameter: {what}")
        try:
            (param,) = linalg._ints(params, label)
        except TypeError as e:  # the parameter is not an integer
            raise ValueError(str(e)) from None
        return build(param)
    if name == "random_image":
        if not params:
            raise ValueError("random_image needs a base generator name")
        if params[0] == "random_image":
            raise ValueError("random_image cannot be the base of random_image")
        if seed is None:
            raise ValueError("random_image needs a seed")
        base = generate(str(params[0]), tuple(params[1:]))
        return random_image(base, seed)
    raise ValueError(f"unknown generator {name!r}")
