from __future__ import annotations

import numpy as np
import pytest

from fanosplit import generators
from fanosplit.generators import (
    bundle_b,
    example4d,
    generate,
    hexagon,
    pentagon,
    random_image,
    simplex,
)
from fanosplit.polytope import Mode, is_smooth_fano, make_polytope, picard_number, vertex_deficit


def test_hexagon():
    p = generate("hexagon")
    assert (p.dim, p.n) == (2, 6)
    assert is_smooth_fano(p).valid


def test_pentagon():
    p = generate("pentagon")
    assert (p.dim, p.n) == (2, 5)
    assert is_smooth_fano(p).valid
    assert (1, -1) not in p.vertices


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_simplex(d):
    p = generate("simplex", [d])
    assert (p.dim, p.n) == (d, d + 1)
    assert is_smooth_fano(p).valid


def test_example4d():
    p = generate("example4d")
    assert (p.dim, p.n) == (4, 10)
    assert vertex_deficit(p) == 2
    assert is_smooth_fano(p).valid


@pytest.mark.parametrize("dprime", [1, 2, 3])
def test_bundle_counts_and_validity(dprime):
    p = generate("bundleB", [dprime])
    assert (p.dim, p.n) == (3 * dprime, 7 * dprime + 1)
    mode = Mode.FULL if dprime <= 2 else Mode.LOCAL
    assert is_smooth_fano(p, mode).valid


def test_bundle_b1_vertex():
    p = bundle_b(1)
    assert (-1, 0, 1) in p.vertices


def test_bundle_picard_numbers():
    for dprime in (1, 2, 3):
        assert picard_number(bundle_b(dprime), Mode.LOCAL) == 4 * dprime + 1


def test_random_image_preserves_validity_and_counts():
    for seed in range(5):
        q = random_image(example4d(), seed)
        assert (q.dim, q.n) == (4, 10)
        assert is_smooth_fano(q).valid


def test_random_image_deterministic():
    a = random_image(hexagon(), 42)
    b = random_image(hexagon(), 42)
    assert a.vertices == b.vertices
    c = random_image(hexagon(), 43)
    assert c.vertices != a.vertices


def test_generate_random_image_by_name():
    p = generate("random_image", ["bundleB", 1], seed=3)
    assert (p.dim, p.n) == (3, 8)
    assert is_smooth_fano(p).valid


def test_generate_rejects_unknown_and_bad_params():
    with pytest.raises(ValueError):
        generate("dodecahedron")
    with pytest.raises(ValueError):
        generate("simplex", [])
    with pytest.raises(ValueError):
        generate("bundleB", [0])
    with pytest.raises(ValueError):
        generate("random_image", ["hexagon"])  # no seed
    with pytest.raises(ValueError):
        generate("hexagon", [2])
    with pytest.raises(ValueError, match="random_image cannot be the base of random_image"):
        generate("random_image", ["random_image", "hexagon"], seed=1)


@pytest.mark.parametrize("build, message", [
    (lambda: simplex(2.5), "simplex dimension is not an integer: 2.5"),
    (lambda: simplex("3"), "simplex dimension is not an integer: '3'"),
    (lambda: bundle_b(1.5), "bundleB parameter is not an integer: 1.5"),
])
def test_parameters_are_integers_only(build, message):
    # unchecked, range(2.5) and [0] * 4.5 would fail with Python's own text
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message
    assert simplex(np.int16(2)).vertices == simplex(2).vertices
    assert bundle_b(True).vertices == bundle_b(1).vertices


@pytest.mark.parametrize("name, param, message", [
    ("simplex", 2.9, "simplex dimension is not an integer: 2.9"),
    ("bundleB", 1.5, "bundleB parameter is not an integer: 1.5"),
    ("bundleB", "1", "bundleB parameter is not an integer: '1'"),
])
def test_generate_refuses_a_non_integer_parameter(name, param, message):
    # int() would build simplex(2) and bundle_b(1)
    with pytest.raises(ValueError) as info:
        generate(name, [param])
    assert str(info.value) == message


def test_generate_converts_only_the_parameter_check(monkeypatch):
    # a TypeError from inside a generator is a fault, not a bad parameter
    def broken(d):
        raise TypeError("internal fault")
    entry = (broken, *generators._ONE_PARAM["simplex"][1:])
    monkeypatch.setitem(generators._ONE_PARAM, "simplex", entry)
    with pytest.raises(TypeError, match="internal fault"):
        generate("simplex", [2])


@pytest.mark.parametrize("build", [
    hexagon, pentagon, lambda: simplex(1), lambda: simplex(4), example4d,
    lambda: bundle_b(1), lambda: bundle_b(2), lambda: bundle_b(3),
])
def test_generators_skip_the_checks_of_make_polytope(build):
    # a known-valid generator builds its Polytope directly; make_polytope on
    # the same rows accepts them and gives the same polytope
    p = build()
    assert "_full_dim" not in p.__dict__
    assert make_polytope(p.vertices) == p
    assert is_smooth_fano(p, Mode.FULL).valid
