"""Pins of the seeded generators: the same seed gives the same polynomial,
and each call draws the same random numbers, so a sequence of calls on one
``random.Random`` is pinned too.  ``random_poly3`` is the tests' own
generator of phi, in tests/_strategies.py; its pins keep the seeded phi of
the acceptance tests what they were when the package exported it."""

import random

import pytest

from nagata import random_poly2
from _strategies import random_poly3


@pytest.mark.parametrize("seed, dvmax, text", [
    (0, 0, "5"),  # the grid monomial is dropped; the fallback picks it
    (0, 1, "5"),  # both grid monomials are dropped
    (5, 2, "8"),
    (1, 4, "-9*t1*t2^2 + 4*t2^3 - 9*t1 + 7*t2 - 7"),
    (41, 6, "-9*t2^5 - 8*t1^3 - 5*t1*t2^2 + t2^3 - t1^2 - 2"),
])
def test_random_poly2_pinned(seed, dvmax, text):
    assert str(random_poly2(random.Random(seed), dvmax)) == text


@pytest.mark.parametrize("seed, max_degree, text", [
    (0, 0, "5"),  # the fallback, as for random_poly2
    (0, 1, "8*x"),  # all four grid monomials are dropped
    (1, 2, "-9*x - 7"),
    (7, 3, "-5*x*y^2 - 6*y^3 - 6*x^2*z - 2*x*y*z - 8*z^3 + 4*x*y - 7*y^2"
           " - 7*y*z + 9*z^2 - 8*z"),
    (41, 4, "-7*x^4 - 9*x^2*y^2 - 8*x^3*z + 2*x^2*y*z + 3*x*y^2*z - 5*y^3*z"
            " - 5*x^2*z - 9*x^2 - 8*x*y - 2*y^2 - 4*z"),
])
def test_random_poly3_pinned(seed, max_degree, text):
    assert str(random_poly3(random.Random(seed), max_degree)) == text


def test_calls_on_one_rng_are_pinned():
    rng = random.Random(3)
    assert [str(random_poly3(rng, 2)) for _ in range(3)] == [
        "7*x*z - 9*y + 7*z + 9", "-x^2 - 8*x*z - 5*z^2", "-6"]
    rng = random.Random(3)
    assert [str(random_poly2(rng, 3)) for _ in range(3)] == [
        "-9*t2^3 + 9*t1*t2 + 7*t2 + 9", "-5*t2^3 - 5*t1 + 7", "-8*t2^3 - 9*t1"]
    rng = random.Random(0)
    assert [str(random_poly2(rng, 1)) for _ in range(2)] == ["5", "t2 + 8"]
    assert rng.random() == 0.9677999949201714


@pytest.mark.parametrize("generate, message", [
    (random_poly2, "dvmax must be nonnegative"),
    (random_poly3, "max_degree must be nonnegative"),
])
def test_negative_bound_is_refused(generate, message):
    with pytest.raises(ValueError, match=message):
        generate(random.Random(0), -1)


def test_a_draw_of_one_half_drops_the_monomial():
    # random() lies in [0, 1), so keeping a monomial when the draw is below
    # 1/2 keeps it with probability exactly 1/2
    rng = random.Random(0)
    rng.random = iter([0.5, 0.25]).__next__
    assert random_poly2(rng, 1).support() == {(0, 1)}
