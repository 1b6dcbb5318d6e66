"""Direction vectors: `unit` at the edges of the float range."""

import math

import numpy as np
import pytest

from workbot.geometry import unit


def test_unit_of_an_ordinary_vector_divides_by_its_norm():
    v = np.array([3.0, -4.0, 12.0])
    assert unit(v).tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_unit_of_a_huge_vector_keeps_its_direction():
    assert unit((0.0, 0.0, 1e308)).tolist() == [0.0, 0.0, 1.0]
    got = unit((1e308, 1e308, 0.0))
    np.testing.assert_allclose(got, [math.sqrt(0.5), math.sqrt(0.5), 0.0],
                               rtol=1e-15, atol=0.0)


def test_unit_of_a_tiny_vector_keeps_its_direction():
    assert unit((0.0, -1e-200, 0.0)).tolist() == [0.0, -1.0, 0.0]


@pytest.mark.parametrize("v, message", [
    ((0.0, 0.0, 0.0), "zero vector has no direction"),
    ((math.nan, 0.0, 1.0), "non-finite vector has no direction"),
    ((0.0, math.inf, 0.0), "non-finite vector has no direction"),
])
def test_unit_rejects_a_vector_without_a_direction(v, message):
    with pytest.raises(ValueError, match=message):
        unit(v)
