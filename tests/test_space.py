import itertools
import math
import random

import numpy as np
import pytest

from hkc.space import (
    Ball,
    Box,
    Norm,
    OpinionSpace,
    PointMasses,
    UniformShape,
    distance_fn,
    expected_center_distance,
    max_pairwise_distance,
    sample_initial,
    validate_distribution,
)


def np_norm(diff: np.ndarray, norm: Norm) -> np.ndarray:
    """Independent vectorized norm used as an oracle (last axis)."""
    if norm is Norm.L1:
        return np.abs(diff).sum(axis=-1)
    if norm is Norm.L2:
        return np.sqrt((diff * diff).sum(axis=-1))
    return np.abs(diff).max(axis=-1)


def test_distance_identity_is_zero():
    for norm in Norm:
        assert distance_fn(norm)((0.3, 0.7), (0.3, 0.7)) == 0.0


def test_distance_one_dimensional():
    assert distance_fn(Norm.L1)((0.0,), (1.0,)) == 1.0


def test_distance_hand_values():
    u, v = (0.0, 0.0), (3.0, 4.0)
    assert distance_fn(Norm.L2)(u, v) == 5.0
    assert distance_fn(Norm.L1)(u, v) == 7.0
    assert distance_fn(Norm.LINF)(u, v) == 4.0


def test_norm_axioms_on_random_triples():
    # nonnegativity, symmetry, triangle inequality, absolute homogeneity
    rng = np.random.default_rng(2024)
    for norm in Norm:
        dist = distance_fn(norm)
        for dim in (1, 2, 3):
            triples = rng.uniform(-5, 5, size=(10_000, 3, dim))
            for u, v, w in triples:
                duv = dist(u, v)
                assert duv >= 0.0
                assert duv == dist(v, u)
                assert dist(u, w) <= duv + dist(v, w) + 1e-12
            scales = rng.uniform(-3, 3, size=200)
            pairs = rng.uniform(-5, 5, size=(200, 2, dim))
            zero = np.zeros(dim)
            for s, (u, v) in zip(scales, pairs):
                lhs = dist(s * (u - v), zero)
                rhs = abs(s) * dist(u, v)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_distance_zero_iff_equal():
    rng = np.random.default_rng(5)
    for norm in Norm:
        for _ in range(100):
            u = rng.uniform(-1, 1, size=3)
            v = u + rng.uniform(0.01, 1, size=3)
            assert distance_fn(norm)(u, v) > 0.0


def test_center_and_radius_ball_any_norm():
    ball = Ball((0.5,), 0.5)
    for norm in Norm:
        space = OpinionSpace(ball, norm)
        assert (space.center, space.radius) == ((0.5,), 0.5)


def test_center_and_radius_box_hand_values():
    space = OpinionSpace(Box((0.0,), (1.0,)), Norm.L1)
    assert space.center == (0.5,) and space.radius == 0.5
    space = OpinionSpace(Box((0.0, 0.0), (1.0, 1.0)), Norm.L2)
    assert space.center == (0.5, 0.5)
    assert space.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert OpinionSpace(Box((0.0, 0.0), (1.0, 1.0)), Norm.LINF).radius == 0.5


@pytest.mark.parametrize("norm", list(Norm))
@pytest.mark.parametrize(
    "shape",
    [
        Box((0.0,), (1.0,)),
        Box((-1.0, 2.0), (0.5, 4.0)),
        Box((0.0, 0.0, 0.0), (1.0, 2.0, 0.5)),
        Ball((0.5,), 0.5),
        Ball((1.0, -1.0), 2.0),
        Ball((0.0, 0.0, 0.0), 1.0),
    ],
)
def test_center_radius_against_supremum_oracle(shape, norm):
    # Oracle: the farthest point of the shape from the returned center must sit
    # at the returned radius. Boxes use a corner-including grid (sup attained
    # at corners); balls use rejection samples (radial deficit is O(1/N)).
    space = OpinionSpace(shape, norm)
    center, radius = space.center, space.radius
    rng = np.random.default_rng(99)
    if isinstance(shape, Box):
        axes = [np.linspace(a, b, 21) for a, b in zip(shape.lo, shape.hi)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape.lo))
        points = mesh
    else:
        lo, hi = shape.bounding_box()
        acc = []
        need = 100_000
        while sum(len(a) for a in acc) < need:
            cand = rng.uniform(lo, hi, size=(200_000, len(lo)))
            keep = cand[np_norm(cand - np.asarray(shape.center), norm) <= shape.radius]
            acc.append(keep)
        points = np.concatenate(acc)[:need]
    dists = np_norm(points - np.asarray(center), norm)
    assert dists.max() <= radius + 1e-9
    assert dists.max() >= radius - 1e-2


def test_opinion_space_membership_invariant():
    # every sampled point of the shape is within `radius` of `center`
    rng = random.Random(11)
    for shape in (Box((0.0, 0.0), (1.0, 3.0)), Ball((0.5, 0.5), 0.5)):
        for norm in Norm:
            space = OpinionSpace(shape, norm)
            for _ in range(2000):
                p = sample_initial(UniformShape(), space, rng)
                assert distance_fn(norm)(p, space.center) <= space.radius + 1e-9


def test_opinion_space_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        OpinionSpace(Ball((0.0,) * 9, 1.0), Norm.L2)


def test_sample_point_mass_is_constant():
    space = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)
    dist = PointMasses((((0.25,), 1.0),))
    rng = random.Random(3)
    assert all(sample_initial(dist, space, rng) == (0.25,) for _ in range(50))


def test_sample_uniform_box_mean():
    space = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)
    rng = random.Random(17)
    total = 0.0
    n = 100_000
    for _ in range(n):
        total += sample_initial(UniformShape(), space, rng)[0]
    assert abs(total / n - 0.5) < 0.01


def test_sample_uniform_ball_membership():
    space = OpinionSpace(Ball((0.0, 0.0), 1.0), Norm.L2)
    rng = random.Random(23)
    for _ in range(100_000):
        p = sample_initial(UniformShape(), space, rng)
        assert p[0] * p[0] + p[1] * p[1] <= 1.0 + 1e-12


def test_sample_uniform_ball_is_uniform():
    # radial CDF of a uniform dim-2 ball is (s/r)^2; check the median shell
    space = OpinionSpace(Ball((0.0, 0.0), 1.0), Norm.L2)
    rng = random.Random(29)
    inside = sum(
        math.hypot(*sample_initial(UniformShape(), space, rng)) <= math.sqrt(0.5)
        for _ in range(50_000)
    )
    assert abs(inside / 50_000 - 0.5) < 0.01


def test_point_mass_validation():
    with pytest.raises(ValueError):
        PointMasses((((0.5,), 0.6), ((0.2,), 0.5)))  # sums to 1.1
    with pytest.raises(ValueError):
        PointMasses((((0.5,), -0.2), ((0.2,), 1.2)))
    space = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)
    with pytest.raises(ValueError):
        validate_distribution(PointMasses((((2.0,), 1.0),)), space)


def test_expected_center_distance_uniform_ball_closed_form():
    for n, r, want in [(1, 0.5, 0.25), (2, 1.0, 2.0 / 3.0)]:
        space = OpinionSpace(Ball((0.0,) * n, r), Norm.L2)
        assert expected_center_distance(UniformShape(), space) == pytest.approx(want, abs=1e-15)


def test_expected_center_distance_point_mass_at_center():
    space = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)
    dist = PointMasses((((0.5,), 1.0),))
    assert expected_center_distance(dist, space) == 0.0


def test_expected_center_distance_point_masses_exact():
    space = OpinionSpace(Box((0.0,), (1.0,)), Norm.L1)
    dist = PointMasses((((0.0,), 0.5), ((1.0,), 0.5)))
    assert expected_center_distance(dist, space) == pytest.approx(0.5, abs=1e-15)


def test_expected_center_distance_uniform_interval_is_exact():
    # a 1-D box is an interval (a ball), so no sampling: E|U - 1/2| = 1/4
    space = OpinionSpace(Box((0.0,), (1.0,)), Norm.L2)
    assert expected_center_distance(UniformShape(), space) == 0.25


def test_expected_center_distance_uniform_box_monte_carlo():
    # L1 oracle for the unit square: E||X - c||_1 = 1/4 + 1/4 = 1/2
    space = OpinionSpace(Box((0.0, 0.0), (1.0, 1.0)), Norm.L1)
    got = expected_center_distance(UniformShape(), space, samples=200_000, rng=random.Random(31))
    assert got == pytest.approx(0.5, rel=0.01)
    with pytest.raises(ValueError):
        expected_center_distance(UniformShape(), space, samples=0, rng=random.Random(1))
    with pytest.raises(ValueError):
        expected_center_distance(UniformShape(), space, samples=10, rng=None)


def test_max_pairwise_distance():
    rows = [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)]
    assert max_pairwise_distance(rows, Norm.L1) == 3.0
    assert max_pairwise_distance(rows, Norm.L2) == pytest.approx(math.sqrt(5))
    assert max_pairwise_distance([(0.5,)], Norm.L2) == 0.0


def _pair_scan_diameter(rows, norm: Norm) -> float:
    kernel = distance_fn(norm)
    return max((kernel(a, b) for a, b in itertools.combinations(rows, 2)), default=0.0)


def test_max_pairwise_distance_matches_pair_scan_bitwise():
    # The per-coordinate extremes path (1-D, and Linf in any dimension) must
    # equal the brute-force pair scan bit for bit, across magnitudes, large
    # offsets that make subtraction round, and repeated rows.
    rng = random.Random(20)
    for _ in range(4000):
        norm = rng.choice(list(Norm))
        dim = rng.choice((1, 1, 2, 3))
        n = rng.randint(1, 10)
        scale = 10.0 ** rng.uniform(-300, 300)
        base = rng.choice((0.0, 1e16, -1e16)) * rng.choice((1.0, min(scale, 1e290)))
        rows = [tuple(base + scale * rng.uniform(-1, 1) for _ in range(dim)) for _ in range(n)]
        if rng.random() < 0.3:
            rows += rng.choices(rows, k=rng.randint(1, 3))
            rng.shuffle(rows)
        got = max_pairwise_distance(rows, norm)
        assert got.hex() == _pair_scan_diameter(rows, norm).hex(), (norm, rows)


def test_shape_validation():
    with pytest.raises(ValueError):
        Ball((0.0,), 0.0)
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        Ball((float("nan"),), 1.0)
