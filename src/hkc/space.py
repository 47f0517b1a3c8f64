"""Geometry of the opinion set: norms, convex shapes, centers, and initial sampling.

Opinion vectors are fixed-length sequences of finite floats. Everything in
this module is immutable after construction and safe to share across
concurrent trial workers; random streams are passed in explicitly and are
never shared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence, Union

Vector = tuple[float, ...]

MAX_DIM = 8
_MAX_REJECTION = 10**6
_PROB_SUM_TOL = 1e-12
# a point this many ulps of the shape's largest coordinate outside it still counts
# as inside; a boundary point computed in floats lands at most about 3 ulps out
CONTAINS_ULPS = 16
# l2 squares coordinate differences, and a square underflows below about 1e-154.
# With a bounding-box diameter at least this large, every eps the stop floor admits
# exceeds 2**-511, and sqrt(fl(d*d)) == |d| for every |d| >= 2**-511
MIN_L2_EXTENT = 1e-100
BOUND_MC_SAMPLES = 100_000  # draws of the bound's Monte Carlo mean center distance on a box of dim >= 2


class Norm(Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def _dist_l1(u, v) -> float:
    s = 0.0
    for i in range(len(u)):
        s += abs(u[i] - v[i])
    return s


def _dist_l2(u, v) -> float:
    s = 0.0
    for i in range(len(u)):
        d = u[i] - v[i]
        s += d * d
    return math.sqrt(s)


def _dist_linf(u, v) -> float:
    m = 0.0
    for i in range(len(u)):
        d = abs(u[i] - v[i])
        if d > m:
            m = d
    return m


_KERNELS = {Norm.L1: _dist_l1, Norm.L2: _dist_l2, Norm.LINF: _dist_linf}


# The sum of expected_center_distance's box Monte Carlo on the 2-D L2 box: each
# coordinate difference is (a + w * random()) - c, the draw and then the kernel's
# subtraction, for coordinate 0 and then 1 as `_dist_l2` takes them, so the same bits (see `dynamics`).
def _box_total_l2_2(box, center, rand, samples: int) -> float:
    (a0, w0), (a1, w1) = box
    c0, c1 = center
    total = 0.0
    for _ in range(samples):
        d0 = a0 + w0 * rand() - c0
        d1 = a1 + w1 * rand() - c1
        total += math.sqrt(d0 * d0 + d1 * d1)
    return total


def distance_fn(norm: Norm):
    """The norm's distance kernel, unchecked, for hot loops (works on tuples or array rows)."""
    return _KERNELS[norm]


def coordinate_ulp(shape: ConvexShape) -> float:
    """ulp of the largest absolute coordinate of the shape's bounding box."""
    lo, hi = shape.bounding_box()
    return math.ulp(max(map(abs, lo + hi)))


def _as_vector(coords, what: str) -> Vector:
    vec = tuple(float(c) for c in coords)
    if not vec:
        raise ValueError(f"{what} must have at least one coordinate")
    if not all(math.isfinite(c) for c in vec):
        raise ValueError(f"{what} has non-finite coordinates: {vec}")
    return vec


@dataclass(frozen=True)
class Ball:
    """Norm ball {x : ||x - center|| <= radius}; the norm is supplied by the owning space."""

    center: Vector
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vector(self.center, "ball center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"ball radius must be positive, got {self.radius}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, point: Sequence[float], norm: Norm) -> bool:
        return distance_fn(norm)(point, self.center) - self.radius <= CONTAINS_ULPS * coordinate_ulp(self)

    def bounding_box(self) -> tuple[Vector, Vector]:
        r = self.radius
        lo = tuple(c - r for c in self.center)
        hi = tuple(c + r for c in self.center)
        return lo, hi


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lo <= x <= hi coordinatewise}."""

    lo: Vector
    hi: Vector

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_vector(self.lo, "box lo"))
        object.__setattr__(self, "hi", _as_vector(self.hi, "box hi"))
        if len(self.lo) != len(self.hi):
            raise ValueError("box lo and hi must have the same dimension")
        for a, b in zip(self.lo, self.hi):
            if not a < b:
                raise ValueError(f"box requires lo < hi in every coordinate, got {a} >= {b}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, point: Sequence[float], norm: Norm) -> bool:
        slack = CONTAINS_ULPS * coordinate_ulp(self)
        return all(a - p <= slack and p - b <= slack for p, a, b in zip(point, self.lo, self.hi))

    def bounding_box(self) -> tuple[Vector, Vector]:
        return self.lo, self.hi


ConvexShape = Union[Ball, Box]
# The shape kinds: constructor and its ordered, typed fields (tuple: a vector), as graph.KINDS.
SHAPES = {
    "ball": (Ball, {"center": tuple, "radius": float}),
    "box": (Box, {"lo": tuple, "hi": tuple}),
}


@dataclass(frozen=True)
class OpinionSpace:
    """Conviction space: a convex shape with a norm.

    `center` and `radius` are derived: the tightest enclosing ball of the
    shape under the norm. A ball is its own enclosing ball under any norm. A
    box has its midpoint as center and the norm of its half-width vector as
    radius (the farthest points of a box from its midpoint are its corners).
    """

    shape: ConvexShape
    norm: Norm
    center: Vector = field(init=False)
    radius: float = field(init=False)

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"supported dimensions are 1..{MAX_DIM}, got {self.dim}")
        shape = self.shape
        kernel = distance_fn(self.norm)
        # sampling and every distance stay finite iff the bounding-box diameter does
        lo, hi = shape.bounding_box()
        extent = kernel(hi, lo)
        if not math.isfinite(extent):
            raise ValueError(f"shape extent overflows float64 under the {self.norm.value} norm")
        if self.norm is Norm.L2 and extent < MIN_L2_EXTENT:
            raise ValueError(f"shape extent is below {MIN_L2_EXTENT} under the l2 norm, which squares "
                             f"coordinate differences; rescale the shape and tau together")
        if isinstance(shape, Ball):
            center, radius = shape.center, shape.radius
        else:
            center = tuple((a + b) / 2.0 for a, b in zip(lo, hi))
            half = tuple((b - a) / 2.0 for a, b in zip(lo, hi))
            radius = float(kernel(half, (0.0,) * len(half)))
        # a box midpoint overflows when lo + hi does, even if hi - lo is finite
        if not shape.contains(center, self.norm):
            raise ValueError("center must lie inside the shape")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def dim(self) -> int:
        return self.shape.dim


@dataclass(frozen=True)
class UniformShape:
    """Uniform law over the owning space's shape."""


@dataclass(frozen=True)
class PointMasses:
    """Discrete law: atoms of (point, probability); probabilities sum to one."""

    atoms: tuple[tuple[Vector, float], ...]

    def __post_init__(self):
        atoms = tuple((_as_vector(p, "atom"), float(w)) for p, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("point-mass distribution needs at least one atom")
        if any(w <= 0 for _, w in atoms):
            raise ValueError("atom probabilities must be positive")
        total = math.fsum(w for _, w in atoms)
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"atom probabilities must sum to 1 within {_PROB_SUM_TOL}, got {total!r}")


InitialDistribution = Union[UniformShape, PointMasses]


def validate_distribution(dist: InitialDistribution, space: OpinionSpace) -> None:
    """Fail fast if the distribution cannot produce samples inside the space."""
    if isinstance(dist, PointMasses):
        for point, _ in dist.atoms:
            if len(point) != space.dim:
                raise ValueError(f"atom {point} does not match space dimension {space.dim}")
            if not space.shape.contains(point, space.norm):
                raise ValueError(f"atom {point} lies outside the opinion shape")


def sample_initial(dist: InitialDistribution, space: OpinionSpace, rng: random.Random) -> Vector:
    """Draw one initial opinion.

    Uniform sampling over a ball is by rejection from its tight bounding box,
    which is exact for any of the three norms.
    """
    if isinstance(dist, PointMasses):
        u = rng.random()
        acc = 0.0
        for point, w in dist.atoms:
            acc += w
            if u < acc:
                return point
        return dist.atoms[-1][0]  # float remainder
    shape = space.shape
    if isinstance(shape, Box):
        return tuple(rng.uniform(a, b) for a, b in zip(shape.lo, shape.hi))
    lo, hi = shape.bounding_box()
    kernel = distance_fn(space.norm)
    for _ in range(_MAX_REJECTION):
        point = tuple(rng.uniform(a, b) for a, b in zip(lo, hi))
        if kernel(point, shape.center) <= shape.radius:
            return point
    raise RuntimeError(f"rejection sampling failed to hit the shape in {_MAX_REJECTION} draws")


def expected_center_distance(
    dist: InitialDistribution,
    space: OpinionSpace,
    samples: int = BOUND_MC_SAMPLES,
    rng: random.Random | None = None,
) -> float:
    """Mean distance of an initial opinion from the space center.

    Exact for point masses and for the uniform ball (dim * radius / (dim + 1),
    from the radial law P(||X - c|| <= s) = (s/r)^dim). A one-dimensional box
    is an interval, i.e. a ball of the space's radius, so it takes the same
    form; boxes in higher dimension fall back to a Monte Carlo average over
    `samples` draws.
    """
    if isinstance(dist, PointMasses):
        validate_distribution(dist, space)
        kernel = distance_fn(space.norm)
        return math.fsum(w * kernel(p, space.center) for p, w in dist.atoms)
    if isinstance(space.shape, Ball) or space.dim == 1:
        n, r = space.dim, space.radius
        return n * r / (n + 1)
    if samples < 1:
        raise ValueError("samples must be >= 1 for the Monte Carlo path")
    if rng is None:
        raise ValueError("uniform-box expected distance needs a random stream")
    center = space.center
    # sample_initial's draw fused into the loop: random.uniform(a, b) is
    # a + (b - a) * random(), so this is the same stream and the same bits
    box = tuple((a, b - a) for a, b in zip(space.shape.lo, space.shape.hi))
    rand = rng.random
    if space.norm is Norm.L2 and space.dim == 2:
        return _box_total_l2_2(box, center, rand, samples) / samples
    kernel = distance_fn(space.norm)
    total = 0.0
    for _ in range(samples):
        total += kernel(tuple([a + w * rand() for a, w in box]), center)
    return total / samples


def max_pairwise_distance(rows: Sequence[Sequence[float]], norm: Norm) -> float:
    """Largest opinion distance over all vertex pairs (diameter of the configuration).

    In one dimension (any norm) and under Linf (any dimension) this is the
    distance between the per-coordinate maxima and minima, found in O(n * dim).
    Float subtraction is monotone, so that equals the pair scan bitwise. L1 and
    L2 in two or more dimensions scan all pairs in O(n^2).
    """
    kernel = distance_fn(norm)
    if len(rows) and (norm is Norm.LINF or len(rows[0]) == 1):
        # not dynamics._bounds: a pass per coordinate took 1.1-1.4x as long in 2-3 dims (n = 36-1000, Python 3.11)
        cols = tuple(zip(*rows))
        return float(kernel(tuple(map(max, cols)), tuple(map(min, cols))))
    best = 0.0
    for i in range(len(rows)):
        ri = rows[i]
        for j in range(i + 1, len(rows)):
            d = kernel(ri, rows[j])
            if d > best:
                best = d
    return float(best)
