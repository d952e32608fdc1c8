"""Domain descriptors: balls and axis-aligned boxes.

Both families are open, bounded, and regular by construction, which is
exactly what the exit samplers require. The operations work on (m, d)
arrays of points, one row per walk, as the vectorized sampling kernels
use them; each validates the array shape once, since silent
broadcasting is the classic failure mode of dimension-generic geometry.
``interior_point`` is the start-point check every sampler shares, and
``Ball.radial_point`` the one of the ball's closed forms, which also
need the start's distance from the center. A batch kernel takes its
streams grouped by start; ``interior_starts`` pairs the starts with
their stream grid and checks each start once on the scalar path.

There is one boundary rule: a point has left the domain once it is not
strictly inside it (``contains_many`` is False), as Brownian motion
leaves an open set when it first meets the complement. Every sampler
returns a point of the boundary up to rounding, and ``Ball`` refuses a
ball whose float64 grid cannot place points within ``BOUNDARY_RTOL`` of
its sphere, or whose squared radius is not a normal float64.

All operations are dimension-generic; nothing in this module special
cases d.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

#: Relative tolerance, in units of the radius, within which a point
#: counts as on a ball's sphere: the Poisson kernel accepts query points
#: this close. ``Ball`` refuses a ball whose float64 grid is coarser, so
#: a projection onto its sphere lands this close too.
BOUNDARY_RTOL = 1e-9


def as_point(p, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector, optionally of dimension dim."""
    q = np.asarray(p, dtype=np.float64)
    if q.ndim != 1 or q.shape[0] < 1:
        raise ValueError(f"point must be a 1-D vector, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError(f"point has non-finite coordinates: {q}")
    if dim is not None and q.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {q.shape[0]}")
    return q


class Domain(abc.ABC):
    """A bounded open regular domain in R^d."""

    dimension: int

    def interior_point(self, p, name: str = "start point") -> np.ndarray:
        """p as a point of this domain; a ValueError unless strictly inside."""
        q = as_point(p, self.dimension)
        if not self.contains_many(q[None, :])[0]:
            raise ValueError(f"{name} {q} is not strictly inside the domain")
        return q

    def interior_starts(self, theta, stream_ids) -> tuple[np.ndarray, np.ndarray]:
        """The checked starts (k, d) and their stream grid (k, n).

        theta is one start (d,) with stream ids (n,), or k starts (k, d)
        with a (k, n) grid whose row i holds start i's streams. Every
        start passes ``interior_point`` once; the starts come back
        C-ordered, one row each.
        """
        starts = np.asarray(theta, dtype=np.float64)
        grid = np.asarray(stream_ids, dtype=np.uint64)
        if starts.ndim == 1 and grid.ndim <= 1:
            starts, grid = starts[None, :], grid.reshape(1, -1)
        elif not (starts.ndim == grid.ndim == 2 and starts.shape[0] == grid.shape[0]):
            raise ValueError(f"starts and stream ids must pair up, one (d,) start with (n,) "
                             f"ids or k (k, d) starts with a (k, n) grid; got starts of "
                             f"shape {starts.shape} and ids of shape {grid.shape}")
        checked = np.array([self.interior_point(p) for p in starts])
        return checked.reshape(-1, self.dimension), grid

    @abc.abstractmethod
    def diameter(self) -> float:
        """Diameter of the domain (supremum of pairwise distances)."""

    @abc.abstractmethod
    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: rows strictly inside the open domain."""

    @abc.abstractmethod
    def distance_to_boundary_many(self, pts: np.ndarray) -> np.ndarray:
        """Euclidean distance from each interior row to the boundary."""

    @abc.abstractmethod
    def project_to_boundary_many(self, pts: np.ndarray) -> np.ndarray:
        """Nearest boundary point to each interior row (deterministic ties)."""

    @abc.abstractmethod
    def crossing_many(self, inside: np.ndarray, outside: np.ndarray):
        """Boundary crossings of segments inside->outside, where "outside"
        means not strictly inside (a boundary point is outside).

        Returns (points, t) where points[i] lies on the boundary and
        t[i] in (0, 1] is the segment parameter of the crossing.
        """

    def _check_batch(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(
                f"expected (m, {self.dimension}) array, got shape {pts.shape}")
        return pts


@dataclass(frozen=True)
class Ball(Domain):
    """Open ball: all points within ``radius`` of ``center``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_point(self.center)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        r = self.radius
        if not np.isfinite(r) or r <= 0:
            raise ValueError(f"radius must be positive and finite, got {r}")
        # |x - c|^2 < r^2 is the membership test: r^2 must be a normal float64
        if not np.finfo(np.float64).tiny <= r * r < np.inf:
            raise ValueError(f"radius {r:g} is out of range: its square is not a normal "
                             f"float64, so |x - c|^2 < r^2 cannot test membership")
        grid = float(np.spacing(np.abs(c).max() + r))
        if grid > BOUNDARY_RTOL * r:
            raise ValueError(f"cannot place points on the sphere of center {c} and radius "
                             f"{r:g}: float64 points there are spaced {grid:.3g} apart, more "
                             f"than the {BOUNDARY_RTOL * r:.3g} a boundary point may lie off it")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def radial_point(self, p, name: str = "start point") -> tuple[np.ndarray, float]:
        """(p, rho) with rho = |p - center|; a ValueError unless rho < radius.

        The test is on rho itself, not ``contains_many``'s squared norm,
        so a caller dividing by radius - rho never sees a zero gap.
        """
        q = as_point(p, self.dimension)
        rho = float(np.linalg.norm(q - self.center))
        if rho >= self.radius:
            raise ValueError(f"{name} {q} is not strictly inside the ball")
        return q, rho

    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains_many(self, pts):
        pts = self._check_batch(pts)
        v = pts - self.center
        return np.einsum("ij,ij->i", v, v) < self.radius * self.radius

    def distance_to_boundary_many(self, pts):
        pts = self._check_batch(pts)
        v = pts - self.center
        return self.radius - np.sqrt(np.einsum("ij,ij->i", v, v))

    def project_to_boundary_many(self, pts):
        pts = self._check_batch(pts)
        v = pts - self.center
        rho = np.sqrt(np.einsum("ij,ij->i", v, v))
        tie = rho == 0.0
        if tie.any():
            v = v.copy()
            v[tie, 0] = 1.0
            rho = np.where(tie, 1.0, rho)
        return self.center + v * (self.radius / rho)[:, None]

    def crossing_many(self, inside, outside):
        a = self._check_batch(inside) - self.center
        b = self._check_batch(outside) - self.center
        v = b - a
        # ||a + t v||^2 = r^2: the positive root, in the cancellation-free form.
        A = np.einsum("ij,ij->i", v, v)
        B = 2.0 * np.einsum("ij,ij->i", a, v)
        C = np.einsum("ij,ij->i", a, a) - self.radius * self.radius
        disc = np.sqrt(B * B - 4.0 * A * C)
        t = np.where(B > 0, -2.0 * C / (disc + B), (disc - B) / (2.0 * A))
        pts = self.center + a + t[:, None] * v
        return pts, t


@dataclass(frozen=True)
class BoxDomain(Domain):
    """Open axis-aligned box: lower[i] < p[i] < upper[i] for all i."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_point(self.lower)
        hi = as_point(self.upper, lo.shape[0])
        if not np.all(lo < hi):
            raise ValueError(f"box requires lower < upper componentwise: {lo} vs {hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def diameter(self) -> float:
        v = self.upper - self.lower
        return float(np.sqrt(v @ v))

    def _face_distances(self, pts):
        # Faces ordered (coord 0 lower, coord 0 upper, coord 1 lower, ...):
        # argmin over this layout implements the documented tie-breaking.
        m, d = pts.shape
        out = np.empty((m, 2 * d))
        out[:, 0::2] = pts - self.lower
        out[:, 1::2] = self.upper - pts
        return out

    def contains_many(self, pts):
        pts = self._check_batch(pts)
        return np.all((pts > self.lower) & (pts < self.upper), axis=1)

    def distance_to_boundary_many(self, pts):
        pts = self._check_batch(pts)
        return self._face_distances(pts).min(axis=1)

    def project_to_boundary_many(self, pts):
        pts = self._check_batch(pts)
        j = np.argmin(self._face_distances(pts), axis=1)
        out = pts.copy()
        coord = j >> 1
        rows = np.arange(pts.shape[0])
        out[rows, coord] = np.where(j & 1, self.upper[coord], self.lower[coord])
        return out

    def crossing_many(self, inside, outside):
        a = self._check_batch(inside)
        b = self._check_batch(outside)
        v = b - a
        # a near-zero component overflows to inf, which loses the min
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t_exit = np.where(
                v > 0, (self.upper - a) / v,
                np.where(v < 0, (self.lower - a) / v, np.inf))
        t = t_exit.min(axis=1)
        axis = np.argmin(t_exit, axis=1)
        pts = a + t[:, None] * v
        rows = np.arange(a.shape[0])
        # Snap the crossing coordinate onto the face it crossed.
        pts[rows, axis] = np.where(v[rows, axis] > 0, self.upper[axis], self.lower[axis])
        return pts, t
