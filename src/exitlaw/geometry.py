"""Domain descriptors: balls and axis-aligned boxes.

Both families are open, bounded, and regular by construction, which is
exactly what the exit samplers require. The operations work on (m, d)
arrays of points, one row per walk, as the vectorized sampling kernels
use them; each validates the array shape once, since silent
broadcasting is the classic failure mode of dimension-generic geometry.
``interior_point`` is the start-point check every sampler shares, and
``Ball.radial_point`` the one of the ball's closed forms, which also
need the start's distance from the center. A batch kernel takes one
start per stream; ``start_runs`` splits its starts into runs of equal
rows, so each distinct start is checked once on the scalar path.

All operations are dimension-generic; nothing in this module special
cases d.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

#: Relative tolerance, in units of the radius, within which a point
#: counts as on a ball's sphere: ``Ball._land_on_boundary`` places points
#: no farther off, and the Poisson kernel accepts query points this close.
BOUNDARY_RTOL = 1e-9

#: Most nudges ``Ball._land_on_boundary`` makes to push a point off the
#: open ball before it gives up. Each moves the point about one step of
#: the float64 grid around the ball; Tier-1 never needs more than 3.
MAX_NUDGES = 64


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


def start_runs(theta, m: int) -> tuple[list, np.ndarray]:
    """The starts of m streams as runs of equal consecutive rows.

    theta is one point for every stream or an (m, d) array whose row i
    is the start of stream i. Returns the first row of each run and the
    run lengths, which sum to m; rows are compared bit for bit. Rows are
    not checked here: each caller checks the distinct starts it gets.
    """
    rows = np.array(theta, dtype=np.float64, order="C")
    if rows.ndim < 2:
        return [rows], np.array([m])
    if rows.ndim != 2 or rows.shape[0] != m:
        raise ValueError(f"starts must be one point or one row per stream, (m, d) = "
                         f"({m}, d), got shape {rows.shape}")
    bits = rows.view(np.uint64)
    new = np.concatenate(([True], (bits[1:] != bits[:-1]).any(axis=1)))
    first = np.flatnonzero(new[:m])
    return list(rows[first]), np.diff(np.append(first, m))


class Domain(abc.ABC):
    """A bounded open regular domain in R^d."""

    dimension: int

    def interior_point(self, p, name: str = "start point") -> np.ndarray:
        """p as a point of this domain; a ValueError unless strictly inside."""
        q = as_point(p, self.dimension)
        if not self.contains_many(q[None, :])[0]:
            raise ValueError(f"{name} {q} is not strictly inside the domain")
        return q

    def interior_rows(self, theta, m: int) -> np.ndarray:
        """One start per stream as a C-ordered (m, d) array, each checked.

        theta is one point or an (m, d) array (see ``start_runs``); every
        distinct start passes ``interior_point`` once.
        """
        firsts, counts = start_runs(theta, m)
        checked = np.array([self.interior_point(p) for p in firsts])
        return np.repeat(checked.reshape(-1, self.dimension), counts, axis=0)

    @abc.abstractmethod
    def diameter(self) -> float:
        """Diameter of the domain (supremum of pairwise distances)."""

    @abc.abstractmethod
    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: rows strictly inside the open domain."""

    @abc.abstractmethod
    def exited_many(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: rows strictly outside the closed domain."""

    @abc.abstractmethod
    def distance_to_boundary_many(self, pts: np.ndarray) -> np.ndarray:
        """Euclidean distance from each interior row to the boundary."""

    @abc.abstractmethod
    def project_to_boundary_many(self, pts: np.ndarray) -> np.ndarray:
        """Nearest boundary point to each interior row (deterministic ties)."""

    @abc.abstractmethod
    def crossing_many(self, inside: np.ndarray, outside: np.ndarray):
        """Boundary crossings of segments inside->outside.

        Returns (points, t) where points[i] lies on the boundary and
        t[i] in (0, 1] is the segment parameter of the crossing.
        """

    @abc.abstractmethod
    def project_outside_many(self, pts: np.ndarray) -> np.ndarray:
        """Nearest boundary point for each row lying outside the closed domain."""

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
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")

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

    def _land_on_boundary(self, v, rho):
        """Map interior offsets v (rows, with norms rho > 0) radially onto
        the sphere, guaranteeing the result is NOT strictly inside.

        The rounded ``c + (r/rho) v`` can fall a last-bit inside the open
        ball, which would make ``contains_many`` accept a "boundary"
        point; nudge the scale up until the open-set test rejects it.
        Each nudge moves the point about one step of the float64 grid
        around the ball, spacing(max|c| + r): one ulp of the scale for a
        ball centered at the origin, ~|c|/r ulps far from it, so a few
        nudges do at any center. Raises RuntimeError when a point needs
        a nudge on a grid coarser than ``BOUNDARY_RTOL`` of the radius,
        which cannot hold it that close to the sphere, or after
        ``MAX_NUDGES`` nudges.
        """
        r = self.radius
        grid = float(np.spacing(np.abs(self.center).max() + r))
        ulps = max(1.0, np.floor(grid / (r * np.spacing(1.0))))
        coarse = grid > BOUNDARY_RTOL * r
        s = r / rho
        for _ in range(MAX_NUDGES + 1):
            q = self.center + v * s[:, None]
            w = q - self.center
            bad = np.einsum("ij,ij->i", w, w) < r * r
            if not bad.any():
                return q
            if coarse:
                break
            s = np.where(bad, s + ulps * np.spacing(s), s)
        why = (f"float64 points there are spaced {grid:.3g} apart, more than the "
               f"{BOUNDARY_RTOL * r:.3g} a boundary point may lie off it" if coarse
               else f"{MAX_NUDGES} nudges left them inside the open ball")
        raise RuntimeError(f"cannot place {int(bad.sum())} point(s) on the sphere of center "
                           f"{self.center} and radius {r:g}: {why}")

    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains_many(self, pts):
        pts = self._check_batch(pts)
        v = pts - self.center
        return np.einsum("ij,ij->i", v, v) < self.radius * self.radius

    def exited_many(self, pts):
        pts = self._check_batch(pts)
        v = pts - self.center
        return np.einsum("ij,ij->i", v, v) > self.radius * self.radius

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
        return self._land_on_boundary(v, rho)

    def project_outside_many(self, pts):
        # Radial projection is the nearest-point map from either side.
        return self.project_to_boundary_many(pts)

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

    def exited_many(self, pts):
        pts = self._check_batch(pts)
        return np.any((pts < self.lower) | (pts > self.upper), axis=1)

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

    def project_outside_many(self, pts):
        # Clamping an exterior point into the closed box lands on its surface.
        pts = self._check_batch(pts)
        return np.clip(pts, self.lower, self.upper)

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
