"""Analytic disk geometry: signed distance, boundary partition, collars, cutoff weight.

The domain is a disk described by its signed distance function.  The boundary
carries mixed boundary conditions: a set of half-open angular arcs is
Dirichlet, the complement is Neumann, and the junction points where the two
parts meet are the locus of reduced solution regularity.  This module also
provides the collar widths around the Dirichlet boundary and the junctions,
and the cutoff weight that localizes boundary integrals to the Dirichlet part
while decaying smoothly across an epsilon-wide wedge past each junction.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def _wrap(theta):
    """Wrap angles into [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


def cross2(a, b):
    """Scalar cross product of 2-d vectors (arrays broadcast over leading axes)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _smoothstep_down(s):
    """C1 profile: 1 for s <= 0, 0 for s >= 1, cubic in between."""
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


def _smoothstep_down_prime(s):
    """Derivative of ``_smoothstep_down``; vanishes at both ends of [0, 1]."""
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    return np.where(inside, -6.0 * s * (1.0 - s), 0.0)


@dataclass(frozen=True)
class LevelSetDomain:
    """Disk with a Dirichlet/Neumann partition of its boundary.

    ``dirichlet_arcs`` is a sequence of half-open angular intervals
    [theta_a, theta_b) in radians; points of the boundary whose angle lies in
    some interval are Dirichlet, all others Neumann.  Endpoint ties are
    resolved by the half-open convention, so every boundary point has exactly
    one tag.  Abutting arcs are merged, and a single arc spanning the full
    circle yields a pure Dirichlet boundary with no junctions.
    """

    center: tuple[float, float]
    radius: float
    dirichlet_arcs: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        center = np.asarray(self.center)
        if center.shape != (2,) or center.dtype.kind not in "iuf" or not np.isfinite(center).all():
            raise ValueError(f"center must be two finite numbers, got {self.center!r}")
        if not (isinstance(self.radius, numbers.Real) and 0.0 < self.radius < math.inf):
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "center", (float(center[0]), float(center[1])))
        arcs = _normalize_arcs(self.dirichlet_arcs)
        object.__setattr__(self, "dirichlet_arcs", arcs)

    @property
    def center_array(self):
        return np.asarray(self.center, dtype=float)

    @property
    def is_pure_dirichlet(self):
        return len(self.dirichlet_arcs) == 1 and self.dirichlet_arcs[0][1] >= TWO_PI - 1e-12

    @property
    def is_pure_neumann(self):
        return len(self.dirichlet_arcs) == 0

    @property
    def junction_angles(self):
        """Angles of the points where the Dirichlet and Neumann parts meet."""
        if self.is_pure_dirichlet or self.is_pure_neumann:
            return np.empty(0)
        angles = []
        for start, span in self.dirichlet_arcs:
            angles.append(start)
            angles.append(_wrap(start + span))
        return np.sort(np.array(angles))

    @property
    def junction_points(self):
        """Coordinates of the boundary-condition junctions, shape (k, 2)."""
        return self.boundary_point(self.junction_angles)

    def boundary_point(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.center_array + self.radius * np.stack(
            [np.cos(theta), np.sin(theta)], axis=-1
        )


def _normalize_arcs(arcs):
    """Normalize to sorted (start, span) pairs, merging abutting arcs."""
    items = []
    for arc in arcs:
        if not (
            isinstance(arc, (tuple, list, np.ndarray))
            and len(arc) == 2
            and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in arc)
            and all(map(math.isfinite, arc))
        ):
            raise ValueError(f"arc {arc!r} is not a pair of finite numbers [start, end]")
        a, b = arc
        start = float(_wrap(a))
        span = float(_wrap(b - a))
        if span == 0.0:
            # [a, a + 2*pi) covers the whole circle; a genuinely empty arc
            # carries no information and should simply be omitted.
            span = TWO_PI
        items.append((start, span))
    if not items:
        return ()
    items.sort()
    if any(span >= TWO_PI - 1e-12 for _, span in items):
        if len(items) > 1:
            raise ValueError("a full-circle arc cannot be combined with other arcs")
        return ((items[0][0], TWO_PI),)
    # Merge chains of abutting arcs, then check for overlap.
    merged = [list(items[0])]
    for start, span in items[1:]:
        end_prev = merged[-1][0] + merged[-1][1]
        if start < end_prev - 1e-12:
            raise ValueError("dirichlet arcs overlap")
        if abs(start - end_prev) <= 1e-12:
            merged[-1][1] = start + span - merged[-1][0]
        else:
            merged.append([start, span])
    # Wrap-around: last arc may abut or overlap the first one modulo 2*pi.
    if len(merged) > 1:
        end_last = merged[-1][0] + merged[-1][1]
        if end_last > merged[0][0] + TWO_PI + 1e-12:
            raise ValueError("dirichlet arcs overlap")
        if abs(end_last - (merged[0][0] + TWO_PI)) <= 1e-12:
            merged[0][0] = merged[-1][0] - TWO_PI
            merged[0][1] = merged[0][1] + merged[-1][1]
            merged.pop()
    total = sum(span for _, span in merged)
    if total >= TWO_PI - 1e-12:
        return ((_wrap(merged[0][0]), TWO_PI),)
    return tuple((_wrap(start), span) for start, span in merged)


def signed_distance(domain, x):
    """Signed distance to the boundary: negative inside, zero on it, positive outside."""
    x = np.asarray(x, dtype=float)
    return np.linalg.norm(x - domain.center_array, axis=-1) - domain.radius


def boundary_angle(domain, x):
    """Angle of the radial projection of ``x``, in [0, 2*pi)."""
    x = np.asarray(x, dtype=float)
    d = x - domain.center_array
    return _wrap(np.arctan2(d[..., 1], d[..., 0]))


def outward_normal(domain, x):
    """Unit exterior normal at the radial projection of ``x``."""
    x = np.asarray(x, dtype=float)
    d = x - domain.center_array
    r = np.linalg.norm(d, axis=-1)
    return d / r[..., None]


def is_dirichlet_angle(domain, theta):
    """Whether boundary points at angle ``theta`` carry the Dirichlet condition."""
    theta = np.asarray(theta, dtype=float)
    hit = np.zeros(theta.shape, dtype=bool)
    for start, span in domain.dirichlet_arcs:
        hit |= _wrap(theta - start) < span
    return hit if hit.shape else np.bool_(hit)


def junction_arc_distance(domain, theta):
    """Geodesic distance along the boundary from angle ``theta`` to the nearest junction."""
    theta = np.asarray(theta, dtype=float)
    junctions = domain.junction_angles
    if junctions.size == 0:
        return np.full(theta.shape, np.inf) if theta.shape else np.inf
    off, _ = _nearest_junction_offset(theta, junctions)
    out = domain.radius * np.abs(off).reshape(theta.shape)
    return out if theta.shape else float(out)


def _nearest_junction_offset(theta, junctions):
    """Signed angle in [-pi, pi) from the nearest junction to each angle of ``theta``, flattened.

    Returns the angles and the indices of those junctions in ``junctions``.
    """
    offs = _wrap(theta.reshape(-1)[:, None] - junctions[None, :] + math.pi) - math.pi
    nearest = np.argmin(np.abs(offs), axis=1)
    return offs[np.arange(len(offs)), nearest], nearest


COLLAR = 0.75  # the widest collar, delta or epsilon, as a fraction of the radius


@dataclass(frozen=True)
class TubeParams:
    """Collar widths of the cutoff, both positive: `delta` into the domain and
    `epsilon` along the boundary past a junction."""

    delta: float
    epsilon: float

    def __post_init__(self):
        if not (self.delta > 0.0 and self.epsilon > 0.0):
            raise ValueError(f"collar widths must be positive, got {self.delta}, {self.epsilon}")


def collar(domain, h, epsilon):
    """The regularized method's collar: delta = h (see ``study.check_levels``) and ``epsilon``."""
    limit = COLLAR * domain.radius
    if epsilon > limit:
        raise ValueError(f"epsilon {epsilon} exceeds the admissible {limit}")
    return TubeParams(h, epsilon)


def cutoff(domain, params, x):
    """Cutoff weight in [0, 1]: one on the Dirichlet boundary, zero outside the collar.

    Separable construction w(rho/delta) * g, where w is the C1 cubic profile
    and g equals one over the Dirichlet part and m(a / (rho + epsilon)) over
    the Neumann part, with a the along-boundary distance to the nearest
    junction and m the same cubic profile.  The widths delta and epsilon are
    those of ``params``; the regularized method takes them from ``collar``.
    """
    x = np.asarray(x, dtype=float)
    d = x - domain.center_array
    r = np.linalg.norm(d, axis=-1)
    rho = np.abs(r - domain.radius)
    theta = _wrap(np.arctan2(d[..., 1], d[..., 0]))

    w = _smoothstep_down(rho / params.delta)
    arc_dist = junction_arc_distance(domain, theta)
    gamma = rho + params.epsilon
    with np.errstate(invalid="ignore"):
        m = _smoothstep_down(arc_dist / gamma)
    g = np.where(is_dirichlet_angle(domain, theta), 1.0, m)
    return w * g


def cutoff_gradient(domain, params, x):
    """Analytic gradient of the cutoff weight.

    Valid away from the measure-zero set where the construction is not
    differentiable (the boundary itself, the rays through the junctions, and
    the disk center).
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    pts = np.atleast_2d(x)
    d = pts - domain.center_array
    r = np.linalg.norm(d, axis=-1)
    grad = np.zeros_like(pts)

    ok = r > 0.0
    e_r = np.zeros_like(pts)
    e_r[ok] = d[ok] / r[ok, None]
    e_t = np.column_stack([-e_r[:, 1], e_r[:, 0]])

    rho = np.abs(r - domain.radius)
    s_rho = np.where(r >= domain.radius, 1.0, -1.0)
    theta = _wrap(np.arctan2(d[:, 1], d[:, 0]))

    w = _smoothstep_down(rho / params.delta)
    wp = _smoothstep_down_prime(rho / params.delta) / params.delta

    dirichlet = is_dirichlet_angle(domain, theta)
    junctions = domain.junction_angles

    if junctions.size == 0:
        grad[ok] = (wp * s_rho)[ok, None] * e_r[ok]
        if not domain.is_pure_dirichlet:
            grad[:] = 0.0  # pure Neumann: weight vanishes identically
        return grad[0] if squeeze else grad.reshape(x.shape)

    # Signed angular offset to the nearest junction drives the along-boundary
    # coordinate a = R * |offset| and its direction of increase.
    off, _ = _nearest_junction_offset(theta, junctions)
    a = domain.radius * np.abs(off)
    sign_a = np.where(off >= 0.0, 1.0, -1.0)

    gamma = rho + params.epsilon
    q = a / gamma
    m = _smoothstep_down(q)
    mp = _smoothstep_down_prime(q)

    with np.errstate(invalid="ignore", divide="ignore"):
        grad_a = (sign_a * domain.radius / r)[:, None] * e_t
        grad_rho = s_rho[:, None] * e_r
        grad_q = grad_a / gamma[:, None] - (a / gamma**2 * s_rho)[:, None] * e_r

        g_d = (wp * s_rho)[:, None] * e_r
        g_n = (wp * s_rho * m)[:, None] * e_r + (w * mp)[:, None] * grad_q

    grad = np.where(dirichlet[:, None], g_d, g_n)
    grad[~ok] = 0.0
    grad[rho >= params.delta] = 0.0
    return grad[0] if squeeze else grad.reshape(x.shape)


def _neumann_side(domain, junction_angle):
    """Direction (+1 CCW / -1 CW) from a junction into the Neumann part."""
    return -1.0 if is_dirichlet_angle(domain, np.float64(junction_angle)) else 1.0


@functools.cache
def _gauss(n):
    """Gauss-Legendre nodes and weights of order ``n`` on [-1, 1], computed once, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_gauss(f, breaks, order):
    nodes, weights = _gauss(order)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * np.sum(weights * f(mid + half * nodes))
    return total


def _geometric_breaks(delta, epsilon):
    """Panels refined toward t = 0 where the integrand varies on scale epsilon."""
    breaks = [0.0]
    t = min(epsilon, delta)
    while t < delta:
        breaks.append(t)
        t *= 2.0
    breaks.append(delta)
    return np.array(breaks)


_MODEL_ORDER = 16  # Gauss order per panel of ``log_model_integral``


def log_model_integral(delta, epsilon):
    """Numerical value of the one-dimensional model integral of 1/(t + epsilon) over [0, delta]."""
    breaks = _geometric_breaks(delta, epsilon)
    return _panel_gauss(lambda t: 1.0 / (t + epsilon), breaks, _MODEL_ORDER)


def cutoff_conormal_integral(domain, params, z):
    """Integral of the squared conormal derivative of the cutoff over the wedge at ``z``.

    The wedge fiber at depth t runs an arc length a in [0, gamma], gamma =
    t + epsilon, into the Neumann side of the junction ``z``.  There the
    conormal derivative is w(t/delta) m'(q) R / ((R - t) gamma), with q the
    distance to the nearest junction over gamma, and the area element is
    (1 - t/R) da dt, so

        I = int_0^delta w(t/delta)^2 R / ((R - t) gamma^2) J(gamma) dt,

    where J(gamma) = int m'(q)^2 da along the fiber is exact: with
    F(x) = 36 (x^3/3 - x^4/2 + x^5/5), F(1) = 6/5, and L the length of the
    Neumann arc that starts at ``z``, J = gamma F(min(1, L / 2 gamma)), plus
    gamma (F(L / 2 gamma) - F(max(L - gamma, 0) / gamma)) once gamma > L/2,
    where the other end of the arc is the nearest junction; past L the fiber
    is Dirichlet and adds nothing.  The depth integral takes the Gauss panels
    of ``log_model_integral``, with breaks where gamma = L/2 and gamma = L.
    Valid while delta + epsilon stays within L and the Dirichlet arc after
    it; a fiber that laps into the next Neumann arc raises ``ValueError``.
    """
    z = np.asarray(z, dtype=float)
    delta, epsilon, R = params.delta, params.epsilon, domain.radius
    junctions = domain.junction_angles
    if junctions.size == 0:
        raise ValueError("domain has no boundary-condition junctions")
    _, nearest = _nearest_junction_offset(boundary_angle(domain, z), junctions)
    theta_z = junctions[nearest[0]]
    if np.linalg.norm(z - domain.boundary_point(theta_z)) > 1e-8 * R:
        raise ValueError("z is not a junction point of the boundary partition")
    # Arc lengths to the next two junctions, walking from z into the Neumann side.
    ahead = np.sort(_wrap(_neumann_side(domain, theta_z) * (junctions - theta_z)))
    L, lap = (R * np.append(ahead[1:], TWO_PI)[:2]).tolist()
    if delta + epsilon > lap * (1.0 + 1e-12):  # rounding: a wedge may end at the next junction
        raise ValueError(
            f"delta + epsilon = {delta + epsilon!r} exceeds {lap!r}, the Neumann arc at the "
            f"junction at angle {theta_z:.6g} and the Dirichlet arc after it: the wedge would lap "
            "into the next Neumann arc"
        )

    def F(x):
        return 36.0 * x**3 * (1.0 / 3.0 - x / 2.0 + x * x / 5.0)

    def integrand(t):
        gamma = t + epsilon
        half = np.minimum(L / (2.0 * gamma), 1.0)
        fiber = np.where(half < 1.0, 2.0 * F(half) - F(np.maximum(L - gamma, 0.0) / gamma), F(half))
        return _smoothstep_down(t / delta) ** 2 * R / ((R - t) * gamma) * fiber

    kinks = [b for b in (L / 2.0 - epsilon, L - epsilon) if 0.0 < b < delta]
    return _panel_gauss(integrand, np.union1d(_geometric_breaks(delta, epsilon), kinks), _MODEL_ORDER)
