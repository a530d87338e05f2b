"""Piecewise-linear weight profiles on [0, 1].

The admissible class consists of nonnegative concave functions h on [0, 1]
with unit integral.  Profiles are stored as piecewise-linear interpolants so
that integrals and mesh transfers stay exact.  A ``ProfileH`` is only a
container for a piecewise-linear function; membership in the admissible class
is checked by :func:`validate` and enforced by the constructors that promise
it.

On fixed knots the class has a coordinate description by *tent weights*.  A
piecewise-linear h is concave exactly when no slope rises, and a concave h is
nonnegative exactly when its two end values are.  So h is nonnegative and
concave exactly when it is its chord plus a sum of tents, one per interior
knot, with nonnegative weights: the two end values and the slope drop at each
interior knot.  :func:`from_tents` and :func:`tent_weights` convert between
the two descriptions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

CONCAVITY_TOL = 1e-12


class ProfileError(ValueError):
    """Malformed profile data (knots or ordinates)."""


@dataclass(frozen=True, eq=False)
class ProfileH:
    """Piecewise-linear function on [0, 1] given by knots and ordinates.

    Profiles hash and compare by identity, so one can key a cache."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or values.ndim != 1 or knots.size != values.size:
            raise ProfileError("knots and values must be 1-d arrays of equal length")
        if knots.size < 2:
            raise ProfileError("need at least two knots")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ProfileError("non-finite profile data")
        if abs(knots[0]) > 1e-15 or abs(knots[-1] - 1.0) > 1e-15:
            raise ProfileError("knots must span [0, 1]")
        if np.any(np.diff(knots) <= 0):
            raise ProfileError("knots must be strictly increasing")
        knots = knots.copy()
        knots[0], knots[-1] = 0.0, 1.0
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values.copy())
        self.knots.setflags(write=False)
        self.values.setflags(write=False)

    def __call__(self, x):
        return np.interp(x, self.knots, self.values)

    def integral(self) -> float:
        """Exact integral of the piecewise-linear interpolant."""
        return float(np.trapezoid(self.values, self.knots))

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.knots)

    def max(self) -> float:
        return float(self.values.max())


@dataclass
class ValidityReport:
    """Outcome of an admissibility check.

    ``violations`` holds (kind, index, magnitude) tuples where kind is one of
    'negative', 'concavity', 'integral'.
    """

    ok: bool
    normalized: bool
    integral: float
    violations: list = field(default_factory=list)


def validate(h: ProfileH) -> ValidityReport:
    """Check nonnegativity, concavity and unit integral of a profile."""
    violations = []
    neg = np.where(h.values < -CONCAVITY_TOL)[0]
    for i in neg:
        violations.append(("negative", int(i), float(-h.values[i])))
    s = h.slopes()
    scale = max(1.0, float(np.abs(s).max())) if s.size else 1.0
    jump = np.diff(s)
    bad = np.where(jump > CONCAVITY_TOL * scale)[0]
    for i in bad:
        violations.append(("concavity", int(i) + 1, float(jump[i])))
    integ = h.integral()
    normalized = abs(integ - 1.0) <= 1e-12
    if integ <= 0:
        violations.append(("integral", -1, float(integ)))
    ok = not violations
    return ValidityReport(ok=ok, normalized=normalized, integral=integ, violations=violations)


def normalize(h: ProfileH) -> ProfileH:
    """Rescale ordinates so the integral equals one."""
    integ = h.integral()
    if integ <= 0:
        raise ProfileError("cannot normalize a profile with nonpositive integral")
    return ProfileH(h.knots, h.values / integ)


def constant() -> ProfileH:
    """The flat profile h == 1."""
    return ProfileH(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def triangular(x0: float) -> ProfileH:
    """Normalized tent profile with peak at x0.

    Rises linearly from 0 to the peak at x0 and falls linearly back to 0;
    normalization puts the peak ordinate at 2.
    """
    if not 0.0 < x0 < 1.0:
        raise ProfileError("tent peak must lie strictly inside (0, 1)")
    return ProfileH(np.array([0.0, x0, 1.0]), np.array([0.0, 2.0, 0.0]))


def parabolic_star() -> ProfileH:
    """Piecewise-linear sampling of 6x(1-x) on 2001 uniform knots, then normalized."""
    x = np.linspace(0.0, 1.0, 2001)
    return normalize(ProfileH(x, 6.0 * x * (1.0 - x)))


def mirror(h: ProfileH) -> ProfileH:
    """The profile x -> h(1 - x)."""
    return ProfileH(1.0 - h.knots[::-1], h.values[::-1])


def add(h1: ProfileH, h2: ProfileH) -> ProfileH:
    """Pointwise sum on the union knot grid (exact for piecewise-linear)."""
    knots = np.union1d(h1.knots, h2.knots)
    return ProfileH(knots, h1(knots) + h2(knots))


def scale(h: ProfileH, k: float) -> ProfileH:
    return ProfileH(h.knots, k * h.values)


def from_tents(weights, knots) -> ProfileH:
    """The profile with tent weights ``weights`` on ``knots``; see the module docstring.

    ``weights`` holds h(0), h(1) and the slope drop at each interior knot.  The
    ordinates are summed from slopes that never rise, so rounding adds no
    convex kink.  The result is not renormalized.
    """
    w = np.asarray(weights, dtype=float)
    x = np.asarray(knots, dtype=float)
    if w.ndim != 1 or w.shape != x.shape:
        raise ProfileError("need one tent weight per knot")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ProfileError("tent weights must be finite and nonnegative")
    drops = w[2:]
    s0 = w[1] - w[0] + float(np.dot(drops, 1.0 - x[1:-1]))
    slopes = s0 - np.concatenate([[0.0], np.cumsum(drops)])
    return ProfileH(x, w[0] + np.concatenate([[0.0], np.cumsum(slopes * np.diff(x))]))


def tent_weights(h: ProfileH) -> np.ndarray:
    """Tent weights of h, the inverse of :func:`from_tents`: (h(0), h(1), slope
    drops).  Negatives within rounding of zero, which :func:`validate`
    tolerates, are set to zero; a non-admissible shape raises ``ProfileError``."""
    if not validate(h).ok:
        raise ProfileError("profile is not nonnegative and concave")
    w = np.concatenate([h.values[[0, -1]], -np.diff(h.slopes())])
    return np.maximum(w, 0.0)


def random_profile(rng: np.random.Generator, n_knots: int = 33,
                   strictly_positive: bool = False) -> ProfileH:
    """Random admissible profile (nonnegative, concave, unit integral).

    Draws a Dirichlet-weighted positive combination of concave generators:
    a constant, a random tent, the parabola x(1-x), and a minimum of random
    affine functions.  Sums of concave functions are concave, so no projection
    is needed.  With ``strictly_positive`` the constant component gets a floor
    so the profile is bounded away from zero at the endpoints.
    """
    if n_knots < 3:
        raise ProfileError("need at least three knots")
    x = np.linspace(0.0, 1.0, n_knots)
    x0 = float(rng.uniform(0.1, 0.9))
    tent = np.interp(x, [0.0, x0, 1.0], [0.0, 1.0, 0.0])
    parab = x * (1.0 - x) * 4.0
    n_aff = int(rng.integers(2, 5))
    a = rng.uniform(-2.0, 2.0, size=n_aff)
    b = rng.uniform(0.5, 2.0, size=n_aff)
    minaff = np.min(a[:, None] * (x[None, :] - 0.5) + b[:, None], axis=0)
    # shift instead of clip: the positive part of a concave function is not
    # concave (convex kinks at zero crossings), but a vertical shift is
    minaff -= min(minaff.min(), 0.0)
    w = rng.dirichlet(np.ones(4))
    if strictly_positive:
        w[0] = max(w[0], 0.25)
    elif rng.uniform() < 0.35:
        # force a profile that vanishes at both endpoints
        w[0] = 0.0
        w[3] = 0.0
    v = w[0] * np.ones_like(x) + w[1] * tent + w[2] * parab + w[3] * minaff
    return normalize(ProfileH(x, v))


def from_dict(d: dict) -> ProfileH:
    try:
        return ProfileH(np.asarray(d["knots"], dtype=float),
                        np.asarray(d["values"], dtype=float))
    except (KeyError, TypeError) as exc:
        raise ProfileError(f"malformed profile object: {exc}") from exc


def load(path) -> ProfileH:
    with open(path, encoding="utf-8") as f:
        return from_dict(json.load(f))


def resolve(spec: str) -> ProfileH:
    """Turn a CLI profile spec into a profile.

    Accepts ``const``, ``parabolic``, ``tent:<x0>`` or a path to a JSON file
    with ``knots`` and ``values`` fields.
    """
    if spec == "const":
        return constant()
    if spec == "parabolic":
        return parabolic_star()
    if spec.startswith("tent:"):
        try:
            x0 = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ProfileError(f"bad tent spec {spec!r}") from exc
        return triangular(x0)
    return load(spec)
