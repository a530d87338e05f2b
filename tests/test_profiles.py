"""Thickness-profile container, admissible-class checks, and tent weights."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snlab import profiles
from snlab.profiles import ProfileH, ProfileError


def _admissible(h) -> bool:
    """Nonnegative, concave and of unit integral."""
    report = profiles.validate(h)
    return report.ok and report.normalized


def test_constant_profile_is_admissible_unit_mass():
    h = profiles.constant()
    assert h.integral() == pytest.approx(1.0, abs=1e-15)
    assert _admissible(h)
    assert h(0.37) == pytest.approx(1.0)


def test_triangular_profile_peak_and_mass():
    h = profiles.triangular(0.3)
    assert h.integral() == pytest.approx(1.0, abs=1e-14)
    assert h.max() == pytest.approx(2.0, abs=1e-14)
    assert h(0.3) == pytest.approx(2.0)
    assert h(0.0) == 0.0 and h(1.0) == 0.0
    assert _admissible(h)


def test_triangular_rejects_endpoint_peaks_outside_open_interval():
    with pytest.raises(ProfileError):
        profiles.triangular(0.0)
    with pytest.raises(ProfileError):
        profiles.triangular(1.0)


def test_parabolic_star_matches_6x_1_minus_x():
    h = profiles.parabolic_star()
    x = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(h(x) - 6.0 * x * (1.0 - x))) < 2e-6
    assert h.integral() == pytest.approx(1.0, rel=1e-9)


def test_validate_flags_nonconcave_and_negative():
    bumpy = ProfileH([0.0, 0.4, 0.6, 1.0], [0.0, 0.5, 2.0, 0.0])
    report = profiles.validate(bumpy)
    assert not report.ok
    assert any(kind == "concavity" for kind, _, _ in report.violations)
    neg = ProfileH([0.0, 0.5, 1.0], [0.5, -0.1, 0.5])
    report = profiles.validate(neg)
    assert not report.ok
    assert any(kind == "negative" for kind, _, _ in report.violations)


def test_normalize_scales_to_unit_integral():
    h = ProfileH([0.0, 0.5, 1.0], [1.0, 3.0, 1.0])
    n = profiles.normalize(h)
    assert n.integral() == pytest.approx(1.0, abs=1e-15)
    assert n(0.5) / n(0.0) == pytest.approx(3.0)


def test_mirror_add_scale_algebra():
    h = profiles.triangular(0.25)
    m = profiles.mirror(h)
    assert m(0.75) == pytest.approx(h(0.25))
    s = profiles.add(profiles.scale(h, 0.5), profiles.scale(m, 0.5))
    x = np.linspace(0.0, 1.0, 57)
    assert np.allclose(s(x), 0.5 * (h(x) + m(x)), atol=1e-14)


def _resample(h: ProfileH, knots) -> ProfileH:
    """Evaluate on a new knot grid (lossy unless old knots are included)."""
    knots = np.asarray(knots, dtype=float)
    return ProfileH(knots, h(knots))


def test_resample_preserves_values_at_new_knots():
    h = profiles.triangular(0.5)
    grid = np.linspace(0.0, 1.0, 9)
    r = _resample(h, grid)
    assert np.allclose(r(grid), h(grid), atol=1e-15)
    assert np.allclose(r.knots, grid)


def _positivity_constant(h: ProfileH) -> float:
    """Largest K with h(x) >= K x(1-x) on [0, 1].

    Minimizes the ratio h(x) / (x(1-x)) exactly: on each linear piece the
    ratio has at most one interior critical point (quadratic numerator of the
    derivative), and at an endpoint where h vanishes the ratio tends to the
    absolute boundary slope.
    """
    k, v, s = h.knots, h.values, h.slopes()
    cands = []
    if v[0] <= 0.0:
        cands.append(s[0])
    if v[-1] <= 0.0:
        cands.append(-s[-1])
    interior = k[1:-1]
    if interior.size:
        cands.extend((v[1:-1] / (interior * (1.0 - interior))).tolist())

    def ratio(x):
        return h(x) / (x * (1.0 - x))

    for i in range(s.size):
        lo = max(k[i], 1e-15)
        hi = min(k[i + 1], 1.0 - 1e-15)
        if lo >= hi:
            continue
        b = s[i]
        a = v[i] - b * k[i]
        if b == 0.0:
            x_star = 0.5
            if lo < x_star < hi:
                cands.append(ratio(x_star))
            continue
        disc = a * a + a * b
        if disc < 0.0:
            continue
        root = np.sqrt(disc)
        for x_star in ((-a + root) / b, (-a - root) / b):
            if lo < x_star < hi:
                cands.append(ratio(x_star))
    if not cands:
        return 0.0
    return float(min(cands))


def _brute_positivity_constant(h, n=200001):
    """Numeric oracle: min of h(x) / (x (1 - x)) over a dense interior grid,
    with the exact one-sided limits at endpoints where h vanishes."""
    x = np.linspace(0.0, 1.0, n)[1:-1]
    best = float(np.min(h(x) / (x * (1.0 - x))))
    s = h.slopes()
    if h.values[0] <= 0.0:
        best = min(best, float(s[0]))
    if h.values[-1] <= 0.0:
        best = min(best, float(-s[-1]))
    return best


def test_positivity_constant_known_values_and_oracle():
    # symmetric tent: boundary-slope limit 4; flat profile: interior min 4 at 1/2
    assert _positivity_constant(profiles.triangular(0.5)) == pytest.approx(4.0)
    assert _positivity_constant(profiles.constant()) == pytest.approx(4.0)
    rng = np.random.default_rng(8)
    for _ in range(6):
        h = profiles.random_profile(rng, n_knots=17)
        k = _positivity_constant(h)
        assert k == pytest.approx(_brute_positivity_constant(h), rel=1e-5)
        # certificate: h really does dominate K x(1-x)
        x = np.linspace(0.0, 1.0, 4001)
        assert np.all(h(x) - k * x * (1.0 - x) >= -1e-9)


def test_tent_weights_round_trip_random_profiles():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        h = profiles.random_profile(rng, n_knots=int(rng.integers(3, 40)))
        back = profiles.from_tents(profiles.tent_weights(h), h.knots)
        assert np.abs(back.values - h.values).max() <= 1e-13


def test_nonnegative_tent_weights_give_admissible_shapes():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        k = int(rng.integers(5, 41))
        w = rng.exponential(size=k) * (rng.random(k) >= 0.3)
        if not w.any():
            w[0] = 1.0
        assert profiles.validate(profiles.from_tents(w, np.linspace(0.0, 1.0, k))).ok


def test_tent_weights_of_named_profiles():
    assert profiles.tent_weights(profiles.constant()).tolist() == [1.0, 1.0]
    # slope 8 up to the peak 2 at x0 = 1/4, then -8/3 down: a drop of 32/3
    assert np.allclose(profiles.tent_weights(profiles.triangular(0.25)),
                       [0.0, 0.0, 32.0 / 3.0], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("weights", [[1.0, -1e-3, 0.5], [1.0, np.nan, 0.5], [1.0, 1.0]],
                         ids=["negative", "nan", "length"])
def test_from_tents_rejects_bad_weights(weights):
    with pytest.raises(ProfileError):
        profiles.from_tents(weights, [0.0, 0.5, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_random_profile_always_admissible(seed):
    h = profiles.random_profile(np.random.default_rng(seed))
    assert _admissible(h)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_random_strictly_positive_profiles_bounded_away_from_zero(seed):
    h = profiles.random_profile(np.random.default_rng(seed), strictly_positive=True)
    assert _admissible(h)
    assert min(h(0.0), h(1.0)) > 1e-3


def test_save_load_roundtrip(tmp_path):
    h = profiles.random_profile(np.random.default_rng(11))
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"knots": h.knots.tolist(), "values": h.values.tolist()}))
    back = profiles.load(path)
    assert np.allclose(back.knots, h.knots)
    assert np.allclose(back.values, h.values)
    assert json.loads(path.read_text())["knots"][0] == 0.0


def test_resolve_specs():
    assert profiles.resolve("const")(0.5) == pytest.approx(1.0)
    assert profiles.resolve("tent:0.25").max() == pytest.approx(2.0)
    x = np.linspace(0, 1, 11)
    assert np.allclose(profiles.resolve("parabolic")(x), 6 * x * (1 - x), atol=2e-6)
    with pytest.raises((ProfileError, ValueError, OSError)):
        profiles.resolve("no-such-profile")
