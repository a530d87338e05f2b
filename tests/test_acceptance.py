"""End-to-end acceptance gate: nine numbered criteria at their stated tolerances.

Each criterion is one test; when every assertion of a criterion holds, the
test prints a single ``[criterion N] PASS`` line directly to the terminal
(bypassing capture), so a full run shows one pass/fail line per criterion.
A failing criterion surfaces as the usual pytest FAILED line instead.
"""

import math
import time

import numpy as np
import pytest

from snlab import bessel, bounds, diagram, geom2d, profiles, sl1d, variations
from snlab.fem2d import F_of_domain, thin_sweep

PI2 = math.pi ** 2


@pytest.fixture
def announce(capsys):
    def _announce(n: int, message: str) -> None:
        with capsys.disabled():
            print(f"\n[criterion {n}] PASS  {message}")
    return _announce


def test_criterion_1_one_dimensional_cornerstones(announce):
    t0 = time.perf_counter()
    sg_star = sl1d.sigma1_extrapolated(profiles.parabolic_star(), 2048)
    mu_one = sl1d.mu1_extrapolated(profiles.constant(), 2048)
    sg_one = sl1d.sigma1_extrapolated(profiles.constant(), 2048)
    elapsed = time.perf_counter() - t0

    assert abs(sg_star - 12.0) <= 1e-4
    assert abs(mu_one - PI2) <= 1e-8
    assert abs(sg_one - PI2) <= 1e-8
    assert elapsed < 10.0
    announce(1, f"sigma1(6x(1-x))={sg_star:.8f} err={abs(sg_star - 12):.1e} "
                f"(tol 1e-4); mu1(1),sigma1(1)=pi^2 "
                f"err<={max(abs(mu_one - PI2), abs(sg_one - PI2)):.1e} "
                f"(tol 1e-8); {elapsed:.1f} s < 10 s")


def test_criterion_2_tent_ratio_is_four(announce):
    t0 = time.perf_counter()
    worst_bessel = worst_galerkin = 0.0
    for x0 in np.arange(0.1, 0.95, 0.1):
        x0 = float(x0)
        ratio = bessel.mu1_tent(x0).value / bessel.sigma1_tent(x0).value
        worst_bessel = max(worst_bessel, abs(ratio - 4.0))
        tent = profiles.scale(profiles.triangular(x0), 0.5)  # peak-1 tent
        galerkin = (sl1d.mu1_extrapolated(tent, 512)
                    / sl1d.sigma1_extrapolated(tent, 512))
        worst_galerkin = max(worst_galerkin, abs(galerkin - 4.0))
    mu_half = bessel.mu1_tent(0.5).value
    mu_half_err = abs(mu_half - 4.0 * bessel.j0_first_zero() ** 2)
    elapsed = time.perf_counter() - t0

    assert worst_bessel <= 1e-10
    assert worst_galerkin <= 1e-4
    assert mu_half_err <= 1e-8
    assert elapsed < 30.0
    announce(2, f"mu1/sigma1=4 over x0 in 0.1..0.9: Bessel err<={worst_bessel:.1e} "
                f"(tol 1e-10), Galerkin err<={worst_galerkin:.1e} (tol 1e-4); "
                f"mu1(T_1/2)=4*j01^2 err={mu_half_err:.1e} (tol 1e-8); "
                f"{elapsed:.1f} s < 30 s")


def test_criterion_3_band_on_random_profiles(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    lo, hi = PI2 / 12.0 - 1e-3, 4.0 + 1e-3
    f_min, f_max = math.inf, -math.inf
    for _ in range(1000):
        f = sl1d.F_of_h(profiles.random_profile(rng), 512)
        f_min, f_max = min(f_min, f), max(f_max, f)
        assert lo <= f <= hi
    worst_tent = 0.0
    for x0 in (0.15, 0.3, 0.5, 0.7, 0.85):
        tent = profiles.triangular(x0)  # unit integral, so F = mu1 / sigma1
        f = sl1d.mu1_extrapolated(tent, 512) / sl1d.sigma1_extrapolated(tent, 512)
        worst_tent = max(worst_tent, abs(f - 2.0))
    elapsed = time.perf_counter() - t0

    assert worst_tent <= 1e-4
    assert elapsed < 300.0
    announce(3, f"1000 random profiles: F in [{f_min:.4f}, {f_max:.4f}] within "
                f"[pi^2/12-1e-3, 4+1e-3]; tents F=2 err<={worst_tent:.1e} "
                f"(tol 1e-4); {elapsed:.1f} s < 300 s")


def test_criterion_4_bound_constants(announce):
    t0 = time.perf_counter()
    K, tau_star = bounds.constant_K(1000)
    upper = bounds.upper_bound_constant(1000)
    sign_ok = 0
    for tau in np.linspace(0.0, 1.0, 1002)[1:-1]:
        for a, b in bounds.root_brackets(float(tau)):
            assert bounds.p_tau(float(tau), a) * bounds.p_tau(float(tau), b) <= 0.0
            sign_ok += 1
    delta_star = 18.0 ** (1.0 / 3.0)
    low = bounds.lower_bound_constant()
    low_err = abs(low - PI2 / (6.0 * delta_star))
    b1, b2 = bounds.lower_bound_branches(delta_star)
    elapsed = time.perf_counter() - t0

    assert K <= 3.52
    assert upper <= 9.04
    assert low_err <= 1e-12
    assert abs(b1 - b2) <= 1e-12
    assert elapsed < 10.0
    announce(4, f"K={K:.6f}<=3.52 at tau*={tau_star:.4f}, 2(1+K)={upper:.6f}<=9.04; "
                f"{sign_ok} bracket sign conditions on 1000-pt tau grid; lower "
                f"constant err={low_err:.1e} (tol 1e-12), branch gap={abs(b1 - b2):.1e} "
                f"at delta=18^(1/3); {elapsed:.1f} s < 10 s")


def test_criterion_5_fem_golden_values(announce):
    t0 = time.perf_counter()
    r1 = F_of_domain(geom2d.named("T1"), hmax=0.02)
    r2 = F_of_domain(geom2d.named("T2"), hmax=0.02)
    rd = F_of_domain(geom2d.named("disk:256"), hmax=0.02)
    elapsed = time.perf_counter() - t0

    assert abs(r1.sigma1 - 1.2908) <= 0.002
    assert abs(r2.sigma1 - 0.7310) <= 0.002
    assert abs(r1.F - 1.962) <= 0.01
    assert abs(r2.F - 1.977) <= 0.01
    assert abs(r1.mu1 / (16.0 * PI2 / 9.0) - 1.0) <= 0.003
    assert abs(r2.mu1 / PI2 - 1.0) <= 0.003
    disk_x_err = abs(rd.x / (2.0 * math.pi) - 1.0)
    disk_y_err = abs(rd.y / (math.pi * bessel.j1prime_first_zero() ** 2) - 1.0)
    assert disk_x_err <= 0.005
    assert disk_y_err <= 0.005
    assert elapsed < 300.0
    announce(5, f"T1: sigma1={r1.sigma1:.4f} (1.2908+-0.002), F={r1.F:.4f} "
                f"(1.962+-0.01), mu1 rel err={abs(r1.mu1 * 9 / (16 * PI2) - 1):.1e}; "
                f"T2: sigma1={r2.sigma1:.4f} (0.7310+-0.002), F={r2.F:.4f} "
                f"(1.977+-0.01), mu1 rel err={abs(r2.mu1 / PI2 - 1):.1e} (tol 0.3%); "
                f"disk(256): sigma1*P rel err={disk_x_err:.1e}, mu1*|O| rel "
                f"err={disk_y_err:.1e} (tol 0.5%); {elapsed:.1f} s < 300 s "
                f"at h_max 0.02")


def test_criterion_6_thin_domain_asymptotics(announce):
    t0 = time.perf_counter()
    tent_half = profiles.scale(profiles.triangular(0.5), 0.25)
    rhombi = thin_sweep(tent_half, tent_half, (0.2, 0.1, 0.05), dx0=0.01)
    flat_half = profiles.scale(profiles.constant(), 0.5)
    rects = thin_sweep(flat_half, flat_half, (0.2, 0.1, 0.05), dx0=0.01)
    elapsed = time.perf_counter() - t0

    gaps = rhombi.relative_gaps()
    rect_f_err = abs(rects.F_extrapolated - 1.0)
    assert gaps["mu1"] <= 0.02
    assert gaps["sigma1"] <= 0.03
    assert rect_f_err <= 0.02
    assert elapsed < 600.0
    announce(6, f"rhombi: extrapolated mu1 rel gap={gaps['mu1']:.1e} to 4*j01^2 "
                f"(tol 2%), 2*sigma1/eps rel gap={gaps['sigma1']:.1e} to j01^2 "
                f"(tol 3%); rectangles: F_extrapolated={rects.F_extrapolated:.4f} "
                f"err={rect_f_err:.1e} to 1 (tol 2%); {elapsed:.1f} s < 600 s")


def test_criterion_7_variation_formulas(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_first = 0.0
    for k in range(5):
        phi = profiles.random_profile(rng)
        reports = variations.first_variations(phi, elements=2048, label=f"random-{k}")
        for quantity in ("sigma", "mu"):
            worst_first = max(worst_first, reports[quantity].relative_error)
    flat = variations.first_variations(
        variations.linear_direction(0.8, 0.4), elements=2048, label="0.4+0.8x")["F"]
    second = variations.second_variations_linear(1.0, elements=2048)["F"]
    res = variations.eigenfunction_derivative_residuals()
    elapsed = time.perf_counter() - t0

    assert worst_first <= 1e-4
    assert abs(flat.finite_difference) <= 1e-6
    assert second.relative_error <= 1e-3
    assert max(res.values()) <= 1e-10
    assert elapsed < 300.0
    announce(7, f"first variations over 5 random concave directions: rel "
                f"err<={worst_first:.1e} (tol 1e-4); dF/dt(1+t(B+Ax))="
                f"{flat.finite_difference:+.1e} (tol 1e-6); d2F/dt2 along Ax rel "
                f"err={second.relative_error:.1e} vs A^2(9+pi^2)/(8 pi^2) "
                f"(tol 1e-3); eigenfunction-derivative residuals<="
                f"{max(res.values()):.1e} (tol 1e-10); {elapsed:.1f} s < 300 s")


def test_criterion_8_diagram_campaign(announce):
    t0 = time.perf_counter()
    campaign = diagram.Campaign(family="randomPolygon", n=1000, seed=0, hmax=0.03)
    result = diagram.run_campaign(campaign, threads=1)
    elapsed = time.perf_counter() - t0

    assert len(result.points) == 1000
    assert not result.errors
    hb = diagram.hard_bound_report(result.points)
    assert hb["band_violations"] == 0
    assert hb["per_domain_violations"] == 0
    assert hb["payne_violations"] == 0
    assert hb["box_violations"] == 0
    report = diagram.conjecture_report(result.points)
    outside = report["below_1"] + report["above_2"]
    assert elapsed < 1800.0
    announce(8, f"1000 random polygons at h_max 0.03: zero hard-bound violations "
                f"(band, per-domain, Payne, box); F in [{report['F_min']:.4f}, "
                f"{report['F_max']:.4f}], x_max={hb['x_max']:.3f}<=8*pi, "
                f"y_max={hb['y_max']:.3f}<=pi*j'11^2; outside conjectured band "
                f"1<=F<=2: {outside} (reported, not asserted); "
                f"{elapsed:.0f} s < 1800 s")


def test_criterion_9_kernel_oracle_equivalence(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        h = profiles.random_profile(rng, strictly_positive=True)
        galerkin = sl1d.sigma1_extrapolated(h, 1024)
        oracle = sl1d.sigma1_kernel_oracle(h)
        worst = max(worst, abs(galerkin - oracle))
    elapsed = time.perf_counter() - t0

    assert worst <= 1e-3
    assert elapsed < 120.0
    announce(9, f"Galerkin vs Green-kernel sigma1 on 50 random strictly positive "
                f"profiles: gap<={worst:.1e} (tol 1e-3); {elapsed:.1f} s < 120 s")
