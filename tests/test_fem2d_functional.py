"""Domain records and collapsing-domain sweeps against the 1D limits."""

import json
import math

import numpy as np
import pytest

from snlab import bessel, geom2d, profiles
from snlab.cli import main
from snlab.fem2d import (F_of_domain, polygon_mesh, record_from_mesh, refine,
                         refinement_ladder, thin_sweep)
from snlab.fem2d.functional import aitken


def test_record_fields_consistent(hull_polygon):
    rec = F_of_domain(hull_polygon, hmax=0.06)
    assert rec.x == pytest.approx(rec.sigma1 * rec.perimeter, rel=1e-14)
    assert rec.y == pytest.approx(rec.mu1 * rec.area, rel=1e-14)
    assert rec.F == pytest.approx(rec.y / rec.x, rel=1e-14)
    assert rec.mu_residual <= 1e-9 and rec.sigma_residual <= 1e-9
    d = rec.as_dict()
    for key in ("area", "perimeter", "diameter", "width", "inradius",
                "mu1", "sigma1", "x", "y", "F", "dofs", "hmax"):
        assert key in d


def test_F_of_domain_scale_invariance(hull_polygon):
    rec = F_of_domain(hull_polygon, hmax=0.07)
    scaled = geom2d.ConvexPolygon(3.7 * hull_polygon.vertices)
    rec2 = F_of_domain(scaled, hmax=0.07 * 3.7)  # similar mesh on similar domain
    assert rec2.F == pytest.approx(rec.F, rel=1e-9)
    assert rec2.x == pytest.approx(rec.x, rel=1e-9)


def test_refinement_ladder_records_and_observed_orders(capsys):
    square = geom2d.resolve("square")
    geo = geom2d.functionals(square)
    mesh = polygon_mesh(square, 0.2)
    records, rates = refinement_ladder(mesh, geo, 3)
    once = refine(mesh)
    assert records == (record_from_mesh(mesh, geo), record_from_mesh(once, geo),
                       record_from_mesh(refine(once), geo))
    assert set(rates) == {"mu1", "sigma1"}
    for key, rate in rates.items():
        a, b, c = (getattr(r, key) for r in records)
        assert rate == math.log2((b - a) / (c - b))
        assert 3.5 <= rate <= 4.5          # P2 eigenvalues converge as h^4

    assert main(["fem", "--shape", "square", "--hmax", "0.2", "--levels", "3", "--json"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["mu1_observed_rate"] == rates["mu1"]
    assert res["sigma1_observed_rate"] == rates["sigma1"]

    with pytest.raises(ValueError):
        refinement_ladder(mesh, geo, 0)


def test_aitken_accelerates_geometric_sequences():
    # s_k = L + c r^k has exact Aitken limit L
    L, c, r = 2.5, 0.8, 0.35
    seq = [L + c * r ** k for k in range(3)]
    assert aitken(seq) == pytest.approx(L, abs=1e-12)
    assert aitken([1.0, 1.0, 1.0]) == 1.0     # guarded constant sequence


def test_rhombi_sweep_approaches_bessel_limits():
    half = profiles.scale(profiles.triangular(0.5), 0.25)
    sweep = thin_sweep(half, half, (0.2, 0.1, 0.05), dx0=0.01)
    j01sq = bessel.j0_first_zero() ** 2
    assert sweep.mu1_limit == pytest.approx(4.0 * j01sq, rel=1e-12)
    assert sweep.sigma1_limit == pytest.approx(j01sq, rel=1e-9)
    gaps = sweep.relative_gaps()
    assert gaps["mu1"] < 0.02
    assert gaps["sigma1"] < 0.03
    assert sweep.F_extrapolated == pytest.approx(2.0, abs=0.01)


def test_rectangle_sweep_has_F_near_one():
    half = profiles.scale(profiles.constant(), 0.5)
    sweep = thin_sweep(half, half, (0.2, 0.1, 0.05), dx0=0.01)
    assert sweep.mu1_limit == pytest.approx(math.pi ** 2, rel=1e-12)
    assert sweep.F_extrapolated == pytest.approx(1.0, abs=0.02)
    # eigenvalues decrease toward the limit monotonically in eps
    assert sweep.F[0] > sweep.F[1] > sweep.F[2] - 1e-12


def test_thin_sweep_requires_three_decreasing_eps():
    half = profiles.scale(profiles.constant(), 0.5)
    with pytest.raises(ValueError):
        thin_sweep(half, half, (0.2, 0.1))
    with pytest.raises(ValueError):
        thin_sweep(half, half, (0.1, 0.2, 0.05))
