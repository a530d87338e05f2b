"""Domain records and collapsing-domain sweeps against the 1D limits."""

import importlib
import json
import math

import numpy as np
import pytest
from conftest import strip_mesh

from snlab import bessel, geom2d, profiles, sl1d
from snlab.cli import main
from snlab.fem2d import (F_of_domain, FEMError, MeshError, assemble, functional,
                         polygon_mesh, record_from_mesh, record_from_system, refine,
                         refinement_ladder, thin_mesh, thin_sweep)
from snlab.fem2d.assemble import _stretched
from snlab.fem2d.functional import aitken

# the package's ``assemble`` function shadows its module
assemble_mod = importlib.import_module("snlab.fem2d.assemble")


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


# --- one reference strip per sweep, stretched to each eps ---

_HALF = {name: profiles.scale(profiles.resolve(name), 0.5)
         for name in ("tent:0.5", "tent:0.3", "const")}
STRIP_PAIRS = {name: (half, half) for name, half in _HALF.items()}
STRIP_PAIRS["one-sided tent:0.3"] = (profiles.triangular(0.3),
                                     profiles.scale(profiles.constant(), 0.0))


def sweep_by_eps_loop(hplus, hminus, eps_list, dx0):
    """``thin_sweep`` before it shared one system: every stretched strip assembled."""
    mu, scaled, F = [], [], []
    for eps in eps_list:
        geo = geom2d.functionals(geom2d.thin_domain(hplus, hminus, eps))
        rec = record_from_mesh(strip_mesh(hplus, hminus, eps, dx0=dx0), geo)
        mu.append(rec.mu1)
        scaled.append(2.0 * rec.sigma1 / eps)
        F.append(rec.F)
    return mu, scaled, F


@pytest.mark.parametrize("name", STRIP_PAIRS)
def test_stretched_strip_matches_assembly_at_each_eps(name):
    """Each stretched system numbers its dofs in column order, sorted by x
    and then y, and is ``assemble`` of the stretched mesh permuted into that
    order."""
    hplus, hminus = STRIP_PAIRS[name]
    eps_list = (0.2, 0.05, 1e-3)
    unit = thin_mesh(hplus, hminus, dx0=0.01)
    bands = []
    for eps, (mesh, got) in zip(eps_list, _stretched(unit, eps_list)):
        strip = strip_mesh(hplus, hminus, eps, dx0=0.01)
        assert np.array_equal(mesh.nodes, strip.nodes)
        assert np.array_equal(mesh.triangles, strip.triangles)
        want = assemble(mesh)
        assert want.band is None
        bands.append(got.band)
        x, y = got.nodes.T
        assert np.all((np.diff(x) > 0) | ((np.diff(x) == 0) & (np.diff(y) > 0)))
        order = np.lexsort((want.nodes[:, 1], want.nodes[:, 0]))
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        assert np.array_equal(got.boundary_dofs, np.sort(pos[want.boundary_dofs]))
        assert np.allclose(got.nodes, want.nodes[order], rtol=0.0, atol=1e-15)
        for key in ("K", "M", "B"):
            a, b = getattr(got, key), getattr(want, key)[order][:, order]
            assert abs(a - b).max() <= 1e-15 * abs(b).max(), key
        # K and M on one pattern, as ``assemble`` leaves them
        assert np.shares_memory(got.K.indices, got.M.indices)
        assert np.shares_memory(got.K.indptr, got.M.indptr)
        permuted = want.K[order][:, order].tocsc()
        permuted.sort_indices()
        assert np.array_equal(got.K.indices, permuted.indices)
        assert np.array_equal(got.K.indptr, permuted.indptr)
    # one band layout per sweep, shared by every eps
    assert bands[0] is not None and all(band is bands[0] for band in bands)


@pytest.mark.parametrize("name", STRIP_PAIRS)
def test_thin_sweep_matches_the_per_eps_loop(name):
    hplus, hminus = STRIP_PAIRS[name]
    eps_list = (0.2, 0.1, 0.05)
    sweep = thin_sweep(hplus, hminus, eps_list, dx0=0.02, elements_1d=256)
    oracle = sweep_by_eps_loop(hplus, hminus, eps_list, 0.02)
    for got, want in zip((sweep.mu1, sweep.sigma1_rescaled, sweep.F), oracle):
        assert np.allclose(got, want, rtol=1e-10, atol=0.0)
        assert aitken(got) == pytest.approx(aitken(want), rel=1e-10)
    assert sweep.mu1_extrapolated == aitken(sweep.mu1)


def test_thin_sweep_meshes_and_assembles_once(monkeypatch):
    """``assemble`` is counted in its own module, where ``_stretched`` calls it,
    and where ``functional`` imported it; ``_element_terms``, the element pass,
    runs once for both the assembly and the stretch's y part."""
    calls = {"thin_mesh": 0, "assemble": 0, "_element_terms": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, name in ((functional, "thin_mesh"), (functional, "assemble"),
                         (assemble_mod, "assemble"), (assemble_mod, "_element_terms")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    half = _HALF["tent:0.5"]
    thin_sweep(half, half, (0.2, 0.1, 0.05, 0.025), dx0=0.05, elements_1d=64)
    assert calls == {"thin_mesh": 1, "assemble": 1, "_element_terms": 1}


@pytest.mark.parametrize("eps_list", [(0.2, 0.1, 0.0), (0.2, 0.1, -0.05),
                                      (0.2, math.nan, 0.05), (0.2, 0.1, 0.05, math.nan)])
def test_thin_sweep_rejects_bad_eps_before_any_solve(monkeypatch, eps_list):
    def no_solve(system):
        raise AssertionError("solved before the eps list was checked")

    monkeypatch.setattr(functional, "neumann_mu1", no_solve)
    monkeypatch.setattr(functional, "steklov_sigma1", no_solve)
    half = _HALF["const"]
    with pytest.raises(MeshError, match="eps must be finite and positive"):
        thin_sweep(half, half, eps_list, dx0=0.05)


@pytest.mark.parametrize("elements_1d", [16, 30])
def test_thin_sweep_rejects_bad_elements_1d_before_any_strip(monkeypatch, elements_1d):
    """The 1D limits come right after the eps checks, so a count the
    Richardson grids cannot halve twice fails before any 1D or 2D work."""
    def never(*args, **kwargs):
        raise AssertionError("worked before elements_1d was checked")

    monkeypatch.setattr(functional, "thin_mesh", never)
    monkeypatch.setattr(sl1d, "_assemble", never)
    half = profiles.scale(profiles.resolve("parabolic"), 0.5)
    with pytest.raises(ValueError, match="element count must be divisible by 4"):
        thin_sweep(half, half, (0.2, 0.1, 0.05), dx0=0.005, elements_1d=elements_1d)


@pytest.mark.xfail(strict=True, raises=FEMError,
                   reason="ROADMAP item 7: the relative residual's rounding floor grows like "
                          "1/eps^2; the parabolic strip at eps 0.004 reads 1.19e-9 > 1e-9")
def test_parabolic_strip_certifies_below_eps_0005():
    half = profiles.scale(profiles.parabolic_star(), 0.5)
    sweep = thin_sweep(half, half, (0.004, 0.002, 0.001), dx0=0.02)
    assert sweep.relative_gaps()["F"] <= 1e-3


def test_record_from_mesh_is_assembly_then_record_from_system():
    square = geom2d.resolve("square")
    mesh = polygon_mesh(square, 0.3)
    geo = geom2d.functionals(square)
    assert record_from_mesh(mesh, geo) == record_from_system(
        assemble(mesh), geo, mesh.hmax(), mesh.quality_warning)
