"""Domain records and collapsing-domain sweeps against the 1D limits."""

import dataclasses
import importlib
import json
import math
import threading

import numpy as np
import pytest
from conftest import drift_polygons, strip_mesh

from snlab import bessel, diagram, geom2d, profiles, sl1d
from snlab.cli import main
from snlab.fem2d import (F_of_domain, FEMError, MeshError, assemble, functional,
                         polygon_mesh, record_from_mesh, record_from_system, refine,
                         refinement_ladder, thin_mesh, thin_sweep)
from snlab.fem2d.assemble import _stretched
from snlab.fem2d.functional import aitken

# the package's ``assemble`` function shadows its module
assemble_mod = importlib.import_module("snlab.fem2d.assemble")
solve_mod = importlib.import_module("snlab.fem2d.solve")


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
    """``elements_1d`` is checked right after the eps values, so a count the
    Richardson grids cannot halve twice fails before any 1D or 2D work."""
    def never(*args, **kwargs):
        raise AssertionError("worked before elements_1d was checked")

    monkeypatch.setattr(functional, "thin_mesh", never)
    monkeypatch.setattr(sl1d, "_assemble", never)
    half = profiles.scale(profiles.resolve("parabolic"), 0.5)
    with pytest.raises(ValueError, match="element count must be divisible by 4"):
        thin_sweep(half, half, (0.2, 0.1, 0.05), dx0=0.005, elements_1d=elements_1d)


def sweep_with_limits_first(hplus, hminus, eps_list, dx0, elements_1d):
    """``thin_sweep`` as it was when the 1D limits came before the strips."""
    limits = sl1d.extrapolated_limits(profiles.add(hplus, hminus), elements_1d)
    rows = []
    for eps, (mesh, system) in zip(eps_list, _stretched(thin_mesh(hplus, hminus, dx0), eps_list)):
        geo = geom2d.functionals(geom2d.thin_domain(hplus, hminus, eps))
        rec = record_from_system(system, geo, mesh.hmax(), mesh.quality_warning)
        rows.append((rec.mu1, 2.0 * rec.sigma1 / eps, rec.F))
    mu, scaled, F = zip(*rows)
    return functional.ThinSweep(tuple(eps_list), mu, scaled, F, aitken(mu), aitken(scaled),
                                aitken(F), *limits)


@pytest.mark.parametrize("name", STRIP_PAIRS)
def test_thin_sweep_with_limits_last_matches_limits_first(name):
    """Computing the 1D limits after the strips changes no field of the sweep."""
    hplus, hminus = STRIP_PAIRS[name]
    got = thin_sweep(hplus, hminus, (0.2, 0.1, 0.05), dx0=0.02, elements_1d=256)
    want = sweep_with_limits_first(hplus, hminus, (0.2, 0.1, 0.05), 0.02, 256)
    for field in dataclasses.fields(functional.ThinSweep):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.array(a).tobytes() == np.array(b).tobytes(), field.name


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


# --- the Steklov factor made on a worker thread while Neumann is solved ---


def sequential_record(system, geo, hmax, warning):
    """The record of ``neumann_mu1`` and then ``steklov_sigma1``, both on
    this thread, built without ``record_from_system``."""
    mu, sg = solve_mod.neumann_mu1(system), solve_mod.steklov_sigma1(system)
    x, y = sg.eigenvalue * geo.perimeter, mu.eigenvalue * geo.area
    return functional.DomainRecord(
        area=geo.area, perimeter=geo.perimeter, diameter=geo.diameter,
        width=geo.width, inradius=geo.inradius,
        mu1=mu.eigenvalue, sigma1=sg.eigenvalue, x=x, y=y, F=y / x,
        dofs=system.n_dofs, hmax=hmax,
        mu_residual=mu.residual, sigma_residual=sg.residual,
        mu_iterations=mu.iterations, sigma_iterations=sg.iterations,
        mu_lu_nnz=mu.lu_nnz, sigma_lu_nnz=sg.lu_nnz,
        mu_shift=mu.shift, sigma_shift=sg.shift, warning=warning)


@pytest.fixture
def thread_starts(monkeypatch):
    """The names of the threads started while the test runs."""
    started, start = [], threading.Thread.start

    def counting(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


@pytest.fixture
def superlu_lifetimes(monkeypatch):
    """(thread that made it, thread that freed it) of each SuperLU factor
    freed while the test runs."""
    lifetimes, splu = [], solve_mod.splu

    class Factor:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz
            self.made = threading.current_thread().name

        def solve(self, b):
            return self.lu.solve(b)

        def __del__(self):
            lifetimes.append((self.made, threading.current_thread().name))

    monkeypatch.setattr(solve_mod, "splu", lambda *a, **kw: Factor(splu(*a, **kw)))
    return lifetimes


def _assert_bit_identical(got, want, name):
    for field in dataclasses.fields(functional.DomainRecord):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "warning":
            assert a == b, (name, field.name)
        else:
            assert np.array(a).tobytes() == np.array(b).tobytes(), (name, field.name)


def test_record_on_two_cpus_is_bit_identical_to_the_sequential_solves(
        monkeypatch, thread_starts):
    """Every field of every drift-corpus polygon's record, and of T1, the
    square and ``disk:6``, is bit for bit that of the two solves in turn,
    whether the Steklov factor is made on a worker thread (two CPUs) or
    inline (one CPU); one thread is started per record on two CPUs, none on
    one, and none outlives a record."""
    shapes = {spec: (geom2d.resolve(spec), 0.05) for spec in ("T1", "square", "disk:6")}
    polygons = drift_polygons()
    assert len(polygons) == 100
    threads = threading.active_count()
    for name, (poly, hmax) in {**polygons, **shapes}.items():
        mesh = polygon_mesh(poly, hmax)
        geo = geom2d.functionals(poly)
        system = assemble(mesh)
        want = sequential_record(system, geo, mesh.hmax(), mesh.quality_warning)
        for cpus in (1, 2):
            monkeypatch.setattr(functional, "_usable_cpus", lambda cpus=cpus: cpus)
            del thread_starts[:]
            got = record_from_system(system, geo, mesh.hmax(), mesh.quality_warning)
            assert len(thread_starts) == cpus - 1, (name, cpus)
            assert threading.active_count() == threads, (name, cpus)
            _assert_bit_identical(got, want, f"{name} on {cpus} CPUs")


def test_a_strip_record_starts_no_thread(monkeypatch, thread_starts):
    """A stretched strip's banded factor holds the GIL, so its record solves
    both pencils on the calling thread even with two CPUs."""
    monkeypatch.setattr(functional, "_usable_cpus", lambda: 2)
    half = _HALF["tent:0.5"]
    eps = (0.2,)
    (mesh, system), = _stretched(thin_mesh(half, half, 0.02), eps)
    assert system.band is not None
    geo = geom2d.functionals(geom2d.thin_domain(half, half, eps[0]))
    got = record_from_system(system, geo, mesh.hmax(), mesh.quality_warning)
    assert thread_starts == []
    _assert_bit_identical(got, sequential_record(system, geo, mesh.hmax(),
                                                 mesh.quality_warning), "strip")


@pytest.mark.parametrize("steklov_fails", [False, True])
def test_the_steklov_factor_is_freed_on_the_thread_that_made_it(
        monkeypatch, superlu_lifetimes, steklov_fails):
    """scipy's SuperLU frees a factor's memory only on the thread that made
    it, so the worker that makes the Steklov factor also frees it, after the
    Steklov solve, whether that solve succeeds or raises."""
    lanczos = solve_mod._lanczos

    def lanczos_failing_steklov(solve, W, v0, z, kind):
        out = lanczos(solve, W, v0, z, kind)
        if kind == "steklov" and steklov_fails:
            raise FEMError("steklov Lanczos did not converge in 100 steps")
        return out

    monkeypatch.setattr(solve_mod, "_lanczos", lanczos_failing_steklov)
    monkeypatch.setattr(functional, "_usable_cpus", lambda: 2)
    try:
        F_of_domain(geom2d.resolve("square"), hmax=0.2)
    except FEMError as exc:
        assert steklov_fails and str(exc) == "steklov Lanczos did not converge in 100 steps"
    else:
        assert not steklov_fails
    assert sorted(superlu_lifetimes) == [("MainThread", "MainThread"),
                                         ("steklov-factor", "steklov-factor")]


@pytest.mark.parametrize("failing", [("neumann",), ("steklov",), ("neumann", "steklov")])
@pytest.mark.parametrize("cpus", [1, 2])
def test_record_errors_match_the_sequential_solves(
        monkeypatch, thread_starts, superlu_lifetimes, failing, cpus):
    """When SuperLU finds a singular factor for the ``failing`` pencils, the
    Neumann error wins, a Steklov factor error reaches the caller with its
    own message, the campaign's sample error reads the same on one CPU and
    on two, no thread outlives the record, and every factor made is freed
    on its own thread."""
    superlu = solve_mod._superlu

    def singular_for(K, W, shift, kind):
        if kind in failing:   # K - sW with every entry dropped: "exactly singular"
            return superlu(0.0 * K, 0.0 * W, shift, kind)
        return superlu(K, W, shift, kind)

    monkeypatch.setattr(solve_mod, "_superlu", singular_for)
    monkeypatch.setattr(functional, "_usable_cpus", lambda: cpus)
    kind = failing[0]
    square = geom2d.resolve("square")
    threads = threading.active_count()
    with pytest.raises(FEMError) as err:
        F_of_domain(square, hmax=0.2)
    assert str(err.value) == f"{kind} eigensolve failed: Factor is exactly singular"
    assert threading.active_count() == threads
    assert len(thread_starts) == cpus - 1
    point = diagram._evaluate_sample("named", 0.2, ("named-0000", 0, square))
    assert point.message == f"FEMError: {kind} eigensolve failed: Factor is exactly singular"
    assert threading.active_count() == threads
    # the one factor made when only Neumann's fails is Steklov's, unused
    factors = {("neumann",): 2 * (cpus - 1), ("steklov",): 2}.get(failing, 0)
    assert len(superlu_lifetimes) == factors
    assert all(made == freed for made, freed in superlu_lifetimes)
