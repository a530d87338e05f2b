"""Shared fixtures: expensive FEM solves are computed once per session."""

import numpy as np
import pytest

from snlab import diagram, geom2d, profiles
from snlab.fem2d import (TriangleMesh, assemble, neumann_mu1, polygon_mesh, steklov_sigma1,
                         thin_mesh)


def solve_shape(spec: str, hmax: float) -> dict:
    poly = geom2d.resolve(spec)
    geo = geom2d.functionals(poly)
    mesh = polygon_mesh(poly, hmax)
    system = assemble(mesh)
    mu = neumann_mu1(system)
    sg = steklov_sigma1(system)
    return {
        "poly": poly, "geo": geo, "mesh": mesh, "system": system,
        "mu": mu, "sigma": sg,
        "x": sg.eigenvalue * geo.perimeter,
        "y": mu.eigenvalue * geo.area,
        "F": mu.eigenvalue * geo.area / (sg.eigenvalue * geo.perimeter),
    }


def strip_mesh(hplus, hminus, eps: float, dx0: float) -> TriangleMesh:
    """The strip -eps hminus <= y <= eps hplus as ``thin_sweep`` meshes it: the
    unit strip's mesh stretched by (x, y) -> (x, eps y)."""
    unit = thin_mesh(hplus, hminus, dx0)
    return TriangleMesh(unit.nodes * [1.0, eps], unit.triangles)


def drift_strips() -> dict:
    """The strips of ``drift_corpus``: name -> (half profile, eps), each strip
    -eps half <= y <= eps half meshed at dx0 0.005."""
    halves = {"tent0.5": profiles.triangular(0.5), "tent0.3": profiles.triangular(0.3),
              "constant": profiles.constant(), "parabolic": profiles.resolve("parabolic")}
    strips = [(label, eps) for label in ("tent0.5", "tent0.3", "constant")
              for eps in (0.2, 0.1, 0.05)] + [("parabolic", 0.2)]
    return {f"strip-{label}-{eps}": (profiles.scale(halves[label], 0.5), eps)
            for label, eps in strips}


def drift_corpus() -> dict:
    """The corpus on which changes to meshing or solving measure their drift:
    name -> zero-argument function that meshes the domain.

    - 100 polygons at hmax 0.03: 40 seed-7 randomPolygon samples, named
      ``seed7-randomPolygon-0000`` ..., and 12 seed-3 samples of each other
      family, named by their campaign ids;
    - the nine strips of the ``thin`` benchmark workload, halves of tent 0.5,
      tent 0.3 and the constant at eps 0.2, 0.1 and 0.05, dx0 0.005;
    - the parabolic strip at eps 0.2, dx0 0.005 (36k dofs);
    the strips are ``strip_mesh``es, the meshes that ``thin_sweep`` solves.
    """
    corpus = {}
    campaigns = [("seed7-", diagram.Campaign("randomPolygon", 40, seed=7, hmax=0.03))]
    campaigns += [("", diagram.Campaign(family, 12, seed=3, hmax=0.03))
                  for family in diagram.FAMILIES if family != "randomPolygon"]
    for prefix, campaign in campaigns:
        for sid, _, poly in diagram._sample_shapes(campaign):
            corpus[prefix + sid] = lambda poly=poly, hmax=campaign.hmax: polygon_mesh(poly, hmax)
    for name, (half, eps) in drift_strips().items():
        corpus[name] = lambda half=half, eps=eps: strip_mesh(half, half, eps, dx0=0.005)
    return corpus


@pytest.fixture(scope="session")
def square_solution():
    return solve_shape("square", 0.05)


@pytest.fixture(scope="session")
def t1_solution():
    return solve_shape("T1", 0.05)


@pytest.fixture(scope="session")
def t2_solution():
    return solve_shape("T2", 0.05)


@pytest.fixture(scope="session")
def hull_polygon():
    return geom2d.random_hull(15, rng=np.random.default_rng(42))
