"""Diagram campaigns: sampling, determinism, reports, CSV/SVG emission."""

import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from snlab import diagram, geom2d
from snlab.diagram import (Campaign, CampaignFailure, DiagramPoint, SampleError,
                           campaign_metadata, emit_csv, emit_svg_scatter, run_campaign)
from snlab.fem2d import F_of_domain


@pytest.fixture(scope="module")
def t1_point():
    record = F_of_domain(geom2d.named("T1"), hmax=0.1)
    return DiagramPoint(id="named-0000", family="named", seed=7, record=record)


def test_csv_header_is_the_documented_contract():
    assert diagram.CSV_HEADER == ("id,family,seed,area,perimeter,diameter,"
                                  "width,inradius,mu1,sigma1,x,y,F,dofs,hmax")


def test_point_coordinates_and_row_roundtrip(t1_point):
    p = t1_point
    assert p.x == p.record.sigma1 * p.record.perimeter
    assert p.y == p.record.mu1 * p.record.area
    assert p.F == pytest.approx(p.y / p.x, rel=1e-14)
    assert p.per_domain_bound() > p.F
    fields = p.as_row().split(",")
    assert len(fields) == len(diagram.CSV_COLUMNS)
    assert fields[0] == "named-0000" and fields[1] == "named" and fields[2] == "7"
    # repr round-trips the floats bit-exactly
    assert float(fields[3]) == p.record.area
    assert float(fields[12]) == p.F


def test_row_matches_the_column_by_column_formula(t1_point):
    p, r = t1_point, t1_point.record
    vals = [p.id, p.family, str(p.seed)]
    vals += [repr(float(v)) for v in (r.area, r.perimeter, r.diameter, r.width,
                                      r.inradius, r.mu1, r.sigma1, r.x, r.y, r.F)]
    vals += [str(int(r.dofs)), repr(float(r.hmax))]
    assert p.as_row() == ",".join(vals)


def test_point_rejects_inconsistent_record(t1_point):
    broken = dataclasses.replace(t1_point.record, F=1.5 * t1_point.record.F)
    with pytest.raises(ValueError):
        DiagramPoint(id="x", family="named", seed=0, record=broken)


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign(family="randomPentagon", n=3)
    with pytest.raises(ValueError):
        Campaign(family="named", n=-1)
    with pytest.raises(ValueError):
        Campaign(family="named", n=1, hmax=0.0)


RANDOM_FAMILIES = ("randomPolygon", "randomTriangle", "randomQuadrilateral")


def test_families_keep_their_order():
    # also the order of the CLI's --family choices
    assert diagram.FAMILIES == ("randomPolygon", "randomTriangle", "randomQuadrilateral",
                                "collapsingRectangle", "collapsingTent", "named")


def test_csv_generator_notes_are_pinned(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    notes = [line for line in path.read_text().splitlines() if line.startswith("#")]
    assert "\n".join(notes) == """\
# x = sigma1 * perimeter, y = mu1 * area, F = y / x
# axes: x in [0, 8*pi = 25.132741228718345], y in [0, pi*j'11^2 = 10.649866258676438]
# randomPolygon: hull of 15 uniform points in the unit square
# randomTriangle: uniform vertices, minimum angle >= 5 degrees
# randomQuadrilateral: hull of 4 uniform points, all extreme
# collapsingRectangle: aspect ratio 1 -> 0.01 geometric
# collapsingTent: symmetric unit-mass tent section, thickness 0.8 -> 0.05"""


def test_per_sample_seeds_are_stable_and_regenerable():
    seeds = diagram._sample_seeds(11, 6)
    assert seeds == diagram._sample_seeds(11, 6)
    assert diagram._sample_seeds(12, 6) != seeds
    # a single row can be regenerated from its own seed
    for family in RANDOM_FAMILIES:
        sid, seed, poly = diagram._sample_shapes(Campaign(family=family, n=6, seed=11))[3]
        assert sid == f"{family}-0003" and seed == seeds[3]
        again = diagram._FAMILIES[family][0](np.random.default_rng(seed), 3, 6)
        assert np.array_equal(again.vertices, poly.vertices)


def test_generators_produce_valid_shapes():
    rng = np.random.default_rng(5)
    draw_triangle = diagram._FAMILIES["randomTriangle"][0]
    draw_quadrilateral = diagram._FAMILIES["randomQuadrilateral"][0]
    for _ in range(20):
        tri = draw_triangle(rng, 0, 1)
        assert len(tri.vertices) == 3
        assert geom2d.min_corner_angle_deg(tri.vertices) >= 5.0
        quad = draw_quadrilateral(rng, 0, 1)
        assert len(quad.vertices) == 4
    rect = diagram._collapsing_rectangle(None, 4, 5)
    assert rect.vertices[:, 1].max() == pytest.approx(0.01)
    tent = diagram._collapsing_tent(None, 0, 5)
    assert geom2d.area(tent) == pytest.approx(0.8, rel=1e-9)


class _CoincidentFirstDraw(np.random.Generator):
    """``default_rng(seed)``, except that the first ``random`` call returns
    one point repeated and leaves the stream where it was."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0

    def random(self, shape):
        self.calls += 1
        return np.full(shape, 0.5) if self.calls == 1 else super().random(shape)


@pytest.mark.parametrize("family", RANDOM_FAMILIES)
def test_degenerate_draws_are_redrawn(family):
    draw = diagram._FAMILIES[family][0]
    stub = _CoincidentFirstDraw(21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poly = draw(stub, 0, 1)
    assert stub.calls >= 2
    assert np.array_equal(poly.vertices, draw(np.random.default_rng(21), 0, 1).vertices)


def test_campaigns_are_deterministic():
    c = Campaign(family="randomTriangle", n=3, seed=4, hmax=0.08)
    a = run_campaign(c)
    b = run_campaign(c)
    assert len(a.points) == len(b.points) == 3
    for pa, pb in zip(a.points, b.points):
        assert pa.id == pb.id and pa.seed == pb.seed
        assert pa.x == pb.x and pa.y == pb.y and pa.F == pb.F


def test_named_campaign_respects_hard_bounds():
    c = Campaign(family="named", n=4, seed=0, hmax=0.07)
    result = run_campaign(c)
    summary = result.summary()
    hb = summary["hard_bounds"]
    assert hb["band_violations"] == 0
    assert hb["per_domain_violations"] == 0
    assert hb["payne_violations"] == 0
    assert hb["box_violations"] == 0
    assert hb["per_domain_margin_min"] > 0.0
    assert summary["evaluated"] == 4
    assert summary["failed"] == 0
    # named roster starts T1, T2, square, disk:256
    assert [p.F for p in result.points] == pytest.approx(
        [1.9624, 1.9772, 1.7925, 1.6950], abs=0.02)


def test_failures_are_recorded_and_campaign_continues(monkeypatch):
    real = diagram.F_of_domain

    def flaky(poly, hmax):
        if abs(geom2d.area(poly) - math.sqrt(3.0) / 4.0) < 1e-12:  # T1 only
            raise RuntimeError("synthetic solver failure")
        return real(poly, hmax=hmax)

    monkeypatch.setattr(diagram, "F_of_domain", flaky)
    result = run_campaign(Campaign(family="named", n=3, seed=0, hmax=0.1))
    assert len(result.points) == 2
    assert len(result.errors) == 1
    err = result.errors[0]
    assert isinstance(err, SampleError)
    assert err.id == "named-0000"
    assert "synthetic solver failure" in err.message
    assert result.summary()["failures"][0]["id"] == "named-0000"


def test_all_samples_failing_raises(monkeypatch):
    def broken(poly, hmax):
        raise RuntimeError("nope")

    monkeypatch.setattr(diagram, "F_of_domain", broken)
    with pytest.raises(CampaignFailure):
        run_campaign(Campaign(family="named", n=2, seed=0, hmax=0.1))


def test_rectangle_bins_attained_by_rectangles():
    result = run_campaign(Campaign(family="collapsingRectangle", n=5,
                                   seed=0, hmax=0.05))
    report = result.summary()
    assert "x_bins" in report
    assert report["x_bins"]  # at least one occupied bin
    assert all(b["rectangle_attains_min"] for b in report["x_bins"])
    # aspect ratio 1 -> 0.01: F decreases toward 1 along the sweep
    fs = [p.F for p in result.points]
    assert fs == sorted(fs, reverse=True)
    assert fs[0] < 1.9 and fs[-1] < 1.1


def test_conjecture_report_on_empty_and_flagging():
    empty = diagram.conjecture_report([])
    assert empty == {"points": 0, "below_1": 0, "above_2": 0, "candidates": []}
    record = F_of_domain(geom2d.named("square"), hmax=0.15)
    p = DiagramPoint(id="a", family="named", seed=0, record=record)
    report = diagram.conjecture_report([p])
    assert report["points"] == 1
    assert report["below_1"] == 0 and report["above_2"] == 0
    assert report["candidates"] == []
    assert report["lowest_F"]["id"] == "a"
    assert not p.conjecture_candidate


def test_csv_emission_contract(tmp_path, t1_point):
    path = tmp_path / "points.csv"
    emit_csv([t1_point], path, metadata={"family": "named", "n": 1})
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == diagram.CSV_HEADER
    assert len(body) == 2
    assert any("x = sigma1 * perimeter" in c for c in comments)
    assert any("family = named" in c for c in comments)
    # the data region parses as CSV with the declared columns
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    assert rows[0]["id"] == "named-0000"
    assert float(rows[0]["F"]) == t1_point.F


def test_csv_emission_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    lines = path.read_text().splitlines()
    assert lines[-1] == diagram.CSV_HEADER


def test_svg_scatter_contains_points_and_reference_lines(tmp_path, t1_point):
    path = tmp_path / "scatter.svg"
    emit_svg_scatter([t1_point], path)
    text = path.read_text()
    assert text.count("<circle") == 1
    assert text.count("stroke-dasharray") == 2
    assert "F = 1" in text and "F = 2" in text
    assert "x = sigma1 * P" in text
    assert "mu1 * |Omega|" in text


def test_campaign_emits_files(tmp_path):
    result = run_campaign(Campaign(family="named", n=2, seed=0, hmax=0.1))
    emit_csv(result.points, tmp_path / "c.csv", metadata=campaign_metadata(result))
    emit_svg_scatter(result.points, tmp_path / "c.svg")
    assert (tmp_path / "c.csv").exists()
    assert (tmp_path / "c.svg").exists()
    text = (tmp_path / "c.csv").read_text()
    assert text.count("\n") >= 3 + len(result.points)


def test_hard_bound_report_counts_violations_of_forged_points(t1_point):
    # forge a point far above the proved band: every counter must fire
    r = t1_point.record
    forged = dataclasses.replace(
        r, mu1=r.mu1 * 60.0, y=r.y * 60.0, F=r.F * 60.0,
        x=diagram.X_LIMIT * 1.5)
    forged = dataclasses.replace(forged, F=forged.y / forged.x)
    p = DiagramPoint(id="forged", family="named", seed=0, record=forged)
    hb = diagram.hard_bound_report([p])
    assert hb["band_violations"] == 1
    assert hb["box_violations"] == 1
    assert p.conjecture_candidate


def test_degenerate_triangle_is_rejected():
    with np.errstate(invalid="ignore", divide="ignore"):
        angle = geom2d.min_corner_angle_deg(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    assert not angle >= diagram._TRIANGLE_MIN_ANGLE_DEG


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("threads, cpus, expected", [
    (5000, 8, [3]),          # capped by the sample count
    (5000, 2, [2]),          # capped by the CPU count
    (2, 8, [2]),
    (5000, None, []),        # unknown CPU count: serial, no pool
    (1, 8, []),
])
def test_pool_size_is_capped(monkeypatch, t1_point, threads, cpus, expected):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(diagram, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(diagram.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(diagram, "F_of_domain", lambda poly, hmax: t1_point.record)
    result = run_campaign(Campaign(family="named", n=3, seed=0, hmax=0.1), threads=threads)
    assert _RecordingPool.sizes == expected
    assert len(result.points) == 3


@pytest.mark.parametrize("threads", [0, -1])
def test_nonpositive_threads_rejected(threads):
    with pytest.raises(ValueError):
        run_campaign(Campaign(family="named", n=1, seed=0, hmax=0.1), threads=threads)


def test_pool_and_serial_campaigns_give_identical_rows(monkeypatch, tmp_path):
    monkeypatch.setattr(diagram.os, "cpu_count", lambda: 2)   # a real two-worker pool
    rows = []
    for threads in (1, 2):
        path = tmp_path / f"t{threads}.csv"
        result = run_campaign(Campaign(family="randomPolygon", n=3, seed=7, hmax=0.1),
                              threads=threads)
        emit_csv(result.points, path, metadata=campaign_metadata(result))
        rows.append(path.read_text().splitlines())
    assert rows[0] == rows[1]
    assert len([r for r in rows[0] if not r.startswith("#")]) == 4


def triangle_min_angle_loop(pts):
    """Per-corner loop form of the minimum angle, kept as the reference."""
    angles = []
    for i in range(3):
        a, b = pts[(i + 1) % 3] - pts[i], pts[(i + 2) % 3] - pts[i]
        cos = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        angles.append(math.acos(np.clip(cos, -1.0, 1.0)))
    return math.degrees(min(angles))


def test_triangle_min_angle_matches_loop_form():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        pts = rng.random((3, 2))
        ref = triangle_min_angle_loop(pts)
        angle = geom2d.min_corner_angle_deg(pts)
        assert angle == pytest.approx(ref, abs=1e-7)
        if abs(ref - diagram._TRIANGLE_MIN_ANGLE_DEG) > 1e-6:
            assert (angle >= 5.0) == (ref >= 5.0)
