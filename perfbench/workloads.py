"""The benchmark's workloads: inputs made from a seed, the calls into snlab's
public API, and the reference check that decides whether an operation failed.

Each workload is a closed loop of one caller: the next call starts when the
previous one returns.  Work is split into rounds; ``run_round(k)`` runs round
``k`` and returns its operations plus the wall time spent inside snlab calls
(``busy_s``), which the throughput metric divides by.  Between operations a
workload runs calibration bursts (``calib.py``); each operation and round
carries the ``scale`` that turns its wall time into reference-host time.
Bursts are never inside an operation's or a round's timed interval.  Round
``k`` depends only on the seed and ``k`` (after ``start()``), so a traced run
can repeat its untraced control rounds with tracing on and compare the
eigenvalues bit for bit.

Workload parameters live here as constants so that every run of a workload
does the same work per operation; see README.md for why each was chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.special import jnp_zeros

from calib import KERNELS, NoCalibration
from snlab import diagram, geom2d, profiles, sl1d
from snlab.fem2d import functional, solve

_ROUND_SEED_STRIDE = 1_000_003   # campaign round k uses seed + k * stride


@dataclass
class Op:
    """One operation: its wall time, its eigenvalues at full precision, and
    whether it raised or missed its reference check."""

    id: str
    wall_s: float
    values: dict = field(default_factory=dict)
    error: str | None = None
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Round:
    ops: list
    busy_s: float
    scale: float = 1.0


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _call(op: Op, fn):
    """Time fn() into op.wall_s; an exception becomes op.error and gives None."""
    t0 = perf_counter()
    try:
        return fn()
    except Exception as exc:  # an operation that raises counts as failed
        op.error = f"{type(exc).__name__}: {exc}"
        return None
    finally:
        op.wall_s = perf_counter() - t0


def _check(op: Op, checks) -> None:
    """checks: (label, value, tolerance); every value above its tolerance fails op."""
    missed = [f"{label} = {value:.3e} > {tol}" for label, value, tol in checks if value > tol]
    if missed:
        op.error = "; ".join(missed)


class _Workload:
    min_rounds = 1          # rounds an untraced run makes at least
    min_trace_rounds = 1    # rounds the traced part of a traced run makes at least
    cycle = 1               # an untraced run makes whole cycles of this many rounds
    cal = NoCalibration()   # run.py sets a Calibration for untraced runs
    burst_mix = KERNELS     # calibration kernels of this workload's burst,
    burst_repeat = 1        # run this many times over

    def start(self) -> None:
        """Restart the input stream, so round k repeats with the same inputs."""

    def _single(self, op: Op, fn):
        """Run one long operation between two bursts and scale it by their
        mean; returns fn's result as ``_call`` does."""
        before = self.cal.burst()
        result = _call(op, fn)
        op.scale = self.cal.scale([before, self.cal.burst()])
        return result


class Campaign(_Workload):
    """ROADMAP's unit of cost: randomPolygon campaigns at hmax 0.03.

    An operation is one sample; its time is the wall time of that sample's
    ``F_of_domain`` call, the only boundary timed inside ``run_campaign``.
    A burst runs after every sample, and a sample is scaled by the bursts
    on either side of it.
    """

    name = "campaign"
    expected_spans = ("geom2d.functionals", "fem2d.polygon_mesh", "fem2d.assemble",
                      "fem2d.neumann_mu1", "fem2d.steklov_sigma1", "fem2d.F_of_domain",
                      "diagram.run_campaign", "diagram.summary",
                      "diagram.conjecture_report", "diagram.hard_bound_report",
                      "bounds.upper_bound_constant")

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n = 4 if tiny else 25
        self.hmax = 0.08 if tiny else 0.03
        self.min_rounds = 1 if tiny else 4      # >= 100 samples, so p90 has 10 beyond it

    def run_round(self, k: int) -> Round:
        cseed = self.seed + _ROUND_SEED_STRIDE * k
        walls, scales = [], []
        inner = diagram.F_of_domain
        cal = self.cal
        bursts = [cal.burst()]
        spent = cal.spent_s

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                walls.append(perf_counter() - t0)
                bursts.append(cal.burst())
                scales.append(cal.scale(bursts[-2:]))

        diagram.F_of_domain = timed
        t0 = perf_counter()
        try:
            result = diagram.run_campaign(
                diagram.Campaign("randomPolygon", self.n, seed=cseed, hmax=self.hmax),
                threads=1)
            summary = result.summary()
        except Exception as exc:  # the whole round failed; every sample counts
            busy = perf_counter() - t0 - (cal.spent_s - spent)
            return Round([Op(id=f"s{cseed}-{i:04d}", wall_s=busy / self.n,
                             error=f"{type(exc).__name__}: {exc}") for i in range(self.n)],
                         busy, cal.scale(bursts))
        finally:
            diagram.F_of_domain = inner
        busy = perf_counter() - t0 - (cal.spent_s - spent)

        points = {p.id: p for p in result.points}
        errors = {e.id: e.message for e in result.errors}
        ops = []
        for i, (wall, scale) in enumerate(zip(walls, scales)):
            sid = f"randomPolygon-{i:04d}"
            op = Op(id=f"s{cseed}-{i:04d}", wall_s=wall, scale=scale)
            if sid in errors:
                op.error = errors[sid]
            else:
                r = points[sid].record
                op.values = {"mu1": r.mu1, "sigma1": r.sigma1, "F": r.F}
                _check(op, [("Neumann residual", r.mu_residual, solve.RESIDUAL_TOL),
                            ("Steklov residual", r.sigma_residual, solve.RESIDUAL_TOL)])
            ops.append(op)
        # hard-bound counts come per campaign; each violation fails one sample
        hb = summary["hard_bounds"]
        violations = sum(hb[key] for key in ("band_violations", "per_domain_violations",
                                             "payne_violations", "box_violations"))
        for op in [op for op in ops if op.ok][:violations]:
            op.error = f"round summary reports hard-bound violations: {hb}"
        return Round(ops, busy, cal.scale(bursts))


class Large(_Workload):
    """Large single solves with closed-form or golden references (criterion 5):
    disk:256 at hmax 0.02 and T1 at hmax 0.01.  One operation is one domain.
    Not in BENCHMARK.json (see README.md); run it with ``--workload large``."""

    name = "large"
    burst_mix = ("geig_large",)                   # Steklov's dense eigensolve dominates
    expected_spans = ("geom2d.functionals", "fem2d.polygon_mesh", "fem2d.assemble",
                      "fem2d.neumann_mu1", "fem2d.steklov_sigma1", "fem2d.F_of_domain")
    min_rounds = 2                                # both domains in every run
    min_trace_rounds = 2
    cycle = 2

    def __init__(self, seed: int, tiny: bool):
        self.domains = (("disk:256", 0.06 if tiny else 0.02), ("T1", 0.05 if tiny else 0.01))
        self.order = np.random.default_rng(seed).permutation(len(self.domains))
        self.j11 = float(jnp_zeros(1, 1)[0])

    def run_round(self, k: int) -> Round:
        spec, hmax = self.domains[self.order[k % len(self.domains)]]
        op = Op(id=spec, wall_s=0.0)
        poly = geom2d.named(spec)
        r = self._single(op, lambda: functional.F_of_domain(poly, hmax=hmax))
        if r is not None:
            op.values = {"mu1": r.mu1, "sigma1": r.sigma1, "F": r.F}
            if spec == "T1":
                _check(op, [("mu1 / (16 pi^2/9) - 1", _rel(r.mu1, 16.0 * math.pi ** 2 / 9.0), 0.003),
                            ("|sigma1 - 1.2908|", abs(r.sigma1 - 1.2908), 0.002)])
            else:
                _check(op, [("sigma1 P / 2 pi - 1", _rel(r.x, 2.0 * math.pi), 0.005),
                            ("mu1 |O| / pi j'11^2 - 1", _rel(r.y, math.pi * self.j11 ** 2), 0.005)])
        return Round([op], op.wall_s, op.scale)


class Profiles1D(_Workload):
    """The 1D thin-limit workload: the criterion-3 random-profile stream, each
    profile evaluated by ``sl1d.F_of_h(h, 512)``.  One operation is one profile,
    generation included.  A burst runs after every ``per_burst`` profiles,
    which are scaled by the bursts on either side of them."""

    name = "profiles1d"
    burst_mix = ("python", "banded")              # sl1d: Python loop over banded solves
    burst_repeat = 2
    expected_spans = ("profiles.random_profile", "sl1d.F_of_h", "sl1d.mu1", "sl1d.sigma1")
    lo = math.pi ** 2 / 12.0 - 1e-3
    hi = 4.0 + 1e-3
    per_burst = 20

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.per_round = 10 if tiny else 100
        self.start()

    def start(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.drawn = 0

    def run_round(self, k: int) -> Round:
        ops = []
        bursts = [self.cal.burst()]
        for i in range(self.per_round):
            op = Op(id=f"p{self.drawn}", wall_s=0.0)
            self.drawn += 1
            f = _call(op, lambda: sl1d.F_of_h(profiles.random_profile(self.rng), 512))
            if f is not None:
                op.values = {"F": f}
                if not self.lo <= f <= self.hi:
                    op.error = f"F = {f!r} outside [pi^2/12 - 1e-3, 4 + 1e-3]"
            ops.append(op)
            if (i + 1) % self.per_burst == 0 or i + 1 == self.per_round:
                bursts.append(self.cal.burst())
                for done in ops[-(i % self.per_burst + 1):]:
                    done.scale = self.cal.scale(bursts[-2:])
        busy = sum(op.wall_s for op in ops)
        return Round(ops, busy, sum(op.wall_s * op.scale for op in ops) / busy)


class Thin(_Workload):
    """Thin-strip sweeps eps = 0.2, 0.1, 0.05 at dx0 = 0.005 against the 1D
    limits (criterion 6).  One operation is one ``thin_sweep``, 1D limits
    included; the seed fixes the order in which the three profiles cycle."""

    name = "thin"
    burst_mix = ("geig_large",)                   # Steklov's dense eigensolve dominates
    expected_spans = ("fem2d.thin_mesh", "geom2d.functionals", "fem2d.assemble",
                      "fem2d.neumann_mu1", "fem2d.steklov_sigma1", "fem2d.thin_sweep",
                      "sl1d.mu1", "sl1d.sigma1", "sl1d.mu1_extrapolated",
                      "sl1d.sigma1_extrapolated")
    eps = (0.2, 0.1, 0.05)
    min_rounds = 3                                 # every profile in every run,
    min_trace_rounds = 3
    cycle = 3                                      # and each equally often

    def __init__(self, seed: int, tiny: bool):
        self.halves = tuple((label, profiles.scale(h, 0.5)) for label, h in (
            ("tent0.5", profiles.triangular(0.5)),
            ("tent0.3", profiles.triangular(0.3)),
            ("constant", profiles.constant())))
        self.dx0 = 0.02 if tiny else 0.005
        self.elements_1d = 256 if tiny else 2048
        self.order = np.random.default_rng(seed).permutation(len(self.halves))

    def run_round(self, k: int) -> Round:
        label, h = self.halves[self.order[k % len(self.halves)]]
        op = Op(id=label, wall_s=0.0)
        sw = self._single(op, lambda: functional.thin_sweep(h, h, self.eps, dx0=self.dx0,
                                                            elements_1d=self.elements_1d))
        if sw is not None:
            op.values = {"mu1": sw.mu1_extrapolated, "sigma1": sw.sigma1_rescaled_extrapolated,
                         "F": sw.F_extrapolated, "mu1_limit": sw.mu1_limit,
                         "sigma1_limit": sw.sigma1_limit, "F_limit": sw.F_limit}
            gaps = sw.relative_gaps()
            if label == "constant":
                _check(op, [("|F_extrapolated - 1|", abs(sw.F_extrapolated - 1.0), 0.02)])
            else:
                _check(op, [("mu1 gap", gaps["mu1"], 0.02), ("sigma1 gap", gaps["sigma1"], 0.03)])
        return Round([op], op.wall_s, op.scale)


WORKLOADS = {w.name: w for w in (Campaign, Large, Profiles1D, Thin)}
