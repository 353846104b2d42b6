"""The benchmark's workloads: seeded inputs, the calls into mlfourier, and the
checks of every returned value against bench/oracles.py.

A workload is a list of units.  A unit is one op, one closed-loop call into
the package: a `grid` unit is one `mlf transform` invocation for one xi
point, a `laws` unit one `verify_small_xi` call, a `kernels` unit one
`ml_eval` or `jbar` call.  The
seed is the only input; the package sees just the values built from it.
Calls go through module attributes (`cli.main`, `mittag_leffler.ml_eval`,
...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles
from mlfourier import asymptotics, bessel, cli, mittag_leffler, radial_fourier

# The ROADMAP's reference problems: E_{0.8,1}(e^{i pi}|x|^sigma) on R^n.
ALPHA, BETA, PHI = 0.8, 1.0, math.pi
PROBLEMS = ((1, 0.7), (2, 1.5), (3, 2.2))


@dataclass
class Unit:
    kind: str
    args: tuple


@dataclass
class Checked:
    """Outcome of checking one pass of outputs against the oracles."""

    digits: list[float] = field(default_factory=list)  # per verified op
    failed: int = 0
    unverified: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def _shifted_grid(lo: float, hi: float, points: int, u: float, max_shift: float) -> tuple[float, ...]:
    """Geometric grid of `points` inside [lo, hi], shifted up by u * max_shift
    steps (0 <= u < 1); the step leaves room for the largest shift."""
    step = math.log10(hi / lo) / (points - 1 + max_shift)
    return tuple(lo * 10.0 ** (step * (k + u * max_shift)) for k in range(points))


def _stratified_log(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    # Log-uniform on [lo, hi], one draw per equal-width stratum of log10.
    span = math.log10(hi / lo)
    return [lo * 10.0 ** (span * (k + rng.random()) / count) for k in range(count)]


class Workload:
    name = ""
    gate = 0.0  # largest relative error an op may have against the oracle

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.units = self.build(random.Random(seed))

    def build(self, rng: random.Random) -> list[Unit]:
        raise NotImplementedError

    def call(self, unit: Unit):
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, unit: Unit, output, result: Checked) -> None:
        raise NotImplementedError

    def render(self, output) -> str:
        return repr(output)

    def digest(self, outputs: list) -> str:
        h = hashlib.sha256()
        for out in outputs:
            h.update(self.render(out).encode())
            h.update(b"\0")
        return h.hexdigest()

    def check_pass(self, outputs: list) -> Checked:
        result = Checked()
        for unit, out in zip(self.units, outputs):
            if isinstance(out, Exception):
                continue  # counted as failed when it was raised
            self.check(unit, out, result)
        return result

    def _check_transform(self, n, sigma, xi, value, result) -> float | None:
        """Digits of one transform value; None when unverified or failed."""
        ref, alt = oracles.transform_reference(ALPHA, BETA, PHI, sigma, n, xi)
        if oracles.relative_error(alt, ref) > self.gate:
            result.unverified += 1
            return None
        err = oracles.relative_error(value, ref)
        if not err <= self.gate:
            result.fail(f"n={n} xi={xi!r}: relative error {err:.3e}")
            return None
        return oracles.digits(err)


class Grid(Workload):
    """`mlf transform` in-process on the three reference problems."""

    name = "grid"
    gate = 1e-4
    points = 7  # per problem; about 29 s for the three problems
    # The seed moves the grid by at most a quarter step.  A point costs from
    # 0.03 s to 5 s, with jumps where evaluator branches switch, so with only
    # 21 points a run a larger shift would make the throughput depend on the
    # seed.  The top point stays in [70, 100), on the n = 3 error floor.
    max_shift = 0.25

    def build(self, rng):
        # One `mlf transform` call per point, so that the host's speed can
        # be sampled between points (see run.py).
        grid = _shifted_grid(1e-2, 1e2, self.points, rng.random(), self.max_shift)
        return [Unit("transform", (n, sigma, xi)) for n, sigma in PROBLEMS for xi in grid]

    def transform_csv(self, n, sigma, lo, hi, points, threads: str = "1") -> str:
        out = self.scratch / "transform.csv"
        argv = [
            "transform", "--alpha", repr(ALPHA), "--beta", repr(BETA),
            "--phi", repr(PHI), "--sigma", repr(sigma), "--dim", str(n),
            "--xi-min", repr(lo), "--xi-max", repr(hi), "--xi-points", str(points),
            "--no-timestamp", "--out", str(out),
        ]
        env = os.environ
        saved = env.get("MLF_THREADS")
        env["MLF_THREADS"] = threads
        try:
            code = cli.main(argv)
        finally:
            if saved is None:
                del env["MLF_THREADS"]
            else:
                env["MLF_THREADS"] = saved
        if code != 0:
            raise RuntimeError(f"mlf transform exited with {code}")
        return out.read_text(encoding="utf-8")

    def call(self, unit):
        n, sigma, xi = unit.args
        return self.transform_csv(n, sigma, xi, xi, 1)

    def warm_up(self):
        self.transform_csv(2, 1.5, 20.0, 20.0, 1)

    def render(self, output):
        return output if isinstance(output, str) else repr(output)

    def check(self, unit, output, result):
        n, sigma, _ = unit.args
        rows = list(csv.DictReader(io.StringIO(output)))
        if len(rows) != 1:
            result.fail(f"n={n}: {len(rows)} CSV rows for one point")
            return
        row = rows[0]
        value = complex(float(row["re"]), float(row["im"]))
        d = self._check_transform(n, sigma, float(row["xi"]), value, result)
        if d is not None:
            result.digits.append(d)


class Laws(Workload):
    """`verify_small_xi` on the reference problems, small-xi window."""

    name = "laws"
    gate = 1e-4
    points = 10  # the default window's point count
    max_shift = 0.25  # of a step; as for Grid, keeps seeds comparable

    def build(self, rng):
        grid = _shifted_grid(1e-4, 1e-2, self.points, rng.random(), self.max_shift)
        return [Unit("verify_small_xi", (n, sigma, grid)) for n, sigma in PROBLEMS]

    def _problem(self, n, sigma):
        return radial_fourier.TransformProblem(ALPHA, BETA, PHI, sigma, n)

    def call(self, unit):
        n, sigma, grid = unit.args
        return asymptotics.verify_small_xi(self._problem(n, sigma), grid=list(grid))

    def warm_up(self):
        radial_fourier.ml_transform(self._problem(2, 1.5), 1e-2)

    def render(self, output):
        if isinstance(output, Exception):
            return repr(output)
        fit = output.small_slope_fit
        return repr((output.small_xi_law, fit.slope, fit.intercept, fit.residual,
                     fit.grid, output.constants_matched, output.notes))

    def check(self, unit, output, result):
        n, sigma, _ = unit.args
        if not output.constants_matched:
            result.fail(f"n={n}: constants_matched is False ({output.notes})")
            return
        # One op, so it fails or goes unverified once, on its first bad sample.
        sample = Checked()
        worst = math.inf
        for xi, value in output.small_slope_fit.grid:
            d = self._check_transform(n, sigma, xi, value, sample)
            if d is None:
                if sample.failed:
                    result.fail(sample.notes[0])
                else:
                    result.unverified += 1
                return
            worst = min(worst, d)
        result.digits.append(worst)


class Kernels(Workload):
    """Direct `ml_eval` and `jbar` calls on seeded points."""

    name = "kernels"
    gate = 1e-8
    per_ray = 96  # |z| draws per (alpha, ray)
    per_n = 48  # r draws per dimension
    alphas = (0.5, 0.8, 1.3)
    boundary_offset = 0.1  # rad above pi alpha / 2 for the near-boundary ray

    def build(self, rng):
        units = []
        for alpha in self.alphas:
            for phi in (math.pi, math.pi * alpha / 2.0 + self.boundary_offset):
                for r in _stratified_log(rng, 1e-2, 1e3, self.per_ray):
                    units.append(Unit("ml_eval", (alpha, r * cmath.exp(1j * phi))))
        for n in (1, 2, 3, 4):
            for r in _stratified_log(rng, 1e-2, 50.0, self.per_n):
                units.append(Unit("jbar", (n, r)))
        rng.shuffle(units)
        return units

    def call(self, unit):
        if unit.kind == "ml_eval":
            alpha, z = unit.args
            return mittag_leffler.ml_eval(mittag_leffler.MLParams(alpha, BETA), z)
        n, r = unit.args
        return bessel.jbar(n, r)

    def warm_up(self):
        p = mittag_leffler.MLParams(0.8, BETA)
        for z in (0.5, -3.0, -20.0, -80.0):
            mittag_leffler.ml_eval(p, z)
        bessel.jbar(2, 3.0)

    def check(self, unit, output, result):
        if unit.kind == "ml_eval":
            alpha, z = unit.args
            ref, alt = oracles.ml_reference(alpha, BETA, z)
            if oracles.relative_error(alt, ref) > self.gate:
                result.unverified += 1
                return
            err = oracles.relative_error(output, ref)
        else:
            n, r = unit.args
            ref = oracles.jbar_reference(n, r)
            # Past x = 1, below the first zero of every J_{n/2-1}, the error
            # is taken relative to the amplitude sqrt(2/(pi x)) of J, so that
            # a draw near one of its zeros does not read as lost digits.
            x = 2.0 * math.pi * r
            scale = abs(ref)
            if x > 1.0:
                scale = max(scale, math.sqrt(2.0 / (math.pi * x)) * r ** (0.5 * n))
            err = abs(output - ref) / scale
        if not err <= self.gate:
            result.fail(f"{unit.kind}{unit.args!r}: relative error {err:.3e}")
            return
        result.digits.append(oracles.digits(err))


WORKLOADS = {w.name: w for w in (Grid, Laws, Kernels)}
