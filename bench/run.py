#!/usr/bin/env python3
"""Benchmark of mlfourier (see bench/README.md for workloads and metrics).

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ./src.  Each
workload is a closed loop in this one process: a call starts only after the
previous one returned.  Whole passes over the seeded inputs repeat until
--seconds have elapsed (see OVERRUN).  Every returned value of the first
pass is checked against bench/oracles.py; later passes must reproduce it
byte for byte.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
LAYER_MODULES = ("special_core", "mittag_leffler", "bessel", "radial_fourier", "asymptotics", "cli")
SETUP_LAUNCHES = 3
# The host's speed for this kind of work drifts by up to +-30% over minutes
# (neighbours on a shared machine), which no run length averages out.  A fixed
# reference computation that does not use mlfourier is timed at least every
# REFERENCE_EVERY_S between units, and setup_s and ops_per_s are scaled to a
# host on which it takes REFERENCE_S.
REFERENCE_S = 0.08
REFERENCE_EVERY_S = 1.0
# Another pass starts only if, at the last pass's length, it would end before
# this multiple of --seconds; this bounds a run at 1.5 x --seconds or one pass.
OVERRUN = 1.5


def _import_package() -> None:
    if not (SRC / "mlfourier" / "__init__.py").is_file():
        raise SystemExit(f"error: no mlfourier package under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    os.environ["MLF_THREADS"] = "1"


def reference() -> float:
    """Seconds taken by list building, sorting and dict lookups over 100,000
    floats: memory-bound Python work, as the package's is."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    xs = [rng.random() for _ in range(100_000)]
    xs.sort()
    table = {i: x for i, x in enumerate(xs)}
    sum(table[i] * xs[-i - 1] for i in range(0, 100_000, 3))
    return time.perf_counter() - t0


@dataclass
class Passes:
    first: list  # outputs of the first pass, one per unit
    digests: list[str]
    times: list[float]  # seconds per pass
    refs: list[float]  # reference() timings taken between units
    elapsed: float
    ops: int
    raised: int
    notes: list[str]


def run_passes(wl, seconds: float | None = None, count: int | None = None, tracer=None) -> Passes:
    """Closed loop over whole passes: `count` of them, or until `seconds`."""
    first, digests, times, refs, notes = None, [], [], [reference()], []
    elapsed, ops, raised = 0.0, 0, 0
    last_ref = time.perf_counter()
    while True:
        outputs = []
        took = 0.0
        for i, unit in enumerate(wl.units):
            if tracer is not None:
                tracer.unit = i
            t0 = time.perf_counter()
            try:
                out = wl.call(unit)
            except Exception as exc:  # an op that raises is a failed op
                out = exc
                raised += 1
                if len(notes) < 20:
                    notes.append(f"{unit.kind}{unit.args!r}: {type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            took += t1 - t0
            outputs.append(out)
            if t1 - last_ref >= REFERENCE_EVERY_S:
                refs.append(reference())
                last_ref = time.perf_counter()
        times.append(took)
        elapsed += took
        ops += len(wl.units)
        digests.append(wl.digest(outputs))
        if first is None:
            first = outputs
        if count is not None:
            if len(digests) >= count:
                break
        elif elapsed >= seconds or elapsed + took > OVERRUN * seconds:
            break
    refs.append(reference())
    return Passes(first, digests, times, refs, elapsed, ops, raised, notes)


def host_factor(refs: list[float]) -> float:
    """How much slower than the nominal host this one ran (> 1: slower)."""
    return statistics.mean(refs) / REFERENCE_S


def measure_setup(workload: str) -> float:
    """Median time from launching a fresh interpreter to the end of the
    workload's warm-up call in it, scaled to the nominal host."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        before = reference()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--probe", workload],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()[-500:]}")
        times.append((t1 - t0) / host_factor([before, reference()]))
    return statistics.median(times)


def probe(workload: str) -> None:
    import workloads

    wl = workloads.WORKLOADS[workload](0, OUT)
    wl.warm_up()
    print("ready", flush=True)


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("mlfourier/*.py"), *BENCH.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(workload: str, seed: int, digest: str) -> str | None:
    """Record this seed's output digest; a different earlier one from the
    same code is an error."""
    path = OUT / f"digest-{workload}-{seed}-{code_hash()}.txt"
    if path.exists():
        earlier = path.read_text(encoding="utf-8").strip()
        if earlier != digest:
            return f"seed {seed} gave digest {digest}, an earlier run gave {earlier}"
    else:
        path.write_text(digest + "\n", encoding="utf-8")
    return None


def src_lines() -> dict[str, tuple[float, str]]:
    m = {}
    for name in LAYER_MODULES:
        path = SRC / "mlfourier" / f"{name}.py"
        m[f"src_lines.{name}"] = (len(path.read_text().splitlines()) if path.exists() else 0, "lines")
    total = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    m["src_lines.total"] = (total, "lines")
    return m


def threads_mismatch(wl) -> int:
    """xi points of one problem whose CSV rows differ between MLF_THREADS=1
    and 2: the two points of problem (2, 1.5) around xi = 0.3, where both
    evaluators escalate to mpmath."""
    import numpy as np

    n, sigma = 2, 1.5
    grid = np.array(sorted(u.args[2] for u in wl.units if u.args[0] == n))
    k = int(np.argmin(np.abs(np.log(grid[:-1] * grid[1:]) - 2.0 * np.log(0.3))))
    args = (n, sigma, float(grid[k]), float(grid[k + 1]), 2)
    one = wl.transform_csv(*args, threads="1").splitlines()
    two = wl.transform_csv(*args, threads="2").splitlines()
    return sum(a != b for a, b in zip(one[1:], two[1:])) + abs(len(one) - len(two))


def summarize(wl, passes: list[Passes], digest_note: str | None):
    checked = wl.check_pass(passes[0].first)
    n_passes = sum(len(p.digests) for p in passes)
    attempted = sum(p.ops for p in passes)
    failed = sum(p.raised for p in passes) + checked.failed * n_passes
    notes = [n for p in passes for n in p.notes] + checked.notes
    digests = {d for p in passes for d in p.digests}
    if len(digests) != 1:
        notes.append(f"passes over the same inputs gave {len(digests)} different digests")
    if digest_note:
        notes.append(digest_note)
    correct = failed == 0 and len(digests) == 1 and not digest_note and bool(checked.digits)
    return checked, attempted, failed, correct, notes


def emit(correct: bool, attempted: int, failed: int, metrics: dict, notes: list[str]) -> None:
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_package()
    OUT.mkdir(exist_ok=True)
    if args.probe:
        probe(args.probe)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    setup_s = None if args.trace else measure_setup(args.workload)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    wl.warm_up()

    if not args.trace:
        timed = run_passes(wl, seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        note = check_digest(wl.name, args.seed, timed.digests[0])
        checked, attempted, failed, correct, notes = summarize(wl, [timed], note)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (timed.ops / timed.elapsed * host_factor(timed.refs), "1/s"),
            "accuracy_digits": (min(checked.digits, default=0.0), "digits"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "rss_peak_mb": (rss_mb, "MB"),
        }
        print(f"{wl.name} seed {args.seed}: {len(timed.digests)} passes of {len(wl.units)} ops "
              f"in {timed.elapsed:.2f} s, host factor {host_factor(timed.refs):.3f}, "
              f"{checked.unverified} unverified, digest {timed.digests[0]}")
        print("pass times: " + " ".join(f"{t:.4f}" for t in timed.times))
        emit(correct, attempted, failed, metrics, notes)
        return 0

    import tracing

    plain = run_passes(wl, seconds=args.seconds / 2.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_passes(wl, count=len(plain.digests), tracer=tracer)
    finally:
        tracer.uninstall()
    mismatch = threads_mismatch(wl) if wl.name == "grid" else 0
    note = check_digest(wl.name, args.seed, plain.digests[0])
    checked, attempted, failed, correct, notes = summarize(wl, [plain, traced], note)
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.threads_mismatch_points"] = (mismatch, "count")
    metrics.update(src_lines())
    metrics["oracle.unverified_ops"] = (checked.unverified, "count")
    metrics["trace.overhead_ratio"] = (
        (traced.elapsed / host_factor(traced.refs)) / (plain.elapsed / host_factor(plain.refs)) - 1.0, "ratio")
    tracer.write(OUT / f"trace-{wl.name}-{args.seed}.json")
    print(f"{wl.name} seed {args.seed} traced: {len(plain.digests)} passes of {len(wl.units)} ops, "
          f"{plain.elapsed:.2f} s plain, {traced.elapsed:.2f} s traced, {len(tracer.spans)} spans kept")
    emit(correct, attempted, failed, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
