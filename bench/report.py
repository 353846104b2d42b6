#!/usr/bin/env python3
"""Print the benchmark's numbers for every workload.

    python3 bench/report.py [--seed N] [--seconds S]
        Runs each workload twice with the same seed, prints every end-to-end
        metric by name with its unit, and exits 1 if an output check failed
        or the two runs' output digests differ.

    python3 bench/report.py --layers [--seed N] [--seconds S]
        Runs each workload's traced run and prints the per-layer µs/call
        table in the layout of the ROADMAP's Baseline section.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("grid", "laws", "kernels")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def end_to_end(seed: int, seconds: float) -> int:
    ok = True
    for wl in WORKLOADS:
        first, log1 = run(wl, seed, seconds, 0)
        second, log2 = run(wl, seed, seconds, 0)
        digests = [re.search(r"digest (\w+)", log).group(1) for log in (log1, log2)]
        same = digests[0] == digests[1]
        print(f"{wl} (seed {seed}): correct={first['correct'] and second['correct']} "
              f"attempted={first['attempted']} failed={first['failed']} "
              f"digest {'repeats' if same else 'DIFFERS'}")
        for line in (log1 + "\n" + log2).splitlines():
            if line.startswith("note:") or "unverified" in line:
                print(f"  {line}")
        for name, m in first["metrics"].items():
            print(f"  {name:<18} {m['value']:>14.6g} {m['unit']:<7}"
                  f"(second run {second['metrics'][name]['value']:.6g})")
        ok &= first["correct"] and second["correct"] and same
    return 0 if ok else 1


# (row label, metric prefix) of the By-layer table.
LAYER_ROWS = (
    ("`ml_eval`", "mittag_leffler.ml_eval"),
    ("`ml_eval` series branch", "mittag_leffler.series"),
    ("series escalation to mpmath", "mittag_leffler.series_mp"),
    ("`ml_eval` contour branch (`ml_on_ray`)", "mittag_leffler.contour"),
    ("`ml_eval` sector sum", "mittag_leffler.sector"),
    ("`jbar`", "bessel.jbar"),
    ("`bessel_j_series` escalation to mpmath", "bessel.series_mp"),
)


def layers(seed: int, seconds: float) -> int:
    results = {wl: run(wl, seed, seconds, 1)[0] for wl in WORKLOADS}
    metrics = {wl: r["metrics"] for wl, r in results.items()}

    def cell(wl: str, key: str, fmt: str) -> str:
        return format(metrics[wl][key]["value"], fmt)

    print(f"By layer (µs/call, calls in parentheses; traced run, seed {seed})\n")
    print("| Call | " + " | ".join(WORKLOADS) + " |")
    print("| --- |" + " --- |" * len(WORKLOADS))
    for label, prefix in LAYER_ROWS:
        cells = []
        for wl in WORKLOADS:
            calls = metrics[wl][f"{prefix}.calls"]["value"]
            cells.append(f"{cell(wl, prefix + '.us_per_call', ',.0f')} ({calls:,})" if calls else "—")
        print(f"| {label} | " + " | ".join(cells) + " |")
    extra = (
        ("mpmath escalations per series call", "mittag_leffler.series_mp.ratio", ".3f"),
        ("sector sums accepted / tried", "mittag_leffler.sector.accept_ratio", ".3f"),
        ("`ml_transform` median s", "radial_fourier.ml_transform.s_p50", ".3f"),
        ("`ml_transform` p90 s", "radial_fourier.ml_transform.s_p90", ".3f"),
        ("`ml_eval` calls per transform", "radial_fourier.ml_eval_per_transform", ",.0f"),
        ("`jbar` calls per transform", "radial_fourier.jbar_per_transform", ",.0f"),
        ("acceleration terms per transform", "radial_fourier.chunks_per_transform", ",.1f"),
        ("`compute_M` total s", "radial_fourier.compute_M.total_s", ".2f"),
        ("`compute_N` total s", "radial_fourier.compute_N.total_s", ".2f"),
        ("quad calls", "special_core.quad.calls", ","),
        ("quad integrand evaluations", "special_core.quad.evals", ","),
        ("quad self s", "special_core.quad.self_s", ".2f"),
        ("gamma calls", "special_core.gamma.calls", ","),
        ("`verify_small_xi` self s", "asymptotics.verify_small_xi.self_s", ".3f"),
        ("`cli.main` self s", "cli.main.self_s", ".3f"),
        ("xi points differing at MLF_THREADS=2", "cli.threads_mismatch_points", "d"),
        ("unverified ops", "oracle.unverified_ops", "d"),
        ("tracing overhead", "trace.overhead_ratio", ".3f"),
    )
    for label, key, fmt in extra:
        print(f"| {label} | " + " | ".join(cell(wl, key, fmt) for wl in WORKLOADS) + " |")
    src = metrics[WORKLOADS[0]]
    sizes = ", ".join(f"{k.split('.', 1)[1]} {src[k]['value']}" for k in src if k.startswith("src_lines."))
    print(f"\nLines under src/: {sizes}.")
    ok = all(r["correct"] for r in results.values())
    if not ok:
        print("\nan output check failed in a traced run")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--layers", action="store_true")
    args = ap.parse_args()
    return (layers if args.layers else end_to_end)(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
