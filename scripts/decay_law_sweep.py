"""Sweep the radial transform over a geometric frequency grid and fit the
decay exponent on both ends.

Prints a CSV table (xi, abs_value) followed by the fitted log-log slopes of
the low-frequency and high-frequency halves of the grid.  Useful as a quick
visual check that a parameter set has entered its asymptotic regime before
running the full verification commands.
"""

from __future__ import annotations

import argparse

import numpy as np

from mlfourier import TransformProblem, fit_exponent, ml_transform


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.8)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--phi", type=float, default=np.pi)
    ap.add_argument("--sigma", type=float, default=0.7)
    ap.add_argument("--dim", type=int, default=1)
    ap.add_argument("--xi-min", type=float, default=1e-4)
    ap.add_argument("--xi-max", type=float, default=1e4)
    ap.add_argument("--points", type=int, default=25)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.points < 12:
        raise SystemExit("need at least 12 points to fit both ends")
    tp = TransformProblem(args.alpha, args.beta, args.phi, args.sigma, args.dim)
    grid = np.geomspace(args.xi_min, args.xi_max, args.points)
    samples = list(zip(grid.tolist(), ml_transform(tp, grid).tolist()))

    print("xi,abs_value")
    for xi, val in samples:
        print(f"{xi!r},{abs(val)!r}")

    half = len(samples) // 2
    low = fit_exponent(samples[:half])
    high = fit_exponent(samples[half:])
    print(f"# low-end slope:  {low.slope:+.4f} (residual {low.residual:.2e})")
    print(f"# high-end slope: {high.slope:+.4f} (residual {high.residual:.2e})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
