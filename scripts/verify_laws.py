"""Run both asymptotic-law verifications and the L^p classification for one
parameter set and print a readable summary.

The small-frequency check reports the matched law and fitted slope.  The
large-frequency check asserts the decay |xi|^-(n+sigma) and compares the
tail against its closed-form constant.  Exit status 4 when a law mismatches.
"""

from __future__ import annotations

import argparse

import numpy as np

from mlfourier import (
    LawMismatchError,
    LpRegion,
    TransformProblem,
    lp_region,
    verify_large_xi,
    verify_small_xi,
)


def format_region(region: LpRegion | None) -> str:
    if region is None:
        return "none"
    lo = "(" if region.lower_open else "["
    hi = ")" if region.upper_open else "]"
    upper = "inf" if region.p_upper == float("inf") else f"{region.p_upper:g}"
    return f"{lo}{region.p_lower:g}, {upper}{hi}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.8)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--phi", type=float, default=np.pi)
    ap.add_argument("--sigma", type=float, default=0.7)
    ap.add_argument("--dim", type=int, default=1)
    args = ap.parse_args(argv)

    tp = TransformProblem(args.alpha, args.beta, args.phi, args.sigma, args.dim)
    status = 0

    small = verify_small_xi(tp)
    fit = small.small_slope_fit
    print(f"small-frequency law: {small.small_xi_law}")
    print(f"  fitted slope {fit.slope:+.4f} on {len(fit.grid)} points")
    print(f"  constants matched: {small.constants_matched}")
    print(f"  {small.notes}")

    try:
        large = verify_large_xi(tp)
        print(f"large-frequency slope {large.large_slope_fit.slope:+.4f}: matched")
        print(f"  constants matched: {large.constants_matched}")
        print(f"  {large.notes}")
    except LawMismatchError as exc:
        status = 4
        print(f"large-frequency law: MISMATCH ({exc})")

    full_range, conjugate = lp_region(tp)
    print(f"L^p summability (dim {args.dim}, exponent {args.sigma}):")
    print(f"  full-range p interval: {format_region(full_range)}")
    print(f"  conjugate-exponent interval: {format_region(conjugate)}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
