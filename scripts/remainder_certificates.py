"""Certify the decay of the Bessel expansion remainder for a range of
orders and truncation depths.

For each (order, depth) pair the script fits the remainder envelope on a
geometric grid and compares the fitted slope against the guaranteed bound
-(depth + 3/2).  Terminating half-integer orders are reported as exact.
Orders may be complex (--orders 1.2+0.8j).
"""

from __future__ import annotations

import argparse

import numpy as np

from mlfourier import remainder_decay_certificate


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--orders", type=complex, nargs="+", default=[0.0, 1.0, 1.7, 2.5]
    )
    ap.add_argument("--depths", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--r-min", type=float, default=12.0)
    ap.add_argument("--r-max", type=float, default=190.0)
    ap.add_argument("--points", type=int, default=12)
    args = ap.parse_args(argv)

    grid = np.geomspace(args.r_min, args.r_max, args.points)
    print("order,depth,fitted_slope,guaranteed_slope,exact")
    worst = 0.0
    for lam in args.orders:
        # A real order prints as a float, a complex one as Python's repr.
        name = repr(lam.real) if lam.imag == 0 else repr(lam)
        for m in args.depths:
            cert = remainder_decay_certificate(lam, m, grid)
            bound = -(m + 1.5)
            if cert.exact:
                print(f"{name},{m},-inf,{bound!r},True")
                continue
            print(f"{name},{m},{cert.slope!r},{bound!r},False")
            worst = max(worst, cert.slope - bound)
    print(f"# worst slope excess over bound: {worst:+.4f} (negative margin is fine)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
