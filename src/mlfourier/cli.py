"""Command-line front end.

Subcommands evaluate the Mittag-Leffler function and Bessel kernels over
grids, run the radial transform, verify asymptotic laws, emit L^p regions,
and check the derivative-transfer identity.  eval-ml, eval-bessel and
transform write CSV (columns xi,re,im,abs,est_error — the first column is
the evaluation point) or, with --format json, versioned JSON; the other
subcommands always write JSON.  Every output carries a UTC timestamp (a
CSV comment line or a JSON key) unless --no-timestamp is given; with it,
identical arguments produce byte-identical output.

Output goes to stdout or, with --out, over the named file in place: it is
not truncated to size 0 first but written over and cut to the new length,
symlinks are followed and the file's mode is kept.  The write is neither
atomic nor fsynced.  An --out that cannot be opened or written
exits 2 with "error: cannot write --out <path>: <reason>".

Exit codes: 0 success, else the exit_code of the library error raised
(mlfourier.errors): 2 validation failure (a non-finite --z or --xi-max
among them) or unwritable --out, 3 convergence/accuracy failure, 4 law or
fit mismatch, an ibp-check above its threshold included.

An invocation is parsed once, by its subcommand's parser (_parse); a usage
error exits 2 with the text a pass through both parsers would print, such
as "mlf: error: unrecognized arguments: --strategy mellin".  A one-point
main(["transform", ..., "--out", FILE]) takes 134 us in process, its parse
49 us, against 167 us and 81 us when the top-level parser passed every
invocation on (timeit minima on one 2-core VM, Python 3.11.7).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone
from typing import Sequence

import numpy as np

from .errors import DomainError, LawMismatchError, MLFourierError
from .mittag_leffler import MLParams, ml_eval
from .bessel import bessel_j_reference, jbar
from .radial_fourier import TransformProblem, ibp_identity_check, ml_transform
from .asymptotics import lp_region, verify_large_xi, verify_small_xi

EXIT_OK = 0

# est_error of eval-ml and transform is max(EST_ERROR_ABS, EST_ERROR_REL
# |value|), times 2 pi/xi^n for transform: fixed figures, not an estimate
# that ml_eval or ml_transform computes.
EST_ERROR_ABS = 1e-12
EST_ERROR_REL = 1e-10


def _est_error(value: complex) -> float:
    return max(EST_ERROR_ABS, EST_ERROR_REL * abs(value))


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace("i", "j").replace(" ", "")
    try:
        return complex(cleaned)
    except ValueError:
        raise DomainError(f"cannot parse complex number from {text!r}")


def _geometric_grid(args: argparse.Namespace) -> np.ndarray:
    if args.xi_points < 1:
        raise DomainError("grid needs at least 1 point (--xi-points >= 1)")
    if not (args.xi_min > 0.0):
        raise DomainError("--xi-min must be > 0")
    if not args.xi_min <= args.xi_max < math.inf:
        raise DomainError("--xi-max must be finite and >= --xi-min")
    if args.xi_points == 1:
        return np.array([args.xi_min])
    return np.geomspace(args.xi_min, args.xi_max, args.xi_points)


def _timestamp_line(args: argparse.Namespace) -> str | None:
    if args.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat()


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write text to stdout, or over --out in place.

    No O_TRUNC: on ext4, truncating an existing file to size 0 makes close()
    flush it (auto_da_alloc), tens of milliseconds, far more than a
    transform.  The file is cut to the written length afterwards instead,
    and only a regular file, since /dev/null, FIFOs and ttys reject
    ftruncate.
    """
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise DomainError(
            f"cannot write --out {args.out}: {exc.strerror}"
        ) from None


def _records_csv(records: list[dict], stamp: str | None) -> str:
    lines = []
    if stamp is not None:
        lines.append(f"# timestamp: {stamp}")
    lines.append("xi,re,im,abs,est_error")
    for rec in records:
        lines.append(
            f"{rec['xi_mag']!r},{rec['value_re']!r},{rec['value_im']!r},"
            f"{rec['abs']!r},{rec['est_error']!r}"
        )
    return "\n".join(lines) + "\n"


def _payload_json(payload: dict, stamp: str | None) -> str:
    body = {"schema": 1, **payload}
    if stamp is not None:
        body["timestamp"] = stamp
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _record(xi: float, value: complex, est_error: float) -> dict:
    return {
        "xi_mag": float(xi),
        "value_re": float(value.real),
        "value_im": float(value.imag),
        "abs": float(abs(value)),
        "est_error": float(est_error),
    }


def _emit_records(
    args: argparse.Namespace, params: dict, records: list[dict]
) -> None:
    stamp = _timestamp_line(args)
    if args.format == "csv":
        _emit(args, _records_csv(records, stamp))
    else:
        _emit(args, _payload_json({"params": params, "records": records}, stamp))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_eval_ml(args: argparse.Namespace) -> int:
    p = MLParams(args.alpha, args.beta)
    zs = [_parse_complex(z) for z in (args.z or ["1+0i"])]
    records = []
    for z in zs:
        value = ml_eval(p, z)
        records.append(_record(abs(z), value, _est_error(value)))
    params = {"alpha": args.alpha, "beta": args.beta, "z": [str(z) for z in zs]}
    _emit_records(args, params, records)
    return EXIT_OK


def _cmd_eval_bessel(args: argparse.Namespace) -> int:
    grid = _geometric_grid(args)
    lam = args.order
    if args.scaled:
        n = args.dim

        def point(r: float) -> dict:
            v = jbar(n, float(r))
            return _record(r, complex(v), 1e-12)

    else:

        def point(r: float) -> dict:
            v = bessel_j_reference(lam, float(r))
            return _record(r, complex(v), 1e-11)

    records = [point(float(x)) for x in grid]
    params = {
        "order": args.order,
        "dim": args.dim,
        "scaled": args.scaled,
        "xi_min": args.xi_min,
        "xi_max": args.xi_max,
        "xi_points": args.xi_points,
    }
    _emit_records(args, params, records)
    return EXIT_OK


def _problem_from_args(args: argparse.Namespace) -> TransformProblem:
    return TransformProblem(
        alpha=args.alpha,
        beta=args.beta,
        phi=args.phi,
        sigma=args.sigma,
        n=args.dim,
    )


def _problem_params(tp: TransformProblem, **extra) -> dict:
    """The JSON params of a problem subcommand: the problem, then extra."""
    return {
        "alpha": tp.alpha,
        "beta": tp.beta,
        "phi": tp.phi,
        "sigma": tp.sigma,
        "dim": tp.n,
        **extra,
    }


def _cmd_transform(args: argparse.Namespace) -> int:
    tp = _problem_from_args(args)
    grid = _geometric_grid(args)
    records = [
        _record(xi, value, 2.0 * math.pi / xi ** tp.n * _est_error(value))
        for xi, value in zip(grid.tolist(), ml_transform(tp, grid).tolist())
    ]
    params = _problem_params(
        tp, xi_min=args.xi_min, xi_max=args.xi_max, xi_points=args.xi_points
    )
    _emit_records(args, params, records)
    return EXIT_OK


def _fit_dict(fit) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "residual": fit.residual,
        "points": len(fit.grid),
    }


def _fit_grid(args: argparse.Namespace):
    given = (args.xi_min, args.xi_max, args.xi_points)
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise DomainError(
            "provide --xi-min, --xi-max, and --xi-points together"
        )
    if args.xi_points < 6:
        raise DomainError("slope fits need at least 6 grid points")
    return _geometric_grid(args)


def _cmd_verify_asymptotics(args: argparse.Namespace) -> int:
    tp = _problem_from_args(args)
    grid = _fit_grid(args)
    reports = {}
    if args.regime in ("small", "both"):
        rep = verify_small_xi(tp, grid=grid)
        reports["small"] = {
            "small_xi_law": rep.small_xi_law,
            "fit": _fit_dict(rep.small_slope_fit),
            "constants_matched": rep.constants_matched,
            "notes": rep.notes,
        }
    if args.regime in ("large", "both"):
        rep = verify_large_xi(tp, grid=grid)
        reports["large"] = {
            "fit": _fit_dict(rep.large_slope_fit),
            "constants_matched": rep.constants_matched,
            "notes": rep.notes,
        }
    params = _problem_params(tp, regime=args.regime)
    _emit(
        args,
        _payload_json(
            {"params": params, "report": reports}, _timestamp_line(args)
        ),
    )
    return EXIT_OK


def _region_dict(region) -> dict | None:
    if region is None:
        return None
    return {
        "lower": region.p_lower,
        "upper": "inf" if math.isinf(region.p_upper) else region.p_upper,
        "lower_open": region.lower_open,
        "upper_open": region.upper_open,
        "source": region.source,
    }


def _cmd_lp_region(args: argparse.Namespace) -> int:
    tp = _problem_from_args(args)
    full, hy = lp_region(tp)
    payload = {
        "params": _problem_params(tp),
        "theorem3": _region_dict(full),
        "hausdorff_young": _region_dict(hy),
    }
    _emit(args, _payload_json(payload, _timestamp_line(args)))
    return EXIT_OK


def _cmd_ibp_check(args: argparse.Namespace) -> int:
    tp = _problem_from_args(args)
    xis = args.xi or [1.0]
    checks = []
    worst = 0.0
    for xi in xis:
        rel = ibp_identity_check(tp, xi, args.ell, args.ibp_order)
        worst = max(worst, rel)
        checks.append(
            {
                "xi_mag": xi,
                "ell": args.ell,
                "ibp_order": args.ibp_order,
                "relative_difference": rel,
            }
        )
    params = _problem_params(tp, threshold=args.threshold)
    _emit(
        args,
        _payload_json(
            {"params": params, "checks": checks, "worst": worst},
            _timestamp_line(args),
        ),
    )
    return EXIT_OK if worst <= args.threshold else LawMismatchError.exit_code


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(
    sub: argparse.ArgumentParser, problem: bool, table: bool
) -> None:
    """Output options, plus the problem parameters; --format only for the
    subcommands that write a table, the others always write JSON."""
    if problem:
        sub.add_argument("--alpha", type=float, default=0.8)
        sub.add_argument("--beta", type=float, default=1.0)
        sub.add_argument("--phi", type=float, default=math.pi)
        sub.add_argument("--sigma", type=float, default=1.0)
        sub.add_argument("--dim", type=int, default=1)
    if table:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--no-timestamp", action="store_true")


def _add_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--xi-min", type=float, default=0.1)
    sub.add_argument("--xi-max", type=float, default=10.0)
    sub.add_argument("--xi-points", type=int, default=9)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The mlf parser, built once per process: parsing leaves it unchanged,
    since every parse starts from a fresh namespace.  Its subcommands
    attribute maps each command name to that command's parser, the one
    add_subparsers built."""
    parser = argparse.ArgumentParser(
        prog="mlf",
        description=(
            "Mittag-Leffler radial Fourier transforms: special-function "
            "evaluation, transform grids, asymptotic-law verification, "
            "and L^p regions."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("eval-ml", help="evaluate E_{alpha,beta}(z)")
    s.add_argument("--alpha", type=float, required=True)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--z", action="append", help="complex point, repeatable")
    _add_common(s, problem=False, table=True)
    s.set_defaults(handler=_cmd_eval_ml)

    s = subs.add_parser(
        "eval-bessel", help="evaluate J_order(r) or the scaled kernel"
    )
    s.add_argument("--order", type=float, default=0.0)
    s.add_argument(
        "--scaled",
        action="store_true",
        help="evaluate the dimension-n scaled kernel instead of J itself",
    )
    s.add_argument("--dim", type=int, default=1)
    _add_grid(s)
    _add_common(s, problem=False, table=True)
    s.set_defaults(handler=_cmd_eval_bessel)

    s = subs.add_parser("transform", help="radial transform over a grid")
    _add_grid(s)
    _add_common(s, problem=True, table=True)
    s.set_defaults(handler=_cmd_transform)

    s = subs.add_parser(
        "verify-asymptotics", help="fit and verify the asymptotic laws"
    )
    s.add_argument(
        "--regime", choices=("small", "large", "both"), default="small"
    )
    s.add_argument("--xi-min", type=float, default=None)
    s.add_argument("--xi-max", type=float, default=None)
    s.add_argument("--xi-points", type=int, default=None)
    _add_common(s, problem=True, table=False)
    s.set_defaults(handler=_cmd_verify_asymptotics)

    s = subs.add_parser("lp-region", help="analytic L^p regions")
    _add_common(s, problem=True, table=False)
    s.set_defaults(handler=_cmd_lp_region)

    s = subs.add_parser(
        "ibp-check", help="derivative-transfer identity residual"
    )
    s.add_argument("--xi", type=float, action="append")
    s.add_argument("--ell", type=int, default=0)
    s.add_argument("--ibp-order", type=int, default=1)
    s.add_argument("--threshold", type=float, default=1e-5)
    _add_common(s, problem=True, table=False)
    s.set_defaults(handler=_cmd_ibp_check)

    parser.subcommands = subs.choices
    return parser


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    """Join option values that begin with a minus sign (e.g. --z -1+0i),
    which argparse would otherwise read as a flag."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--z",) and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a normalised argv once.  An argv that starts with a subcommand
    goes to that subcommand's parser alone, and the tokens it leaves over
    are reported by the top-level parser, in the words a pass through both
    parsers would use.  Any other argv (empty, -h, an unknown command) goes
    to the top-level parser, which alone lists the commands."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(_normalize_argv(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.handler(args)
    except MLFourierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
