"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv); outputs are parsed back from
captured stdout or --out files.  Covers value correctness, exit codes,
output formats, reproducibility, and independence from MLF_THREADS.
"""

import json
import math
import os
import shlex
import stat
import sys
from datetime import datetime
from pathlib import Path

import pytest

from mlfourier import cli, radial_fourier
from mlfourier.errors import (
    AccuracyError,
    ConvergenceError,
    DegenerateFitError,
    DomainError,
    FitError,
    LawMismatchError,
    MLFourierError,
    PoleError,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [
        {k: float(v) for k, v in zip(header, ln.split(","))}
        for ln in lines[1:]
    ]
    return header, rows


class TestEvalMl:
    def test_exponential_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval-ml", "--alpha", "1", "--beta", "1",
            "--z", "-1+0i", "--no-timestamp",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["xi", "re", "im", "abs", "est_error"]
        assert len(rows) == 1
        assert abs(rows[0]["re"] - math.exp(-1)) < 1e-15 * math.exp(-1)
        assert abs(rows[0]["im"]) < 1e-12
        # README's line, est_error = 1e-10 |E| included
        assert out.splitlines()[1] == (
            "1.0,0.36787944117144233,0.0,0.36787944117144233,3.678794411714424e-11"
        )

    def test_value_at_origin(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval-ml", "--alpha", "0.5", "--beta", "1.3",
            "--z", "0+0i", "--no-timestamp",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert abs(rows[0]["re"] - 1 / math.gamma(1.3)) < 1e-12

    def test_overflow_exits_3(self, capsys):
        # E_{1/2,1}(30) = e^900 erfc(-30) is past double range.
        code, _, err = run_cli(capsys, "eval-ml", "--alpha", "0.5", "--z", "30")
        assert code == 3
        assert "double range" in err

    def test_root_past_double_range_exits_3(self, capsys):
        # |z|^(1/alpha) = 1e666: Laplace inversion's poles leave double
        # range, and E_{0.3,1}(1e200) ~ e^(1e666) with them.
        code, out, err = run_cli(capsys, "eval-ml", "--alpha", "0.3", "--z", "1e200")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "double range" in err

    @pytest.mark.parametrize("z", ["-1e200", "8.25e199+5.65e199i"])
    def test_decay_sector_past_double_range_of_the_root(self, capsys, z):
        # |z|^(1/alpha) = 1e666 in the decay sector of alpha = 0.3: no
        # exponential term enters at arg z = pi, and at arg z = 0.6 the one
        # that does is e^(-inf) = 0, so E = -1/(z Gamma(1 - alpha)) to
        # rounding.
        code, out, _ = run_cli(capsys, "eval-ml", "--alpha", "0.3", f"--z={z}", "--no-timestamp")
        assert code == 0
        _, rows = csv_rows(out)
        want = -1.0 / (complex(z.replace("i", "j")) * math.gamma(0.7))
        assert abs(complex(rows[0]["re"], rows[0]["im"]) - want) <= 1e-15 * abs(want)

    def test_repeatable_z(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval-ml", "--alpha", "0.8", "--z", "1+1i", "--z", "-2+0i",
            "--no-timestamp",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 2

    def test_reused_parser_starts_each_call_afresh(self, capsys):
        # build_parser is cached; an append option's values must not carry
        # over from one call to the next
        args = ("eval-ml", "--alpha", "1", "--no-timestamp")
        _, out, _ = run_cli(capsys, *args, "--z", "1", "--z", "2")
        assert len(csv_rows(out)[1]) == 2
        _, out, _ = run_cli(capsys, *args, "--z", "3")
        assert len(csv_rows(out)[1]) == 1
        assert cli.build_parser() is cli.build_parser()

    def test_alpha_validation_names_the_range(self, capsys):
        code, _, err = run_cli(capsys, "eval-ml", "--alpha", "2.5")
        assert code == 2
        assert "0 < alpha < 2" in err

    @pytest.mark.parametrize("z", ["nan", "1+nani", "1e400"])
    def test_non_finite_z_exits_2(self, capsys, z):
        code, _, err = run_cli(capsys, "eval-ml", "--alpha", "0.8", "--z", z)
        assert code == 2
        assert err.startswith("error:") and "finite" in err

    def test_infinite_beta_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "eval-ml", "--alpha", "0.8", "--beta", "inf", "--z", "-1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "finite beta > 0" in err

    def test_unparseable_z(self, capsys):
        code, _, err = run_cli(
            capsys, "eval-ml", "--alpha", "1", "--z", "not-a-number"
        )
        assert code == 2
        assert "error:" in err


class TestEvalBessel:
    def test_matches_reference_values(self, capsys):
        from scipy.special import jv

        code, out, _ = run_cli(
            capsys,
            "eval-bessel", "--order", "0",
            "--xi-min", "1", "--xi-max", "4", "--xi-points", "3",
            "--no-timestamp",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [r["xi"] for r in rows] == [1.0, 2.0, 4.0]
        for row in rows:
            assert abs(row["re"] - jv(0, row["xi"])) < 1e-10

    def test_scaled_kernel(self, capsys):
        from scipy.special import jv

        code, out, _ = run_cli(
            capsys,
            "eval-bessel", "--scaled", "--dim", "2",
            "--xi-min", "0.5", "--xi-max", "2", "--xi-points", "3",
            "--no-timestamp",
        )
        assert code == 0
        _, rows = csv_rows(out)
        for row in rows:
            r = row["xi"]
            assert abs(row["re"] - jv(0, 2 * math.pi * r) * r) < 1e-10

    def test_grid_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "eval-bessel", "--xi-points", "0"
        )
        assert code == 2
        assert "at least 1 point" in err
        code, _, err = run_cli(
            capsys, "eval-bessel", "--xi-min", "0"
        )
        assert code == 2


class TestTransform:
    GAUSS = (
        "transform", "--alpha", "1", "--beta", "1", "--sigma", "2",
        "--dim", "1", "--xi-min", "1", "--xi-points", "1", "--no-timestamp",
    )

    def test_gaussian_point(self, capsys):
        code, out, _ = run_cli(capsys, *self.GAUSS)
        assert code == 0
        _, rows = csv_rows(out)
        want = math.sqrt(math.pi) * math.exp(-math.pi ** 2)
        assert abs(rows[0]["abs"] - want) < 1e-6 * want

    def test_json_payload_shape_and_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform", "--alpha", "1", "--beta", "1", "--sigma", "2",
            "--dim", "1", "--xi-min", "0.5", "--xi-max", "1",
            "--xi-points", "2", "--format", "json", "--no-timestamp",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert set(payload["params"]) == {
            "alpha", "beta", "phi", "sigma", "dim",
            "xi_min", "xi_max", "xi_points",
        }
        assert len(payload["records"]) == 2
        assert payload["records"][0]["xi_mag"] == 0.5
        redumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert redumped == out

    def test_non_finite_xi_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "transform", "--xi-min", "1", "--xi-max", "inf",
            "--xi-points", "2",
        )
        assert code == 2
        assert err.startswith("error:") and "finite" in err

    def test_xi_past_double_range_of_pi_xi_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "transform", "--xi-min", "1e308", "--xi-max", "1.7e308",
            "--xi-points", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "5.722e+307" in err

    def test_infinite_beta_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "transform", "--beta", "inf", "--xi-points", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "finite beta > 0" in err

    def test_unknown_strategy_is_a_usage_error(self, capsys):
        # transform has one route: --strategy is no option, whatever its value
        with pytest.raises(SystemExit) as exc:
            cli.main([*self.GAUSS, "--strategy", "mellin"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --strategy" in capsys.readouterr().err

    def test_estimated_error_positive(self, capsys):
        _, out, _ = run_cli(capsys, *self.GAUSS)
        _, rows = csv_rows(out)
        assert rows[0]["est_error"] > 0

    def test_sigma_in_4z_prints_finite_rows(self, capsys):
        # sigma = 4 puts the left line's centre node on a pole of Gamma(s/2),
        # where the two larger points printed nan rows with exit 0.
        code, out, _ = run_cli(
            capsys,
            "transform", "--alpha", "0.8", "--sigma", "4", "--dim", "3",
            "--xi-min", "0.1", "--xi-max", "1", "--xi-points", "3", "--no-timestamp",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 3
        assert all(math.isfinite(row[k]) for row in rows for k in ("re", "im", "abs"))

    def test_non_finite_value_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            radial_fourier, "mellin_transform", lambda tp, xi: xi * complex(math.nan, 0.0)
        )
        code, out, err = run_cli(capsys, "transform", "--xi-points", "3", "--no-timestamp")
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "not finite" in err

    @pytest.mark.parametrize("n,sigma", [(1, "0.7"), (2, "1.5"), (3, "2.2")])
    def test_grid_rows_match_one_point_runs(self, capsys, n, sigma):
        # One ml_transform call serves the whole grid, and a row does not
        # depend on the other points: each of the 25 rows is byte for byte
        # the row of a one-point run at its xi.
        problem = (
            "transform", "--alpha", "0.8", "--beta", "1",
            "--phi", "3.141592653589793", "--sigma", sigma, "--dim", str(n),
            "--no-timestamp",
        )
        code, out, _ = run_cli(
            capsys, *problem,
            "--xi-min", "1e-4", "--xi-max", "1e3", "--xi-points", "25",
        )
        assert code == 0
        header, *rows = out.splitlines()
        assert len(rows) == 25
        # At phi = pi the transform is real: every im field is exactly 0.
        assert {row.split(",")[2] for row in rows} == {"0.0"}
        for row in rows:
            xi = row.split(",")[0]
            code, single, _ = run_cli(
                capsys, *problem, "--xi-min", xi, "--xi-max", xi, "--xi-points", "1",
            )
            assert code == 0
            assert single == f"{header}\n{row}\n"


class TestVerifyAsymptotics:
    def test_small_regime_power_law(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-asymptotics", "--regime", "small",
            "--alpha", "0.8", "--beta", "1", "--sigma", "0.7", "--dim", "1",
            "--no-timestamp",
        )
        assert code == 0
        payload = json.loads(out)
        small = payload["report"]["small"]
        assert small["small_xi_law"] == "power"
        assert abs(small["fit"]["slope"] + 0.3) < 0.05
        assert small["constants_matched"] is True

    def test_large_regime_matches_sharp_law(self, capsys):
        # the tail decays like |xi|^-(n+sigma) with the closed-form constant
        code, out, _ = run_cli(
            capsys,
            "verify-asymptotics", "--regime", "large",
            "--alpha", "0.8", "--beta", "1", "--sigma", "0.7", "--dim", "1",
            "--no-timestamp",
        )
        assert code == 0
        large = json.loads(out)["report"]["large"]
        assert abs(large["fit"]["slope"] + 1.7) < 0.05
        assert large["constants_matched"] is True

    def test_out_of_scope_sigma(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify-asymptotics", "--sigma", "0.9", "--dim", "3",
        )
        assert code == 2

    def test_explicit_grid_is_used(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-asymptotics", "--regime", "small",
            "--alpha", "0.8", "--beta", "1", "--sigma", "0.7", "--dim", "1",
            "--xi-min", "1e-4", "--xi-max", "1e-2", "--xi-points", "8",
            "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["report"]["small"]["fit"]["points"] == 8

    def test_malformed_grid(self, capsys):
        base = (
            "verify-asymptotics", "--sigma", "0.7", "--dim", "1",
        )
        code, _, err = run_cli(capsys, *base, "--xi-points", "3")
        assert code == 2
        assert "6 grid points" in err or "together" in err
        code, _, err = run_cli(
            capsys, *base,
            "--xi-min", "1e-3", "--xi-max", "1e-2",
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, *base,
            "--xi-min", "0", "--xi-max", "1e-2", "--xi-points", "8",
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, *base,
            "--xi-min", "1e-3", "--xi-max", "1e-2", "--xi-points", "5",
        )
        assert code == 2
        assert "at least 6 grid points" in err


class TestLpRegionCommand:
    def test_bounded_region(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lp-region", "--dim", "3", "--sigma", "2", "--no-timestamp",
        )
        assert code == 0
        payload = json.loads(out)
        t3 = payload["theorem3"]
        assert t3 == {
            "lower": 1.0,
            "upper": 3.0,
            "lower_open": True,
            "upper_open": True,
            "source": "FullTheorem",
        }
        hy = payload["hausdorff_young"]
        assert hy["lower"] == 2.0
        assert hy["upper"] == 3.0
        assert hy["upper_open"] is True

    def test_unbounded_closed_region(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lp-region", "--dim", "2", "--sigma", "5", "--no-timestamp",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theorem3"]["upper"] == "inf"
        assert payload["theorem3"]["upper_open"] is False
        assert payload["hausdorff_young"]["upper"] == "inf"
        assert payload["hausdorff_young"]["upper_open"] is False

    def test_no_hausdorff_young(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lp-region", "--dim", "3", "--sigma", "1.2", "--no-timestamp",
        )
        assert code == 0
        assert json.loads(out)["hausdorff_young"] is None

    def test_out_of_scope(self, capsys):
        code, _, err = run_cli(
            capsys, "lp-region", "--dim", "3", "--sigma", "1"
        )
        assert code == 2
        assert "sigma" in err


@pytest.mark.parametrize(
    "command", ["transform", "verify-asymptotics", "lp-region", "ibp-check"]
)
def test_out_of_scope_sigma_exits_2_with_one_message(command, capsys):
    # sigma > (n-1)/2 is checked once, where the problem is built
    code, out, err = run_cli(capsys, command, "--sigma", "0.9", "--dim", "3")
    assert code == 2
    assert out == ""
    assert err == "error: finite sigma > (n-1)/2 = 1.0 required, got sigma = 0.9\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["lp-region", "--abs-tol", "1e-9"],
        ["eval-bessel", "--abs-tol", "1e-9"],
        ["verify-asymptotics", "--abs-tol", "1e-9"],
        ["transform", "--abs-tol", "1e-9"],
        ["transform", "--rel-tol", "1e-9"],
        ["eval-ml", "--alpha", "1", "--abs-tol", "1e-9"],
        ["eval-ml", "--alpha", "1", "--rel-tol", "1e-9"],
        ["transform", "--strategy", "split"],
        ["ibp-check", "--abs-tol", "1e-9"],
        ["ibp-check", "--rel-tol", "1e-9"],
    ],
    ids=[
        "lp-region", "eval-bessel", "verify-asymptotics", "transform",
        "transform-rel-tol", "eval-ml", "eval-ml-rel-tol", "transform-strategy",
        "ibp-check", "ibp-check-rel-tol",
    ],
)
def test_tolerance_flags_only_where_quadrature_runs(argv, capsys):
    # No subcommand takes tolerances.  lp-region and eval-bessel compute
    # nothing that takes one, ml_eval and ml_transform work to fixed
    # targets, and ibp-check's contour kernels and quadratures run at the
    # engines' defaults; transform has no --strategy either.  argparse
    # rejects each flag with its usage exit code
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lp-region", "verify-asymptotics", "ibp-check"])
def test_format_only_where_a_table_is_written(command, capsys):
    # these subcommands always write JSON, so --format is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--format", "csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def readme_cli_block():
    """The lines of the sh block in README's Command line section,
    continuation lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return block.replace("\\\n", " ").splitlines()


class TestReadmeCliBlock:
    def test_every_command_parses(self):
        commands = [ln for ln in readme_cli_block() if ln.startswith("mlf ")]
        assert len(commands) == 10
        parser = cli.build_parser()
        for line in commands:
            args = parser.parse_args(cli._normalize_argv(shlex.split(line)[1:]))
            assert callable(args.handler)

    def test_eval_ml_example_prints_its_row(self, capsys):
        lines = readme_cli_block()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("mlf eval-ml"))
        code, out, _ = run_cli(capsys, *shlex.split(lines[at])[1:])
        assert code == 0
        assert out.splitlines() == [lines[at + 1][2:], lines[at + 2][2:]]


def _one_pass(argv):
    """The route through both parsers: the top-level parser's parse_args,
    which hands the tokens after the command to the subcommand's parser,
    then the handler as main calls it."""
    args = cli.build_parser().parse_args(cli._normalize_argv(argv))
    try:
        return args.handler(args)
    except MLFourierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def _outcome(run, argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARITY_ARGVS = [shlex.split(ln)[1:] for ln in readme_cli_block() if ln.startswith("mlf ")] + [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["transform", "-h"],
    ["transform", "--strategy", "mellin"],
    ["transform", "--dim", "x"],
    ["eval-ml"],
    ["transform", "--xi-mi", "0.5"],
    ["eval-ml", "--alpha", "1", "--z", "-1+0i"],
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=shlex.join)
def test_main_matches_one_pass_through_both_parsers(argv, capsys, monkeypatch):
    # main parses an argv that names a subcommand with that subcommand's
    # parser alone; exit code, output and namespace are those of a pass
    # through the top-level parser.  The clock is frozen so that the
    # timestamps of the README lines that print one agree.
    class FrozenClock:
        @staticmethod
        def now(tz):
            return datetime(2024, 1, 1, tzinfo=tz)

    monkeypatch.setattr(cli, "datetime", FrozenClock)
    assert _outcome(cli.main, argv, capsys) == _outcome(_one_pass, argv, capsys)
    normalized = cli._normalize_argv(argv)
    try:
        args = cli._parse(normalized)
    except SystemExit:
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(normalized)
    else:
        assert vars(args) == vars(cli.build_parser().parse_args(normalized))


class TestIbpCheck:
    ARGS = (
        "ibp-check", "--alpha", "0.8", "--beta", "1", "--sigma", "1",
        "--dim", "1", "--xi", "1", "--ell", "0", "--ibp-order", "1",
        "--no-timestamp",
    )

    def test_identity_within_threshold(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert payload["worst"] < 1e-5
        assert payload["checks"][0]["ibp_order"] == 1

    def test_threshold_violation_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--threshold", "1e-16")
        assert code == 4

    def test_order_gate(self, capsys):
        code, _, err = run_cli(capsys, *self.ARGS[:-1], "--ibp-order", "7")
        assert code == 2


class TestOutputPlumbing:
    def test_timestamp_lines(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval-bessel", "--xi-points", "2", "--xi-max", "2"
        )
        assert out.splitlines()[0].startswith("# timestamp: ")
        _, out, _ = run_cli(
            capsys,
            "lp-region", "--dim", "1", "--sigma", "0.7",
        )
        assert "timestamp" in json.loads(out)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys,
            "eval-bessel", "--xi-points", "2", "--xi-max", "2",
            "--no-timestamp", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        header, rows = csv_rows(target.read_text())
        assert header[0] == "xi" and len(rows) == 2

    def test_out_overwrites_longer_file_in_place(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        args = ("transform", "--no-timestamp")
        run_cli(capsys, *args, "--xi-points", "9", "--out", str(target))
        long_size = target.stat().st_size
        inode = target.stat().st_ino
        code, _, _ = run_cli(
            capsys, *args, "--xi-points", "3", "--out", str(target)
        )
        assert code == 0
        _, printed, _ = run_cli(capsys, *args, "--xi-points", "3")
        assert target.read_bytes() == printed.encode("utf-8")
        assert target.stat().st_size < long_size
        assert target.stat().st_ino == inode

    def test_out_symlink_rewrites_its_target(self, capsys, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("stale\n" * 100)
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        code, _, _ = run_cli(
            capsys, "lp-region", "--no-timestamp", "--out", str(link)
        )
        assert code == 0
        assert link.is_symlink()
        assert "theorem3" in json.loads(real.read_text())

    def test_out_keeps_file_mode(self, capsys, tmp_path):
        target = tmp_path / "private.json"
        target.write_text("{}\n")
        target.chmod(0o600)
        code, _, _ = run_cli(
            capsys, "lp-region", "--no-timestamp", "--out", str(target)
        )
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == 0o600

    def test_out_dev_null(self, capsys):
        code, out, err = run_cli(
            capsys, "lp-region", "--no-timestamp", "--out", os.devnull
        )
        assert (code, out, err) == (0, "", "")

    def test_out_is_opened_without_truncation(self, capsys, tmp_path, monkeypatch):
        # Truncating an existing file to size 0 makes ext4 flush it on
        # close, which costs more than the transform.
        target = tmp_path / "t.csv"
        target.write_text("stale\n" * 100)
        flags = []
        real_open = os.open

        def spy(path, flag, *rest, **kwargs):
            if os.fspath(path) == str(target):
                flags.append(flag)
            return real_open(path, flag, *rest, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        code, _, _ = run_cli(
            capsys, "transform", "--xi-points", "2", "--no-timestamp",
            "--out", str(target),
        )
        assert code == 0
        assert flags and not any(f & os.O_TRUNC for f in flags)

    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        path = tmp_path / "missing" / "x.json" if where == "missing-parent" else tmp_path
        code, out, err = run_cli(capsys, "lp-region", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --out {path}: ")
        assert "Traceback" not in err

    def test_byte_identical_reruns(self, capsys):
        args = (
            "transform", "--alpha", "1", "--beta", "1", "--sigma", "2",
            "--dim", "1", "--xi-min", "0.5", "--xi-max", "2",
            "--xi-points", "3", "--no-timestamp",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_worker_count_independence(self, capsys, monkeypatch):
        # MLF_THREADS, a former worker-count knob, is no longer read: any
        # value, valid or not, leaves the exit code and the bytes unchanged.
        args = (
            "eval-bessel", "--order", "1.5", "--xi-min", "0.3",
            "--xi-max", "30", "--xi-points", "12", "--no-timestamp",
        )
        monkeypatch.delenv("MLF_THREADS", raising=False)
        code, unset, _ = run_cli(capsys, *args)
        assert code == 0
        for setting in ("abc", "4"):
            monkeypatch.setenv("MLF_THREADS", setting)
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            assert out == unset


class TestExitCodeMapping:
    @pytest.mark.parametrize(
        "error,code",
        [
            (MLFourierError, 3),
            (ConvergenceError, 3),
            (AccuracyError, 3),
            (DomainError, 2),
            (PoleError, 2),
            (FitError, 4),
            (DegenerateFitError, 4),
            (LawMismatchError, 4),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_error_maps_to_exit_code(self, capsys, monkeypatch, error, code):
        def boom(*args, **kwargs):
            raise error("evaluation failed here")

        monkeypatch.setattr(cli, "ml_eval", boom)
        got, _, err = run_cli(capsys, "eval-ml", "--alpha", "1")
        assert got == code
        assert "evaluation failed here" in err
