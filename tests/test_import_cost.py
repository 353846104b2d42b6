"""What the package imports.  scipy.integrate and mpmath cost an mlf
process about a third of its start-up, and only the references use them:
the product's path (import mlfourier, mlf transform) loads neither, and
the references load them on first use.

Each check runs in a fresh interpreter, since this test process has
imported both already."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_product_path_loads_neither_scipy_integrate_nor_mpmath():
    _run(
        """
        import sys
        import mlfourier
        from mlfourier import cli

        def loaded():
            return {"scipy.integrate", "mpmath"} & set(sys.modules)

        assert not loaded(), loaded()
        assert cli.main(["transform", "--xi-points", "3", "--no-timestamp"]) == 0
        assert not loaded(), loaded()
        """
    )


def test_references_load_them_on_first_use():
    _run(
        """
        import math
        import sys
        from mlfourier import MLParams, integrate_finite, ml_series, special_core

        ml_series(MLParams(0.8, 1.0), -1.0)
        assert "mpmath" in sys.modules
        assert "scipy.integrate" not in sys.modules

        # integrate_finite calls quad through the module's global, the hook
        # a tracer patches: one call for each of the real and imaginary parts.
        calls = []
        quad = special_core.quad

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        special_core.quad = counted
        integrate_finite(math.cos, 0.0, 1.0)
        assert calls == [(0.0, 1.0), (0.0, 1.0)], calls
        assert "scipy.integrate" in sys.modules
        """
    )
