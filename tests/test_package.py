"""Tests for what ``import repro`` does to the process environment."""

import os
import subprocess
import sys
from pathlib import Path

import repro

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
)


def _run_fresh(script: str, **preset: str) -> str:
    """Stdout of ``script`` in a fresh interpreter that can import repro."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout


def _env_after_import(**preset: str) -> list:
    """The BLAS thread variables as a fresh ``import repro`` leaves them."""
    script = (
        "import os, repro; "
        f"print(' '.join(os.environ[name] for name in {BLAS_THREAD_VARS!r}))"
    )
    return _run_fresh(script, **preset).split()


class TestBlasThreadPin:
    def test_import_pins_blas_to_one_thread(self):
        assert _env_after_import() == ["1", "1", "1"]

    def test_a_preset_value_survives(self):
        assert _env_after_import(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]


class TestImportCost:
    def test_cli_import_skips_the_http_server(self):
        # repro.obs.httpd is imported only by the code paths that serve.
        script = (
            "import sys, repro.cli; "
            "print('http.server' in sys.modules, "
            "'repro.obs.httpd' in sys.modules)"
        )
        assert _run_fresh(script).split() == ["False", "False"]
