"""Import footprint: what a fresh process pays before it simulates anything.

Every sharded-replay worker, the broker and each ``deepplan`` command
start by importing the package, so an import that nothing uses is
start-up latency paid once per process.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def modules_after_import(statement: str) -> set[str]:
    """Top-level module names loaded by *statement* in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return {name.partition(".")[0] for name in result.stdout.split()}


def test_worker_import_does_not_load_networkx():
    loaded = modules_after_import("import repro, repro.shard.worker")
    assert "repro" in loaded
    assert "networkx" not in loaded
