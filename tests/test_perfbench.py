"""The benchmark harness runs green on the current code: its self-test
passes, and one pass of each workload gates every output as correct.  A
change to the solver that breaks a benchmark gate fails here, before any
timed run."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True)


def test_selftest_passes():
    proc = _run("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["census", "amalgam", "queries"])
def test_one_pass_is_correct(workload):
    proc = _run("perfbench/run.py", "--workload", workload, "--seed", "1",
                "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), result
    assert result["attempted"] > 0
