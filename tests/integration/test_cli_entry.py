"""The shared CLI entry step (repro.cli), end to end in subprocesses.

Every command-line tool resolves its options through one step: the
environment's trace request is honoured by every tool, and a reader
that closes stdout early ends the run without a traceback.
"""

import os
import subprocess
import sys

from repro.netlist import S27_BENCH
from repro.obs import trace

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                   "..", "src"))


def _env(**extra):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


def test_closed_stdout_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.table1",
             "--scale", "0.1", "--designs", "S27"],
            stdout=write_end, stderr=subprocess.PIPE, env=_env(),
            text=True, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "BrokenPipeError" not in proc.stderr, proc.stderr
    assert proc.returncode == 1


def test_check_honours_trace_variable(tmp_path):
    bench = tmp_path / "s27.bench"
    bench.write_text(S27_BENCH)
    path = str(tmp_path / "check.jsonl")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.check", str(bench),
         "--max-depth", "4"],
        env=_env(REPRO_TRACE=path), capture_output=True, text=True,
        timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    records = trace.read_trace(path)
    assert records and records[0]["ty"] == "M"
    assert any(r["ty"] == "E" and r["name"] == "bmc" for r in records)
