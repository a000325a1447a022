"""Unit tests for the run configuration (repro.options).

Pins the environment spellings each option accepted before it moved
into :class:`~repro.options.Options`, the scoped override, and the
contract that pool workers run under the submitter's options whatever
the multiprocessing start method.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.options import Options, current, use_options

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestFromEnv:
    def test_empty_environment_gives_the_defaults(self):
        assert Options.from_env({}) == Options()

    def test_defaults(self):
        opts = Options()
        assert (opts.sat_debug, opts.sat_profile, opts.sat_proof) == \
            (False, False, False)
        assert opts.sat_simplify and opts.templates
        assert not (opts.cubes or opts.cube_share or opts.metrics
                    or opts.certification or opts.progress)
        assert (opts.cube_vars, opts.cube_conflicts, opts.cube_jobs) \
            == (3, 1500, 1)
        assert opts.trace is None and opts.trace_id is None

    @pytest.mark.parametrize("name,field", [
        ("REPRO_SAT_DEBUG", "sat_debug"),
        ("REPRO_SAT_PROFILE", "sat_profile"),
        ("REPRO_METRICS", "metrics"),
        ("REPRO_CERT", "certification"),
    ])
    def test_opt_in_flags_take_any_value_but_off(self, name, field):
        for value in ("1", "yes", "2", " TRUE "):
            assert getattr(Options.from_env({name: value}), field)
        for value in ("", "0", "false", "Off", "no"):
            assert not getattr(Options.from_env({name: value}), field)

    @pytest.mark.parametrize("name,field", [
        ("REPRO_SAT_SIMPLIFY", "sat_simplify"),
        ("REPRO_FRAME_TEMPLATES", "templates"),
    ])
    def test_default_on_flags_turn_off_only_when_told(self, name,
                                                      field):
        for value in ("", "1", "2"):
            assert getattr(Options.from_env({name: value}), field)
        for value in ("0", "false", "OFF", "no"):
            assert not getattr(Options.from_env({name: value}), field)

    @pytest.mark.parametrize("name,field", [
        ("REPRO_CUBE", "cubes"),
        ("REPRO_CUBE_SHARE", "cube_share"),
    ])
    def test_strict_flags_need_a_yes(self, name, field):
        for value in ("1", "true", "yes", "On"):
            assert getattr(Options.from_env({name: value}), field)
        for value in ("", "2", "0", "enabled"):
            assert not getattr(Options.from_env({name: value}), field)

    def test_cube_integers_fall_back_on_bad_values(self):
        opts = Options.from_env({"REPRO_CUBE_VARS": "5",
                                 "REPRO_CUBE_CONFLICTS": "x",
                                 "REPRO_CUBE_JOBS": " "})
        assert (opts.cube_vars, opts.cube_conflicts, opts.cube_jobs) \
            == (5, 1500, 1)

    def test_proof_variable_is_off_memory_or_a_path(self):
        assert not Options.from_env({"REPRO_SAT_PROOF": "0"}).sat_proof
        memory = Options.from_env({"REPRO_SAT_PROOF": "on"})
        assert memory.sat_proof and memory.sat_proof_path is None
        stream = Options.from_env({"REPRO_SAT_PROOF": " /tmp/p.drat "})
        assert stream.sat_proof
        assert stream.sat_proof_path == "/tmp/p.drat"

    def test_trace_and_progress(self):
        opts = Options.from_env({"REPRO_TRACE": "/tmp/t.jsonl",
                                 "REPRO_TRACE_ID": "abc",
                                 "REPRO_PROGRESS": "0"})
        assert opts.trace == "/tmp/t.jsonl"
        assert opts.trace_id == "abc"
        assert opts.progress  # any non-empty value, as before
        assert Options.from_env({"REPRO_TRACE": ""}).trace is None


class TestScopedOverride:
    def test_use_options_restores_on_exit_and_error(self):
        before = current()
        with pytest.raises(RuntimeError):
            with use_options(cubes=True, cube_jobs=4) as inside:
                assert current() is inside
                assert inside.cube_jobs == 4
                raise RuntimeError
        assert current() is before

    def test_base_replaces_every_field(self):
        base = Options(metrics=True, templates=False)
        with use_options(base, cube_vars=5):
            assert current() == Options(metrics=True, templates=False,
                                        cube_vars=5)

    def test_unknown_field_is_rejected(self):
        with pytest.raises(TypeError):
            with use_options(no_such_option=True):
                pass


_PARITY_DRIVER = '''
import json
import multiprocessing
import os
import sys
from dataclasses import asdict

from repro.options import current, use_options
from repro.parallel import ParallelExecutor


def report(payload, budget):
    return os.getpid(), asdict(current())


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    with use_options(templates=False, sat_simplify=False, cubes=True,
                     cube_jobs=2, metrics=True,
                     certification=True) as wanted:
        outcomes = ParallelExecutor(jobs=2).map(report, [0, 1, 2, 3])
    print(json.dumps({"parent": os.getpid(), "wanted": asdict(wanted),
                      "seen": [o.value for o in outcomes]}))
'''


@pytest.mark.parallel
class TestStartMethodParity:
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_workers_see_the_submitters_options(self, method,
                                                tmp_path):
        driver = tmp_path / "driver.py"
        driver.write_text(_PARITY_DRIVER)
        env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
        for key in [k for k in env if k.startswith("REPRO_")]:
            del env[key]
        proc = subprocess.run([sys.executable, str(driver), method],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert len(report["seen"]) == 4
        for pid, seen in report["seen"]:
            assert pid != report["parent"]  # really a worker process
            assert seen == report["wanted"]
