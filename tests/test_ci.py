"""The two CI gates, `.github/check_tier1.py` and `.github/check_bench.py`,
read synthetic output: each passes what it should and names what it fails.

`.github/` is not a package, so each checker is loaded from its path."""

import importlib.util
import json
from pathlib import Path

import pytest

GITHUB = Path(__file__).resolve().parents[1] / ".github"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, GITHUB / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_tier1 = _load("check_tier1")
check_bench = _load("check_bench")

KNOWN = sorted(check_tier1.KNOWN_FAILURES)


def _tier1_log(failed=KNOWN, errors=(), passed=465, summary=True):
    """A `pytest -q` log whose FAILED and ERROR lines and summary agree."""
    lines = ["....F.....F....", "=" * 20 + " short test summary info " + "=" * 20]
    lines += [f"FAILED {test} - AssertionError" for test in failed]
    lines += [f"ERROR {test} - ImportError" for test in errors]
    counts = [f"{n} {word}" for n, word in ((len(failed), "failed"), (passed, "passed"), (len(errors), "error")) if n]
    if summary:
        lines.append(f"{', '.join(counts)} in 16.51s")
    return "\n".join(lines) + "\n"


class TestCheckTier1:
    def test_only_the_known_failures_pass(self):
        assert check_tier1.problems(_tier1_log()) == []

    def test_an_extra_failure_fails(self):
        found = check_tier1.problems(_tier1_log(failed=[*KNOWN, "tests/test_pso.py::test_new"]))
        assert found == ["unexpected failure: tests/test_pso.py::test_new"]

    @pytest.mark.parametrize("fixed", KNOWN)
    def test_a_known_failure_that_passes_fails(self, fixed):
        found = check_tier1.problems(_tier1_log(failed=[t for t in KNOWN if t != fixed], passed=466))
        assert found == [f"known failure no longer fails: {fixed}"]

    def test_an_error_fails(self):
        found = check_tier1.problems(_tier1_log(errors=["tests/test_new.py"]))
        assert found == ["error: tests/test_new.py - ImportError"]

    def test_a_log_with_no_summary_fails(self):
        found = check_tier1.problems(_tier1_log(summary=False))
        assert found == ["no pytest summary line: the run did not finish"]


NAMES = ["nonlinear_compare", "step_lms", "swarm_pso"]


def _bench_output(**results):
    """perfbench/run.py's output: each workload's header, report lines and
    result line, the result {"correct": true, "attempted": 3, "failed": 0}
    with `results[name]`'s keys over it, or no result line if that is None."""
    lines = []
    for name in NAMES:
        lines += [f"workload {name}", "  runs attempted 3, failed 0"]
        if results.get(name, {}) is not None:
            result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"wall_s": 0.1}}
            lines.append(json.dumps({**result, **results.get(name, {})}))
    return "\n".join(lines) + "\n"


class TestCheckBench:
    def test_every_workload_correct_passes(self):
        assert check_bench.problems(_bench_output(), 0, NAMES) == []

    def test_a_nonzero_status_fails(self):
        assert check_bench.problems(_bench_output(), 2, NAMES) == ["the command exited 2"]

    def test_a_workload_with_no_result_line_fails(self):
        found = check_bench.problems(_bench_output(step_lms=None), 0, NAMES)
        assert found == ["step_lms: no result line after a `workload step_lms` header"]

    @pytest.mark.parametrize("result", [{"correct": False}, {"attempted": 0}], ids=["incorrect", "none-attempted"])
    def test_a_wrong_result_fails(self, result):
        found = check_bench.problems(_bench_output(swarm_pso=result), 0, NAMES)
        assert len(found) == 1 and found[0].startswith("swarm_pso: correct")
