"""Pass only when a Tier-1 pytest log shows exactly README's two known failures.

Usage: python .github/check_tier1.py tier1.log

The log is the output of `python -m pytest -q --continue-on-collection-errors`.
The check fails on any other failed test, on any error (a collection error
included), on a log with no final summary line, and when a known failure
starts to pass.
"""

import re
import sys

KNOWN_FAILURES = {
    "tests/test_acceptance.py::test_step_size_sweep_small_step_penalty",
    "tests/test_lms.py::TestLmsRun::test_settled_frame_end_not_noisier_than_start",
}


def problems(log: str) -> list[str]:
    lines = log.splitlines()
    summaries = [line for line in lines if re.fullmatch(r"=*\s*\d+ \w+.* in [\d.]+s.*", line.strip())]
    if not summaries:
        return ["no pytest summary line: the run did not finish"]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summaries[-1])}
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines if line.startswith("FAILED ")}
    errors = [line for line in lines if line.startswith("ERROR ")]
    found = [f"unexpected failure: {test}" for test in sorted(failed - KNOWN_FAILURES)]
    found += [f"known failure no longer fails: {test}" for test in sorted(KNOWN_FAILURES - failed)]
    found += [f"error: {line[len('ERROR '):]}" for line in errors]
    if counts.get("error", 0) + counts.get("errors", 0) and not errors:
        found.append(f"errors in the summary: {summaries[-1]}")
    if counts.get("failed", 0) != len(failed):
        found.append(f"{counts.get('failed', 0)} failed in the summary, {len(failed)} FAILED lines")
    return found


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as f:
        found = problems(f.read())
    for line in found:
        print(line)
    print("tier-1: " + ("FAIL" if found else "only the known failures"))
    sys.exit(1 if found else 0)
