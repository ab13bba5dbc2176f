"""Pass only when a benchmark session exits 0 and every workload that
BENCHMARK.json names reports a correct result with no failed run.

Usage: python .github/check_bench.py python3 perfbench/run.py --workload all --seconds 1

The checker runs the command it is given, echoes its standard output, and
reads it: each workload's report opens with a `workload <name>` line and
closes with one JSON result line, {"correct", "attempted", "failed",
"metrics"}.  The check fails on a non-zero exit status, on a named workload
with no result line after its header, and on a result that is not correct,
has a failed run, or attempted none.  perfbench/run.py exits 0 even when a
run's output fails its gate (`correct` is then false), so its exit status
alone does not show a wrong result.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def problems(output: str, status: int, names: list[str]) -> list[str]:
    found = [] if status == 0 else [f"the command exited {status}"]
    results, name = {}, None
    for line in output.splitlines():
        if line.startswith("workload "):
            name = line.split()[1]
        elif line.startswith("{") and name is not None:
            try:
                results[name] = json.loads(line)
            except ValueError:
                found.append(f"{name}: result line is not JSON: {line[:200]}")
            name = None
    for name in names:
        result = results.get(name)
        if result is None:
            found.append(f"{name}: no result line after a `workload {name}` header")
            continue
        correct, failed, attempted = (result.get(key) for key in ("correct", "failed", "attempted"))
        if not (correct is True and failed == 0 and isinstance(attempted, int) and attempted > 0):
            found.append(f"{name}: correct {correct}, failed {failed}, attempted {attempted}")
    return found


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    names = [workload["name"] for workload in json.loads(BENCHMARK.read_text(encoding="utf-8"))["workloads"]]
    proc = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="")
    found = problems(proc.stdout, proc.returncode, names)
    for line in found:
        print(line)
    print("bench: " + ("FAIL" if found else f"all {len(names)} workloads correct"))
    sys.exit(1 if found else 0)
