"""Self-test of the benchmark at a tiny frame length.

    python3 perfbench/selftest.py

Checks that every named metric prints with its unit, in both modes and on
every workload, and matches BENCHMARK.json; that layer self times add up
to the traced wall time; that the gate fails a run whose CSV differs from
the reference in one cell, while absorbing a last-digit float change; that
a wrapped name the program no longer has is reported absent instead of
crashing the traced run; and that a program that raises is counted in
``failed`` while the result line still prints.  Exits 0 on success, 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import sys

import gate
import run
import spans
from workloads import WORKLOADS

SMALL_H = 1000
SEED = 1


class SelfTestFailure(Exception):
    pass


def check(condition, message):
    if not condition:
        raise SelfTestFailure(message)


def check_contract():
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in contract[key]]
        check(listed == list(declared), f"BENCHMARK.json {key} {listed} != run.py {list(declared)}")
    check(sorted(w["name"] for w in contract["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")


def check_session(cli, workload, trace):
    lines, result, payload = run.run_session(cli, workload, SEED, 0.0, trace, h=SMALL_H)
    label = f"{workload.name} trace={int(trace)}"
    check(result["correct"] and result["failed"] == 0, f"{label}: failures {payload['failures']}")
    declared = run.PER_LAYER if trace else run.END_TO_END + run.REPORT_ONLY
    for name, unit in declared:
        printed = [line.strip() for line in lines if line.strip().startswith(f"{name} = ")]
        check(len(printed) == 1 and f" {unit}" in printed[0], f"{label}: {name} not printed with unit {unit}")
    metrics = result["metrics"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    check([(n, m["unit"]) for n, m in metrics.items()] == list(expected), f"{label}: metric set differs")
    for name, m in metrics.items():
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{label}: {name} not finite")
        if not trace:
            check(m["value"] > 0, f"{label}: end-to-end metric {name} is not positive")
    if trace:
        gap, wall = payload["extra"]["self_time_gap_s"], metrics["trace.wall_s"]["value"]
        check(gap <= 1e-9 * wall, f"{label}: self times miss the traced wall time by {gap} s")
        check(payload["extra"]["absent"] == [], f"{label}: absent names {payload['extra']['absent']}")


def check_gate(cli):
    workload = WORKLOADS["nonlinear_compare"]
    session = run.Session(cli, workload, SEED, SMALL_H)
    session.reference_run()
    check(not session.failures, f"unperturbed reference run failed the gate: {session.failures}")
    text = (session.work / "rss_out" / f"{workload.kind}_raw.csv").read_text(encoding="utf-8")
    header, rows = gate.parse_csv(text)
    mse = rows[0]["mse"]

    def with_cell(column, value):
        lines = text.splitlines(keepends=True)
        cells = lines[1].rstrip("\n").split(",")
        cells[header.index(column)] = value
        lines[1] = ",".join(cells) + "\n"
        return "".join(lines)

    check(gate.compare_to_reference(text, text) == [], "identical CSV rejected")
    check(gate.compare_to_reference(with_cell("mse", repr(float(mse) * (1 + 4e-15))), text) == [],
          "a last-digit float change was rejected")
    check(gate.compare_to_reference(with_cell("mse", repr(float(mse) * (1 + 1e-6))), text) != [],
          "a perturbed mse cell passed the gate")
    check(gate.compare_to_reference(with_cell("seed", str(int(rows[0]["seed"]) + 1)), text) != [],
          "a perturbed seed cell passed the gate")
    # the whole path: a session whose reference differs in one cell counts a failed run
    perturbed = run.Session(cli, workload, SEED, SMALL_H, reference=with_cell("ber", "0.5"))
    perturbed.reference_run()
    check(perturbed.failures, "a session with a perturbed reference passed")


class RaisingProgram:
    """Stands in for alebench.cli: every in-process run raises."""

    @staticmethod
    def main(argv):
        raise RuntimeError("program failure injected by the self-test")


def check_failing_program():
    """A program that raises is counted as failed runs, and the result line still prints."""
    workload = WORKLOADS["step_lms"]
    lines, result, payload = run.run_session(RaisingProgram, workload, SEED, 0.0, False, h=SMALL_H)
    check(not result["correct"], "a raising program was reported correct")
    check(result["failed"] >= workload.quality_reps and result["attempted"] > result["failed"],
          f"attempted {result['attempted']}, failed {result['failed']}")
    check("mse_geomean" not in result["metrics"] and "wall_s" in result["metrics"],
          f"metrics of a raising program: {sorted(result['metrics'])}")
    check(json.loads(json.dumps(result)) == result, "result line is not plain JSON")


def check_absent(cli):
    workload = WORKLOADS["swarm_pso"]
    session = run.Session(cli, workload, SEED, SMALL_H)
    targets = spans.TARGETS + (("alebench.bench", "removed_in_a_later_version", "bench"),)
    metrics, extra = run.measure_traced(session, 0.0, targets)
    check(extra["absent"] == ["alebench.bench.removed_in_a_later_version"], f"absent names {extra['absent']}")
    check(not session.failures and metrics["pso.cost_evals"] > 0, "traced run with an absent name failed")
    recorder = spans.SpanRecorder(())
    recorder._observe(recorder._observe_run_pso, "pso", (None, None), {}, (None, object()), None)
    check(recorder.absent == ["run_pso: AttributeError"], f"unreadable result not reported: {recorder.absent}")


def main():
    cli = run.load_program()
    steps = [("contract", check_contract)]
    for workload in WORKLOADS.values():
        for trace in (False, True):
            steps.append((f"{workload.name} trace={int(trace)}", lambda w=workload, t=trace: check_session(cli, w, t)))
    steps += [("gate", lambda: check_gate(cli)), ("absent names", lambda: check_absent(cli)),
              ("failing program", check_failing_program)]
    for name, step in steps:
        try:
            step()
        except SelfTestFailure as err:
            print(f"FAIL {name}: {err}")
            return 1
        print(f"ok   {name}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
