"""Golden outputs: every kind's raw and mean CSV, byte for byte.

The files under ``tests/golden/`` named ``<kind>_{raw,mean}.csv`` are the
output of

    alebench <kind> --set frame.h=500 --seeds 2

for each of the four kinds, at every other key's default.  The files named
``ber_nonlinear_qpsk_output_{raw,mean}.csv`` are the output of

    alebench ber_nonlinear --set frame.h=500 --seeds 2
        --set "channel.profiles=5.8GHz, 60MHz"
        --set run.decision_stream=output --set mod.m=4

which reaches a reordered profile axis, output-stream decisions and QPSK,
none of which the defaults touch.  They pin the numbers the benchmark
publishes, so a change that moves any of them fails here.  They are never
regenerated to make a change pass: a change that cannot keep them states
its largest relative drift instead.
"""

from pathlib import Path

import pytest

from alebench.bench import KINDS
from alebench.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_QPSK_OUTPUT = [
    "--set", "channel.profiles=5.8GHz, 60MHz",
    "--set", "run.decision_stream=output",
    "--set", "mod.m=4",
]


def _check(kind, name, extra, jobs, out):
    argv = [kind, "--set", "frame.h=500", "--seeds", "2", "--jobs", str(jobs), "--out", str(out)]
    assert main(argv + extra) == 0
    for suffix in ("raw.csv", "mean.csv"):
        written = out / f"{kind}_{suffix}"
        assert written.read_bytes() == (GOLDEN / f"{name}_{suffix}").read_bytes(), written.name


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_outputs_match_golden_bytes(kind, jobs, tmp_path, capsys):
    _check(kind, kind, [], jobs, tmp_path)


@pytest.mark.parametrize("jobs", [1, 2])
def test_qpsk_output_stream_profiles_match_golden_bytes(jobs, tmp_path, capsys):
    _check("ber_nonlinear", "ber_nonlinear_qpsk_output", _QPSK_OUTPUT, jobs, tmp_path)
