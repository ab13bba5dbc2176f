"""Golden outputs: every kind's raw and mean CSV, byte for byte.

The files under ``tests/golden/`` named ``<kind>_{raw,mean}.csv`` are the
output of

    alebench <kind> --set frame.h=500 --set run.n_seeds=2

for each of the four kinds, at every other key's default.  The files named
``ber_nonlinear_qpsk_{raw,mean}.csv`` are the output of

    alebench ber_nonlinear --set frame.h=500 --set run.n_seeds=2
        --set "channel.profiles=5.8GHz, 60MHz" --set mod.m=4

which reaches a reordered profile axis and QPSK, neither of which the
defaults touch.  That pair was written new when decisions on the filter
output were removed; it replaced the output-stream pair of the same
command, and was generated by the code before that removal, so both
sides of it wrote these bytes.  The three metric pairs (``ber_awgn``,
``ber_nonlinear`` and the QPSK pair) were rewritten once since, when a
PSO row's residual became the lag sum the swarm's cost fallback forms:
only PSO rows' ``mse`` and ``clean_mse`` cells moved, by at most 3.3e-16
relative, and no ``ber`` cell did.  The files pin the numbers the benchmark
publishes, so a change that moves any of them fails here.  They are
never regenerated to make a change pass: a change that cannot keep them
states its largest relative drift instead.
"""

from pathlib import Path

import pytest

from alebench.bench import KINDS
from alebench.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
_SUFFIXES = ("raw.csv", "mean.csv")

_QPSK = "ber_nonlinear_qpsk"
_QPSK_ARGS = ["--set", "channel.profiles=5.8GHz, 60MHz", "--set", "mod.m=4"]


def _check(kind, name, extra, jobs, out):
    argv = [kind, "--set", "frame.h=500", "--set", "run.n_seeds=2", "--jobs", str(jobs), "--out", str(out)]
    assert main(argv + extra) == 0
    for suffix in _SUFFIXES:
        written = out / f"{kind}_{suffix}"
        assert written.read_bytes() == (GOLDEN / f"{name}_{suffix}").read_bytes(), written.name


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_outputs_match_golden_bytes(kind, jobs, tmp_path, capsys):
    _check(kind, kind, [], jobs, tmp_path)


@pytest.mark.parametrize("jobs", [1, 2])
def test_qpsk_profiles_match_golden_bytes(jobs, tmp_path, capsys):
    _check("ber_nonlinear", _QPSK, _QPSK_ARGS, jobs, tmp_path)


def test_every_golden_file_is_read():
    """The tests above read exactly the files under tests/golden/, so a
    replaced or renamed golden cannot linger there unchecked."""
    read = {f"{name}_{suffix}" for name in (*KINDS, _QPSK) for suffix in _SUFFIXES}
    assert {path.name for path in GOLDEN.iterdir()} == read
