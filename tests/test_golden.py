"""Golden outputs: every kind's raw and mean CSV, byte for byte.

The files under ``tests/golden/`` are the output of

    alebench <kind> --set frame.h=500 --seeds 2

for each of the five kinds, at every other key's default.  They pin the
numbers the benchmark publishes, so a change that moves any of them fails
here.  They are never regenerated to make a change pass: a change that
cannot keep them states its largest relative drift instead.
"""

from pathlib import Path

import pytest

from alebench.bench import KINDS
from alebench.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_outputs_match_golden_bytes(kind, jobs, tmp_path, capsys):
    argv = [kind, "--set", "frame.h=500", "--seeds", "2", "--jobs", str(jobs), "--out", str(tmp_path)]
    assert main(argv) == 0
    for suffix in ("raw.csv", "mean.csv"):
        name = f"{kind}_{suffix}"
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
