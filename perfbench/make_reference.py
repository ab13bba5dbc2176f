"""Regenerate the stored reference outputs at the default benchmark seed.

    python3 perfbench/make_reference.py

Writes reference/<workload>.csv: the raw CSV of each workload's reference
config (repetition 0 at --seed 0), which every benchmark session runs in
its fresh peak-RSS process and compares with this file.  Run it only when a change to the program is meant
to change its outputs, and say so where the change is described.
"""

import contextlib
import io
import shutil

import run
from workloads import WORKLOADS


def main():
    cli = run.load_program()
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        session = run.Session(cli, workload, run.DEFAULT_SEED)
        out = session.work / "reference_out"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(session.argv(session.config(run.REFERENCE_SEED), out))
        if rc != 0:
            raise SystemExit(f"{workload.name}: alebench exited {rc}")
        shutil.copyfile(out / f"{workload.kind}_raw.csv", run.REFERENCE_DIR / f"{workload.name}.csv")
        print(f"wrote {run.REFERENCE_DIR / workload.name}.csv")


if __name__ == "__main__":
    main()
