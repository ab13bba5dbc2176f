"""Correctness gate for the raw CSV a workload run writes.

Three checks, each producing a list of problems (empty means pass):

* ``compare_to_reference``: at the default benchmark seed, every cell is
  compared with the stored reference.  Integer cells (seeds, counts) and
  text cells must match exactly; float cells must agree within
  ``ATOL + RTOL * |reference|``, and an infinite cell must stay infinite.
  RTOL absorbs a reordering of float sums (about 1e-15 relative) with six
  orders of magnitude to spare, while any change to a kernel moves a BER
  by at least one bit error in ~10,000 (1e-4) and a residual power far
  beyond 1e-9.
* hash identity: the same config run again in the same session, in process
  or in a fresh process, must write byte-identical CSV (``csv_hash``).
* value sanity, per workload, in ``workloads.py``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re

RTOL = 1e-9
ATOL = 1e-12

_INT = re.compile(r"^[+-]?\d+$")


def csv_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader]


def _cell_problem(got: str, want: str) -> str | None:
    if got == want:
        return None
    if _INT.match(got) or _INT.match(want):
        return "integer differs"
    try:
        a, b = float(got), float(want)
    except ValueError:
        return "text differs"
    if math.isnan(a) or math.isnan(b):
        return "NaN"
    if math.isinf(a) or math.isinf(b):
        return None if a == b else "infinite value differs"
    if abs(a - b) <= ATOL + RTOL * abs(b):
        return None
    return f"relative difference {abs(a - b) / max(abs(b), ATOL):.3e}"


def compare_to_reference(text: str, reference: str, limit: int = 5) -> list[str]:
    got_header, got_rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if got_header != ref_header:
        return [f"columns {got_header} differ from reference {ref_header}"]
    if len(got_rows) != len(ref_rows):
        return [f"{len(got_rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    for index, (got, want) in enumerate(zip(got_rows, ref_rows)):
        for column in ref_header:
            problem = _cell_problem(got[column], want[column])
            if problem:
                problems.append(
                    f"row {index} {column}: {got[column]!r} vs reference {want[column]!r} ({problem})"
                )
                if len(problems) >= limit:
                    return problems
    return problems
