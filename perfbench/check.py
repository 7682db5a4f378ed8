"""Output check: compare a CLI output CSV with its committed reference.

Numbers are compared by tolerance, not bytes: relative 1e-9, the package's
own gap tolerance, with an absolute floor of 1e-12 for values that are zero
in the reference.  Every pass/fail column must read true.
"""

import csv
import io
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12
VERDICT_COLUMNS = ("passed", "trend_nonincreasing")


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def problems(text, ref_text):
    """Every difference between an output and its reference, as messages;
    an empty list means the output is correct."""
    rows = list(csv.reader(io.StringIO(text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if not rows or rows[0] != ref[0]:
        return ["header differs from the reference"]
    if len(rows) != len(ref):
        return [f"{len(rows) - 1} rows, reference has {len(ref) - 1}"]
    header = rows[0]
    out = []
    for i, (row, want) in enumerate(zip(rows[1:], ref[1:]), start=1):
        if len(row) != len(header):
            out.append(f"row {i}: {len(row)} fields, header has {len(header)}")
            continue
        for col, got, exp in zip(header, row, want):
            if col in VERDICT_COLUMNS and got != "true":
                out.append(f"row {i}: {col}={got}")
            a, b = _number(got), _number(exp)
            if a is None or b is None:
                same = got == exp
            elif math.isnan(a) or math.isnan(b):
                same = math.isnan(a) and math.isnan(b)
            else:
                same = math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            if not same:
                out.append(f"row {i}: {col}={got}, reference {exp}")
    return out
