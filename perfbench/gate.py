"""Correctness gate: a study's CSV files against the reference CSVs under
``reference/``, which were written by the dpgbem CLI before this
benchmark existed.

Integer columns must match exactly.  Every other column must match to
REL_TOL relative.  Perturbing the SPD solve's right-hand side at its
1e-10 residual level moves the CSV values by at most 3e-8 relative,
while a 1% error in one load entry moves them by 1.2e-5; REL_TOL sits
between the two (see test_perfbench.py).
"""

import csv
import math
import os

REL_TOL = 1e-6
INT_COLUMNS = ("level", "N", "dim_trial", "dim_test")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def compare_csv(got_path, ref_path):
    """Differences between a CSV file and its reference, as messages."""
    name = os.path.basename(ref_path)
    if not os.path.exists(got_path):
        return ["{}: not written".format(name)]
    got_head, got = _read(got_path)
    ref_head, ref = _read(ref_path)
    if got_head != ref_head:
        return ["{}: header {} != {}".format(name, got_head, ref_head)]
    if len(got) != len(ref):
        return ["{}: {} rows, reference has {}".format(name, len(got),
                                                       len(ref))]
    problems = []
    for got_row, ref_row in zip(got, ref):
        if len(got_row) != len(ref_head):
            problems.append("{} level {}: {} columns, header has {}".format(
                name, ref_row[0], len(got_row), len(ref_head)))
            continue
        for col, g, r in zip(ref_head, got_row, ref_row):
            if col in INT_COLUMNS:
                ok = g == r
            else:
                try:
                    g, r = float(g), float(r)
                except ValueError:
                    ok = False
                else:
                    ok = (math.isnan(g) and math.isnan(r)) or math.isclose(
                        g, r, rel_tol=REL_TOL, abs_tol=0.0)
            if not ok:
                problems.append("{} level {} {}: {} vs reference {}".format(
                    name, ref_row[0], col, g, r))
    return problems


def check_rates(csv_path, windows):
    """Last-level rates outside their acceptance windows, as messages."""
    head, rows = _read(csv_path)
    last = dict(zip(head, rows[-1]))
    problems = []
    for col, (lo, hi) in windows.items():
        value = float(last[col])
        if not lo <= value <= hi:
            problems.append("last-level {} = {} outside [{}, {}]".format(
                col, value, lo, hi))
    return problems


def check_study(csv_path, reference_stem, windows):
    """All gate failures of one study whose main CSV is at csv_path."""
    stem, _ = os.path.splitext(csv_path)
    ref_stem = os.path.join(REFERENCE_DIR, reference_stem)
    problems = []
    pairs = [(csv_path, ref_stem + ".csv")]
    if os.path.exists(ref_stem + "_agreement.csv"):
        pairs.append((stem + "_agreement.csv", ref_stem + "_agreement.csv"))
    for got, ref in pairs:
        problems += compare_csv(got, ref)
    if not problems:
        problems += check_rates(csv_path, windows)
    return problems
