"""Print how far the CLI's CSV output has drifted from the golden files
and from the benchmark's reference files.

Runs `dpgbem --solver both --levels 4` on both domains into a temporary
directory and prints, per file and float column, the largest relative
difference from `tests/data/` over all rows, then the largest of all
against the bound of `test_cli.test_csv_matches_golden_files`.  Then it
runs the two benchmarked studies, `--domain square --solver dpg
--levels 5` and `--domain lshape --solver jn --levels 6`, and prints the
same against `perfbench/reference/`, whose files it only reads, and the
bound of perfbench's correctness gate (`perfbench/gate.py`).  Integer
columns must match exactly and are reported only if they do not.  The
exit status is 1 if either largest drift exceeds its bound (or a run
fails), else 0, so that a script can use it as a check.

    PYTHONPATH=src python3 tests/golden_drift.py
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/golden_drift.py

The file name keeps it out of pytest's collection; it takes no options.
"""

import math
import os
import sys
import tempfile

# the package from PYTHONPATH if set, else from this checkout's src/
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "src"))

# the benchmark's gate, for its bound and reference files; no bytecode is
# written under perfbench/
sys.dont_write_bytecode = True
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "perfbench"))

from dpgbem import cli  # noqa: E402
from gate import REFERENCE_DIR, REL_TOL  # noqa: E402
from test_cli import (GOLDEN_DIR, GOLDEN_RTOL, INT_COLUMNS,  # noqa: E402
                      read_columns)

# the benchmarked studies, by the stem of their reference files
BENCHMARKED = (
    ("square-dpg-5", ["--domain", "square", "--solver", "dpg", "--levels", "5"]),
    ("lshape-jn-6", ["--domain", "lshape", "--solver", "jn", "--levels", "6"]))


def column_drift(path, ref_path):
    """{column: largest relative difference} of the float columns of two
    CSV files; an integer column that differs maps to inf."""
    header, rows = read_columns(path)
    want_header, want_rows = read_columns(ref_path)
    if header != want_header or len(rows) != len(want_rows):
        raise SystemExit("{}: header or row count differs from {}"
                         .format(path, ref_path))
    drift = {}
    for j, col in enumerate(header):
        worst = 0.0
        for row, want in zip(rows, want_rows):
            got, ref = row[j], want[j]
            if col in INT_COLUMNS:
                worst = max(worst, 0.0 if got == ref else math.inf)
            elif math.isnan(float(ref)) or math.isnan(float(got)):
                if math.isnan(float(ref)) != math.isnan(float(got)):
                    worst = math.inf
            else:
                d = abs(float(got) - float(ref))
                worst = max(worst, d / abs(float(ref)) if float(ref) else d)
        if col not in INT_COLUMNS or worst:
            drift[col] = worst
    return drift


def run_cli(args, out):
    code = cli.main(args + ["--out", out])
    if code:
        raise SystemExit("dpgbem exited with {}".format(code))


def print_drift(name, drift):
    """Print a file's column drifts; return the largest."""
    for col, d in drift.items():
        print("{:28s} {:18s} {:.2e}".format(name, col, d))
    return max(drift.values())


def main():
    golden = bench = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for domain in ("square", "lshape"):
            run_cli(["--domain", domain, "--solver", "both", "--levels", "4"],
                    os.path.join(tmp, "{}_both_4.csv".format(domain)))
            for suffix in ("", "_agreement"):
                name = "{}_both_4{}.csv".format(domain, suffix)
                golden = max(golden, print_drift(name, column_drift(
                    os.path.join(tmp, name), os.path.join(GOLDEN_DIR, name))))
        for stem, args in BENCHMARKED:
            name = stem + ".csv"
            run_cli(args, os.path.join(tmp, name))
            bench = max(bench, print_drift(name, column_drift(
                os.path.join(tmp, name), os.path.join(REFERENCE_DIR, name))))
    print("largest drift {:.2e} (bound {:.0e})".format(golden, GOLDEN_RTOL))
    print("largest drift against perfbench/reference {:.2e} (bound {:.0e})"
          .format(bench, REL_TOL))
    return 1 if golden > GOLDEN_RTOL or bench > REL_TOL else 0


if __name__ == "__main__":
    sys.exit(main())
