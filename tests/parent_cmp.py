"""Check that the CLI writes byte-identical CSV files from this checkout
and from another source tree, such as the parent commit's.

Runs five studies with each tree's `dpgbem` package and one BLAS thread:
`--solver both --levels 4` on both domains (main and agreement files),
`--domain square --solver dpg --levels 5` and `--levels 6`, and
`--domain lshape --solver jn --levels 6`.  The square's level 6 (finest
N = 32768) runs its CG on one more level of the V-cycle than the
benchmarked studies do.  Prints per file whether the two trees' CSVs are
byte-identical, under each file that differs the largest relative
difference from the other tree's file per float column (as
`golden_drift.column_drift` measures it), then the line totals of both
trees' `dpgbem/*.py` files (as `wc -l` counts them); the exit status
is 1 if any file differs (or a run fails), else 0.

    git archive HEAD~1 --prefix=parent/ | tar -x -C /tmp
    python3 tests/parent_cmp.py /tmp/parent/src

PARENT_SRC is the directory that holds the other tree's `dpgbem`
package.  The file name keeps it out of pytest's collection.
"""

import filecmp
import glob
import os
import subprocess
import sys
import tempfile

from golden_drift import column_drift

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

# (file stem, CLI arguments); --solver both also writes <stem>_agreement.csv
STUDIES = (
    ("square_both_4", ["--domain", "square", "--solver", "both",
                       "--levels", "4"]),
    ("lshape_both_4", ["--domain", "lshape", "--solver", "both",
                       "--levels", "4"]),
    ("square_dpg_5", ["--domain", "square", "--solver", "dpg",
                      "--levels", "5"]),
    ("square_dpg_6", ["--domain", "square", "--solver", "dpg",
                      "--levels", "6"]),
    ("lshape_jn_6", ["--domain", "lshape", "--solver", "jn",
                     "--levels", "6"]),
)


def run_cli(src, args, out):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "dpgbem.cli"] + args
                   + ["--out", out], env=env, check=True,
                   stderr=subprocess.DEVNULL)


def line_total(src):
    """Lines of the dpgbem/*.py files under src, as wc -l counts them."""
    total = 0
    for path in glob.glob(os.path.join(src, "dpgbem", "*.py")):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def main(argv):
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "dpgbem")):
        raise SystemExit("usage: parent_cmp.py PARENT_SRC  (the directory "
                         "that holds the other tree's dpgbem package)")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = (("this", SRC), ("parent", argv[0]))
        for tree, _ in trees:
            os.mkdir(os.path.join(tmp, tree))
        for stem, args in STUDIES:
            for tree, src in trees:
                run_cli(src, args, os.path.join(tmp, tree, stem + ".csv"))
            names = [stem + ".csv"]
            if "both" in args:
                names.append(stem + "_agreement.csv")
            for name in names:
                this, parent = (os.path.join(tmp, tree, name)
                                for tree in ("this", "parent"))
                same = filecmp.cmp(this, parent, shallow=False)
                differ += not same
                print("{:28s} {}".format(
                    name, "byte-identical" if same else "DIFFERS"))
                if not same:
                    for col, d in column_drift(this, parent).items():
                        print("  {:26s} {:.2e}".format(col, d))
    for tree, src in trees:
        print("{:28s} {} lines".format(tree + " dpgbem/*.py",
                                       line_total(src)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
