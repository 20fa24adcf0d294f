"""Print the tracemalloc peak of every stage of one CLI study.

Runs `dpgbem --domain DOMAIN --levels LEVELS --solver SOLVER` (no CSV
file) with the stage functions of `perfbench/spans.py` wrapped and
tracemalloc on.  For the last call of each stage, which is the finest
level's, it prints the peak above the bytes traced at entry and the
bytes still held on return (the result included), in MiB; the line of
`cli.run_convergence` is the whole study's.  tracemalloc counts bytes,
so the numbers are the same on any host and with any BLAS thread count.
Times are not reported: tracing slows a study several-fold.

    PYTHONPATH=src python3 tests/stage_peaks.py square 7 both

The file name keeps it out of pytest's collection.
"""

import functools
import os
import sys
import tracemalloc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.append(os.path.join(ROOT, "src"))
sys.path.append(os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402

from dpgbem import cli  # noqa: E402

MIB = 2.0 ** 20


class PeakTracer(spans.Tracer):
    """A span tracer that also records, per stage, the tracemalloc peak
    of its last call above the bytes traced at entry and the bytes held
    on return.  A stage resets tracemalloc's peak on entry, so every open
    stage keeps a running maximum, raised from the peak before each
    reset and at each return."""

    def __init__(self):
        super().__init__()
        self.peaks = {}    # stage name -> (peak above entry, held) in bytes
        self._open = []    # [bytes at entry, running peak] per open stage

    def _raise_open_peaks(self):
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._open:
            frame[1] = max(frame[1], peak)

    def _wrap(self, name, fn):
        timed = super()._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._raise_open_peaks()
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            self._open.append([entry, entry])
            try:
                return timed(*args, **kwargs)
            finally:
                self._raise_open_peaks()
                entry, peak = self._open.pop()
                self.peaks[name] = (
                    peak - entry, tracemalloc.get_traced_memory()[0] - entry)

        return wrapper


def main(argv):
    if len(argv) != 4:
        print("usage: stage_peaks.py DOMAIN LEVELS SOLVER", file=sys.stderr)
        return 2
    config = cli.ExperimentConfig(argv[1], int(argv[2]), argv[3], None)
    config.validate()
    tracer = PeakTracer()
    tracer.install()
    tracemalloc.start()
    try:
        cli.run_convergence(config)
    finally:
        tracemalloc.stop()
    print("{:45s} {:>10s} {:>10s}".format("stage (last call)", "peak MiB",
                                          "held MiB"))
    for name in spans.SPAN_NAMES:
        if name in tracer.peaks:
            peak, held = tracer.peaks[name]
            print("{:45s} {:10.1f} {:10.1f}".format(name, peak / MIB,
                                                    held / MIB))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
