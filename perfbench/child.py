"""One benchmark child process: import dpgbem, validate a configuration,
and run one convergence study.

Usage: child.py MODE CONFIG_JSON [SPANS_PATH]

MODE is ``probe`` (stop after set-up), ``env`` (stop after set-up and
report the library versions), ``study`` or ``traced``.  The child prints
``READY`` once ``dpgbem.cli`` is imported and the configuration is
validated, so the parent can time the set-up; then one JSON line with
the results.  A traced study also writes its spans to SPANS_PATH.
"""

import json
import os
import sys
import time


def main(argv):
    mode, config_kwargs = argv[1], json.loads(argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from dpgbem import cli

    config = cli.ExperimentConfig(**config_kwargs)
    config.validate()
    print("READY", flush=True)

    if mode == "probe":
        return 0
    if mode == "env":
        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(json.dumps({"numpy": numpy.__version__,
                          "scipy": scipy.__version__,
                          "blas": "{} {}".format(blas.get("name"),
                                                 blas.get("version")),
                          "python": sys.version.split()[0]}))
        return 0

    import spans

    tracer = spans.Tracer()
    if mode == "traced":
        tracer.install()
    start = time.perf_counter()
    cli.run_convergence(config, progress=tracer.progress)
    end = time.perf_counter()
    marks = tracer.level_marks
    result = {"wall_s": end - start,
              "finest_level_s": marks[-1] - marks[-2],
              "peak_rss_mb": spans.rss_mb()}
    if mode == "traced":
        result["layers"] = tracer.metrics()
        result["fired"] = tracer.fired()
        with open(argv[3], "w") as fh:
            json.dump({"level_marks": marks, "spans": tracer.span_records()},
                      fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
