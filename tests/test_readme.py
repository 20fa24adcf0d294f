"""The README's "Library use" example runs against the package as
documented."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_library_use_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library use\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, README, "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the energy error and the exterior field at one point
    assert len(out) == 2
    assert float(out[0]) > 0.0
