"""README.md against the package: the "Library use" example runs as
documented, and the names the text quotes exist."""

import ast
import builtins
import dataclasses
import glob
import importlib
import inspect
import os
import pkgutil
import re

import numpy as np
import scipy

import dpgbem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def read_readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_library_use_example_runs(capsys):
    section = read_readme().split("\n## Library use\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, README, "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the energy error and the exterior field at one point
    assert len(out) == 2
    assert float(out[0]) > 0.0


def package_modules():
    """Every dpgbem module by its short name."""
    return {info.name: importlib.import_module("dpgbem." + info.name)
            for info in pkgutil.iter_modules(dpgbem.__path__)}


def package_classes(modules):
    """Every class defined in a dpgbem module, by its name."""
    return {name: obj for module in modules.values()
            for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__.startswith("dpgbem")}


def attribute(obj, name):
    """obj.name, a submodule not yet imported, or a dataclass field
    (fields without a default are no class attributes); None if none."""
    if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
        if name in {f.name for f in dataclasses.fields(obj)}:
            return name
    if hasattr(obj, name):
        return getattr(obj, name)
    if inspect.ismodule(obj):
        try:
            return importlib.import_module(obj.__name__ + "." + name)
        except ImportError:
            return None
    return None


def test_readme_names_resolve():
    # backticked dotted names, and identifiers with an underscore or in
    # CamelCase, must name something in a dpgbem module, one of its
    # classes or dataclass fields, the builtins, or tests/, so that the
    # README names no symbol that has gone
    spans = set(re.findall(r"`([^`\n]+)`", read_readme()))
    modules = package_modules()
    classes = package_classes(modules)
    roots = {"np": np, "scipy": scipy, "dpgbem": dpgbem, **modules,
             **classes}
    dotted = {s for s in spans
              if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+", s)}
    idents = {s for s in spans if re.fullmatch(r"[A-Za-z_]\w*", s)
              and ("_" in s or re.match(r"[A-Z][a-z]", s))}
    assert dotted and idents

    known = set(dir(builtins)) | set(modules)
    for module in modules.values():
        known |= set(vars(module))
    for cls in classes.values():
        known |= set(dir(cls))
        if dataclasses.is_dataclass(cls):
            known |= {f.name for f in dataclasses.fields(cls)}
    for path in glob.glob(os.path.join(ROOT, "tests", "*.py")):
        with open(path, encoding="utf-8") as fh:
            known |= {node.name for node in ast.walk(ast.parse(fh.read()))
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    missing = sorted(idents - known)
    for name in sorted(dotted):
        head, *rest = name.split(".")
        obj = roots.get(head)
        for part in rest:
            obj = None if obj is None else attribute(obj, part)
        if obj is None:
            missing.append(name)
    assert not missing, missing
