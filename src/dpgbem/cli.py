"""Batch driver: run the convergence experiments and emit CSV results.

Two manufactured problems are built in, both with vanishing exterior
part (the transmission data are the trace and normal derivative of the
interior solution):

  square:  Omega = (-0.1, 0.1)^2,  u = sin(pi x) sin(pi y),
           f = 2 pi^2 sin(pi x) sin(pi y)
  lshape:  Omega = (-0.25, 0.25)^2 minus the quadrant (0,0.25)x(-0.25,0),
           u = r^(2/3) sin(2 phi / 3) in polar coordinates at the
           reentrant corner, f = 0

Squared error norms are reported to match the usual convergence plots;
rates are decay exponents with respect to the triangle count N (the
rate with respect to h is twice the N-rate, since h ~ N^{-1/2}).
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import bem as bem_mod
from . import jn_reference, solver
from .dpg_assembly import ProblemData
from .errors import ConfigError, MeshError, NumericalError
from .mesh import boundary_loop, make_lshape_mesh, make_square_mesh, refine_uniform

COLUMNS = ("level", "N", "h", "dim_trial", "dim_test", "err_energy_sq",
           "err_u_l2_sq", "err_sigma_l2_sq", "err_trace_l2", "err_flux_l2",
           "rate_energy", "rate_u", "rate_sigma")
AGREEMENT_COLUMNS = ("level", "N", "agree_trace_l2", "agree_flux_l2",
                     "dpg_err_trace_l2", "jn_err_trace_l2")
CSV_HEADER = ",".join(COLUMNS)
AGREEMENT_HEADER = ",".join(AGREEMENT_COLUMNS)

DOMAINS = ("square", "lshape")
SOLVERS = ("dpg", "jn", "both")
MAX_LEVELS = 9  # largest accepted --levels; a fixed cap, not a memory check


@dataclass
class ExperimentConfig:
    domain: str
    levels: int
    solver: str
    output_path: Optional[str]

    def validate(self):
        if self.domain not in DOMAINS:
            raise ConfigError("domain must be one of {}".format(DOMAINS))
        if self.solver not in SOLVERS:
            raise ConfigError("solver must be one of {}".format(SOLVERS))
        if (not isinstance(self.levels, (int, np.integer))
                or isinstance(self.levels, bool) or self.levels < 2):
            raise ConfigError("levels must be an integer >= 2")
        if self.levels > MAX_LEVELS:
            raise ConfigError(
                "levels > {} exceeds the level cap".format(MAX_LEVELS))
        # checked here so that a bad path fails before the first level
        for path in filter(None, (self.output_path, self.agreement_path)):
            out_dir = os.path.dirname(os.path.abspath(path))
            if (os.path.isdir(path) or not os.path.isdir(out_dir)
                    or not os.access(out_dir, os.W_OK)):
                raise ConfigError(
                    "cannot write '{}': it is a directory, or its directory "
                    "is missing or not writable".format(path))

    @property
    def agreement_path(self):
        """The agreement CSV of --solver both, next to --out, or None."""
        if self.output_path and self.solver == "both":
            stem, ext = os.path.splitext(self.output_path)
            return stem + "_agreement" + (ext or ".csv")


@dataclass
class ConvergenceRecord:
    """One refinement level; a measure that no coupling computed is nan."""
    level: int
    N: int
    h: float
    dim_trial: int = math.nan
    dim_test: int = math.nan
    err_energy_sq: float = math.nan
    err_u_l2_sq: float = math.nan
    err_sigma_l2_sq: float = math.nan
    err_trace_l2: float = math.nan
    err_flux_l2: float = math.nan
    rate_energy: float = math.nan
    rate_u: float = math.nan
    rate_sigma: float = math.nan
    probe_values: tuple = field(default=())
    agree_trace_l2: float = math.nan
    agree_flux_l2: float = math.nan
    jn_err_trace_l2: float = math.nan

    @property
    def dpg_err_trace_l2(self):
        return self.err_trace_l2


@dataclass
class ExactSolution:
    u: callable
    grad: callable


def manufacture_data(domain):
    """Problem data and exact solution callables for a domain tag."""
    if domain == "square":
        pi = np.pi
        corner = None

        def u(x, y):
            return np.sin(pi * x) * np.sin(pi * y)

        def grad(x, y):
            return (pi * np.cos(pi * x) * np.sin(pi * y),
                    pi * np.sin(pi * x) * np.cos(pi * y))

        def f(x, y):
            return 2.0 * pi ** 2 * np.sin(pi * x) * np.sin(pi * y)

    elif domain == "lshape":
        corner = (0.0, 0.0)  # the reentrant corner

        def _polar(x, y):
            r = np.hypot(x, y)
            phi = np.arctan2(y, x)
            phi = np.where(phi < 0.0, phi + 2.0 * np.pi, phi)
            return r, phi

        def u(x, y):
            r, phi = _polar(x, y)
            return np.where(r > 0.0, r ** (2.0 / 3.0) * np.sin(2.0 * phi / 3.0),
                            0.0)

        def grad(x, y):
            r, phi = _polar(x, y)
            rs = np.where(r > 0.0, r, 1.0)
            c = (2.0 / 3.0) * rs ** (-1.0 / 3.0)
            gx = np.where(r > 0.0, -c * np.sin(phi / 3.0), 0.0)
            gy = np.where(r > 0.0, c * np.cos(phi / 3.0), 0.0)
            return gx, gy

        def f(x, y):
            return np.zeros_like(np.asarray(x, dtype=float))

    else:
        raise ConfigError("unknown domain '{}'".format(domain))

    def phi0(x, y, nx, ny):
        gx, gy = grad(x, y)
        return gx * nx + gy * ny

    data = ProblemData(f=f, u0=u, phi0=phi0, singular_vertex=corner)
    return data, ExactSolution(u=u, grad=grad)


def initial_mesh(domain):
    """Coarsest experiment mesh: 32 triangles on the square, 24 on the L."""
    if domain == "square":
        return make_square_mesh(0.1, 4)
    if domain == "lshape":
        return make_lshape_mesh(0.25, 2)
    raise ConfigError("unknown domain '{}'".format(domain))


def probe_points(domain):
    """Four exterior points at distance exactly 1 from the boundary."""
    if domain == "square":
        w = 0.1
        return np.array([[w + 1.0, 0.0], [-(w + 1.0), 0.0],
                         [0.0, w + 1.0], [0.0, -(w + 1.0)]])
    q = 0.25
    return np.array([[q + 1.0, q / 2.0], [-(q + 1.0), 0.0],
                     [0.0, q + 1.0], [0.0, -(q + 1.0)]])


def run_convergence(config, progress=None):
    """Run the configured refinement study; returns one record per level
    and writes the CSV file(s) if an output path is set."""
    config.validate()
    data, exact = manufacture_data(config.domain)
    probes = probe_points(config.domain)
    mesh = initial_mesh(config.domain)
    records = []
    for level in range(config.levels):
        loop = boundary_loop(mesh)
        bem_mats = bem_mod.assemble_bem(loop)
        rec = ConvergenceRecord(level, mesh.num_triangles, mesh.mesh_size())
        # the main file reports the DPG coupling's measures whenever it runs
        if config.solver != "jn":
            sol, blocks = solver.solve_dpg(mesh, data, bem_mats)
            rec.err_energy_sq = solver.energy_error(blocks, sol.x) ** 2
            eu, es = solver.l2_errors(sol, exact.u, exact.grad, mesh,
                                      data.singular_vertex)
            etr, efl = solver.boundary_cauchy_errors(sol)
            rec.probe_values = tuple(float(v) for v in
                                     solver.eval_exterior_field(sol, probes))
            dims = (sol.trial_layout.dim, blocks.B.shape[0])
        if config.solver != "dpg":
            system = jn_reference.assemble_jn(mesh, data, bem_mats)
            u_n, phi = jn_reference.solve_jn(system)
            eu_j, es_j = jn_reference.jn_errors(mesh, u_n, exact.u, exact.grad,
                                                data.singular_vertex)
            etr_j, efl_j = jn_reference.jn_boundary_errors(loop, u_n, phi,
                                                           data)
            rec.jn_err_trace_l2 = etr_j
        if config.solver == "jn":
            eu, es, etr, efl = eu_j, es_j, etr_j, efl_j
            dims = (mesh.num_vertices + loop.num_panels,) * 2
        if config.solver == "both":
            diff = sol.uhat[loop.vertex_ids] - u_n[loop.vertex_ids]
            rec.agree_trace_l2 = solver.piecewise_linear_boundary_norm(
                loop, diff)
            dflux = sol.flux_c - phi
            rec.agree_flux_l2 = float(
                np.sqrt((loop.lengths * dflux ** 2).sum()))
        rec.dim_trial, rec.dim_test = dims
        rec.err_u_l2_sq, rec.err_sigma_l2_sq = eu ** 2, es ** 2
        rec.err_trace_l2, rec.err_flux_l2 = etr, efl
        records.append(rec)
        if progress is not None:
            progress("level {} done: N={}, h={:.4g}".format(
                level, rec.N, rec.h))
        if level + 1 < config.levels:
            mesh = refine_uniform(mesh)

    _attach_rates(records)
    if config.output_path:
        with open(config.output_path, "w", newline="") as fh:
            write_csv(records, fh, COLUMNS)
        if config.agreement_path:
            with open(config.agreement_path, "w", newline="") as fh:
                write_csv(records, fh, AGREEMENT_COLUMNS)
    return records


def _attach_rates(records):
    for prev, cur in zip(records[:-1], records[1:]):
        dn = math.log(cur.N / prev.N)
        for attr, rate_attr in (("err_energy_sq", "rate_energy"),
                                ("err_u_l2_sq", "rate_u"),
                                ("err_sigma_l2_sq", "rate_sigma")):
            a, b = getattr(prev, attr), getattr(cur, attr)
            if a > 0 and b > 0:
                setattr(cur, rate_attr, math.log(a / b) / dn)


def write_csv(records, stream, columns):
    """Write the named record attributes as CSV, one row per record, each
    value to 17 significant digits (exact for the integer counts)."""
    stream.write(",".join(columns) + "\n")
    for r in records:
        stream.write(",".join(format(getattr(r, c), ".17g")
                              for c in columns) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dpgbem",
        description="Convergence studies for the coupled ultra-weak / "
                    "boundary-element transmission solver.")
    parser.add_argument("--domain", choices=DOMAINS, required=True)
    parser.add_argument("--levels", type=int, default=5,
                        help="number of uniform refinement levels (>= 2)")
    parser.add_argument("--solver", choices=SOLVERS, default="dpg")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="CSV output path (default: stdout)")
    args = parser.parse_args(argv)

    config = ExperimentConfig(domain=args.domain, levels=args.levels,
                              solver=args.solver, output_path=args.out)
    try:
        records = run_convergence(
            config, progress=lambda msg: print(msg, file=sys.stderr))
    except ConfigError as exc:
        print("configuration error: {}".format(exc), file=sys.stderr)
        return 2
    except (NumericalError, MeshError) as exc:
        print("numerical failure: {}".format(exc), file=sys.stderr)
        return 3
    except MemoryError:
        print("out of memory: try fewer --levels", file=sys.stderr)
        return 2
    if not config.output_path:
        write_csv(records, sys.stdout, COLUMNS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
