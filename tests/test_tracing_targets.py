import importlib
import importlib.util
from pathlib import Path

import numpy as np

from semifem import solver
from semifem.mesh import preset_polygon, refine_uniform, triangulate_convex_polygon
from semifem.nonlinearity import PowerLaw

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    # The benchmark's tracer replaces each (module, attribute) of TARGETS by
    # name and has no default for a missing one, so a library change that
    # drops or renames a traced name would crash a traced run.
    tracing = load_tracing()
    missing = [(module, attr) for module, attr, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
    assert ("semifem.solver", "assemble_slope_matrix", "assembly.slope_matrix") \
        in tracing.TARGETS


def test_cg_spans_match_the_solve_counts():
    # The tracer reads a CG call's iteration count at index 1 of the value
    # cg_solve returns: its spans must add up to the solve's own counts, one
    # span per entry of cg_residuals (71 iterations in 35 calls here).
    mesh = triangulate_convex_polygon(preset_polygon("pentagon"))
    for _ in range(4):
        mesh = refine_uniform(mesh)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        _, stats = solver.solve_semilinear(mesh, PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0),
                                           lambda x, y: np.ones_like(x))
    cg = [s for s in tracer.spans if s.name == "solver.cg"]
    assert len(cg) == len(stats.cg_residuals)
    assert sum(s.attrs["iters"] for s in cg) == stats.total_cg_iterations
