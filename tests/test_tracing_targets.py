import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def test_every_traced_name_exists():
    # The benchmark's tracer replaces each (module, attribute) of TARGETS by
    # name and has no default for a missing one, so a library change that
    # drops or renames a traced name would crash a traced run.
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
    assert ("semifem.solver", "assemble_slope_matrix", "assembly.slope_matrix") \
        in tracing.TARGETS
