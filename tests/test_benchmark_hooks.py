"""The benchmark's traced run: its hooks still find what they wrap.

benchmark/tracing.py wraps the public functions of the package's modules
and the ConductanceForm.from_matrix classmethod. A refactor that moves
either breaks the traced run without failing a test of its own, so one
small traced solve is run here.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import fractal_renorm
from fractal_renorm import ConductanceForm, build_structure, make_context

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_counts_from_matrix():
    original = ConductanceForm.__dict__["from_matrix"]
    structure = build_structure(make_context(2, 1, Fraction(1, 6)))
    tracer = load_tracing().Tracer()
    tracer.install(fractal_renorm)
    try:
        hs = fractal_renorm.solve_eigenform(structure)
        fractal_renorm.form_to_json(hs.form)
        counts = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert counts["networks.from_matrix.calls"] >= 1
    assert counts["renorm.solve_eigenform.calls"] == 1
    assert counts["reports.form_to_json.calls"] == 1
    assert ConductanceForm.__dict__["from_matrix"] is original
