"""The bench tracer finds the functions it times by their names, so a
renamed or moved library function must fail the tests, not only a bench
run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_bench_tracer_binds_every_name_and_restores_it():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        patched = tracer.patched()
    finally:
        tracer.restore()
    assert len(patched) >= len(module.WRAPPED) + len(module.COUNTED)
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
