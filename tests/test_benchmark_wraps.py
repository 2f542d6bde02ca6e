"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps library
functions and methods by name. A library name it lists that is removed or
renamed breaks that mode, so this test installs its wrappers and takes them
off again, in this process."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_wraps_resolve_and_come_off():
    run, tracer = load("run"), load("tracer")
    t = tracer.Tracer()
    try:
        run._install(t)
        wrapped = list(t._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        t.uninstall()
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, (owner, attr)
