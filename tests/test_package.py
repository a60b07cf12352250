import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import btd1

MODULES = ["btd1"] + [f"btd1.{m.name}" for m in pkgutil.iter_modules(btd1.__path__)]


def test_no_module_reads_the_environment():
    src = Path(btd1.__file__).resolve().parent
    readers = [p.name for p in sorted(src.glob("*.py")) if "os.environ" in p.read_text()]
    assert not readers


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _benchmark_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_hooks_resolve():
    # perfbench/run.py --trace 1 wraps these by name; a rename in the package
    # would break the traced run, not the tier-1 suite
    hooks = [(home, attr) for home, attr, _ in _benchmark_tracing().LAYERS]
    hooks += [("btd1.sjbd", "lstsq"), ("btd1._kernels", "NUMBA_ENABLED")]
    missing = [(h, a) for h, a in hooks if not hasattr(importlib.import_module(h), a)]
    assert not missing
    assert callable(importlib.import_module("btd1.gf").GFMatrix.matmul)
