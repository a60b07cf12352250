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


def test_benchmark_config_keywords_resolve():
    # perfbench/workloads.py builds these with exactly these keywords; a
    # dropped field would break the benchmark run, not the tier-1 suite
    from btd1.experiment import ExperimentConfig
    from btd1.solver import SolverOptions

    ExperimentConfig(
        dims=(3, 8, 8),
        sizes=(2, 3, 4),
        snr_grid=(35.0, 50.0),
        num_trials=64,
        cond_cap=10.0,
        evd_variant="cpd",
        omega=2.0,
        seed=2024,
    )
    SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9)
