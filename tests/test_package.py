import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import textwrap
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


class _NamesRead(ast.NodeVisitor):
    """Names a module reads: bare names that are not a parameter of an
    enclosing function, attribute names, and names in ``from ... import``
    lists."""

    def __init__(self):
        self.names = set()
        self._params = []

    def visit_FunctionDef(self, node):
        args = node.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        self._params.append({a.arg for a in every if a is not None})
        self.generic_visit(node)
        self._params.pop()

    visit_Lambda = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in p for p in self._params):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        self.names.update(alias.name for alias in node.names)


def test_every_public_name_has_a_caller_outside_the_tests():
    # a name the package exports must be read by the package itself or by
    # the benchmark, or be one of the benchmark tracer's hooks; a name only
    # the tests use belongs in tests/helpers.py
    root = Path(__file__).resolve().parents[1]
    reader = _NamesRead()
    for path in [*(root / "src" / "btd1").glob("*.py"), *(root / "perfbench").glob("*.py")]:
        reader.visit(ast.parse(path.read_text()))
    hooked = {(home, attr) for home, attr, _ in _benchmark_tracing().LAYERS}
    unread = [
        f"{module}.{name}"
        for module in MODULES
        for name in getattr(importlib.import_module(module), "__all__", ())
        if name not in reader.names and (module, name) not in hooked
    ]
    assert not unread


def _package_imports(path):
    """The btd1 modules a source file imports, by their names in the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("btd1.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "btd1":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            names |= {inner[0]} if inner else {a.name for a in node.names}
    return names


def test_sjbd_imports_only_linalg_from_the_package():
    # the S-JBD is a layer below the solver: it takes the V_q as a stack and
    # leaves the Q verdict to Phase I, so it needs nothing of minors
    src = Path(btd1.__file__).resolve().parent
    assert _package_imports(src / "sjbd.py") == {"linalg"}


def test_one_function_calls_eig():
    # every eigendecomposition of a general matrix, the exact S-JBD's
    # pencil, the commutant EVD and Case 3's two-slice GEVD alike, goes
    # through the one pencil routine of the S-JBD
    src = Path(btd1.__file__).resolve().parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
                if any(ast.unparse(c.func) == "np.linalg.eig" for c in calls):
                    callers.add((path.name, fn.name))
    assert callers == {("sjbd.py", "_pencil_eig")}


def test_each_failure_record_is_merged_once():
    # solve_sjbd, phase1_recover_A and decompose each merge their diagnostics
    # into a failure in one handler, under one rule; no layer updates a
    # failure's diagnostics in place
    src = Path(btd1.__file__).resolve().parent
    handlers = {}
    for path in sorted(src.glob("*.py")):
        assert ".diagnostics.update(" not in path.read_text(), path.name
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                caught = [
                    h for h in ast.walk(fn)
                    if isinstance(h, ast.ExceptHandler)
                    and h.type is not None
                    and ast.unparse(h.type) == "SolverDiagnostic"
                ]
                handlers[(path.name, fn.name)] = len(caught)
    assert handlers[("sjbd.py", "solve_sjbd")] == 1
    assert handlers[("solver.py", "phase1_recover_A")] == 1
    assert handlers[("solver.py", "decompose")] == 1


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


# one operation of every path the package serves, in a fresh process: the
# exact cases 1-3, both noisy scenarios with the decomposition matcher, an
# experiment trial and the three checkers; scipy is imported only when
# gesdd fails to converge
EVERY_PATH = textwrap.dedent(
    """
    import sys

    import btd1
    import btd1.cli
    from btd1 import NoiseSpec, SolverOptions, add_noise, compose, decompose, random_btd
    from btd1 import match_decompositions
    from btd1.experiment import ExperimentConfig, run_experiment
    from btd1.gf import verify_generic_q2_dim, verify_phi_full_rank
    from btd1.uniqueness import check_deterministic_uniqueness

    def scipy_modules(after):
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, (after, loaded[:5])

    scipy_modules("import")
    for dims, sizes, seed, case in [
        ((3, 9, 10), (1, 2, 3, 4), 3, 1),
        ((3, 8, 8), (2, 3, 4), 0, 2),
        ((3, 14, 15), (2, 2, 2, 3, 3, 4), 10, 3),
    ]:
        assert decompose(compose(random_btd(dims, sizes, seed=seed))).case_used == case
        scipy_modules(f"exact case {case}")
    truth = random_btd((3, 9, 10), (1, 2, 3, 4), seed=18)
    t = add_noise(compose(truth), NoiseSpec(snr_db=100.0, seed=4))
    decompose(t, SolverOptions(mode="noisy_scenario1", rank_tol=1e-3, seed=0))
    scipy_modules("scenario 1")
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=1)
    t = add_noise(compose(truth), NoiseSpec(snr_db=50.0, seed=2))
    rep = decompose(t, SolverOptions(mode="noisy_scenario2", known_R=3, known_sum_L=9))
    match_decompositions(truth, rep.decomposition)
    scipy_modules("scenario 2")
    run_experiment(ExperimentConfig(dims=(3, 8, 8), sizes=(2, 3, 4), snr_grid=(50.0,), num_trials=1))
    scipy_modules("experiment")
    assert verify_generic_q2_dim((3, 3, 5), (1, 1, 1, 2), seed=1).certified
    assert verify_phi_full_rank(2, 3, 2, (1, 1), seed=1).certified
    check_deterministic_uniqueness(truth)
    scipy_modules("checkers")
    """
)


def test_dimension_below_1_is_refused(tmp_path):
    from btd1 import DimensionError
    from btd1.experiment import ExperimentConfig
    from btd1.fileio import read_tensor
    from btd1.gf import verify_generic_q2_dim, verify_phi_full_rank

    path = tmp_path / "empty.btd1"
    path.write_bytes(b"BTD1 R 0 2 2\n")
    for call in (
        lambda: read_tensor(path),
        lambda: ExperimentConfig(dims=(-3, 8, 8), sizes=(2, 3)),
        lambda: verify_generic_q2_dim((3, 0, 5), (1,)),
        lambda: verify_phi_full_rank(3, 0, 1, (1,)),
    ):
        with pytest.raises(DimensionError, match="must be at least 1"):
            call()


def test_no_path_imports_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(btd1.__file__).resolve().parents[1]))
    res = subprocess.run(
        [sys.executable, "-c", EVERY_PATH], env=env, capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
