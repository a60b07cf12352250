"""The benchmark's output checks accept right answers and reject wrong ones
fed to them on purpose; BENCHMARK.json names the metrics the code prints.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from btd1 import compose, decompose, random_btd  # noqa: E402
from btd1.gf import GFField, verify_generic_q2_dim, verify_phi_full_rank  # noqa: E402
from btd1.tensor import BlockTermDecomposition  # noqa: E402
from btd1.uniqueness import (  # noqa: E402
    check_deterministic_uniqueness,
    generic_bounds,
    parameter_count_S,
)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def exact():
    truth = random_btd((3, 8, 8), (2, 3, 4), seed=5)
    t = compose(truth)
    return truth, t.values, decompose(t)


def certify_outputs(dims, sizes, with_phi=True):
    phi = verify_phi_full_rank(dims[0], dims[1], len(sizes), sizes) if with_phi else None
    return (
        parameter_count_S(dims, sizes),
        generic_bounds(dims, sizes),
        verify_generic_q2_dim(dims, sizes),
        phi,
        check_deterministic_uniqueness(random_btd(dims, sizes, seed=3)),
    )


def test_exact_output_passes(exact):
    assert checks.check_exact(*exact) == []


def test_swapped_size_tuple_is_rejected(exact):
    truth, values, report = exact
    l = report.detected_L
    swapped = dataclasses.replace(report, detected_L=(l[1], l[0]) + l[2:])
    assert any("size" in p for p in checks.check_exact(truth, values, swapped))


def test_perturbed_factor_is_rejected(exact):
    truth, values, report = exact
    est = report.decomposition
    (b, c), rest = est.terms[0], est.terms[1:]
    b = b.copy()
    b[0, 0] += 1e-3 * np.linalg.norm(b)
    bad = dataclasses.replace(
        report, decomposition=BlockTermDecomposition(est.A, ((b, c),) + rest)
    )
    assert any("rebuilt" in p for p in checks.check_exact(truth, values, bad))


def test_wrong_case_is_rejected(exact):
    truth, values, report = exact
    bad = dataclasses.replace(report, case_used=3)
    assert any("case" in p for p in checks.check_exact(truth, values, bad))


def test_certify_output_passes():
    dims, sizes = (3, 9, 10), (1, 2, 3, 4)
    assert checks.check_certify(dims, sizes, False, *certify_outputs(dims, sizes)) == []


def test_rank_off_by_one_is_rejected():
    dims, sizes = (3, 9, 10), (1, 2, 3, 4)
    s_out, rows, q2, phi, rep = certify_outputs(dims, sizes)
    low_q2 = dataclasses.replace(q2, witnessed_rank=q2.witnessed_rank - 1)
    low_phi = dataclasses.replace(phi, witnessed_rank=phi.witnessed_rank + 1)
    for q, p in ((low_q2, phi), (q2, low_phi)):
        assert checks.check_certify(dims, sizes, False, s_out, rows, q, p, rep)


def test_2x8x7_verdict_from_gf2_15_is_rejected():
    dims, sizes = (2, 8, 7), (3, 3, 3)
    s_out, rows, q2, _, rep = certify_outputs(dims, sizes, with_phi=False)
    assert q2.field.p == 32749
    assert checks.check_certify(dims, sizes, True, s_out, rows, q2, None, rep) == []
    binary = dataclasses.replace(q2, field=GFField())
    problems = checks.check_certify(dims, sizes, True, s_out, rows, binary, None, rep)
    assert any("odd characteristic" in p for p in problems)


def test_scenario2_floors_reject_misses_and_errors():
    snrs = (35.0, 50.0)
    generated = [(2, 3, 4)] * 10
    detected = [[(4, 3, 2), (2, 3, 4)]] * 10
    assert checks.check_scenario2(generated, snrs, detected, [1e-3] * 10) == ([], [])
    detected[0] = [(2, 2, 5), (2, 3, 4)]
    detected[1] = [None, (2, 3, 4)]
    misses, problems = checks.check_scenario2(generated, snrs, detected, [1e-1] * 10)
    assert misses == [(0, 35.0, (2, 2, 5)), (1, 35.0, None)]
    assert len(problems) == 2


def test_benchmark_json_lists_the_printed_metrics():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    printed = run.end_to_end([1.0, 2.0], [0.5])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in printed.items()
    }
    assert [tuple(m.values()) for m in bench["per_layer"]] == list(tracing.METRICS)
