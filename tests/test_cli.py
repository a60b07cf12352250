import json

import numpy as np
import pytest
from click.testing import CliRunner

from btd1.cli import main
from btd1.uniqueness import generic_bounds


@pytest.fixture
def runner():
    return CliRunner()


def test_generate_deterministic(runner, tmp_path):
    out1 = tmp_path / "a.btd1"
    out2 = tmp_path / "b.btd1"
    for out in (out1, out2):
        res = runner.invoke(
            main,
            ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--seed", "7", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.truth.json").exists()


def test_generate_default_truth_path_keeps_a_dotted_directory(runner, tmp_path):
    # the truth file sits beside the tensor, named from the tensor's stem,
    # whatever dots the directory holds
    folder = tmp_path / "cli.v2"
    folder.mkdir()
    res = runner.invoke(
        main,
        ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--out", str(folder / "tensor")],
    )
    assert res.exit_code == 0, res.output
    assert (folder / "tensor.truth.json").exists()
    assert not (tmp_path / "cli.truth.json").exists()


def test_generate_complex(runner, tmp_path):
    out = tmp_path / "c.btd1"
    res = runner.invoke(
        main,
        ["generate", "--dims", "2,4,4", "--sizes", "1,2", "--field", "complex",
         "--seed", "3", "--out", str(out)],
    )
    assert res.exit_code == 0
    assert out.read_bytes().startswith(b"BTD1 C 2 4 4\n")


def test_generate_bad_sizes_exit_2(runner, tmp_path):
    res = runner.invoke(
        main,
        ["generate", "--dims", "3,4,4", "--sizes", "9", "--out", str(tmp_path / "x.btd1")],
    )
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--dims", "3,a,8", "--sizes", "2"],
        ["experiment", "--dims", "3,8,8", "--sizes", "9"],
        ["experiment", "--dims", "3,8,8", "--sizes", "2,3,4", "--snr", "abc"],
        ["experiment", "--dims", "3,8,8", "--sizes", "2,3,4", "--trials", "0"],
        ["experiment", "--dims", "3,8,8", "--sizes", "2,3,4", "--snr", "nan"],
        ["experiment", "--dims", "3,8,8", "--sizes", "2,3,4", "--snr", "45,-inf"],
        ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--snr", "-inf"],
        ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--snr", "35,50"],
        ["experiment", "--dims", "3,8,8", "--sizes", "2,3,4", "--evd-variant", "cpd"],
        ["experiment", "--dims", "3,8,8", "--sizes", "2,3,4", "--omega", "2"],
        ["check", "--dims", "3,8,8", "--sizes", "2,3,4", "--gf", "--trials", "0"],
    ],
    ids=[
        "generate-dims",
        "experiment-sizes",
        "experiment-snr",
        "experiment-trials",
        "experiment-snr-nan",
        "experiment-snr-minus-inf",
        "generate-snr-minus-inf",
        "generate-snr-two-values",
        "experiment-evd-variant",
        "experiment-omega",
        "check-gf-trials-zero",
    ],
)
def test_input_errors_exit_2(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--dims", "0,8,8", "--sizes", "2"],
        ["experiment", "--dims", "-3,8,8", "--sizes", "2,3", "--trials", "1", "--snr", "50"],
        ["check", "--dims", "0,5,5", "--sizes", "1", "--gf"],
        ["decompose", "empty.btd1"],
    ],
    ids=["generate", "experiment", "check", "decompose"],
)
def test_dimension_below_1_exits_2(runner, tmp_path, monkeypatch, args):
    # a tensor file whose header has a zero dimension is refused as it is
    # read, before any solve
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.btd1").write_bytes(b"BTD1 R 0 2 2\n")
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "must be at least 1" in res.output
    assert [p.name for p in tmp_path.iterdir()] == ["empty.btd1"]


def test_noisy_case3_wider_than_min_jk_exits_3(runner, tmp_path):
    out = tmp_path / "c3.btd1"
    res = runner.invoke(
        main,
        ["generate", "--dims", "3,14,15", "--sizes", "2,2,2,3,3,4", "--seed", "0",
         "--snr", "35", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    res = runner.invoke(
        main, ["decompose", str(out), "--mode", "scenario2", "--known-r", "6", "--known-suml", "16"]
    )
    assert res.exit_code == 3, res.output
    payload = json.loads(res.stdout)
    assert payload["diagnostic"] == "two-slice pencil width s = 15 exceeds min(J, K) = 14"
    assert (payload["details"]["s"], payload["details"]["J"], payload["details"]["K"]) == (15, 14, 15)


def test_decompose_3x9x10_case1(runner, tmp_path):
    out = tmp_path / "t.btd1"
    res = runner.invoke(
        main,
        ["generate", "--dims", "3,9,10", "--sizes", "1,2,3,4", "--seed", "5", "--out", str(out)],
    )
    assert res.exit_code == 0
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["case_used"] == 1
    assert payload["residual"] < 1e-8
    assert sorted(payload["detected_L"]) == [1, 2, 3, 4]
    # --out writes the same report to a file
    report = tmp_path / "report.json"
    res_out = runner.invoke(main, ["decompose", str(out), "--out", str(report)])
    assert res_out.exit_code == 0, res_out.output
    assert res_out.output == f"wrote {report}\n"
    assert report.read_text() + "\n" == res.output


def test_decompose_3x8x8_case2(runner, tmp_path):
    out = tmp_path / "t.btd1"
    runner.invoke(
        main,
        ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--seed", "6", "--out", str(out)],
    )
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["case_used"] == 2
    assert sorted(payload["detected_L"]) == [2, 3, 4]


def test_decompose_scenario2_noisy(runner, tmp_path):
    out = tmp_path / "t.btd1"
    runner.invoke(
        main,
        ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--seed", "8",
         "--snr", "45", "--out", str(out)],
    )
    res = runner.invoke(
        main,
        ["decompose", str(out), "--mode", "scenario2", "--known-r", "3", "--known-suml", "9"],
    )
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert len(payload["detected_d"]) == 3


def test_decompose_prints_warnings_to_stderr(runner, tmp_path):
    out = tmp_path / "t.btd1"
    runner.invoke(
        main,
        ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--seed", "8",
         "--snr", "45", "--out", str(out)],
    )
    res = runner.invoke(main, ["decompose", str(out), "--mode", "scenario1"])
    assert res.exit_code == 0, res.output
    diagnostics = json.loads(res.stdout)["diagnostics"]
    warnings = {k: v for k, v in diagnostics.items() if str(v).startswith("warning")}
    assert warnings, "expected scenario 1 to warn that Q misses every sum binom(d_r+1, 2)"
    assert res.stderr.splitlines() == [f"{k}: {v}" for k, v in warnings.items()]


def test_decompose_reports_the_sjbd_route(runner, tmp_path, monkeypatch):
    import btd1.sjbd as sjbd_module

    out = tmp_path / "t.btd1"
    runner.invoke(
        main,
        ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--seed", "6", "--out", str(out)],
    )
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 0, res.output
    diagnostics = json.loads(res.stdout)["diagnostics"]
    assert diagnostics["sjbd_route"] == "pencil"
    assert diagnostics["coupling_margin"] > sjbd_module.COUPLING_MARGIN_FLOOR
    assert "commutant_dim" not in diagnostics
    assert res.stderr == ""
    # a margin below the floor keeps the pencil's blocks, with a warning
    monkeypatch.setattr(sjbd_module, "COUPLING_MARGIN_FLOOR", 1e30)
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 0, res.output
    diagnostics = json.loads(res.stdout)["diagnostics"]
    assert diagnostics["sjbd_route"] == "pencil"
    assert res.stderr.splitlines() == [f"coupling_status: {diagnostics['coupling_status']}"]
    assert "below 1e+30" in res.stderr


def test_decompose_prints_the_warnings_of_a_failure(runner, tmp_path):
    # C_2's first column 1e-6 from C_1's: Phase I's Q check fails, and the
    # pencil's low-margin warning, the real cause, reaches stderr before
    # the exit-3 JSON
    from btd1 import compose
    from btd1.fileio import write_tensor
    from helpers import near_degenerate_btd

    out = tmp_path / "t.btd1"
    write_tensor(out, compose(near_degenerate_btd((2, 7, 7), (3, 4), "real", 7, "c_collinear", 1e-6)))
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 3, res.output
    payload = json.loads(res.stdout)
    assert "structural assumption fails" in payload["diagnostic"]
    status = payload["details"]["coupling_status"]
    assert status.startswith("warning: pencil coupling margin")
    assert res.stderr.splitlines() == [f"coupling_status: {status}"]


@pytest.mark.parametrize(
    "args,message",
    [
        (["--evd-variant", "cpd"], "No such option"),
        (["--omega", "2"], "No such option"),
        (["--mode", "scenario2", "--known-r", "0", "--known-suml", "9"], "known_R"),
        (["--mode", "scenario2", "--known-r", "-1", "--known-suml", "9"], "known_R"),
        (["--mode", "scenario2", "--known-r", "3", "--known-suml", "2"], "known_sum_L"),
        (["--known-r", "3"], "known_R"),
        (["--mode", "scenario1", "--known-suml", "9"], "known_sum_L"),
        (["--rank-tol", "0"], "rank_tol"),
        (["--rank-tol", "-1"], "rank_tol"),
        (["--rank-tol", "1"], "rank_tol"),
        (["--rank-tol", "nan"], "rank_tol"),
        (["--rank-tol", "inf"], "rank_tol"),
    ],
    ids=[
        "evd-variant",
        "omega",
        "known-r-0",
        "known-r-negative",
        "known-suml-below-r",
        "known-r-exact",
        "known-suml-scenario1",
        "rank-tol-0",
        "rank-tol-negative",
        "rank-tol-1",
        "rank-tol-nan",
        "rank-tol-inf",
    ],
)
def test_decompose_input_errors_exit_2(runner, tmp_path, args, message):
    out = tmp_path / "t.btd1"
    runner.invoke(
        main,
        ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--seed", "8",
         "--snr", "45", "--out", str(out)],
    )
    res = runner.invoke(main, ["decompose", str(out), *args])
    assert res.exit_code == 2, res.output
    assert message in res.stderr
    assert "Traceback" not in res.output


def test_decompose_missing_file_exit_2(runner):
    res = runner.invoke(main, ["decompose", "/nonexistent/file.btd1"])
    assert res.exit_code == 2


def test_decompose_diagnostic_exit_3(runner, tmp_path):
    out = tmp_path / "t.btd1"
    runner.invoke(
        main,
        ["generate", "--dims", "2,8,7", "--sizes", "3,3,3", "--seed", "2", "--out", str(out)],
    )
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 3
    payload = json.loads(res.output)
    assert "diagnostic" in payload


def test_decompose_scenario2_known_sum_l_above_ij_exit_3(runner, tmp_path):
    # K = 6 > known sum L = 5 > I J = 4 is a solver diagnostic, not a raw
    # reshape error
    out = tmp_path / "t.btd1"
    runner.invoke(main, ["generate", "--dims", "2,2,6", "--sizes", "1,1", "--out", str(out)])
    res = runner.invoke(
        main, ["decompose", str(out), "--mode", "scenario2", "--known-r", "3", "--known-suml", "5"]
    )
    assert res.exit_code == 3, res.output
    assert json.loads(res.output)["details"] == {"known_sum_L": 5, "IJ": 4}


def test_decompose_case3_subset_wider_than_min_jk_exit_3(runner, tmp_path):
    out = tmp_path / "t.btd1"
    runner.invoke(
        main, ["generate", "--dims", "2,10,6", "--sizes", "2,2,3", "--seed", "1", "--out", str(out)]
    )
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 3, res.output
    details = json.loads(res.output)["details"]
    assert (details["subset"], details["sum_L"], details["min_JK"]) == ([0, 1, 2], 7, 6)


@pytest.mark.parametrize(
    "dims,sizes,message",
    [
        ("2,10,6", "2,2,3", "sum L_r = 7 > min(J, K) = 6"),
        ("2,7,6", "1,2,2,2", "is not an integer"),
    ],
    ids=["2x10x6", "2x7x6"],
)
def test_decompose_phase2_failure_details_carry_phase1(runner, tmp_path, dims, sizes, message):
    out = tmp_path / "t.btd1"
    runner.invoke(
        main, ["generate", "--dims", dims, "--sizes", sizes, "--seed", "1", "--out", str(out)]
    )
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 3, res.output
    payload = json.loads(res.output)
    assert message in payload["diagnostic"]
    details = payload["details"]
    for key in ("Q_used", "sum_d", "sjbd_route", "coupling_margin", "case_considered"):
        assert key in details, key
    assert details["case_considered"] == 3


def test_decompose_sjbd_failure_details_use_the_report_names(runner, tmp_path, monkeypatch):
    # a minor matrix whose null matrices make every pencil combination
    # singular: the exit-3 details carry the pencil's rank and cut, Phase
    # I's Q_used and the S-JBD's sum_d
    import btd1.solver as solver_module
    from helpers import singular_pencil_instance

    out = tmp_path / "t.btd1"
    runner.invoke(
        main,
        ["generate", "--dims", "3,8,5", "--sizes", "2,3", "--seed", "1", "--out", str(out)],
    )
    v_list = singular_pencil_instance(5, seed=3)
    monkeypatch.setattr(
        solver_module, "symmetric_null_matrices", lambda t, **kwargs: (np.stack(v_list), None)
    )
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 3, res.output
    payload = json.loads(res.output)
    assert payload["diagnostic"] == "pencil combination W_1 is singular"
    details = payload["details"]
    assert (details["Q_used"], details["sum_d"]) == (4, 3)
    assert (details["W1_rank"], details["size"], details["sjbd_route"]) == (2, 3, "pencil")
    assert 0 <= details["W1_cut_ratio"] < 1e-8


@pytest.mark.parametrize("kind", ["trivial", "mismatch"])
def test_decompose_phase1_failure_details_use_the_report_names(runner, tmp_path, monkeypatch, kind):
    from btd1.fileio import write_tensor
    from helpers import phase1_failure

    t, message, q_used = phase1_failure(kind, monkeypatch)
    out = tmp_path / "t.btd1"
    write_tensor(out, t)
    res = runner.invoke(main, ["decompose", str(out)])
    assert res.exit_code == 3, res.output
    payload = json.loads(res.output)
    assert message in payload["diagnostic"]
    assert payload["details"]["Q_used"] == q_used
    assert "Q" not in payload["details"]


def test_check_dims_table(runner):
    res = runner.invoke(main, ["check", "--dims", "8,8,50", "--sizes", "1x47,2"])
    assert res.exit_code == 0, res.output
    assert "row8" in res.output
    assert "row3" in res.output
    # R = 48: the dimension-count bound holds, the classical row does not
    assert "row8                 True" in res.output
    assert "row3                 False" in res.output


def test_check_2x8x7(runner):
    res = runner.invoke(main, ["check", "--dims", "2,8,7", "--sizes", "3,3,3"])
    assert res.exit_code == 0
    assert "S = 111 < 112" in res.output
    assert "first_fm_upon_verification True" in res.output


def test_check_gf_certification(runner, tmp_path):
    out = tmp_path / "check.json"
    res = runner.invoke(
        main, ["check", "--gf", "--dims", "3,3,5", "--sizes", "1,1,1,2", "--json-out", str(out)]
    )
    assert res.exit_code == 0
    assert "certified" in res.output
    # --json-out writes the whole payload
    payload = json.loads(out.read_text())
    assert payload["parameter_count"] == {"S": 41, "IJK": 45, "passes": True}
    assert payload["generic_bounds"] == generic_bounds((3, 3, 5), (1, 1, 1, 2))
    assert payload["gf_certification"]["verdict"] == "certified"


def test_check_without_dims_exits_2(runner):
    res = runner.invoke(main, ["check", "--sizes", "2,2"])
    assert res.exit_code == 2
    assert "need --dims and --sizes (or --decomposition)" in res.output


def test_check_decomposition_file(runner, tmp_path):
    out = tmp_path / "t.btd1"
    runner.invoke(
        main,
        ["generate", "--dims", "3,8,8", "--sizes", "2,3,4", "--seed", "9", "--out", str(out)],
    )
    res = runner.invoke(main, ["check", "--decomposition", str(tmp_path / "t.truth.json")])
    assert res.exit_code == 0, res.output
    assert "S5_overall_unique" in res.output


@pytest.mark.parametrize(
    "payload",
    [
        {"terms": []},
        {"A": [[1.0]], "terms": [{"B": [[1.0]]}]},
        [1, 2],
        {"A": 5, "terms": 3},
        {"field": "complex", "A": [[1.0]], "terms": [{"B": [[1.0]], "C": [[1.0]]}]},
    ],
    ids=["no-A", "term-without-C", "list", "terms-not-a-list", "real-complex-entry"],
)
def test_check_malformed_decomposition_exit_2(runner, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["check", "--decomposition", str(path)])
    assert res.exit_code == 2, res.output
    assert res.output.startswith("error: ")


def test_experiment_csv_schema(runner, tmp_path):
    freq = tmp_path / "freq.csv"
    err = tmp_path / "err.csv"
    res = runner.invoke(
        main,
        ["experiment", "--dims", "3,8,8", "--sizes", "2,3,4", "--snr", "inf,45",
         "--trials", "2", "--seed", "1", "--quiet",
         "--freq-out", str(freq), "--err-out", str(err)],
    )
    assert res.exit_code == 0, res.output
    freq_rows = freq.read_text().strip().splitlines()
    assert freq_rows[0] == "L_tuple,inf,45"
    # candidate tuples for R=3, K=8, sum L=9
    tuples = {row.split(",")[0] for row in freq_rows[1:]}
    assert tuples == {"2|2|5", "2|3|4", "3|3|3"}
    # exact-mode column sums to the trial count on the correct row
    correct = [row for row in freq_rows[1:] if row.startswith("2|3|4")][0]
    assert correct.split(",")[1] == "2"
    err_rows = err.read_text().strip().splitlines()
    assert err_rows[0].startswith("snr,mean_err_A,median_err_A")
    exact_row = err_rows[1].split(",")
    assert float(exact_row[1]) < 1e-8


def test_experiment_reports_progress_unless_quiet(runner, tmp_path):
    res = runner.invoke(
        main,
        ["experiment", "--dims", "3,8,8", "--sizes", "2,3,4", "--snr", "inf", "--trials", "2",
         "--freq-out", str(tmp_path / "freq.csv"), "--err-out", str(tmp_path / "err.csv")],
    )
    assert res.exit_code == 0, res.output
    assert res.stderr == "\rtrial 1/2\rtrial 2/2\n"


def test_experiment_rejects_shape_whose_cap_no_draw_meets(runner, tmp_path):
    # sum L = 9 < K = 10: the third unfolding is never well conditioned
    res = runner.invoke(
        main,
        ["experiment", "--dims", "3,8,10", "--sizes", "2,3,4", "--trials", "1", "--quiet",
         "--freq-out", str(tmp_path / "f.csv"), "--err-out", str(tmp_path / "e.csv")],
    )
    assert res.exit_code == 2, res.output
    assert "third unfolding" in res.output


def test_experiment_prints_failure_causes(runner, tmp_path, monkeypatch):
    import btd1.experiment as exp
    from btd1.linalg import SolverDiagnostic

    def failing(noisy, opts):
        raise SolverDiagnostic("synthetic diagnostic", {})

    monkeypatch.setattr(exp, "decompose", failing)
    res = runner.invoke(
        main,
        ["experiment", "--dims", "3,8,8", "--sizes", "2,3,4", "--snr", "40,45",
         "--trials", "1", "--seed", "1", "--quiet",
         "--freq-out", str(tmp_path / "f.csv"), "--err-out", str(tmp_path / "e.csv")],
    )
    assert res.exit_code == 0, res.output
    assert "solver failures: 2)" in res.stdout
    assert "CPD refinements not converged: 0" in res.stdout
    assert "  2 x synthetic diagnostic" in res.stdout.splitlines()
