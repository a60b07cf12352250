"""Command-line driver.

Subcommands: ``generate`` (synthetic tensor + ground truth), ``decompose``
(run the solver on a BTD1 file), ``experiment`` (Monte-Carlo SNR study as
CSV), ``check`` (uniqueness report for dimensions or a decomposition file,
optionally with finite-field certification).

Exit codes: 0 success, 2 input error, 3 solver diagnostic.  ``decompose``
prints each warning in the solver's diagnostics, a failure's included (for
instance a CPD refinement that hit its iteration cap), to stderr, one line
each.  Its
relative rank tolerance is ``--rank-tol`` when given (strictly between 0
and 1), else 1e-8 in exact mode and 1e-2 in the noisy modes;
``--known-r`` and ``--known-suml`` apply to scenario 2 only.  The mode also picks the S-JBD route:
the pencil for exact data, the commutant with the CPD refinement for
noisy data (``decompose`` in scenario 1 or 2, and every noisy trial of
``experiment``).  SNR values are dB values or ``inf`` (exact); NaN and
``-inf`` are input errors.
"""

import json
import math
import os
import sys

import click

from . import fileio
from .experiment import ExperimentConfig, run_experiment
from .linalg import DimensionError, SolverDiagnostic
from .solver import SolverOptions, decompose as solve
from .tensor import NoiseSpec, add_noise, compose, random_btd
from .uniqueness import check_deterministic_uniqueness, generic_bounds, parameter_count_S

__all__ = ["main"]


def _parse_dims(text):
    try:
        i_dim, j_dim, k_dim = (int(p) for p in text.split(","))
    except ValueError:
        raise click.BadParameter(f"dims must look like I,J,K, got {text!r}") from None
    if min(i_dim, j_dim, k_dim) < 1:
        raise click.BadParameter(f"dims must be at least 1, got {text!r}")
    return i_dim, j_dim, k_dim


def _parse_sizes(text):
    """Sizes grammar: comma-separated entries, each ``L`` or ``LxCOUNT``
    (so ``1x47,2`` is 47 ones and one 2)."""
    bad = click.BadParameter(f"bad sizes spec {text!r}")
    sizes = []
    try:
        for token in text.split(","):
            if "x" in token:
                base, count = token.split("x")
                sizes.extend([int(base)] * int(count))
            else:
                sizes.append(int(token))
    except ValueError:
        raise bad from None
    if not sizes or any(s < 1 for s in sizes):
        raise bad
    return tuple(sizes)


def _parse_snr(text):
    try:
        return tuple(
            math.inf if token.strip() == "inf" else float(token) for token in text.split(",")
        )
    except ValueError:
        raise click.BadParameter(f"SNR must be dB values or inf, got {text!r}") from None


@click.group()
def main():
    """Block-term tensor decomposition toolbox."""


@main.command()
@click.option("--dims", required=True, help="tensor dimensions I,J,K")
@click.option("--sizes", required=True, help="term sizes, e.g. 2,3,4 or 1x47,2")
@click.option("--field", "field_tag", default="real", type=click.Choice(["real", "complex"]))
@click.option("--seed", default=0, type=int)
@click.option("--snr", default="inf", help="SNR in dB, or inf for exact")
@click.option("--out", default="tensor.btd1", help="tensor output path")
@click.option("--truth-out", default=None, help="ground-truth JSON path")
def generate(dims, sizes, field_tag, seed, snr, out, truth_out):
    """Write a synthetic tensor (BTD1) and its ground-truth decomposition."""
    dims = _parse_dims(dims)
    sizes = _parse_sizes(sizes)
    snr_db = _parse_snr(snr)
    if len(snr_db) != 1:
        raise click.BadParameter(f"generate takes one SNR value, got {snr!r}")
    try:
        truth = random_btd(dims, sizes, field=field_tag, seed=seed)
        t = compose(truth)
        t = add_noise(t, NoiseSpec(snr_db=snr_db[0], seed=seed + 1))
        fileio.write_tensor(out, t)
        if truth_out is None:
            truth_out = os.path.splitext(out)[0] + ".truth.json"
        fileio.write_decomposition(truth_out, truth)
    except (DimensionError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"wrote {out} and {truth_out}")


def _echo_warnings(diagnostics):
    for key, value in diagnostics.items():
        if isinstance(value, str) and value.startswith("warning"):
            click.echo(f"{key}: {value}", err=True)


@main.command("decompose")
@click.argument("tensor_file")
@click.option("--mode", default="exact", type=click.Choice(["exact", "scenario1", "scenario2"]))
@click.option("--known-r", default=None, type=int, help="number of terms (scenario2)")
@click.option("--known-suml", default=None, type=int, help="sum of term sizes (scenario2)")
@click.option("--rank-tol", default=None, type=float)
@click.option("--seed", default=0, type=int)
@click.option("--out", default=None, help="report JSON path (default: stdout)")
def decompose_cmd(tensor_file, mode, known_r, known_suml, rank_tol, seed, out):
    """Decompose a BTD1 tensor file and report the result as JSON."""
    try:
        t = fileio.read_tensor(tensor_file)
    except (OSError, DimensionError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    mode_map = {"exact": "exact", "scenario1": "noisy_scenario1", "scenario2": "noisy_scenario2"}
    try:
        opts = SolverOptions(
            mode=mode_map[mode],
            known_R=known_r,
            known_sum_L=known_suml,
            rank_tol=rank_tol,
            seed=seed,
        )
        report = solve(t, opts)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except SolverDiagnostic as exc:
        _echo_warnings(exc.diagnostics)
        payload = {"diagnostic": str(exc), "details": exc.diagnostics}
        click.echo(json.dumps(payload, indent=1))
        sys.exit(3)
    _echo_warnings(report.diagnostics)
    payload = json.dumps(report.to_dict(), indent=1)
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
        click.echo(f"wrote {out}")
    else:
        click.echo(payload)


@main.command()
@click.option("--dims", required=True)
@click.option("--sizes", required=True)
@click.option("--snr", default="15,20,25,30,35,40,45,50", help="comma list of dB values; inf = exact")
@click.option("--trials", default=100, type=int)
@click.option("--cond-cap", default=10.0, type=float)
@click.option("--seed", default=0, type=int)
@click.option("--freq-out", default="frequencies.csv")
@click.option("--err-out", default="errors.csv")
@click.option("--quiet", is_flag=True, default=False)
def experiment(dims, sizes, snr, trials, cond_cap, seed, freq_out, err_out, quiet):
    """Monte-Carlo size-detection frequencies and error curves as CSV."""
    try:
        config = ExperimentConfig(
            dims=_parse_dims(dims),
            sizes=_parse_sizes(sizes),
            snr_grid=_parse_snr(snr),
            num_trials=trials,
            cond_cap=cond_cap,
            seed=seed,
        )
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    progress = None
    if not quiet:
        progress = lambda done, total: click.echo(f"\rtrial {done}/{total}", nl=(done == total), err=True)
    result = run_experiment(config, progress=progress)
    result.write_csv(freq_out, err_out)
    click.echo(
        f"wrote {freq_out} and {err_out} (rejected draws: {result.rejected_draws}, "
        f"solver failures: {result.solver_failures})"
    )
    for cause, count in result.failure_causes.items():
        click.echo(f"  {count} x {cause}")
    click.echo(f"CPD refinements not converged: {result.unconverged_refinements}")


@main.command()
@click.option("--dims", default=None, help="I,J,K for generic checks")
@click.option("--sizes", default=None, help="term sizes")
@click.option("--decomposition", "dec_file", default=None, help="decomposition JSON for deterministic checks")
@click.option("--gf", "use_gf", is_flag=True, default=False, help="finite-field certification of the generic null-space count")
@click.option("--trials", default=5, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--json-out", default=None)
def check(dims, sizes, dec_file, use_gf, trials, seed, json_out):
    """Uniqueness report: generic bounds from dimensions, or the full
    deterministic battery for a decomposition file."""
    payload = {}
    try:
        if dec_file is not None:
            d = fileio.read_decomposition(dec_file)
            report = check_deterministic_uniqueness(d)
            payload["deterministic"] = report.to_dict()
            dims = d.dims
            sizes = d.sizes
        if dims is None or sizes is None:
            raise DimensionError("need --dims and --sizes (or --decomposition)")
        if isinstance(dims, str):
            dims = _parse_dims(dims)
        if isinstance(sizes, str):
            sizes = _parse_sizes(sizes)
        s_count, ijk, s_ok = parameter_count_S(dims, sizes)
        payload["parameter_count"] = {"S": s_count, "IJK": ijk, "passes": s_ok}
        bounds = generic_bounds(dims, sizes)
        payload["generic_bounds"] = bounds
        if use_gf:
            from .gf import verify_generic_q2_dim

            res = verify_generic_q2_dim(dims, sizes, trials=trials, seed=seed)
            payload["gf_certification"] = res.to_dict()
    except (DimensionError, ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    _render_check(payload)
    if json_out:
        with open(json_out, "w") as fh:
            json.dump(payload, fh, indent=1)


def _render_check(payload):
    pc = payload["parameter_count"]
    click.echo(f"parameter count: S = {pc['S']} {'<' if pc['passes'] else '>='} {pc['IJK']} = IJK "
               f"({'passes' if pc['passes'] else 'fails'})")
    click.echo("generic bounds:")
    for key, val in payload["generic_bounds"].items():
        click.echo(f"  {key:20s} {val}")
    if "gf_certification" in payload:
        gfres = payload["gf_certification"]
        click.echo(
            f"finite-field certification: {gfres['verdict']} "
            f"(witnessed rank {gfres['witnessed_rank']}, expected {gfres['expected']})"
        )
    if "deterministic" in payload:
        det = payload["deterministic"]
        click.echo("deterministic checks:")
        for section in ("necessary", "assumptions", "conditions", "statements"):
            click.echo(f"  {section}:")
            for key, val in det[section].items():
                click.echo(f"    {key:24s} {val}")


if __name__ == "__main__":
    main()
