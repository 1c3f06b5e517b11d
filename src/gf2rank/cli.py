"""Command-line entry point: thresholds, curves, sampling, rank/core analysis,
exact formulas, Monte Carlo experiments, and the verification suites.

Exit codes: 0 success, 2 parse/parameter error, 3 verification failure,
4 numerical failure; each error class in errors.py carries its own.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click
import mpmath as mp

from . import __version__, verification
from .errors import Gf2RankError, InvalidParam, ParseError, VerificationFailed
from .exact import (
    ParitySpec,
    expected_null_count,
    gfq_dense_survival,
    multinomial_parity,
    pi_multinomial,
    poissonization_check,
    prob_A_general,
)
from .experiments import (EXPERIMENTS, FIELDS_READ, ExperimentConfig, run_experiment, run_trials,
                          write_records_csv)
from .gf2 import GF2Matrix, enumerate_null_vectors, is_one_null, matrix_from_text, matrix_to_text
from .peeling import Hypergraph, check_E, corank, peel_2core
from .sampling import SampleConfig, run_Tn, sample_matrix
from .thresholds import core_theory, g_star_curve, h_psi, threshold_report
from .weights import MODELS, WeightDist, parse_rho


def _mpf_str(x) -> str:
    # every digit the mantissa carries, and never fewer than 40
    return mp.nstr(x, max(40, mp.libmp.repr_dps(x._mpf_[3])))


def _num(x) -> dict:
    """Full-precision decimal string plus a rounded double convenience field."""
    if isinstance(x, mp.mpf):
        return {"decimal": _mpf_str(x), "double": float(x)}
    return {"decimal": f"{float(x):.17g}", "double": float(x)}


def _config(*names: str, needs: tuple = ()) -> dict:
    """The named options of the running command as this invocation read
    them, keyed by option name: "--cell-probs" is cell_probs.

    The first option in needs that was not given, or was given empty,
    raises ParseError("<flag> is required for <mode flag> <mode>"), where
    the first name is the command's mode, such as what or exp.
    """
    ctx = click.get_current_context()
    given = {}  # option name -> (flag, value)
    for p in ctx.command.params:
        flag = max(p.opts, key=len)
        given[flag.lstrip("-").replace("-", "_")] = flag, ctx.params[p.name]
    for k in needs:
        flag, value = given[k]
        if value is None or value == "":
            mode_flag, mode = given[names[0]]
            raise ParseError(f"{flag} is required for {mode_flag} {mode}")
    return {k: given[k][1] for k in names}


def _provenance(command: str, config: dict, result=None) -> str:
    """The record {tool, version, command, config} that leads every output.

    Given a result, the JSON output: the record with "result" added.  Without
    one, the first line of a CSV output: "# " and the record as compact JSON,
    which survives values with spaces or commas.
    """
    record = {"tool": "gf2rank", "version": __version__, "command": command, "config": config}
    if result is None:
        return "# " + json.dumps(record, separators=(",", ":"))
    return json.dumps({**record, "result": result}, indent=2)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text)


def _threads(threads: int | None = None) -> int:
    """Trial fan-out width: --threads when given, else one process per core."""
    return threads if threads is not None else (os.cpu_count() or 1)


def _parse_list(name: str, text: str, kind=int) -> tuple:
    """Comma-separated option values; a bad item is a ParseError (exit 2)."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"{name} must be comma-separated {kind.__name__} values; got {text!r}") from exc


class _Main(click.Group):
    """The command group, and the one error guard of every command: a package
    error exits with its class's exit_code, and a usage error of click's or a
    file that cannot be read or written with code 2, each after one line on
    stderr."""

    def parse_args(self, ctx, args):
        if not args:  # a bare gf2rank, for which click prints the help
            return super().parse_args(ctx, args)
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            self._fail(exc)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (Gf2RankError, click.UsageError) as exc:
            self._fail(exc)
        except OSError as exc:
            if exc.filename is None:
                raise  # such as a closed stdout pipe, which click handles itself
            self._fail(ParseError(f"{exc.strerror}: {exc.filename}"))

    def _fail(self, exc):
        if isinstance(exc, click.UsageError):  # whose choices may take a line each
            exc = ParseError(" ".join(line.strip() for line in exc.format_message().splitlines()))
        click.echo(f"{exc.prefix}: {exc}", err=True)
        sys.exit(exc.exit_code)


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Sparse random GF(2) matrices: thresholds, 2-cores, and exact formulas."""


# --- thresholds -------------------------------------------------------------

@main.command("thresholds")
@click.option("--rho", "rho_spec", default=None, help="Weight spec, e.g. 'r=3' or '0.9:3,0.1:24'.")
@click.option("--alpha", type=float, default=None, help="Witness alpha for gamma0/beta0.")
@click.option("--table1", "table1", is_flag=True, help="Emit the fixed-weight table for r=1..8.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_thresholds(rho_spec, alpha, table1, fmt, out):
    """Compute alpha_sharp, alpha_star, alpha_bar, and the g_star jump set."""
    if table1:
        rows = []
        for r in range(1, 9):
            rep = threshold_report(WeightDist.fixed(r))
            bar = rep.alpha_bar
            rows.append({"r": r, "alpha_sharp": _num(rep.alpha_sharp),
                         "alpha_star": _num(rep.alpha_star),
                         "alpha_bar": _num(bar) if bar is not None else None})
        if fmt == "text":
            lines = [f"{'r':>2} {'alpha_sharp':>12} {'alpha_star':>12} {'alpha_bar':>12}"]
            for row in rows:
                bar = row["alpha_bar"]
                lines.append(f"{row['r']:>2} {row['alpha_sharp']['double']:>12.6f} "
                             f"{row['alpha_star']['double']:>12.6f} "
                             f"{bar['double'] if bar else float('nan'):>12.6f}"
                             .replace("nan", "     —"))
            _emit("\n".join(lines), out)
        else:
            _emit(_provenance("thresholds", _config("table1", "format"), {"table": rows}), out)
        return
    if rho_spec is None:
        raise ParseError("--rho is required unless --table1 is given")
    dist = parse_rho(rho_spec)
    report = threshold_report(dist, witness_alpha=alpha)
    payload = {
        "alpha_sharp": _num(report.alpha_sharp),
        "alpha_star": _num(report.alpha_star),
        "alpha_bar": _num(report.alpha_bar) if report.alpha_bar is not None else None,
        "x_star": _num(report.x_star) if report.x_star is not None else None,
        "x_star_is_psi_root": report.x_star_is_psi_root,
        "bar_crossing_transversal": report.bar_crossing_transversal,
        "discontinuities": [
            {"alpha": _num(a), "g_left": _num(l), "g_right": _num(r)}
            for a, l, r in report.discontinuities
        ],
        "gamma0": _num(report.gamma0) if report.gamma0 is not None else None,
        "beta0": _num(report.beta0) if report.beta0 is not None else None,
        "witness_alpha": report.witness_alpha,
        "tolerances": report.tolerances,
    }
    if fmt == "text":
        lines = [f"alpha_sharp = {report.alpha_sharp:.9f}",
                 f"alpha_star  = {report.alpha_star:.9f}"]
        if report.alpha_bar is not None:
            lines.append(f"alpha_bar   = {report.alpha_bar:.9f}")
            lines.append(f"x_star      = {report.x_star:.9f}")
        else:
            lines.append("alpha_bar   = —  (undefined for min weight < 3)")
        for a, l, r in report.discontinuities:
            lines.append(f"g_star jump at alpha={a:.9f}: {l:.6f} -> {r:.6f}")
        _emit("\n".join(lines), out)
    else:
        _emit(_provenance("thresholds", _config("rho", "alpha", "format"), payload), out)


@main.command("curves")
@click.option("--rho", "rho_spec", required=True)
@click.option("--what", default="h,psi",
              help="Comma list: h,psi (over x) or gstar,psi_of_gstar (over alpha).")
@click.option("--grid", type=int, default=2000, show_default=True)
@click.option("--lo", type=float, default=None, help="Lower end of the grid.")
@click.option("--hi", type=float, default=None, help="Upper end of the grid.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_curves(rho_spec, what, grid, lo, hi, out):
    """Emit curve data as CSV for figure reproduction."""
    if grid < 1:
        raise InvalidParam(f"--grid {grid} < 1")
    dist = parse_rho(rho_spec)
    names = tuple(w.strip() for w in what.split(","))
    x_kind = set(names) <= {"h", "psi"}
    a_kind = set(names) <= {"gstar", "psi_of_gstar"}
    if not (x_kind or a_kind):
        raise ParseError(f"--what must be a subset of h,psi or of gstar,psi_of_gstar; got {names}")
    lines = [_provenance("curves", _config("rho", "what", "grid", "lo", "hi"))]
    if x_kind:
        lo = 1e-6 if lo is None else lo
        hi = 1.0 - 1e-9 if hi is None else hi
        xs = (lo + (hi - lo) * i / grid for i in range(grid + 1))
        head, keys, rows = "x", ("h", "psi"), ((x, *h_psi(dist, x)[:2]) for x in xs)
    else:
        head, keys, rows = "alpha", ("gstar", "psi_of_gstar"), g_star_curve(dist, grid, lo, hi)
    lines.append(f"{head}," + ",".join(names))
    for t, *ys in rows:
        vals = dict(zip(keys, ys))
        lines.append(f"{t:.12g}," + ",".join(f"{vals[n]:.12g}" for n in names))
    _emit("\n".join(lines), out)


# --- sampling and matrix analysis -------------------------------------------

@main.command("sample")
@click.option("--rho", "rho_spec", required=True)
@click.option("-n", "n", type=int, required=True)
@click.option("-m", "m", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--model", type=click.Choice(MODELS), default="exact")
@click.option("--format", "fmt", type=click.Choice(["sparse", "dense"]), default="sparse")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_sample(rho_spec, n, m, seed, model, fmt, out):
    """Sample M(n, m) and print it in the sparse or dense text format."""
    cfg = SampleConfig(n=n, m=m, dist=parse_rho(rho_spec), model=model, seed=seed)
    header = _provenance("sample", _config("rho", "n", "m", "seed", "model", "format"))
    _emit(header + "\n" + matrix_to_text(sample_matrix(cfg), fmt), out)


def _read_matrix(path: str | None, n: int | None) -> GF2Matrix:
    try:
        text = sys.stdin.read() if path in (None, "-") else Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"matrix text is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return matrix_from_text(text, n_cols=n)


@main.command("rank")
@click.option("--in", "path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Matrix file (sparse or dense text); stdin if omitted.")
@click.option("-n", "n", type=int, default=None, help="Column count (inferred if omitted).")
@click.option("--enumerate", "enum", is_flag=True, help="Also enumerate null vectors (m <= 24).")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_rank(path, n, enum, out):
    """GF(2) rank, corank, and the all-ones-null flag of a matrix."""
    mat = _read_matrix(path, n)
    sigma = corank(mat)
    result = {
        "n_cols": mat.n_cols,
        "m": mat.m,
        "rank": mat.m - sigma,
        "corank": sigma,
        "log2_null_count": sigma,
        "is_one_null": is_one_null(mat),
    }
    if enum:
        vectors, profile = enumerate_null_vectors(mat)
        result["null_vectors"] = [f"{v:0{mat.m}b}"[::-1] for v in vectors]
        result["weight_profile"] = profile
    _emit(_provenance("rank", _config("in", "n", "enumerate"), result), out)


@main.command("core")
@click.option("--in", "path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--rho", "rho_spec", default=None, help="Sample a matrix instead of reading one.")
@click.option("-n", "n", type=int, default=None)
@click.option("-m", "m", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--model", type=click.Choice(MODELS), default="exact")
@click.option("--eps", type=float, default=0.05, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_core(path, rho_spec, n, m, seed, model, eps, out):
    """Peel to the 2-core; report stats next to the limit-law predictions."""
    if rho_spec is not None:
        if n is None or m is None:
            raise ParseError("--rho sampling needs -n and -m")
        dist = parse_rho(rho_spec)
        mat = sample_matrix(SampleConfig(n=n, m=m, dist=dist, model=model, seed=seed))
    else:
        mat = _read_matrix(path, n)
        dist = None
    stats = peel_2core(Hypergraph(mat))
    result = {
        "n": mat.n_cols,
        "m": mat.m,
        "core_rows": stats.core_rows,
        "occupied_cols": stats.occupied_cols,
        "incidences": stats.incidences,
        "rows_by_weight": stats.rows_by_weight,
        "cols_by_degree": stats.cols_by_degree,
        "eps_max": stats.core_rows / mat.n_cols,
        "E_event": check_E(stats, mat.n_cols, eps),
    }
    if dist is not None and dist.min_weight >= 3:
        th = core_theory(dist, mat.m / mat.n_cols)
        result["theory"] = {
            "g_star": th.g_star,
            "core_row_frac": th.core_row_frac,
            "occupied_col_frac": th.occupied_col_frac,
            "incidence_frac": th.incidence_frac,
            "aspect_sign": th.aspect_sign,
        }
    echoed = ("rho", "n", "m", "seed", "model", "eps") if dist is not None else ("in", "n", "eps")
    _emit(_provenance("core", _config(*echoed), result), out)


@main.command("tn")
@click.option("--rho", "rho_spec", required=True)
@click.option("-n", "n", type=int, required=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--model", type=click.Choice(MODELS), default="exact")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_tn(rho_spec, n, trials, seed, model, out):
    """First-dependency times: CSV with columns trial,seed,T_n,n,T_n/n."""
    dist = parse_rho(rho_spec)
    cfg = ExperimentConfig("tn", dist, (n,), trials, seed, model=model, threads=_threads())
    res = run_trials(cfg, run_Tn, lambda n, s: SampleConfig(n, 0, dist, model, s),
                     lambda n, t: {"T_n": t}, lambda n, ts: None)
    lines = [_provenance("tn", _config("rho", "n", "trials", "seed", "model")),
             "trial,seed,T_n,n,T_n/n"]
    lines += [f"{r['trial']},{r['seed']},{r['T_n']},{n},{r['T_n'] / n:.8f}" for r in res.records]
    _emit("\n".join(lines), out)


# --- exact formulas -----------------------------------------------------------

# each --what: (the options it reads, the options it needs in check order)
_EXACT_READS = {
    "pi": (("rho", "n", "m", "precision"), ("n", "m")),
    "pa": (("rho", "n", "m", "precision"), ("n", "m", "rho")),
    "en": (("rho", "n", "m", "model", "precision"), ("n", "m", "rho")),
    "poisson": (("n", "m", "mu", "precision"), ("n", "m")),
    "parity": (("n", "modulus", "targets", "cell_probs"), ("n", "cell_probs")),
    "gfq": (("q", "r", "n"), ("r",)),
}


@main.command("exact")
@click.option("--what", type=click.Choice(list(_EXACT_READS)), required=True)
@click.option("--rho", "rho_spec", default=None)
@click.option("-n", "n", type=int, default=None)
@click.option("-m", "m", type=int, default=None)
@click.option("--model", type=click.Choice(MODELS), default="exact")
@click.option("--precision", type=int, default=256, show_default=True, help="Bits.")
@click.option("--mu", type=float, default=1.0, help="Poissonization rate.")
@click.option("--q", type=int, default=2)
@click.option("--r", type=int, default=None, help="Offset for gfq survival.")
@click.option("--modulus", type=int, default=2, help="Congruence modulus for parity.")
@click.option("--targets", default="0", help="Comma-separated residues, one per tracked event.")
@click.option("--cell-probs", default=None,
              help="Comma-separated 2^k cell probabilities for k targets.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_exact(what, rho_spec, n, m, model, precision, mu, q, r, modulus, targets,
              cell_probs, out):
    """Evaluate one of the exactly computable probabilities."""
    reads, needs = _EXACT_READS[what]
    config = _config("what", *reads, needs=needs)
    if what == "pi":
        rho_spec = config["rho"] = rho_spec or "r=1"
    dist = parse_rho(rho_spec) if "rho" in config else None
    if what == "pi":
        result = {"pi": _num(pi_multinomial(n, m, dist, precision=precision))}
    elif what == "pa":
        val = prob_A_general(n, m, dist.per_n_law_exact(n), precision=precision)
        result = {"prob_A": _num(val)}
    elif what == "en":
        total, profile = expected_null_count(n, m, dist, model=model, precision=precision)
        result = {"expected_null_count": _num(total),
                  "profile": {str(l): _num(v) for l, v in profile.items()}}
    elif what == "poisson":
        lhs, rhs = poissonization_check(n, m, mu, precision=precision)
        result = {"lhs": _num(lhs), "rhs": _num(rhs), "abs_diff": _num(abs(lhs - rhs))}
    elif what == "parity":
        t = _parse_list("--targets", targets)
        probs = _parse_list("--cell-probs", cell_probs, float)
        spec = ParitySpec(r=modulus, targets=t, cell_probs=probs)
        result = {"probability": _num(multinomial_parity(spec, n))}
    else:  # gfq
        result = {"survival": _num(gfq_dense_survival(q, r, n))}
    _emit(_provenance("exact", config, result), out)


# --- experiments ---------------------------------------------------------------

@main.command("simulate")
@click.option("--exp", "exp_id", type=click.Choice(EXPERIMENTS), required=True)
@click.option("--rho", "rho_spec", default=None)
@click.option("-n", "n_values", type=int, multiple=True, required=True)
@click.option("--alpha", type=float, default=0.95, show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--model", type=click.Choice(MODELS), default="exact")
@click.option("--eps", type=float, default=0.05, show_default=True)
@click.option("--window-eps", type=float, default=0.02, show_default=True)
@click.option("--z", type=float, default=1.0, show_default=True)
@click.option("--r-values", default="1,2,3,4,5", show_default=True)
@click.option("--threads", type=int, default=None, help="Trial fan-out (default: cores).")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write per-trial records here.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_simulate(exp_id, rho_spec, n_values, alpha, trials, seed, model, eps,
                 window_eps, z, r_values, threads, csv_path, out):
    """Run one Monte Carlo experiment; JSON summary plus optional CSV records."""
    # the options behind the fields the experiment reads: --rho gives dist
    echoed = ["rho" if f == "dist" else f for f in FIELDS_READ[exp_id]]
    config = _config("exp", "n", "trials", "seed", *echoed,
                     needs=("rho",) if "rho" in echoed else ())
    dist = parse_rho(rho_spec) if "rho" in config else None
    cfg = ExperimentConfig(
        experiment=exp_id, dist=dist, n_values=tuple(n_values), trials=trials, seed=seed,
        alpha=alpha, model=model, eps=eps, window_eps=window_eps, z=z,
        r_values=_parse_list("--r-values", r_values), threads=_threads(threads))
    if csv_path:
        open(csv_path, "a", encoding="utf-8").close()  # fail on an unwritable path before the run
    res = run_experiment(cfg)
    config["threads"] = cfg.threads
    if csv_path:
        write_records_csv(csv_path, res.records, _provenance("simulate", config))
    _emit(_provenance("simulate", config, res.summary), out)


@main.command("verify")
@click.argument("suite", type=click.Choice(list(verification.SUITES)))
def cmd_verify(suite):
    """Run a named verification suite; exit 3 if any check fails."""
    checks = verification.run_suite(suite)
    failed = 0
    for c in checks:
        click.echo(c.line())
        failed += 0 if c.passed else 1
    click.echo(f"{len(checks) - failed}/{len(checks)} checks passed")
    if failed:
        raise VerificationFailed(f"{failed} of {len(checks)} checks failed")
