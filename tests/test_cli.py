import ast
import csv
import json
import os
import subprocess
import sys
import time

import click
import jsonschema
import pytest
from click.testing import CliRunner

from gf2rank import __version__, cli, errors
from gf2rank.cli import main
from gf2rank.exact import ParitySpec, multinomial_parity
from gf2rank.sampling import SampleConfig, derive_stream_seed, run_Tn
from gf2rank.thresholds import core_theory
from gf2rank.weights import WeightDist

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "output-schema.json")


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_ok(*args, **kwargs):
    result = CliRunner().invoke(main, list(args), **kwargs)
    assert result.exit_code == 0, result.output
    return result.output


def validate_def(obj, schema, name):
    resolved = dict(schema["definitions"][name])
    resolved["definitions"] = schema["definitions"]
    jsonschema.validate(obj, resolved)


def validate(payload, schema, result_def):
    jsonschema.validate(payload, schema)
    validate_def(payload["result"], schema, result_def)


def test_thresholds_fixed3(schema):
    out = run_ok("thresholds", "--rho", "r=3")
    payload = json.loads(out)
    validate(payload, schema, "thresholds_result")
    res = payload["result"]
    assert abs(res["alpha_star"]["double"] - 0.889493) <= 5e-6
    assert abs(res["alpha_bar"]["double"] - 0.917935) <= 5e-6
    assert abs(res["alpha_sharp"]["double"] - 0.818469) <= 5e-6
    assert payload["config"]["rho"] == "r=3"


def test_python_m_gf2rank_runs_from_the_checkout(schema):
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "gf2rank", "thresholds", "--rho", "r=3"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    validate(payload, schema, "thresholds_result")
    assert payload["tool"] == "gf2rank" and payload["command"] == "thresholds"


def test_thresholds_weight2_has_no_bar(schema):
    payload = json.loads(run_ok("thresholds", "--rho", "r=2"))
    validate(payload, schema, "thresholds_result")
    assert abs(payload["result"]["alpha_star"]["double"] - 0.5) <= 5e-6
    assert payload["result"]["alpha_bar"] is None


def test_thresholds_fig8_mixture():
    payload = json.loads(run_ok("thresholds", "--rho", "0.9:3,0.1:38"))
    assert abs(payload["result"]["alpha_bar"]["double"] - 0.998263) <= 5e-5


def test_thresholds_table1_text():
    out = run_ok("thresholds", "--table1", "--format", "text")
    assert "—" in out
    assert "0.889493" in out and "0.999660" in out


@pytest.mark.parametrize("rho, jumps", [("r=3", 1), ("r=2", 0), ("0.9:3,0.1:24", 2)])
def test_thresholds_text_matches_json(rho, jumps):
    res = json.loads(run_ok("thresholds", "--rho", rho))["result"]
    lines = run_ok("thresholds", "--rho", rho, "--format", "text").splitlines()
    want = [f"alpha_sharp = {res['alpha_sharp']['double']:.9f}",
            f"alpha_star  = {res['alpha_star']['double']:.9f}"]
    if res["alpha_bar"] is None:
        want.append("alpha_bar   = —  (undefined for min weight < 3)")
    else:
        want += [f"alpha_bar   = {res['alpha_bar']['double']:.9f}",
                 f"x_star      = {res['x_star']['double']:.9f}"]
    assert len(res["discontinuities"]) == jumps
    want += [f"g_star jump at alpha={d['alpha']['double']:.9f}: "
             f"{d['g_left']['double']:.6f} -> {d['g_right']['double']:.6f}"
             for d in res["discontinuities"]]
    assert lines == want


def test_thresholds_witness():
    payload = json.loads(run_ok("thresholds", "--rho", "r=3", "--alpha", "0.95"))
    b0 = payload["result"]["beta0"]["double"]
    assert 0.0 < b0 < 0.5


def test_bad_rho_exits_2():
    result = CliRunner().invoke(main, ["thresholds", "--rho", "0.5:3,0.6:4"])
    assert result.exit_code == 2
    result = CliRunner().invoke(main, ["thresholds", "--rho", "bogus"])
    assert result.exit_code == 2


# the documented exit code of every package error
EXIT_CODE = {
    errors.ParseError: 2,
    errors.InvalidDistribution: 2,
    errors.InvalidParam: 2,
    errors.DimensionMismatch: 2,
    errors.TooLarge: 2,
    errors.VerificationFailed: 3,
    errors.PrecisionLoss: 4,
    errors.NumericalResidue: 4,
    errors.NoConvergence: 4,
    errors.Inconsistent: 4,
}


def run_fail(args, code, stdin=None):
    """Run a failing command; return its one-line stderr message."""
    result = CliRunner().invoke(main, args, input=stdin)
    assert result.exit_code == code, (result.stdout, result.stderr, result.exception)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    return lines[0]


def test_every_error_class_has_an_exit_code():
    # each class carries its code and the prefix of its stderr line
    prefix = {2: "error", 3: "verification failed", 4: "numerical error"}
    assert {c: (c.exit_code, c.prefix) for c in errors.Gf2RankError.__subclasses__()} == {
        c: (code, prefix[code]) for c, code in EXIT_CODE.items()}


@pytest.mark.parametrize("args, fragment", [
    (["sample", "-n", "5", "-m", "3"], "'--rho'"),
    (["tn", "--rho", "r=3"], "'-n'"),
    (["exact", "-n", "3"], "'--what'"),
    (["simulate", "-n", "10"], "'--exp'"),
    (["exact", "--what", "pi", "-n", "abc"], "'abc'"),
    (["exact", "--what", "nope"], "'nope'"),
    (["sample", "--rho", "r=3", "-n", "5", "-m", "3", "--model", "x"], "'x'"),
    (["rank", "--in", "MISSING"], "missing.txt"),
    (["core", "--in", "MISSING"], "missing.txt"),
    (["nosuch"], "'nosuch'"),
    (["--bogus"], "'--bogus'"),
    (["exact", "--what", "poisson", "-n", "3", "-m", "2", "--truncation", "5"], "'--truncation'"),
], ids=["sample-rho", "tn-n", "exact-what", "simulate-exp", "n-abc", "what-nope", "model-x",
        "rank-in-missing", "core-in-missing", "unknown-command", "group-option",
        "poisson-truncation"])
def test_usage_error_prints_one_line(args, fragment, tmp_path):
    # click's own usage errors take the package errors' path: one line
    # "error: <click's message>" and exit 2
    args = [str(tmp_path / "missing.txt") if a == "MISSING" else a for a in args]
    line = run_fail(args, 2)
    assert line.startswith("error: ") and fragment in line


def test_help_version_and_bare_group_keep_clicks_output():
    # a bare gf2rank prints the group's help on stderr and exits 2
    runs = {a: CliRunner().invoke(main, [a] if a else []) for a in ("--help", "--version", "")}
    got = {a: (r.exit_code, r.stdout, r.stderr) for a, r in runs.items()}
    help_text = got["--help"][1]
    assert help_text.startswith("Usage: main [OPTIONS] COMMAND [ARGS]...\n")
    assert got == {"--help": (0, help_text, ""),
                   "--version": (0, f"main, version {__version__}\n", ""),
                   "": (2, "", help_text)}


@pytest.mark.parametrize("cls", list(EXIT_CODE), ids=lambda c: c.__name__)
def test_error_class_exit_code(cls, monkeypatch):
    def fail(*args, **kwargs):
        raise cls("bad thing")
    monkeypatch.setattr("gf2rank.cli.threshold_report", fail)
    line = run_fail(["thresholds", "--rho", "r=3"], EXIT_CODE[cls])
    assert line.endswith(": bad thing")


@pytest.mark.parametrize("what", ["pi", "pa", "en", "poisson", "parity"])
def test_exact_missing_n_exits_2(what):
    line = run_fail(["exact", "--what", what, "--rho", "r=3", "-m", "4"], 2)
    assert line == f"error: -n is required for --what {what}"


@pytest.mark.parametrize("what", ["pi", "pa", "en", "poisson"])
def test_exact_missing_m_exits_2(what):
    line = run_fail(["exact", "--what", what, "--rho", "r=3", "-n", "4"], 2)
    assert line == f"error: -m is required for --what {what}"


@pytest.mark.parametrize("what", ["pi", "pa", "en"])
def test_exact_precision_below_one_bit_exits_2(what):
    # m = 3 with weight 3 is a structural zero: precision is checked first
    for m in ("4", "3"):
        for precision in ("0", "-5"):
            line = run_fail(["exact", "--what", what, "--rho", "r=3", "-n", "5", "-m", m,
                             "--precision", precision], 2)
            assert line == f"error: precision {precision} < 1 bit"


def test_exact_pa_true_zero_prints_0():
    # P[A(40, 1)] = 0 for weight-2 rows; it used to exit 4 with PrecisionLoss
    res = json.loads(run_ok("exact", "--what", "pa", "--rho", "r=2", "-n", "40", "-m", "1"))["result"]
    assert res["prob_A"]["double"] == 0.0
    assert float(res["prob_A"]["decimal"]) == 0.0


def test_exact_missing_rho_exits_2():
    assert run_fail(["exact", "--what", "en", "-n", "4", "-m", "4"], 2).startswith("error: --rho")


def test_rank_column_out_of_range_exits_2():
    assert "n_cols 2" in run_fail(["rank", "-n", "2"], 2, stdin="5\n")


def test_rank_input_not_utf8_exits_2(tmp_path):
    path = tmp_path / "mat.txt"
    path.write_bytes(b"\xff\xfe\x00\x01")
    assert run_fail(["rank", "--in", str(path)], 2).startswith("error: matrix text is not UTF-8")


@pytest.mark.parametrize("args", [
    ["thresholds", "--rho", "r=3", "--out"],
    ["simulate", "--exp", "dense", "-n", "5", "--trials", "2", "--threads", "1", "--csv"],
], ids=["thresholds-out", "simulate-csv"])
def test_unwritable_output_path_exits_2(args, tmp_path):
    path = tmp_path / "missing" / "x.out"
    assert run_fail(args + [str(path)], 2) == f"error: No such file or directory: {path}"


def test_simulate_csv_path_is_checked_before_the_run(monkeypatch, tmp_path):
    def no_run(cfg):
        raise AssertionError("run_experiment called before the --csv path was checked")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    path = tmp_path / "missing" / "x.csv"
    args = ["simulate", "--exp", "dense", "-n", "5", "--trials", "2", "--csv", str(path)]
    assert run_fail(args, 2) == f"error: No such file or directory: {path}"


def test_rank_enumerate_too_large_exits_2():
    rows = "".join(f"{i}\n" for i in range(25))
    assert run_fail(["rank", "--enumerate"], 2, stdin=rows) == \
        "error: null-space walk: rows m = 25 exceeds the budget 24"


def test_simulate_profile_too_large_names_m():
    # the limit named is the enumeration cap, not one derived from m
    args = ["simulate", "--exp", "profile", "--rho", "r=3", "-n", "40", "--trials", "2",
            "--threads", "1"]
    assert run_fail(args, 2) == "error: null-space walk: rows m = 38 exceeds the budget 24"


def test_curves_h_psi_fixed3():
    out = run_ok("curves", "--rho", "r=3", "--what", "h,psi", "--grid", "4000")
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == ["x", "h", "psi"]
    data = [(float(x), float(h), float(p)) for x, h, p in rows[1:]]
    x_min, h_min, _ = min(data, key=lambda t: t[1])
    assert abs(x_min - 0.715332) <= 1e-3
    assert abs(h_min - 0.818469) <= 1e-5
    # psi sign change close to the known root
    roots = [a[0] for a, b in zip(data, data[1:]) if (a[2] > 0) != (b[2] > 0)]
    assert any(abs(r - 0.883414) <= 1e-3 for r in roots)


def test_curves_fig1_psi_root():
    out = run_ok("curves", "--rho", "0.9:3,0.1:24", "--what", "psi",
                 "--grid", "6000", "--lo", "0.5", "--hi", "0.9999")
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")]
    data = [(float(x), float(p)) for x, p in rows[1:]]
    roots = [a[0] for a, b in zip(data, data[1:]) if (a[1] > 0) != (b[1] > 0)]
    assert len(roots) == 1
    assert abs(roots[0] - 0.987817) <= 1e-3


def test_curves_gstar_jump_rows():
    out = run_ok("curves", "--rho", "0.9:3,0.1:24", "--what", "gstar,psi_of_gstar",
                 "--grid", "200", "--lo", "0.9", "--hi", "1.0")
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == ["alpha", "gstar", "psi_of_gstar"]
    alphas = [float(r[0]) for r in rows[1:]]
    # the jump at 0.938536 appears as a duplicated alpha with left/right values
    dups = {a for a in alphas if alphas.count(a) == 2}
    assert any(abs(a - 0.938536) < 1e-4 for a in dups)


@pytest.mark.parametrize("r", [36, 40])
def test_curves_psi_of_gstar_sign_matches_core_theory(r):
    # near alpha = 1 the heavy fixed weights put g_star within e^-r of 1,
    # where psi must be evaluated on the u = -log(1 - x) scale
    dist = WeightDist.fixed(r)
    out = run_ok("curves", "--rho", f"r={r}", "--what", "gstar,psi_of_gstar",
                 "--lo", "0.99", "--hi", "1.02", "--grid", "60")
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")]
    seen = set()
    for a, _, p in rows[1:]:
        sign = (float(p) > 0) - (float(p) < 0)
        assert sign == core_theory(dist, float(a)).aspect_sign, a
        seen.add(sign)
    assert seen == {1, -1}


def test_core_and_curves_past_the_u_grid():
    # g_star sits at u = alpha E[W] > 700, where x rounds to 1 and
    # psi(g_star) = 1 - alpha; u = 700 broke core's incidence identity
    payload = json.loads(run_ok("core", "--rho", "r=40", "-n", "10", "-m", "200"))
    assert payload["result"]["theory"]["incidence_frac"] == 800.0
    out = run_ok("curves", "--rho", "r=3", "--what", "gstar,psi_of_gstar", "--lo", "100",
                 "--hi", "400", "--grid", "4")
    rows = [ln.split(",") for ln in out.splitlines() if ln and not ln.startswith("#")]
    assert [float(a) for a, _, _ in rows[1:]] == [100.0, 175.0, 250.0, 325.0, 400.0]
    for a, g, p in rows[1:]:
        assert float(g) == 1.0 and float(p) == pytest.approx(1.0 - float(a), rel=1e-12)


def test_curves_rejects_mixed_kinds():
    result = CliRunner().invoke(main, ["curves", "--rho", "r=3", "--what", "h,gstar"])
    assert result.exit_code == 2


def test_sample_deterministic_and_rank_roundtrip(schema, tmp_path):
    out1 = run_ok("sample", "--rho", "r=3", "-n", "30", "-m", "20", "--seed", "9")
    out2 = run_ok("sample", "--rho", "r=3", "-n", "30", "-m", "20", "--seed", "9")
    assert out1 == out2
    mat = tmp_path / "mat.txt"
    mat.write_text(out1)
    payload = json.loads(run_ok("rank", "--in", str(mat), "-n", "30"))
    validate(payload, schema, "rank_result")
    res = payload["result"]
    assert res["m"] == 20 and res["n_cols"] == 30
    assert res["rank"] + res["corank"] == 20


def test_rank_stdin_dense():
    payload = json.loads(run_ok("rank", input="110\n110\n011\n"))
    res = payload["result"]
    assert res["m"] == 3 and res["rank"] == 2 and res["corank"] == 1


def test_rank_one_column_dense_round_trip():
    # "1" is no sparse row of one column, so under -n 1 it reads as dense;
    # "0" lines still read as sparse rows holding column 0
    text = run_ok("sample", "--rho", "r=1", "-n", "1", "-m", "2", "--format", "dense")
    res = json.loads(run_ok("rank", "-n", "1", input=text))["result"]
    assert (res["n_cols"], res["m"], res["rank"], res["corank"]) == (1, 2, 1, 1)
    res = json.loads(run_ok("rank", "-n", "1", input="0\n0\n"))["result"]
    assert (res["n_cols"], res["m"], res["rank"], res["corank"]) == (1, 2, 1, 1)


def test_dense_zero_row_is_a_dependent_core_row(schema, tmp_path):
    # a line of zeros is a zero row: it adds 1 to the corank, and no peel
    # step deletes it, so it stays in the 2-core with weight 0
    payload = json.loads(run_ok("rank", input="110\n000\n"))
    validate(payload, schema, "rank_result")
    res = payload["result"]
    assert (res["m"], res["rank"], res["corank"]) == (2, 1, 1)
    mat = tmp_path / "zero.txt"
    mat.write_text("110\n000\n")
    payload = json.loads(run_ok("core", "--in", str(mat)))
    validate(payload, schema, "core_result")
    res = payload["result"]
    assert (res["core_rows"], res["occupied_cols"], res["incidences"]) == (1, 0, 0)
    assert res["rows_by_weight"] == {"0": 1} and res["cols_by_degree"] == {}


def test_core_histograms_list_keys_ascending(schema, tmp_path):
    # the first core row has weight 3 and the first column degree 3, so the
    # order in which rows or columns are met would list 3 before 2
    mat = tmp_path / "core.txt"
    mat.write_text("0 1 2\n0 1\n0 2\n1 3\n2 3\n")
    payload = json.loads(run_ok("core", "--in", str(mat)))
    validate(payload, schema, "core_result")
    res = payload["result"]
    assert list(res["rows_by_weight"].items()) == [("2", 4), ("3", 1)]
    assert list(res["cols_by_degree"].items()) == [("2", 1), ("3", 3)]


def test_rank_enumerate():
    payload = json.loads(run_ok("rank", "--enumerate", input="110\n110\n"))
    res = payload["result"]
    assert res["corank"] == 1
    assert sorted(res["null_vectors"]) == ["00", "11"]


def test_core_command(schema):
    payload = json.loads(run_ok("core", "--rho", "r=3", "-n", "3000", "-m", "2850",
                                "--seed", "4"))
    validate(payload, schema, "core_result")
    res = payload["result"]
    assert res["core_rows"] > 0
    assert res["theory"]["aspect_sign"] == -1
    assert res["E_event"] is True
    assert abs(res["core_rows"] / 3000 - res["theory"]["core_row_frac"]) <= 0.05


def test_tn_csv_shape():
    out = run_ok("tn", "--rho", "r=3", "-n", "80", "--trials", "4", "--seed", "2")
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "trial,seed,T_n,n,T_n/n"
    assert len(lines) == 5
    for ln in lines[1:]:
        trial, seed, tn, n, ratio = ln.split(",")
        assert int(tn) <= int(n) + 1
        assert abs(float(ratio) - int(tn) / int(n)) < 1e-8


@pytest.mark.parametrize("model", ["exact", "binomial"])
@pytest.mark.parametrize("r", [2, 3])
def test_tn_rows_replay_stream(r, model):
    dist = WeightDist.fixed(r)
    out = run_ok("tn", "--rho", f"r={r}", "-n", "60", "--trials", "5", "--seed", "7",
                 "--model", model)
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == list(range(5))
    for t, seed, tn, n, _ in rows:
        assert int(seed) == derive_stream_seed(7, int(t))
        assert int(tn) == run_Tn(SampleConfig(n=60, m=0, dist=dist, model=model, seed=int(seed)))


@pytest.mark.parametrize("args", [
    ["core", "--rho", "r=3", "-n", "100", "-m", "90", "--eps", "0"],
    ["simulate", "--exp", "core", "--rho", "r=3", "-n", "100", "--trials", "2",
     "--threads", "1", "--eps", "-1"],
    ["tn", "--rho", "r=3", "-n", "100", "--trials", "0"],
    ["simulate", "--exp", "dense", "-n", "10", "--trials", "0"],
    ["simulate", "--exp", "dense", "-n", "0", "--trials", "2", "--threads", "1"],
    ["simulate", "--exp", "dense", "-n", "10", "--trials", "2", "--threads", "1",
     "--r-values", "x"],
    ["sample", "--rho", "r=2", "-n", "1", "-m", "2", "--model", "binomial"],
    ["exact", "--what", "en", "--rho", "r=2", "-n", "1", "-m", "2", "--model", "binomial"],
    ["exact", "--what", "parity", "--modulus", "2", "--targets", "x",
     "--cell-probs", "0.3,0.7", "-n", "5"],
    ["exact", "--what", "parity", "--modulus", "2", "--targets", "0",
     "--cell-probs", "0.3,y", "-n", "5"],
    ["curves", "--rho", "r=3", "--grid", "0"],
    ["curves", "--rho", "r=3", "--what", "gstar,psi_of_gstar", "--grid", "0"],
    ["curves", "--rho", "r=3", "--grid", "-1"],
    ["thresholds", "--rho", "r=3", "--alpha", "nan"],
    ["thresholds", "--rho", "r=3", "--alpha", "-1"],
    ["simulate", "--exp", "core", "--rho", "r=3", "-n", "50", "--alpha", "nan"],
    ["simulate", "--exp", "classical", "--rho", "r=2", "-n", "50", "--z", "2"],
    ["simulate", "--exp", "classical", "--rho", "r=1", "-n", "50", "--z", "nan"],
    ["simulate", "--exp", "classical", "--rho", "r=1", "-n", "20", "--trials", "2", "--z", "-1"],
    ["simulate", "--exp", "tn", "--rho", "r=3", "-n", "50", "--window-eps", "nan"],
    ["exact", "--what", "poisson", "-n", "3", "-m", "2", "--mu", "nan"],
    ["exact", "--what", "poisson", "-n", "3", "-m", "2", "--mu", "inf"],
    ["exact", "--what", "parity", "-n", "2", "--cell-probs", "nan,0.5"],
    ["curves", "--rho", "r=3", "--what", "gstar", "--lo", "nan", "--grid", "3"],
    ["sample", "--rho", "r=3", "-n", "3", "-m", "2", "--seed", "-1"],
    ["tn", "--rho", "r=3", "-n", "10", "--trials", "2", "--seed", "-1"],
    ["core", "--rho", "r=3", "-n", "100", "-m", "90", "--seed", "-1"],
    ["simulate", "--exp", "tn", "--rho", "r=3", "-n", "50", "--trials", "2", "--threads", "1",
     "--seed", "-1"],
    ["simulate", "--exp", "dense", "-n", "10", "--trials", "2", "--threads", "0"],
    ["simulate", "--exp", "classical", "--rho", "r=2", "-n", "2", "--trials", "1"],
], ids=["core-eps", "simulate-eps", "tn-trials", "simulate-trials", "dense-n0",
        "dense-r-values", "binomial-even-n1", "en-binomial-even-n1", "parity-targets",
        "parity-cell-probs", "curves-grid0", "curves-gstar-grid0", "curves-grid-neg",
        "thresholds-alpha-nan", "thresholds-alpha-neg", "simulate-alpha-nan",
        "classical-r2-z2", "classical-z-nan", "classical-r1-z-neg", "tn-window-eps-nan",
        "poisson-mu-nan",
        "poisson-mu-inf", "parity-cell-probs-nan", "curves-gstar-lo-nan",
        "sample-seed-neg", "tn-seed-neg", "core-seed-neg", "simulate-seed-neg",
        "simulate-threads0", "classical-r2-n2"])
def test_bad_run_param_exits_2(args):
    assert run_fail(args, 2).startswith("error: ")


@pytest.mark.parametrize("args, stdin, message", [
    (["rank"], "011\n10\n", "dense rows of unequal length: [2, 3]"),
    (["rank", "-n", "3"], "0110\n1001\n", "dense width 4 != n_cols 3"),
    (["rank"], "1 x\n", "bad sparse row '1 x'"),
    (["rank"], "-1 2\n", "negative column index in '-1 2'"),
    (["rank", "-n", "0"], "0 1\n", "n_cols 0 < 1"),
    (["thresholds", "--rho", "r=0"], None, "weight 0 < 1"),
    (["exact", "--what", "pi", "-n", "0", "-m", "1"], None,
     "need n >= 1, m >= 0; got n=0, m=1"),
    (["exact", "--what", "parity", "-n", "-1", "--cell-probs", "0.5,0.5"], None, "n -1 < 0"),
    (["exact", "--what", "parity", "-n", "2", "--targets", "0,0", "--cell-probs", "0.5,0.5"],
     None, "2 cell probabilities for k=2"),
    (["curves", "--rho", "r=3", "--lo", "2"], None, "x 2.0 outside (0, 1)"),
    (["simulate", "--exp", "core", "--rho", "r=2", "-n", "50", "--threads", "1"], None,
     "core limit theory requires min_weight >= 3"),
], ids=["dense-unequal", "dense-width", "sparse-token", "sparse-negative", "rank-n0",
        "rho-weight0", "pi-n0", "parity-n-neg", "parity-cells-for-k", "curves-lo",
        "core-weight2"])
def test_input_check_exits_2_with_one_line(args, stdin, message):
    assert run_fail(args, 2, stdin=stdin) == f"error: {message}"


@pytest.mark.parametrize("args, message", [
    (["thresholds"], "--rho is required unless --table1 is given"),
    (["core", "--rho", "r=3", "-n", "10"], "--rho sampling needs -n and -m"),
    (["exact", "--what", "parity", "-n", "3"], "--cell-probs is required for --what parity"),
    (["exact", "--what", "parity", "-n", "3", "--targets", "x"],
     "--cell-probs is required for --what parity"),
    (["exact", "--what", "gfq"], "--r is required for --what gfq"),
    (["exact", "--what", "pa", "-n", "4", "-m", "2"], "--rho is required for --what pa"),
    (["exact", "--what", "en", "-n", "4", "-m", "2"], "--rho is required for --what en"),
    (["simulate", "--exp", "core", "-n", "10"], "--rho is required for --exp core"),
], ids=["thresholds-rho", "core-rho-m", "parity-cell-probs", "parity-cell-probs-before-targets",
        "gfq-r", "pa-rho", "en-rho", "simulate-core-rho"])
def test_missing_option_exits_2_with_its_message(args, message):
    assert run_fail(args, 2) == f"error: {message}"


def test_simulate_classical_r2_default_z_runs():
    # z = 1 closes the r=2 law's domain: both limits are 0 there
    out = run_ok("simulate", "--exp", "classical", "--rho", "r=2", "-n", "50", "--trials", "4",
                 "--threads", "1")
    entry = json.loads(out)["result"]["per_n"]["50"]
    assert entry["z"] == 1.0
    assert entry["limit_tail"] == entry["limit_tail_iid"] == 0.0


def test_exact_pi():
    payload = json.loads(run_ok("exact", "--what", "pi", "--rho", "r=1", "-n", "2", "-m", "2"))
    assert abs(payload["result"]["pi"]["double"] - 0.5) < 1e-12


def test_exact_parity():
    payload = json.loads(run_ok(
        "exact", "--what", "parity", "--modulus", "2", "--targets", "0",
        "--cell-probs", "0.3,0.7", "-n", "5"))
    want = (1 + (1 - 1.4) ** 5) / 2
    assert abs(payload["result"]["probability"]["double"] - want) < 1e-12


def test_exact_parity_k_is_the_number_of_targets():
    payload = json.loads(run_ok(
        "exact", "--what", "parity", "--modulus", "3", "--targets", "0,1",
        "--cell-probs", "0.1,0.2,0.3,0.4", "-n", "4"))
    want = multinomial_parity(ParitySpec(3, (0, 1), (0.1, 0.2, 0.3, 0.4)), 4, exact=True)
    assert payload["result"]["probability"]["double"] == float(want)
    assert payload["result"]["route"] == "exact"


def test_exact_parity_rounds_the_exact_dp_once(schema):
    # the Fourier sum's error is absolute, about 1e-15: it printed 8.3e-18 here
    payload = json.loads(run_ok("exact", "--what", "parity", "--modulus", "4", "--targets", "3",
                                "--cell-probs", "0.999999,0.000001", "-n", "3"))
    validate(payload, schema, "exact_result")
    spec = ParitySpec(4, (3,), (0.999999, 0.000001))
    assert payload["result"] == {"probability": {"decimal": "9.9999999999999988e-19",
                                                 "double": float(multinomial_parity(spec, 3, True))},
                                 "route": "exact"}


def test_exact_parity_takes_the_fourier_sum_past_the_dp_budget(schema):
    # n r^k 2^k = 2000 * 16^3 steps exceed the parity DP budget; 16^3 Fourier pairs do not
    cells = [1 / 8] * 8
    payload = json.loads(run_ok("exact", "--what", "parity", "--modulus", "8", "--targets", "1,2,3",
                                "--cell-probs", ",".join(map(str, cells)), "-n", "2000"))
    validate(payload, schema, "exact_result")
    assert payload["result"]["route"] == "fourier"
    want = multinomial_parity(ParitySpec(8, (1, 2, 3), tuple(cells)), 2000)
    assert payload["result"]["probability"]["double"] == want


def test_exact_gfq():
    payload = json.loads(run_ok("exact", "--what", "gfq", "--q", "2", "--r", "3"))
    assert abs(payload["result"]["survival"]["double"] - 0.7701) < 1e-3


def test_exact_poisson():
    payload = json.loads(run_ok("exact", "--what", "poisson", "-n", "4", "-m", "4", "--mu", "1.0"))
    assert payload["result"]["abs_diff"]["double"] <= 1e-12


def test_exact_poisson_huge_mu_holds_the_identity():
    # the convolutions read the pmf up to m only, so mu does not drive the cost
    start = time.perf_counter()
    result = json.loads(run_ok("exact", "--what", "poisson", "-n", "3", "-m", "2",
                               "--mu", "1e300"))["result"]
    assert time.perf_counter() - start < 1.0
    assert result["lhs"] == result["rhs"]


@pytest.mark.parametrize("args, message", [
    (["exact", "--what", "poisson", "-n", "1000", "-m", "1000"],
     "error: Poisson convolution: n (m+1)^2 P = 256512256000 exceeds the budget 51200000"),
    (["exact", "--what", "parity", "--modulus", "8", "--targets", ",".join(["0"] * 10),
      "--cell-probs", ",".join([str(2**-10)] * 1024), "-n", "3"],
     "error: Fourier sum: pairs (2r)^k = 1099511627776 exceeds the budget 8388608"),
], ids=["poisson", "parity"])
def test_exact_work_bound_exits_2_at_once(args, message):
    start = time.perf_counter()
    assert run_fail(args, 2) == message
    assert time.perf_counter() - start < 1.0


HUGE = "100000000000000000000"


@pytest.mark.parametrize("args, stdin, kind", [
    (["rank"], "5 100000000000000000000\n", "matrix"),
    (["rank"], "5 3000000000\n", "matrix"),
    (["sample", "--model", "binomial", "--rho", "r=99999999999999999999", "-n", "2", "-m", "8"],
     None, "matrix"),
    (["sample", "--model", "binomial", "--rho", "r=30000000", "-n", "2", "-m", "3"], None, "matrix"),
    (["tn", "--rho", "r=3", "-n", HUGE], None, "T_n trial"),
    (["core", "--rho", "r=3", "-n", HUGE, "-m", "3"], None, "matrix"),
    (["sample", "--rho", "r=3", "-n", HUGE, "-m", "3"], None, "matrix"),
    (["simulate", "--exp", "tn", "--rho", "r=3", "-n", HUGE], None, "T_n trial"),
    (["exact", "--what", "en", "--rho", "r=3", "-n", HUGE, "-m", "2"], None, "parity sums"),
    (["exact", "--what", "pi", "-n", "3000000", "-m", "2"], None, "guarded sum"),
    (["curves", "--rho", "r=3", "--grid", HUGE], None, "curve"),
], ids=["rank-index-past-int64", "rank-index-3e9", "sample-binomial-weight-1e20",
        "sample-binomial-weight-3e7", "tn-n", "core-n", "sample-n", "simulate-n", "en-n", "pi-n",
        "curves-grid"])
def test_work_over_budget_exits_2_at_once(args, stdin, kind):
    # each ended in a traceback or ran on without end before the work budget
    start = time.perf_counter()
    line = run_fail(args, 2, stdin=stdin)
    assert time.perf_counter() - start < 2.0
    assert line.startswith(f"error: {kind}: ") and "Traceback" not in line, line


def test_exact_model_caps_a_heavy_weight_at_n():
    out = run_ok("sample", "--rho", "r=99999999999999999999", "-n", "2", "-m", "8")
    assert out.split("\n")[1:] == ["0 1"] * 8 + ["", ""]


def test_exact_en_profile():
    payload = json.loads(run_ok("exact", "--what", "en", "--rho", "r=2", "-n", "3", "-m", "2"))
    assert abs(payload["result"]["expected_null_count"]["double"] - 4.0 / 3.0) < 1e-12
    assert abs(payload["result"]["profile"]["2"]["double"] - 1.0 / 3.0) < 1e-12


def test_exact_en_prints_the_requested_precision():
    import mpmath as mp
    from gf2rank.exact import expected_null_count
    payload = json.loads(run_ok("exact", "--what", "en", "--rho", "r=3", "-n", "40", "-m", "38",
                                "--precision", "512"))
    want, _ = expected_null_count(40, 38, WeightDist.fixed(3), exact=True)
    with mp.workprec(2048):
        got = mp.mpf(payload["result"]["expected_null_count"]["decimal"])
        exact_value = mp.mpf(want.numerator) / want.denominator
        assert abs(got - exact_value) <= mp.mpf(10) ** -100 * exact_value


def test_simulate_dense_with_csv(tmp_path):
    csv_path = tmp_path / "dense.csv"
    out = run_ok("simulate", "--exp", "dense", "-n", "15", "--trials", "50",
                 "--seed", "3", "--threads", "1", "--csv", str(csv_path))
    payload = json.loads(out)
    assert payload["command"] == "simulate"
    assert "per_n" in payload["result"]
    lines = csv_path.read_text().splitlines()
    assert any(ln.startswith("#") for ln in lines)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",")[:4] == ["experiment", "n", "trial", "seed"]
    # every experiment's records lead with the same four columns
    for mode, (args, _, _) in ECHOED.items():
        if mode.startswith("simulate-"):
            csv_path = tmp_path / f"{mode}.csv"
            run_ok(*args, "--trials", "2", "--threads", "1", "--csv", str(csv_path))
            header = csv_path.read_text().splitlines()[1:2]
            if mode == "simulate-null-growth-above":  # no trials: the '#' line alone
                assert header == [], mode
            else:
                assert header[0].split(",")[:4] == ["experiment", "n", "trial", "seed"], mode


def test_simulate_core_csv_keeps_columns_of_later_records(tmp_path, schema):
    # only trials at n <= 5000 check the corank, so only they carry has_null
    # and set_aside
    csv_path = tmp_path / "core.csv"
    run_ok("simulate", "--exp", "core", "--rho", "r=3", "-n", "6000", "-n", "100",
           "--trials", "1", "--threads", "1", "--csv", str(csv_path))
    with open(csv_path, newline="", encoding="utf-8") as fh:
        next(fh)
        rows = list(csv.DictReader(fh))
    assert [(r["n"], r["has_null"], r["set_aside"] == "") for r in rows] == [
        ("6000", "", True), ("100", "1", False)]
    assert 1 <= int(rows[1]["set_aside"]) <= int(rows[1]["core_rows"])
    for row in rows:
        record = {k: v if k == "experiment" else (float(v) if k == "eps_max" else int(v))
                  for k, v in row.items() if v != ""}
        validate_def(record, schema, "core_trial_record")


def test_simulate_parses_rho_only_where_the_experiment_reads_it():
    args = ["simulate", "-n", "5", "--trials", "1", "--threads", "1"]
    assert run_ok(*args, "--exp", "dense", "--rho", "bad") == run_ok(*args, "--exp", "dense")
    assert run_fail([*args, "--exp", "tn", "--rho", "bad"], 2) == \
        "error: malformed token 'bad' (want p:k)"


def test_simulate_requires_rho():
    result = CliRunner().invoke(main, ["simulate", "--exp", "tn", "-n", "100"])
    assert result.exit_code == 2


def test_verify_asymptotics_exit0():
    out = run_ok("verify", "asymptotics")
    assert "PASS" in out and "FAIL" not in out


def test_verify_failure_exits_3(monkeypatch):
    from gf2rank.verification import Check
    checks = [Check("good", True, 1, 1), Check("bad", False, 1, 2, 0.5)]
    monkeypatch.setattr("gf2rank.verification.run_suite", lambda name: checks)
    result = CliRunner().invoke(main, ["verify", "fig1"])
    assert result.exit_code == 3, (result.stdout, result.stderr, result.exception)
    assert result.stdout.splitlines() == [c.line() for c in checks] + ["1/2 checks passed"]
    assert result.stderr.splitlines() == ["verification failed: 1 of 2 checks failed"]


def test_run_suite_all_and_unknown_name(monkeypatch):
    from gf2rank import verification
    from gf2rank.verification import Check
    suites = {name: (lambda name=name: [Check(name, True, 1, 1)]) for name in ("a", "b")}
    monkeypatch.setattr(verification, "_SUITES", suites)
    assert [c.name for c in verification.run_suite("all")] == ["a", "b"]
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verification.run_suite("nope")


def test_package_exports_are_an_explicit_list():
    import types

    import gf2rank
    assert len(set(gf2rank.__all__)) == len(gf2rank.__all__)
    for name in gf2rank.__all__:
        assert not isinstance(getattr(gf2rank, name), types.ModuleType), name


def test_thresholds_heavy_fixed_weights_exit_cleanly():
    # alpha_star and alpha_bar are 1.0 in double for heavy fixed weights; at
    # r = 2000 the root of psi lies past the u grid that alpha_bar sweeps
    for r in (400, 2000):
        res = json.loads(run_ok("thresholds", "--rho", f"r={r}"))["result"]
        assert res["alpha_star"]["double"] == res["alpha_bar"]["double"] == 1.0


def test_exact_config_echoes_only_what_the_quantity_reads():
    # pi falls back to the weight r=1 and echoes it; only en reads the row model
    def config(*args):
        return json.loads(run_ok("exact", *args, "-n", "4", "-m", "2"))["config"]
    pi = config("--what", "pi")
    assert pi["rho"] == "r=1" and "model" not in pi
    assert "model" not in config("--what", "pa", "--rho", "r=3")
    assert config("--what", "en", "--rho", "r=3", "--model", "binomial")["model"] == "binomial"


# --- provenance ----------------------------------------------------------------

MATRIX = "<matrix file>"  # replaced by a path to a small sparse matrix

# command and mode -> (arguments, the options its config echoes, result schema)
ECHOED = {
    "thresholds": (["thresholds", "--rho", "r=3"], ("rho", "alpha", "format"),
                   "thresholds_result"),
    "thresholds-table1": (["thresholds", "--table1"], ("table1", "format"), None),
    "curves-x": (["curves", "--rho", "r=3", "--grid", "4"],
                 ("rho", "what", "grid", "lo", "hi"), None),
    "curves-alpha": (["curves", "--rho", "r=3", "--what", "gstar", "--grid", "4", "--lo", "0.9"],
                     ("rho", "what", "grid", "lo", "hi"), None),
    "sample": (["sample", "--rho", "r=3", "-n", "6", "-m", "4"],
               ("rho", "n", "m", "seed", "model", "format"), None),
    "rank": (["rank", "--in", MATRIX], ("in", "n", "enumerate"), "rank_result"),
    "core": (["core", "--rho", "r=3", "-n", "30", "-m", "28"],
             ("rho", "n", "m", "seed", "model", "eps"), "core_result"),
    "core-in": (["core", "--in", MATRIX], ("in", "n", "eps"), "core_result"),
    "tn": (["tn", "--rho", "r=3", "-n", "20", "--trials", "1"],
           ("rho", "n", "trials", "seed", "model"), None),
    "exact-pi": (["exact", "--what", "pi", "-n", "4", "-m", "2"],
                 ("what", "rho", "n", "m", "precision"), "exact_result"),
    "exact-pa": (["exact", "--what", "pa", "--rho", "r=3", "-n", "4", "-m", "2"],
                 ("what", "rho", "n", "m", "precision"), "exact_result"),
    "exact-en": (["exact", "--what", "en", "--rho", "r=3", "-n", "4", "-m", "2"],
                 ("what", "rho", "n", "m", "model", "precision"), "exact_result"),
    "exact-poisson": (["exact", "--what", "poisson", "-n", "4", "-m", "2"],
                      ("what", "n", "m", "mu", "precision"), "exact_result"),
    "exact-parity": (["exact", "--what", "parity", "-n", "5", "--cell-probs", "0.3,0.7"],
                     ("what", "n", "modulus", "targets", "cell_probs"), "exact_result"),
    "exact-gfq": (["exact", "--what", "gfq", "--r", "3"], ("what", "q", "r", "n"), "exact_result"),
    "simulate-tn": (["simulate", "--exp", "tn", "--rho", "r=3", "-n", "30"],
                    ("rho", "model", "window_eps"), "simulate_result"),
    "simulate-core": (["simulate", "--exp", "core", "--rho", "r=3", "-n", "30"],
                      ("rho", "model", "alpha", "eps"), "simulate_result"),
    "simulate-null-growth": (["simulate", "--exp", "null-growth", "--rho", "r=3", "-n", "20",
                              "--alpha", "0.5"], ("rho", "model", "alpha"), "simulate_result"),
    "simulate-null-growth-above": (["simulate", "--exp", "null-growth", "--rho", "r=3", "-n", "20",
                                    "--alpha", "0.95"], ("rho", "model", "alpha"),
                                   "simulate_result"),
    "simulate-classical": (["simulate", "--exp", "classical", "--rho", "r=2", "-n", "20"],
                           ("rho", "model", "z"), "simulate_result"),
    "simulate-profile": (["simulate", "--exp", "profile", "--rho", "r=3", "-n", "10",
                          "--alpha", "0.8"], ("rho", "model", "alpha"), "simulate_result"),
    "simulate-dense": (["simulate", "--exp", "dense", "-n", "8"], ("r_values",),
                       "simulate_result"),
}
SIMULATE_ECHOES = ("exp", "n", "trials", "seed", "threads")  # besides the experiment's own


def _record(out: str, schema) -> dict:
    """The provenance record of one output, checked against the schema."""
    if out.startswith("# "):  # CSV: the record is the one '#' line, first
        first, *rest = out.splitlines()
        assert not any(ln.startswith("#") for ln in rest)
        record = json.loads(first[2:])
        validate_def(record, schema, "csv_header")
        return record
    record = json.loads(out)
    jsonschema.validate(record, schema)
    del record["result"]
    return record


@pytest.mark.parametrize("mode", list(ECHOED))
def test_config_echoes_exactly_the_options_read(mode, schema, tmp_path):
    args, keys, result_def = ECHOED[mode]
    mat = tmp_path / "mat.txt"
    mat.write_text("0 1\n1 2\n0 2\n")
    args = [str(mat) if a == MATRIX else a for a in args]
    if args[0] == "simulate":
        keys += SIMULATE_ECHOES
        args += ["--trials", "2", "--threads", "1", "--csv", str(tmp_path / "records.csv")]
    out = run_ok(*args)
    record = _record(out, schema)
    assert record["command"] == args[0]
    assert sorted(record["config"]) == sorted(keys)
    if result_def:
        validate(json.loads(out), schema, result_def)
    if args[0] == "simulate":
        assert record["config"]["threads"] == 1
        assert _record((tmp_path / "records.csv").read_text(), schema) == record


def test_csv_header_remakes_the_curve():
    # values with spaces and commas survive, and the config names every
    # option, so the header alone gives the command that made the file
    out = run_ok("curves", "--rho", "0.9:3, 0.1:24", "--what", "gstar", "--grid", "5",
                 "--hi", "1.0")
    config = json.loads(out.splitlines()[0][2:])["config"]
    assert config["rho"] == "0.9:3, 0.1:24" and config["lo"] is None
    args = [a for k, v in config.items() if v is not None for a in (f"--{k}", str(v))]
    assert run_ok("curves", *args) == out


# --- package structure -------------------------------------------------------

def test_every_option_is_echoed_by_some_mode():
    # each option of a command is in the config of one of its modes in
    # ECHOED, which the test above checks against the output; only the
    # output paths are not echoed
    echoed = {"simulate": set(SIMULATE_ECHOES)}
    for args, keys, _ in ECHOED.values():
        echoed.setdefault(args[0], set()).update(keys)
    missing = [f"{name} {max(p.opts, key=len)}"
               for name, cmd in main.commands.items() for p in cmd.params
               if isinstance(p, click.Option)
               and max(p.opts, key=len).lstrip("-").replace("-", "_")
               not in echoed.get(name, set()) | {"out", "csv"}]
    assert missing == []


PACKAGE_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "gf2rank")


def _package_trees() -> dict:
    trees = {}
    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, fname), encoding="utf-8") as fh:
                trees[fname[:-3]] = ast.parse(fh.read())
    return trees


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reaches_into_another_modules_private_names():
    trees = _package_trees()
    reach_ins = []
    for mod, tree in trees.items():
        aliases = set()  # names bound to sibling modules by `from . import x`
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").split(".")[0] == "gf2rank")]
        for node in imports:
            for a in node.names:
                if node.module in (None, "gf2rank") and a.name in trees:
                    aliases.add(a.asname or a.name)
                elif _private(a.name):
                    reach_ins.append(f"{mod} imports {node.module}.{a.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _private(node.attr)):
                reach_ins.append(f"{mod} reads {node.value.id}.{node.attr}")
    assert reach_ins == []


# module-level names that bound a domain, not the work of a call: the
# ParitySpec checks, the weights whose alpha_star routes hold their roots,
# and the guarded sum's retry cap, which ends in PrecisionLoss (exit 4)
DOMAIN_BOUNDS = {"PARITY_MAX_K", "PARITY_MAX_R", "ROUTES_R_MAX", "_MAX_PRECISION"}


def test_too_large_is_raised_by_the_work_budget_only():
    # one size-limit policy: errors.check_work builds every TooLarge, and no
    # other module keeps a size limit of its own
    builders, limits = [], []
    for mod, tree in _package_trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "TooLarge" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    builders.append((mod, getattr(top, "name", None)))
            if mod != "errors" and isinstance(top, (ast.Assign, ast.AnnAssign)):
                for target in top.targets if isinstance(top, ast.Assign) else [top.target]:
                    name = getattr(target, "id", "")
                    if any(w in name.upper() for w in ("LIMIT", "MAX", "BUDGET", "WORK")):
                        limits.append((mod, name))
    assert builders == [("errors", "check_work")]
    assert [(mod, name) for mod, name in limits if name not in DOMAIN_BOUNDS] == []


def test_every_exit_code_class_is_raised_in_the_package():
    # an error class that nothing raises any more is dead code left behind
    raised = set()
    for tree in _package_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert [c.__name__ for c in errors.Gf2RankError.__subclasses__()
            if c.__name__ not in raised] == []


def test_oracles_import_no_route_they_check():
    # the oracles stay independent of what they check: from the package they
    # take the error classes, the weight law and the ParitySpec record only
    allowed = {"errors": None, "weights": None, "exact": {"ParitySpec"}}
    imported = []
    for node in ast.walk(_package_trees()["oracles"]):
        if isinstance(node, ast.Import):
            imported += [(a.name.removeprefix("gf2rank."), "*") for a in node.names
                         if a.name.split(".")[0] == "gf2rank"]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "gf2rank"):
            mod = (node.module or "").removeprefix("gf2rank").lstrip(".")
            imported += [(mod, a.name) if mod else (a.name, "*") for a in node.names]
    assert imported
    assert [(mod, name) for mod, name in imported if mod not in allowed
            or allowed[mod] is not None and name not in allowed[mod]] == []


def test_trial_seeds_and_pool_are_in_run_trials_only():
    # one trial driver: no other code derives a trial's stream seed or
    # opens a process pool, the tn command included
    users = set()
    for mod, tree in _package_trees().items():
        for top in tree.body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name in ("ProcessPoolExecutor", "derive_stream_seed"):
                    users.add((mod, getattr(top, "name", None), name))
    assert sorted(users) == [("experiments", "run_trials", "ProcessPoolExecutor"),
                             ("experiments", "run_trials", "derive_stream_seed")]


def test_main_group_holds_the_only_error_guard():
    # every command gets its exit code from _Main.invoke, so no other
    # function catches a package error and no command wears a guard
    caught = {"Gf2RankError", "Exception", "BaseException",
              *(c.__name__ for c in errors.Gf2RankError.__subclasses__())}
    catchers, guarded = [], []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
                if child.name.startswith("cmd_") and any(
                        getattr(n, "id", getattr(n, "attr", None)) == "_guard"
                        for d in child.decorator_list for n in ast.walk(d)):
                    guarded.append(name)
            if isinstance(child, ast.ExceptHandler) and (child.type is None or caught & {
                    getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(child.type)}):
                catchers.append(owner)
            walk(child, name)

    walk(_package_trees()["cli"], None)
    assert catchers == ["_Main.invoke"]
    assert guarded == []


def test_main_group_alone_exits_and_names_usage_errors():
    # _Main is the one failure path: no other code in cli.py exits or
    # catches click's usage errors
    users = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            if isinstance(child, ast.Attribute) and (
                    child.attr == "UsageError"
                    or child.attr == "exit" and getattr(child.value, "id", None) == "sys"):
                users.append(owner)
            if isinstance(child, ast.Name) and child.id in ("UsageError", "SystemExit"):
                users.append(owner)
            walk(child, name)

    walk(_package_trees()["cli"], None)
    assert users
    assert [u for u in users if not (u or "").startswith("_Main.")] == []


def test_config_holds_the_only_missing_option_raise():
    # each mode's needed options come from a table, and _config alone reports
    # the first one missing: "<flag> is required for <mode>"
    raisers = []
    for top in _package_trees()["cli"].body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and any(
                    isinstance(c, ast.Constant) and "is required for" in str(c.value)
                    for c in ast.walk(node)):
                raisers.append(getattr(top, "name", None))
    assert raisers == ["_config"]


def test_every_export_has_a_caller_in_the_package():
    # a name in __all__ is used by some module other than __init__, outside
    # its own definition; names that only tests call do not belong there
    import gf2rank
    used = set()
    for mod, tree in _package_trees().items():
        if mod == "__init__":
            continue
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != owner:
                    used.add(name)
    assert [n for n in gf2rank.__all__ if n not in used] == []
