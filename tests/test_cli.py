import json
import os

import jsonschema
import pytest
from click.testing import CliRunner

from gf2rank import errors
from gf2rank.cli import main

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "output-schema.json")


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_ok(*args, **kwargs):
    result = CliRunner().invoke(main, list(args), **kwargs)
    assert result.exit_code == 0, result.output
    return result.output


def validate(payload, schema, result_def):
    jsonschema.validate(payload, schema)
    resolved = dict(schema["definitions"][result_def])
    resolved["definitions"] = schema["definitions"]
    jsonschema.validate(payload["result"], resolved)


def test_thresholds_fixed3(schema):
    out = run_ok("thresholds", "--rho", "r=3")
    payload = json.loads(out)
    validate(payload, schema, "thresholds_result")
    res = payload["result"]
    assert abs(res["alpha_star"]["double"] - 0.889493) <= 5e-6
    assert abs(res["alpha_bar"]["double"] - 0.917935) <= 5e-6
    assert abs(res["alpha_sharp"]["double"] - 0.818469) <= 5e-6
    assert payload["config"]["rho"] == "r=3"


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
    errors.TruncationTooSmall: 4,
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
    assert set(EXIT_CODE) == set(errors.Gf2RankError.__subclasses__())


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


def test_exact_missing_rho_exits_2():
    assert run_fail(["exact", "--what", "en", "-n", "4", "-m", "4"], 2).startswith("error: --rho")


def test_rank_column_out_of_range_exits_2():
    assert "n_cols 2" in run_fail(["rank", "-n", "2"], 2, stdin="5\n")


def test_rank_enumerate_too_large_exits_2():
    rows = "".join(f"{i}\n" for i in range(25))
    assert "max_m 24" in run_fail(["rank", "--enumerate"], 2, stdin=rows)


def test_exact_poisson_truncation_exits_4():
    line = run_fail(["exact", "--what", "poisson", "-n", "5", "-m", "5", "--truncation", "3"], 4)
    assert line.startswith("numerical error: Poisson tail mass")


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


def test_exact_pi():
    payload = json.loads(run_ok("exact", "--what", "pi", "--rho", "r=1", "-n", "2", "-m", "2"))
    assert abs(payload["result"]["pi"]["double"] - 0.5) < 1e-12


def test_exact_parity():
    payload = json.loads(run_ok(
        "exact", "--what", "parity", "--k", "1", "--modulus", "2", "--targets", "0",
        "--cell-probs", "0.3,0.7", "-n", "5"))
    want = (1 + (1 - 1.4) ** 5) / 2
    assert abs(payload["result"]["probability"]["double"] - want) < 1e-12


def test_exact_gfq():
    payload = json.loads(run_ok("exact", "--what", "gfq", "--q", "2", "--r", "3"))
    assert abs(payload["result"]["survival"]["double"] - 0.7701) < 1e-3


def test_exact_poisson():
    payload = json.loads(run_ok("exact", "--what", "poisson", "-n", "4", "-m", "4", "--mu", "1.0"))
    assert payload["result"]["abs_diff"]["double"] <= 1e-12


def test_exact_en_profile():
    payload = json.loads(run_ok("exact", "--what", "en", "--rho", "r=2", "-n", "3", "-m", "2"))
    assert abs(payload["result"]["expected_null_count"]["double"] - 4.0 / 3.0) < 1e-12
    assert abs(payload["result"]["profile"]["2"]["double"] - 1.0 / 3.0) < 1e-12


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
    assert header.split(",")[:3] == ["experiment", "n", "trial"]


def test_simulate_requires_rho():
    result = CliRunner().invoke(main, ["simulate", "--exp", "tn", "-n", "100"])
    assert result.exit_code == 2


def test_verify_asymptotics_exit0():
    out = run_ok("verify", "asymptotics")
    assert "PASS" in out and "FAIL" not in out


def test_package_exports_are_an_explicit_list():
    import types

    import gf2rank
    assert len(set(gf2rank.__all__)) == len(gf2rank.__all__)
    for name in gf2rank.__all__:
        assert not isinstance(getattr(gf2rank, name), types.ModuleType), name
