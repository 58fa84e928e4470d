import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slconv import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    """slconv.cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_module_entry_point():
    # the one test that starts `python -m slconv.cli`; the subprocess does
    # not see pytest's pythonpath setting, so it gets the checkout's src on
    # PYTHONPATH explicitly
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "slconv.cli", *args],
                              capture_output=True, text=True, env=env)

    ok = run("kernel", "--family", "cosine", "--lambda", "4", "--x", "1.25")
    assert ok.returncode == 0
    assert ok.stdout.startswith("# slconv v")
    assert ok.stdout.splitlines()[1] == "w,w1,err"
    bad = run("kernel", "--family", "cosine", "--lambda", "-1", "--x", "1")
    assert bad.returncode == 1
    assert len(bad.stderr.splitlines()) == 1
    assert json.loads(bad.stderr)["kind"] == "validation"
    assert bad.stdout == ""


def test_kernel_cosine_oracle():
    rc, out, _ = run_cli("kernel", "--family", "cosine",
                         "--lambda", "4", "--x", "1.25")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# slconv v")
    assert "seed=0" in lines[0]
    assert "cmd=" in lines[0]
    assert lines[1] == "w,w1,err"
    w = float(lines[2].split(",")[0])
    assert w == pytest.approx(math.cos(2.5), abs=1e-9)


def test_classify_hankel_zero():
    rc, out, _ = run_cli("classify", "--family", "hankel", "--alpha", "0")
    assert rc == 0
    assert out.strip() == "left=entrance right=natural"


def test_classify_degenerate_custom_defaults():
    rc, out, _ = run_cli("classify", "--family", "degenerate_custom")
    assert rc == 0
    assert out.strip() == "left=entrance right=natural"


def test_classify_cosine():
    rc, out, _ = run_cli("classify", "--family", "cosine")
    assert rc == 0
    assert out.strip() == "left=regular right=natural"


def test_validation_error_exit_code_and_json():
    rc, _, err = run_cli("kernel", "--family", "cosine",
                         "--lambda", "-1", "--x", "1")
    assert rc == 1
    payload = json.loads(err)
    assert payload["kind"] == "validation"
    assert "message" in payload


def test_transform_refuses_negative_lambda_on_a_closed_kernel():
    # hankel's closed form alone would print the lam = 0 value at lam < 0
    rc, out, err = run_cli("transform", "--family", "hankel", "--alpha",
                           "0.5", "--h", "exp(-x^2)", "--lambda-grid=-2:1:1")
    assert rc == 1
    assert out == ""
    assert json.loads(err)["kind"] == "validation"


def test_unknown_family_is_validation_error():
    rc, _, err = run_cli("kernel", "--family", "bogus",
                         "--lambda", "1", "--x", "1")
    assert rc == 1
    assert json.loads(err)["kind"] == "validation"


def test_main_builds_its_parser_once(capsys):
    # in-process calls share one parser; each call parses afresh
    cli._build_parser.cache_clear()
    assert cli.main(["classify", "--family", "cosine"]) == 0
    assert cli.main(["classify", "--family", "hankel", "--alpha", "0"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    assert capsys.readouterr().out.splitlines() == [
        "left=regular right=natural", "left=entrance right=natural"]


def test_walk_deterministic_given_seed():
    args = ("walk", "--family", "cosine", "--step", "delta:1",
            "--n", "8", "--paths", "300", "--seed", "42")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "seed=42" in out1.splitlines()[0]


_WALK_GOLDEN = [
    (["--family", "hankel", "--alpha", "1", "--step", "uniform:0.5,1.5",
      "--n", "3", "--paths", "16", "--seed", "1"],
     "3,16,1.7039953090297506,0.49729373612613192,1.0323267986644242,"
     "1.7494329997289872,2.1751140506944737"),
    (["--family", "jacobi", "--alpha", "1", "--beta", "0",
      "--step", "uniform:0.5,1.5", "--n", "2", "--paths", "8",
      "--seed", "1"],
     "2,8,1.5456836200568467,0.34321068404692884,1.1053026766279517,"
     "1.6233688473335874,1.8941800275466065"),
]


@pytest.mark.parametrize("argv,row", _WALK_GOLDEN, ids=["hankel", "jacobi"])
def test_walk_rows_are_golden(argv, row):
    # pinned to the bit: every walk takes the family's exact draw, hankel's
    # with no uniform beyond u and jacobi's by rejection (its distribution
    # is checked in test_prob.test_conv_draw_matches_the_sampled_measure)
    rc, out, _ = run_cli("walk", *argv)
    assert rc == 0
    assert out.splitlines()[1:] == ["n,paths,mean,std,p10,p50,p90", row]


def test_transform_gaussian():
    rc, out, _ = run_cli("transform", "--family", "cosine",
                         "--h", "exp(-x^2)", "--lambda-grid", "0:2:4")
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    for lam_s, val_s in rows:
        want = 0.5 * math.sqrt(math.pi) * math.exp(-float(lam_s) / 4.0)
        assert float(val_s) == pytest.approx(want, rel=1e-8)


def test_convolve_emits_measure_json(tmp_path):
    out_file = tmp_path / "m.json"
    rc, _, _ = run_cli("convolve", "--family", "cosine",
                       "--x", "1", "--y", "2", "--out", str(out_file))
    assert rc == 0
    payload = json.loads(out_file.read_text())
    atoms = {a[0]: a[1] for a in payload["atoms"]}
    assert atoms == {1.0: 0.5, 3.0: 0.5}


def test_product_check_csv():
    rc, out, _ = run_cli("product-check", "--family", "cosine",
                         "--x", "0.7", "--y", "1.1",
                         "--lambda-grid", "0:5:25")
    assert rc == 0
    assert "max_abs_err=" in out.splitlines()[1]


def test_validate_family_reports_pass():
    rc, out, _ = run_cli("validate-family", "--family", "hankel",
                         "--alpha", "0.5")
    assert rc == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_semigroup_density_csv():
    rc, out, _ = run_cli("semigroup", "--family", "cosine",
                         "--psi", "lambda", "--t", "0.5",
                         "--x-grid", "0:0.01:10")
    assert rc == 0
    first = out.splitlines()[2].split(",")
    # density at the origin: 2 / sqrt(4 pi t) with t = 0.5
    assert float(first[1]) == pytest.approx(
        2.0 / math.sqrt(4 * math.pi * 0.5), rel=1e-6)


def test_kernel_outside_interval_is_validation_error():
    rc, out, err = run_cli("kernel", "--family", "cosine",
                           "--lambda", "4", "--x", "-1")
    assert rc == 1
    assert json.loads(err)["error"] == "ParamOutOfRange"
    assert out == ""
    rc, out, _ = run_cli("kernel", "--family", "cosine",
                         "--lambda", "4", "--x", "0")
    assert rc == 0
    assert out.splitlines()[2] == "1,0,0"


def test_product_check_below_a_is_validation_error():
    # nu_{x,y} is defined for x, y >= a only: the check refuses x = -0.5
    # instead of comparing against a rule built outside the half-line
    rc, out, err = run_cli("product-check", "--family", "hankel",
                           "--alpha", "1", "--x", "-0.5", "--y", "1",
                           "--lambda-grid", "0:1:3")
    assert rc == 1
    assert json.loads(err)["error"] == "ParamOutOfRange"
    assert out == ""


def test_overflowing_literal_is_validation_error(tmp_path):
    # 1e999 is not a finite number: rejected by the parser, with the JSON
    # diagnostic and no traceback
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"p": "x^2 + 1e999", "r": "x^2", "a": 0,
                                "b": "inf", "c": 1}))
    rc, out, err = run_cli("kernel", "--problem", str(path),
                           "--lambda", "1", "--x", "0.5")
    assert rc == 1
    payload = json.loads(err)
    assert payload["kind"] == "validation"
    assert payload["error"] == "SyntaxError"
    assert out == ""


_BAD_INPUTS = {
    "step-one-bound": ("--family", "cosine", "--step", "uniform:1"),
    "step-not-a-number": ("--family", "cosine", "--step", "delta:abc"),
    "no-paths": ("--family", "cosine", "--step", "delta:1", "--paths", "0"),
    "negative-steps": ("--family", "cosine", "--step", "delta:1",
                       "--n", "-1"),
    "missing-file": ("--problem", "{missing}", "--step", "delta:1"),
    "malformed-json": ("--problem", "{malformed}", "--step", "delta:1"),
    "b-not-a-number": ("--problem", "{bad_b}", "--step", "delta:1"),
    "atom-below-a": ("--family", "hankel", "--step", "delta:-1",
                     "--paths", "3"),
    "density-below-a": ("--family", "jacobi", "--step", "uniform:-1,1"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_walk_input_is_validation_error(tmp_path, case):
    # each input is refused where it enters, with one JSON diagnostic and
    # exit 1, not a traceback (or exit 0 on a negative step count)
    files = {"missing": tmp_path / "missing.json",
             "malformed": tmp_path / "malformed.json",
             "bad_b": tmp_path / "bad_b.json"}
    files["malformed"].write_text('{"p": "x^3", "r": ')
    files["bad_b"].write_text(json.dumps(
        {"p": "x^3", "r": "x^3", "a": 0, "b": "x", "c": 1}))
    argv = [a.format(**files) for a in _BAD_INPUTS[case]]
    if "--n" not in argv:
        argv += ["--n", "2"]
    rc, out, err = run_cli("walk", *argv)
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert json.loads(err)["kind"] == "validation"
    assert out == ""


@pytest.fixture(scope="module")
def cubic_problem(tmp_path_factory):
    # p = r = x^3: the hankel alpha = 1 operator as a custom problem
    path = tmp_path_factory.mktemp("problem") / "cubic.json"
    path.write_text(json.dumps(
        {"p": "x^3", "r": "x^3", "a": 0, "b": "inf", "c": 1}))
    return str(path)


@pytest.mark.parametrize("args, error", [
    (("product-check", "--x", "1", "--y", "1.2", "--lambda-grid", "0:1:2"),
     "ParamOutOfRange"),
    (("convolve", "--x", "1", "--y", "1.2"), "ParamOutOfRange"),
    (("semigroup", "--psi", "lambda", "--t", "0.5", "--x-grid", "0:0.5:2"),
     "SpectralMeasureUnavailable"),
    (("walk", "--step", "delta:1", "--n", "2", "--paths", "5"),
     "ParamOutOfRange"),
    (("cauchy", "--h", "exp(-x^2)", "--grid", "0:0.5:1"),
     "SpectralMeasureUnavailable"),
    (("validate-family",), "ParamOutOfRange"),
], ids=["product-check", "convolve", "semigroup", "walk", "cauchy",
        "validate-family"])
def test_custom_problem_without_measures_is_validation_error(
        cubic_problem, args, error):
    rc, out, err = run_cli(*args, "--problem", cubic_problem)
    assert rc == 1
    payload = json.loads(err)
    assert payload["kind"] == "validation"
    assert payload["error"] == error
    assert out == ""


def test_custom_problem_cauchy_characteristic(tmp_path):
    # the squared_weight operator as a custom problem marches to the same
    # field as the family itself
    path = tmp_path / "sq.json"
    path.write_text(json.dumps({"p": "(1+x)^2", "r": "(1+x)^2", "a": 0,
                                "b": "inf", "c": 1}))
    common = ("cauchy", "--h", "exp(-x^2)", "--method", "characteristic",
              "--grid", "0:0.1:0.5")
    rc, out, _ = run_cli(*common, "--problem", str(path))
    rc_f, out_f, _ = run_cli(*common, "--family", "squared_weight")
    assert rc == rc_f == 0
    assert len(out.splitlines()) > 3
    assert out.splitlines()[1:] == out_f.splitlines()[1:]


def test_header_records_the_argv_given_to_main(tmp_path):
    path = str(tmp_path / "k.csv")
    argv = ["kernel", "--family", "cosine", "--lambda", "4", "--x", "1.25",
            "--out", path]
    assert cli.main(argv) == 0
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    assert first.endswith("cmd=" + " ".join(argv))
