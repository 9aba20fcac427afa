import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import pathlib
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import opchain
from opchain import cli, errors, families, verify


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- family -----------------------------------------------------------------

def test_family_laguerre_document(capsys):
    doc = run_json(capsys, "family", "laguerre", "--alpha", "0", "--n", "4",
                   "--gamma1", "0")
    assert doc["gamma"] == ["0", "1", "1", "2", "2", "3", "3", "4", "4"]
    assert doc["b"] == ["1", "3", "5", "7"]
    assert doc["minimal_m"] == ["0", "1/3", "2/5", "3/7"]
    assert doc["complementary_k"] == ["0", "2/3", "3/5", "4/7"]


def test_family_companion_document(capsys):
    doc = run_json(capsys, "family", "e_family", "--alpha", "1/2", "--n", "2")
    assert doc["b"] == ["5/2", "9/2"]
    assert doc["a2"] == ["3"]


def test_family_alpha_validation(capsys):
    code, _, err = run(capsys, "family", "laguerre", "--alpha", "-2")
    assert code == 2
    assert "AlphaOutOfRange" in err


def test_family_assoc1_defaults_gamma1(capsys):
    doc = run_json(capsys, "family", "laguerre_assoc1", "--alpha", "0", "--n", "3")
    assert doc["gamma1"] == "1"
    assert doc["gamma"] == ["1", "1", "2", "2", "3", "3", "4"]


def test_family_finite_window(capsys):
    doc = run_json(capsys, "family", "routh_romanovski", "--p", "10", "--n", "4")
    assert doc["b"] == ["1/8", "5/24", "5/12", "5/4"]
    # gamma capped by the finite window: recovery needs b_{N+1}
    assert doc["gamma"] == ["0", "1/8", "1/56", "4/21", "1/15", "7/20", "1/4", "1"]
    code, _, err = run(capsys, "family", "routh_romanovski", "--p", "10", "--n", "9")
    assert code == 2


@pytest.mark.parametrize("p", ["0", "1", "2"])
def test_family_without_recurrence_data(capsys, p):
    # at these p the family has no recurrence data: every command names the
    # first entry it lacks, not an order the user never gave
    for argv in (("family", "routh_romanovski", "--p", p, "--n", "1"),
                 ("lu", "--family", "routh_romanovski", "--p", p, "--n", "1"),
                 ("zeros", "--family", "routh_romanovski", "--p", p, "--n", "1"),
                 ("moments", "--family", "routh_romanovski", "--p", p, "--k", "1")):
        assert run(capsys, *argv) == (2, "", "error: StreamExhausted: index 1 outside [1, 0]\n")


def test_perturb_hat_degenerate_exit(capsys):
    code, _, err = run(capsys, "perturb", "--variant", "hat",
                       "--gamma", "0,1,1,2,2,3", "--n", "2")
    assert code == 2 and "DegenerateFavard" in err


def test_zeros_json_output(capsys):
    doc = run_json(capsys, "zeros", "--family", "laguerre", "--alpha", "0",
                   "--n", "1", "--tol", "1e-12", "--output", "json")
    assert doc["zeros"][0]["index"] == 1
    assert doc["zeros"][0]["value"] == 1.0


def test_family_float_mode(capsys):
    doc = run_json(capsys, "family", "laguerre", "--alpha", "0", "--n", "2", "--float")
    assert doc["minimal_m"] == ["0.0", "0.3333333333333333"]


_BEYOND_FLOAT64 = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ("family", "laguerre", "--alpha", _BEYOND_FLOAT64, "--n", "2", "--float"),
    ("perturb", "--variant", "q", "--gamma", f"1,2,1{'0' * 400},4,5,6", "--n", "1", "--float"),
], ids=["family", "perturb"])
def test_float_mode_beyond_float64_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: FloatOverflow: ")


# -- perturb ------------------------------------------------------------------

def test_perturb_tilde_document(capsys):
    doc = run_json(capsys, "perturb", "--variant", "tilde",
                   "--gamma", "1,2,3,4", "--n", "2")
    assert doc["polys"][2]["coeffs"] == ["3", "-8", "1"]


def test_perturb_hat_document(capsys):
    doc = run_json(capsys, "perturb", "--variant", "hat",
                   "--gamma", "1,2,3,4", "--n", "2")
    assert doc["polys"][2]["coeffs"] == ["17", "-10", "1"]


def test_perturb_tilde_rejects_zero_gamma1(capsys):
    code, _, err = run(capsys, "perturb", "--variant", "tilde",
                       "--gamma", "0,2,3,4", "--n", "2")
    assert code == 2
    assert "Gamma1Zero" in err


def test_perturb_system_document_is_read_to_the_order_asked(capsys, tmp_path):
    # the base system of gamma = 1..8 holds b_1..b_4 and a_1^2..a_3^2, which
    # recover gamma_1..gamma_8 at gamma_1 = 1; an order-n row reads
    # gamma_{2n+2} at most, so n = 3 needs no more
    path = tmp_path / "g8.json"
    path.write_text(json.dumps({"b": ["3", "7", "11", "15"], "a2": ["6", "20", "42"]}))
    for variant in sorted(cli._PERTURB_VARIANTS):
        for n in ("1", "2", "3"):
            head = ("perturb", "--variant", variant, "--n", n)
            by_doc = run(capsys, *head, "--input", str(path), "--gamma1", "1")
            by_gamma = run(capsys, *head, "--gamma", "1,2,3,4,5,6,7,8")
            assert by_doc == by_gamma and by_doc[0] == 0, (variant, n, by_doc[2])


# -- numeric endpoints --------------------------------------------------------------

def test_zeros_csv(capsys):
    code, out, _ = run(capsys, "zeros", "--family", "laguerre", "--alpha", "0",
                       "--n", "2", "--tol", "1e-12")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,value,bracket_width"
    v1 = float(lines[1].split(",")[1])
    v2 = float(lines[2].split(",")[1])
    assert abs(v1 - 0.585786437626905) < 1e-10
    assert abs(v2 - 3.414213562373095) < 1e-10


_LAGUERRE_7_3_ZEROS = [  # (value, bracket_width) printed at n=8, tol=1e-12
    ("0.8054062175458091", "8.613110225041964e-13"),
    ("2.0763818741756603", "8.615330671091215e-13"),
    ("3.921320426580005", "8.610889778992714e-13"),
    ("6.40564020291102", "8.615330671091215e-13"),
    ("9.634180250806661", "8.615330671091215e-13"),
    ("13.787015351057278", "8.615330671091215e-13"),
    ("19.215024198593966", "8.633094239485217e-13"),
    ("26.821698144995626", "8.597567102697212e-13"),
]


def _laguerre_7_3_zeros_stdout(output) -> str:
    rows = list(enumerate(_LAGUERRE_7_3_ZEROS, 1))
    if not output:
        return "index,value,bracket_width\n" + "".join(
            f"{i},{v},{w}\n" for i, (v, w) in rows)
    return '{\n  "zeros": [\n' + ",\n".join(
        f'    {{\n      "bracket_width": {w},\n      "index": {i},\n'
        f'      "value": {v}\n    }}' for i, (v, w) in rows) + "\n  ]\n}\n"


@pytest.mark.parametrize("output", [(), ("--output", "json")], ids=["csv", "json"])
def test_zeros_stdout_golden(capsys, output):
    # zeros output is a deterministic function of the float64 data and tol,
    # so its stdout is pinned byte for byte in both formats
    code, out, err = run(capsys, "zeros", "--family", "laguerre", "--alpha", "7/3",
                         "--n", "8", "--tol", "1e-12", *output)
    assert code == 0 and err == ""
    assert out == _laguerre_7_3_zeros_stdout(output)


def test_zeros_default_tol_is_a_constant(capsys, monkeypatch):
    # the default tol is 1e-12 whatever the environment holds
    monkeypatch.setenv("OPCHAIN_PRECISION", "abc")
    code, out, err = run(capsys, "zeros", "--family", "laguerre", "--alpha", "7/3",
                         "--n", "8")
    assert code == 0 and err == ""
    assert out == _laguerre_7_3_zeros_stdout(())


def test_library_reads_no_environment():
    # every setting is a command-line flag or a function argument
    env_reads = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(pathlib.Path(opchain.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {a.name for a in node.names} & env_reads, path.name
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert not (node.value.id == "os" and node.attr in env_reads), path.name


def test_lu_document(capsys):
    doc = run_json(capsys, "lu", "--family", "laguerre", "--alpha", "0",
                   "--n", "3", "--gamma1", "0")
    assert doc == {"L_sub": ["1", "2"], "U_diag": ["1", "2", "3"]}


def test_lu_pivot_breakdown_exit_code(capsys):
    code, _, err = run(capsys, "lu", "--family", "laguerre", "--alpha", "0",
                       "--n", "3", "--gamma1", "1")
    assert code == 3
    assert "PivotBreakdown" in err


def test_moments_plain(capsys):
    code, out, _ = run(capsys, "moments", "--family", "laguerre", "--alpha", "0",
                       "--k", "3")
    assert code == 0 and out == "6\n"


def test_moments_beyond_the_int_str_limit(capsys):
    # (alpha + 1)(alpha + 2) at alpha = 10^4000 - 1 has 8001 digits
    code, out, err = run(capsys, "moments", "--family", "laguerre", "--alpha", "9" * 4000,
                         "--k", "2")
    assert (code, err) == (0, "")
    assert out == "1" + "0" * 3999 + "1" + "0" * 4000 + "\n"


def test_moments_json(capsys):
    doc = run_json(capsys, "moments", "--family", "laguerre", "--alpha", "0",
                   "--k", "4", "--output", "json")
    assert doc == {"k": 4, "moment": "24"}


def test_convergent_document(capsys):
    doc = run_json(capsys, "convergent", "--family", "laguerre", "--alpha", "0",
                   "--n", "2")
    assert doc["numerator"]["coeffs"] == ["-3", "1"]
    assert doc["denominator"]["coeffs"] == ["2", "-4", "1"]
    assert doc["laurent"] == ["1", "1", "2", "6"]


def test_closed_forms_and_their_flags_come_from_the_registry(capsys, tmp_path, monkeypatch):
    # a family added to FAMILIES is served by every route, under its own flag
    monkeypatch.setitem(families.FAMILIES, "lag_beta", ("beta", families.laguerre_system, 0))
    monkeypatch.setattr(cli, "FAMILY_NAMES", tuple(families.FAMILIES))
    monkeypatch.setattr(cli, "FAMILY_PARAMS", ("alpha", "p", "beta"))
    assert run(capsys, "moments", "--family", "lag_beta", "--beta", "1", "--k", "2") == (
        0, "6\n", "")
    assert run(capsys, "family", "lag_beta", "--n", "2") == (
        2, "", "error: ValueError: lag_beta requires --beta\n")
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"closed_form": {"name": "lag_beta", "params": {"beta": "1"}}}))
    assert run(capsys, "moments", "--input", str(path), "--k", "2") == (0, "6\n", "")
    label, sys_ = verify._family("lag_beta", "1")
    assert label == "lag_beta beta=1"
    assert sys_.block(4) == families.closed_form("laguerre", "1").block(4)


def test_system_input_file(capsys, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"b": ["1", "3"], "a2": ["1"]}))
    code, out, _ = run(capsys, "moments", "--input", str(path), "--k", "2")
    assert code == 0 and out == "2\n"


def test_closed_form_input_file(capsys, tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"b": [], "a2": [],
                                "closed_form": {"name": "laguerre",
                                                "params": {"alpha": "0"}}}))
    code, out, _ = run(capsys, "moments", "--input", str(path), "--k", "3")
    assert code == 0 and out == "6\n"


@pytest.mark.parametrize("argv, doc", [
    (("moments", "--k", "2"), {"b": 5}),
    (("moments", "--k", "2"), {"closed_form": "x"}),
    (("moments", "--k", "2"), [1, 2]),
    (("moments", "--k", "2"), {"b": [3]}),
    (("moments", "--k", "2"), {"closed_form": {"name": "laguerre", "params": {"alpha": 0}}}),
    (("moments", "--k", "2"), {"closed_form": {"name": "laguerre", "params": ["0"]}}),
    (("moments", "--k", "2"), {"b": ["12", "1"], "a2": "12"}),
    (("perturb", "--variant", "tilde"), {"gamma": 5}),
])
def test_malformed_input_document_rejected(capsys, tmp_path, argv, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [("moments", "--k", "2"), ("perturb", "--variant", "tilde")])
def test_deeply_nested_input_document_rejected(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *argv, "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: OpchainError: ")


# -- verify -----------------------------------------------------------------------

def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "laguerre", "--n", "30")
    assert code == 0
    doc = json.loads(out)
    assert all(r["ok"] for r in doc["reports"])


def test_verify_corruption_hook_fails(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "quasi_orth", "--samples", "3",
                       "--inject-corruption")
    assert code == 1
    doc = json.loads(out)
    assert any(i["status"] == "fail" for r in doc["reports"] for i in r["identities"])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("suite", [s for s in verify.SUITES if s != "all"])
def test_verify_corruption_fails_at_small_n(capsys, suite, n):
    code, _, _ = run(capsys, "verify", "--suite", suite, "--n", str(n), "--samples", "1",
                     "--inject-corruption")
    assert code == 1


def test_verify_split_suite_full_depth(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem33", "--n", "15",
                       "--seed", "7", "--samples", "25")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"][0]["identities"]) == 25


def test_verify_deterministic_bytes(capsys):
    args = ("verify", "--suite", "theorem33", "--n", "6", "--samples", "4",
            "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_suites_and_commands_do_no_polynomial_arithmetic(capsys, monkeypatch):
    # Every suite identity is decided on recurrence data or by one exact
    # evaluation of the recurrence; the ring operations of Polynomial are for
    # the tests alone, and evaluation at a point is a test reference.
    commands = (("perturb", "--variant", "q", "--gamma", "1,2,3,4,5,6,7,8", "--n", "3"),
                ("convergent", "--family", "laguerre", "--alpha", "7/3", "--n", "6"))

    def outputs():
        docs = [[r.to_json() for r in verify.run_suite("all", corrupt=c)] for c in (False, True)]
        return docs, [run(capsys, *argv) for argv in commands]

    want = outputs()

    def ring(*_):
        raise AssertionError("Polynomial ring arithmetic")

    for name in ("__add__", "__sub__", "__mul__", "scale"):
        monkeypatch.setattr(opchain.Polynomial, name, ring)
    assert outputs() == want
    for name in ("__neg__", "constant", "_coeffs"):
        assert not hasattr(opchain.Polynomial, name), name
    assert not callable(opchain.Polynomial.one())


# sha256 of `verify --suite all --seed 0` stdout, pinned when the suites were
# rewritten onto one shared sampler and report shape
_VERIFY_GOLDEN = {
    "clean": ((), 0, "650a666c4e9f3a1e9c30150eba1a9790fd7522fd8b1910602c6ffd9fa05c8a82"),
    "corrupt": (("--inject-corruption",), 1,
                "98104b7d43236ce78595870bd8c69ac229cd2ec3571568ba834ea76b5fbcd39e"),
}


@pytest.mark.parametrize("case", sorted(_VERIFY_GOLDEN))
def test_verify_stdout_golden(capsys, case):
    extra, want_code, want_sha = _VERIFY_GOLDEN[case]
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "0", *extra)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha


# sha256 of the stdout of commands whose b and a2 windows are read through
# ThreeTermSystem.block, pinned before the readers shared it
_GAMMA_1_TO_12 = ",".join(str(k) for k in range(1, 13))
_BLOCK_GOLDEN = {
    "family laguerre": (("family", "laguerre", "--alpha", "7/3", "--n", "6"),
                        "524b4e08f04673f0edbba37ca898ec8fe15a7396d3ceec105cbbcfcf78829f98"),
    "family laguerre float": (("family", "laguerre", "--alpha", "7/3", "--n", "6", "--float"),
                              "c6a71aa1ee5bceac42344f190dde3b448870b5b9966779da8d539a2897da2e69"),
    "family routh_romanovski": (("family", "routh_romanovski", "--p", "10", "--n", "4"),
                                "1cfccf5f712532c8294fca11957b6c0b930c9a118544c4ac0addd7d4bb12497a"),
    **{f"perturb {v}": (("perturb", "--variant", v, "--gamma", _GAMMA_1_TO_12, "--n", "4"), sha)
       for v, sha in (
           ("tilde", "8d09d3cf5ebaea62913077549c081362ed770220aacbba9a4d24fa5769f1da7e"),
           ("hat", "0e1f1ea45b12640b1c4c57fc7b32a21119ccf9d1566c9fbce6acae6012fe9843"),
           ("tilde_kernel", "33d9d4ad086f8113b537cf035cb1fc7f8ad0cc4982523412d781a1d6431741e7"),
           ("q", "4902ab4ef9d1fb0ef1fafb5aa9a572dc1b335f2001c6dd2b86a5de38fc6336fc"),
           ("u", "0ab32dd43cc5cfc41363cd356f82a1e7aa3340ab2f70db01b7a7ed64b277bdc4"))},
    "moments": (("moments", "--family", "e_family", "--alpha", "1/2", "--k", "30"),
                "6231b8275e680c700d60f81007c62d5310e619ba129f1d80e527751ad34ab0b1"),
    "lu": (("lu", "--family", "laguerre", "--alpha", "7/3", "--n", "8"),
           "a891c4223b4c9a98f46a6efc0b943a36bca0a98a81140584475b807bccc928c8"),
    "convergent": (("convergent", "--family", "laguerre", "--alpha", "7/3", "--n", "8"),
                   "b345662f4b4a37eb811b4170c8a5da2c2862e5ef34483b4fa6287fd477bd35d8"),
}


@pytest.mark.parametrize("case", sorted(_BLOCK_GOLDEN))
def test_block_reader_stdout_golden(capsys, case):
    argv, want_sha = _BLOCK_GOLDEN[case]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha


def test_verify_records_samples_for_replay(capsys):
    doc = run_json(capsys, "verify", "--suite", "theorem33", "--n", "4",
                   "--samples", "2", "--seed", "3")
    rep = doc["reports"][0]
    assert rep["seed"] == 3 and len(rep["gamma_samples"]) == 2


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_zero_identity_report_is_not_ok():
    rep = verify.SuiteReport("theorem33", 0, 0)
    assert not rep.ok
    rep.add("an identity", "n<=1", True)
    assert rep.ok


# -- exit codes -------------------------------------------------------------------

# the numerical-breakdown classes; every other library error is a bad input
_EXIT_3 = {"PivotBreakdown", "ZeroDenominator", "PositivityBreak", "NotAChainSequence",
           "PoleAtB", "NonPositiveA2", "FloatOverflow"}
_ERROR_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(c, errors.OpchainError)]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_class_exit_code(cls, capsys, monkeypatch):
    exc = cls(1) if issubclass(cls, errors.IndexedError) else cls("boom")

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_moments", raise_it)
    code, out, err = run(capsys, "moments", "--family", "laguerre", "--alpha", "0",
                         "--k", "1")
    assert code == (3 if cls.__name__ in _EXIT_3 else 2)
    assert out == "" and err.startswith(f"error: {cls.__name__}: ")


@pytest.mark.parametrize("argv, code, name", [
    (("verify", "--suite", "lu", "--n", "0"), 2, "ValueError"),
    (("lu", "--family", "laguerre", "--alpha", "0", "--n", "0"), 2, "ValueError"),
    (("verify", "--suite", "theorem33", "--samples", "0"), 2, "ValueError"),
    (("verify", "--suite", "theorem33", "--samples", "-1"), 2, "ValueError"),
    (("zeros", "--family", "laguerre", "--alpha", "1" + "0" * 400, "--n", "2"),
     3, "FloatOverflow"),
    (("zeros", "--family", "laguerre", "--alpha", "0", "--n", "2", "--tol", "nan"),
     2, "ValueError"),
    (("zeros", "--family", "laguerre", "--alpha", "0", "--n", "2", "--tol", "inf"),
     2, "ValueError"),
    (("zeros", "--family", "laguerre", "--alpha", "0", "--n", "2", "--tol", "0"),
     2, "ValueError"),
    (("moments", "--input", "no/such/file.json", "--k", "1"), 2, "FileNotFoundError"),
    (("convergent", "--family", "laguerre", "--alpha", "0", "--n", "2", "--order", "-3"),
     2, "ValueError"),
    (("lu", "--family", "laguerre", "--alpha", "0", "--n", "3", "--gamma1", "-1"),
     2, "InvalidGamma1"),
    (("moments", "--family", "laguerre", "--alpha", "1/" + "7" * 4400, "--k", "2"),
     2, "InvalidRationalLiteral"),
    # an order past the index range, and one past the list limit (2^62)
    (("convergent", "--family", "laguerre", "--alpha", "0", "--n", "2",
      "--order", "100000000000000000000"), 2, "ValueError"),
    (("convergent", "--family", "laguerre", "--alpha", "0", "--n", "2",
      "--order", str(2 ** 62)), 2, "ValueError"),
    (("convergent", "--family", "laguerre", "--alpha", "0", "--n", "2",
      "--order", str(cli.MAX_ORDER + 1)), 2, "ValueError"),
    (("convergent", "--family", "laguerre", "--alpha", "0",
      "--n", str(cli.MAX_CONVERGENT_N + 1)), 2, "ValueError"),
])
def test_edge_inputs_rejected(capsys, argv, code, name):
    got, out, err = run(capsys, *argv)
    assert got == code and out == ""
    assert err.startswith(f"error: {name}: ")


def test_convergent_order_cap(capsys):
    head = ("convergent", "--family", "laguerre", "--alpha", "0", "--n", "1", "--order")
    code, out, err = run(capsys, *head, str(cli.MAX_ORDER + 1))
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: --order {cli.MAX_ORDER + 1} is above the cap of 4096\n"
    doc = run_json(capsys, *head, str(cli.MAX_ORDER))
    assert len(doc["laurent"]) == cli.MAX_ORDER == 4096


def test_convergent_n_cap(capsys, monkeypatch):
    head = ("convergent", "--family", "laguerre", "--alpha", "0", "--n")
    code, out, err = run(capsys, *head, str(cli.MAX_CONVERGENT_N + 1))
    assert (code, out) == (2, "")
    assert err == "error: ValueError: --n 513 is above the cap of 512\n"
    # at the cap the convergent is built; a degree-1 one stands in for it,
    # as the real one takes seconds
    built = []
    real = cli.convergent
    monkeypatch.setattr(cli, "convergent", lambda sys_, n: built.append(n) or real(sys_, 1))
    assert run(capsys, *head, str(cli.MAX_CONVERGENT_N))[0] == 0
    assert built == [cli.MAX_CONVERGENT_N] == [512]


@pytest.mark.parametrize("sign", ["", "-"])
def test_zeros_near_float_max_exit_3(capsys, tmp_path, sign):
    path = tmp_path / "sys.json"
    big = sign + "1" + "0" * 308
    path.write_text(json.dumps({"b": [big, big], "a2": ["1" + "0" * 300]}))
    code, out, err = run(capsys, "zeros", "--input", str(path), "--n", "2", "--tol", "1e-10")
    assert (code, out) == (3, "")
    assert err.startswith("error: FloatOverflow: ")


# -- argv fuzz ----------------------------------------------------------------------

_INTS = st.integers(-2, 6).map(str)
_SMALL_RATIONALS = st.fractions(min_value=0, max_value=9, max_denominator=9).map(str)
_RATIONALS = st.one_of(
    _SMALL_RATIONALS,
    st.sampled_from(["0", "-1", "-1/2", "1/0", "1.5", "x"]),
    st.from_regex(r"-?[1-9][0-9]{0,399}(/[1-9][0-9]{0,399})?", fullmatch=True),
)
# routh_romanovski scans its validity window eagerly, up to 4096 steps, which
# takes most of a second for a huge p; its p is drawn from small values only
_RR_P = st.one_of(st.sampled_from(["10", "7/2", "1", "0", "-3"]), _INTS)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


@st.composite
def _family_source(draw, positional=False):
    name = draw(st.sampled_from(cli.FAMILY_NAMES))
    head = [name] if positional else ["--family", name]
    if name == "routh_romanovski":
        return head + [f"--p={draw(_RR_P)}"] + draw(_opt("--alpha", _RATIONALS))
    return head + [f"--alpha={draw(_RATIONALS)}"] + draw(_opt("--p", _RR_P))


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["family", "perturb", "verify", "zeros", "lu",
                                "moments", "convergent"]))
    if cmd == "family":
        return (["family"] + draw(_family_source(positional=True)) + draw(_opt("--n", _INTS))
                + draw(_opt("--gamma1", _RATIONALS)) + draw(st.sampled_from([[], ["--float"]])))
    if cmd == "perturb":
        gamma = draw(st.lists(_SMALL_RATIONALS, min_size=1, max_size=16))
        gamma[draw(st.integers(0, len(gamma) - 1))] = draw(_RATIONALS)
        return (["perturb", "--variant", draw(st.sampled_from(sorted(cli._PERTURB_VARIANTS))),
                 "--gamma=" + ",".join(gamma)] + draw(_opt("--n", _INTS)))
    if cmd == "verify":
        return (["verify", "--suite", draw(st.sampled_from(verify.SUITES)),
                 "--n", draw(_INTS), "--samples", draw(_INTS), "--seed", draw(_INTS)]
                + draw(st.sampled_from([[], ["--inject-corruption"]])))
    source = draw(_family_source())
    n = ["--n", draw(_INTS)]
    if cmd == "zeros":
        tol = draw(st.sampled_from(["1e-12", "1e-3", "0", "-1", "nan", "inf"]))
        return ["zeros"] + source + n + ["--tol", tol]
    if cmd == "lu":
        return ["lu"] + source + n + draw(_opt("--gamma1", _RATIONALS))
    if cmd == "moments":
        return ["moments"] + source + ["--k", draw(_INTS)]
    return ["convergent"] + source + n + draw(_opt("--order", _INTS))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_argv_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the argv
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()


# -- parser ---------------------------------------------------------------------------

def _full_parser(command):
    """Every command of ``cli._COMMANDS`` with its arguments, whatever the argv."""
    ap = argparse.ArgumentParser(prog="opchain")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_, add_args) in cli._COMMANDS.items():
        add_args(sub.add_parser(name, help=help_))
    return ap


def _parse_outcome(argv, build):
    """(exit code, stdout, stderr, Namespace fields but fn) of ``cli.main(argv)``
    with ``build`` as its parser builder; every command is a stub exiting 0."""
    seen = []

    def spied(command):
        parser = build(command)
        parse = parser.parse_args

        def parse_args(args):
            ns = parse(args)
            # by repr, as a --tol of nan is unequal to itself
            seen.append(repr({k: v for k, v in vars(ns).items() if k != "fn"}))
            return ns

        parser.parse_args = parse_args
        return parser

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        # argparse wraps help to the terminal width
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        stack.enter_context(mock.patch.object(cli, "build_parser", spied))
        for name in cli._COMMANDS:
            stack.enter_context(mock.patch.object(cli, f"cmd_{name}", lambda args: 0))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue(), seen


def _assert_lazy_parse_matches_full(argv):
    lazy = _parse_outcome(argv, cli.build_parser)
    assert lazy == _parse_outcome(argv, _full_parser), argv


_PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["-h", "zeros"], ["bogus"],
    ["--", "moments", "--family", "laguerre", "--alpha", "0", "--k", "2"],
    ["-x", "zeros", "--family", "laguerre", "--alpha", "0", "--n", "3"],
] + [[name, "-h"] for name in cli._COMMANDS]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_lazy_parse_matches_full_parse(argv):
    _assert_lazy_parse_matches_full(argv)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_lazy_parse_matches_full_parse_fuzz(argv):
    _assert_lazy_parse_matches_full(argv)


# sha256 of the help text at COLUMNS=80, as the full parser printed it
_HELP_SHA256 = {
    "": "eefe52067fcf286382780d2191814048d11aecb9482265526a8c6a75ecac7cef",
    "family": "782e0caf99c902ea8c22fcfb880ec23a22546fc5106f6f2cb375ee6b576e42a8",
    "perturb": "1ea538e7ccce425dfe6137bcb7385bc5b0bec43bc600a5ef991a32e5abae82c9",
    "verify": "9c652787386720b0a8ed9f8bb228fa5488ac075d0f8ce751c793169529f36d47",
    "zeros": "e9a9c3e2852255f8ed53e7bd9c2361e399b6ee30f7a23816326f5def7f94bc1e",
    "lu": "36f158d1a183a1a72eb8f5456c294c65b271b8a52614795e796e2c7bf9fa8706",
    "moments": "67e46e11e13e28c0c2b5a89a053dc0e34e8c7e9054e1893200f506be7e4fb4d8",
    "convergent": "76a9b7726d4486617d5a5e599c90ded833b51eec285d68297f10e03ecd957d2b",
}


@pytest.mark.parametrize("command", ["", *cli._COMMANDS])
def test_help_stdout_golden(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "-h"] if command else ["-h"])
    out = capsys.readouterr()
    assert (exc.value.code, out.err) == (0, "")
    assert hashlib.sha256(out.out.encode()).hexdigest() == _HELP_SHA256[command]


@pytest.mark.parametrize("argv", [
    ["moments", "--family", "laguerre", "--alpha", "7/3", "--k", "3"],
    ["lu", "--family", "laguerre", "--alpha", "0", "--n", "0"],
    ["-x", "zeros", "--family", "laguerre", "--alpha", "0", "--n", "3"],
    ["zeros", "-h"],
    [],
], ids=" ".join)
def test_console_script_reads_sys_argv(capsys, monkeypatch, argv):
    # the installed ``opchain`` script calls main() with no argv
    def outcome(*args):
        try:
            code = cli.main(*args)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        return (code, *capsys.readouterr())

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["opchain", *argv])
    assert outcome() == outcome(list(argv))


# -- value fuzz ----------------------------------------------------------------------

# entries that are zero, negative, beyond float64 or below its smallest value,
# mixed with ordinary positive ones
_EDGE_VALUES = st.sampled_from(["0", "-1", "-5/2", _BEYOND_FLOAT64, "-" + _BEYOND_FLOAT64,
                                "1/" + _BEYOND_FLOAT64, "-1/" + _BEYOND_FLOAT64])
_VALUES = st.one_of(_EDGE_VALUES, _SMALL_RATIONALS.filter(lambda v: v != "0"))
_VALUE_LISTS = st.lists(_VALUES, min_size=1, max_size=12)
_N = st.integers(-1, 4).map(lambda n: f"--n={n}")
_FLOAT = st.sampled_from([[], ["--float"]])
_OUTPUT = st.sampled_from([[], ["--output", "json"]])


@st.composite
def _value_case(draw):
    """(argv, --input document or None) for one command on fuzzed values."""
    cmd = draw(st.sampled_from(["family", "perturb", "verify", "zeros", "lu",
                                "moments", "convergent"]))
    system = draw(st.fixed_dictionaries({"b": _VALUE_LISTS, "a2": _VALUE_LISTS}))
    if cmd == "family":
        name = draw(st.sampled_from(["laguerre", "e_family", "laguerre_assoc1"]))
        return (["family", name, f"--alpha={draw(_VALUES)}", draw(_N)]
                + draw(_opt("--gamma1", _VALUES)) + draw(_FLOAT)), None
    if cmd == "perturb":
        head = ["perturb", "--variant", draw(st.sampled_from(sorted(cli._PERTURB_VARIANTS))),
                draw(_N)] + draw(_FLOAT)
        source = draw(st.sampled_from(["--gamma", "gamma doc", "system doc"]))
        if source == "--gamma":
            return head + ["--gamma=" + ",".join(draw(_VALUE_LISTS))], None
        if source == "gamma doc":
            return head, {"gamma": draw(_VALUE_LISTS)}
        return head + draw(_opt("--gamma1", _VALUES)), system
    if cmd == "verify":
        return (["verify", "--suite", draw(st.sampled_from(["lu", "laguerre", "moments"])),
                 draw(_N), "--samples=1"] + draw(st.sampled_from([[], ["--inject-corruption"]])),
                None)
    if cmd == "zeros":
        return ["zeros", draw(_N)] + draw(_OUTPUT), system
    if cmd == "lu":
        return ["lu", draw(_N)] + draw(_opt("--gamma1", _VALUES)), system
    if cmd == "moments":
        return ["moments", f"--k={draw(st.integers(-1, 6))}"] + draw(_OUTPUT), system
    return ["convergent", draw(_N)] + draw(_opt("--order", _INTS)), system


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_value_case())
@example((["family", "laguerre", "--alpha", _BEYOND_FLOAT64, "--n", "2", "--float"], None))
@example((["perturb", "--variant", "q", "--n", "1", "--float"],
          {"gamma": ["1", "2", _BEYOND_FLOAT64, "4", "5", "6"]}))
# orders no list can hold; none between 2^31 and 2^60, which may really allocate
@example((["convergent", "--family", "laguerre", "--alpha", "0", "--n", "2",
           "--order", "100000000000000000000"], None))
@example((["convergent", "--family", "laguerre", "--alpha", "0", "--n", "2",
           "--order", str(2 ** 62)], None))
# an n whose convergent alone would take minutes and gigabytes
@example((["convergent", "--family", "laguerre", "--alpha", "0",
           "--n", str(cli.MAX_CONVERGENT_N + 1)], None))
def test_value_fuzz_exits_with_a_documented_code(case):
    argv, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if doc is not None:
            path = pathlib.Path(tmp, "input.json")
            path.write_text(json.dumps(doc))
            argv = argv + ["--input", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in ((0, 1, 2, 3) if argv[0] == "verify" else (0, 2, 3)), argv
    assert "Traceback" not in err.getvalue(), argv
    # only an identity verdict (verify's exit 1) comes with a report
    assert code in (0, 1) or out.getvalue() == "", argv
