"""End-to-end command line behavior: text, json, and latex output,
plus the exit-code contract (0 success, 1 mathematical disagreement or
degeneracy, 2 usage and evaluation errors)."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qortho.cli import _ENCODER, SCHEMA_VERSION, latex_qpoly, latex_xpoly, main
from qortho.exactalg import QPolynomial, QRational
from qortho.momentfamilies import family
from qortho.orthocore import orthopoly_det
from qortho.xpoly import XPolynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestMoments:
    def test_factorial_values_at_one(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--family", "q-factorial:m=0", "--max-n", "3", "--q", "1"
        )
        assert code == 0
        assert out.splitlines() == ["a(0) = 1", "a(1) = 1", "a(2) = 2", "a(3) = 6"]

    def test_geometric_symbolic_powers(self, capsys):
        code, out, _ = run(capsys, "moments", "--family", "geometric-q", "--max-n", "4")
        assert code == 0
        assert out.splitlines()[-1] == "a(4) = q^6"

    def test_catalan_quarters_at_one(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--family", "andrews-q-catalan", "--max-n", "2", "--q", "1"
        )
        assert code == 0
        assert out.splitlines() == ["a(0) = 1", "a(1) = 1/4", "a(2) = 1/8"]

    def test_json_document_round_trips(self, capsys):
        code, doc, _ = run_json(
            capsys, "moments", "--family", "q-central-binomial", "--max-n", "3"
        )
        assert code == 0
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["command"] == "moments"
        assert doc["family"] == "q-central-binomial"
        seq = family("q-central-binomial").moments
        for item in doc["results"]:
            assert QRational.from_json(item["value"]) == seq.moment(item["n"])


class TestOrthopoly:
    def test_determinant_route_text(self, capsys):
        code, out, _ = run(
            capsys,
            "orthopoly", "--family", "q-factorial:m=0",
            "--n", "2", "--method", "det", "--q", "1",
        )
        assert code == 0
        assert out.strip() == "[det] p_2 = x^2 - 4x + 2"

    def test_closed_route_text(self, capsys):
        code, out, _ = run(
            capsys,
            "orthopoly", "--family", "q-double-factorial",
            "--n", "2", "--method", "closed", "--q", "1",
        )
        assert code == 0
        assert out.strip() == "[closed] p_2 = x^2 - 6x + 3"

    def test_all_methods_agree(self, capsys):
        code, out, _ = run(
            capsys,
            "orthopoly", "--family", "geometric-q", "--n", "3", "--all-methods",
        )
        assert code == 0
        assert "agreement: yes" in out
        assert "[recurrence]" in out and "[det]" in out and "[closed]" in out

    def test_all_methods_without_a_closed_form_compares_the_rest(self, capsys):
        code, out, _ = run(
            capsys,
            "orthopoly", "--family", "fibonacci-functional", "--n", "3", "--all-methods",
        )
        assert code == 0
        assert "agreement: yes" in out
        assert "[closed]" not in out

    def test_all_methods_json_ends_with_the_agreement(self, capsys):
        code, doc, _ = run_json(
            capsys, "orthopoly", "--family", "geometric-q", "--n", "3", "--all-methods"
        )
        assert code == 0
        assert [r.get("method") for r in doc["results"]] == ["recurrence", "det", "closed", None]
        assert doc["results"][-1] == {"agreement": True}

    def test_closed_method_without_a_closed_form_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "orthopoly", "--family", "lucas-functional", "--n", "2", "--method", "closed",
        )
        assert code == 2
        assert "closed form" in err

    def test_json_coefficients_reconstruct_the_polynomial(self, capsys):
        code, doc, _ = run_json(
            capsys, "orthopoly", "--family", "q-double-factorial", "--n", "3", "--method", "det"
        )
        assert code == 0
        got = XPolynomial.from_json(doc["results"][0]["polynomial"])
        assert got == orthopoly_det(family("q-double-factorial").moments, 3)

    def test_latex_output(self, capsys):
        code, out, _ = run(
            capsys, "orthopoly", "--family", "q-factorial:m=0", "--n", "2", "--format", "latex"
        )
        assert code == 0
        assert out.startswith("p_{2} = x^{2}")

    def test_latex_of_zero_and_of_a_gapped_polynomial(self):
        assert latex_qpoly(QPolynomial.zero()) == "0"
        assert latex_xpoly(XPolynomial.zero()) == "0"
        assert latex_xpoly(XPolynomial([1, 0, 2])) == "2x^{2}+1"


class TestRecurrence:
    def test_factorial_table_at_one(self, capsys):
        code, out, _ = run(
            capsys, "recurrence", "--family", "q-factorial:m=0", "--max-n", "3", "--q", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s[0] = 1    t[0] = 1    [stieltjes]"
        assert lines[1] == "s[1] = 3    t[1] = 4    [stieltjes]"

    def test_aerated_block_uses_closed_forms_when_available(self, capsys):
        code, out, _ = run(
            capsys, "recurrence", "--family", "q-central-binomial", "--max-n", "2"
        )
        assert code == 0
        assert "T[0] = (1)/(1 + q)    [closed]" in out

    def test_aerated_block_falls_back_to_stieltjes(self, capsys):
        code, out, _ = run(
            capsys, "recurrence", "--family", "q-double-factorial", "--max-n", "2", "--q", "1"
        )
        assert code == 0
        assert "T[0] = 1    [stieltjes]" in out
        assert "T[2] = 3    [stieltjes]" in out

    def test_plain_families_emit_no_aerated_block(self, capsys):
        code, out, _ = run(capsys, "recurrence", "--family", "geometric-q", "--max-n", "2")
        assert code == 0
        assert "T[" not in out

    def test_json_carries_both_sources(self, capsys):
        code, doc, _ = run_json(
            capsys, "recurrence", "--family", "andrews-q-catalan", "--max-n", "2"
        )
        assert code == 0
        assert doc["results"]["source"] == "stieltjes"
        assert doc["results"]["aerated"]["source"] == "closed"
        assert len(doc["results"]["aerated"]["values"]) == 3


class TestTriangle:
    def test_double_factorial_rows_at_one(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--family", "q-double-factorial", "--max-n", "2", "--q", "1"
        )
        assert code == 0
        assert out.splitlines() == ["row 0: 1", "row 1: 1, 1", "row 2: 3, 6, 1"]

    def test_column_zero_lists_the_moments(self, capsys):
        code, doc, _ = run_json(
            capsys, "triangle", "--family", "q-factorial:m=1", "--max-n", "4"
        )
        assert code == 0
        seq = family("q-factorial:m=1").moments
        for row in doc["results"]:
            assert QRational.from_json(row["entries"][0]) == seq.moment(row["n"])


class TestHankel:
    def test_factorial_determinants_at_one(self, capsys):
        code, out, _ = run(
            capsys, "hankel", "--family", "q-factorial:m=0", "--max-n", "3", "--q", "1"
        )
        assert code == 0
        assert out.splitlines() == ["d(0) = 1", "d(1) = 1", "d(2) = 1", "d(3) = 4"]

    def test_vanishing_determinant_is_reported_not_raised(self, capsys):
        code, out, _ = run(
            capsys, "hankel", "--family", "geometric-q", "--max-n", "2", "--q", "1"
        )
        assert code == 0
        assert "d(2) = 0" in out


class TestVerify:
    def test_single_family_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "q-factorial:m=0", "--max-n", "3"
        )
        assert code == 0
        assert "all families verified" in out
        assert "0 mismatched" in out

    def test_whole_registry_at_small_depth(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--max-n", "2")
        assert code == 0
        assert out.count("checks passed") == 19

    def test_family_and_all_are_mutually_exclusive(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "geometric-q", "--all")
        assert code == 2
        assert "exactly one" in err

    def test_needs_a_target(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_json_report(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--family", "geometric-q", "--max-n", "2"
        )
        assert code == 0
        assert doc["results"][0]["ok"] is True


class TestExitCodes:
    def test_unknown_family_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "moments", "--family", "legendre", "--max-n", "2")
        assert code == 2
        assert "legendre" in err

    def test_malformed_family_parameter(self, capsys):
        code, _, err = run(capsys, "moments", "--family", "q-factorial:m=x", "--max-n", "2")
        assert code == 2

    def test_degenerate_specialization_exits_one(self, capsys):
        code, _, err = run(
            capsys, "orthopoly", "--family", "geometric-q", "--n", "2", "--q", "1"
        )
        assert code == 1
        assert "order 2" in err

    def test_degenerate_verify_stops_where_the_recurrence_does(self, capsys):
        code, out, err = run(
            capsys, "verify", "--family", "geometric-q", "--q", "1", "--max-n", "5"
        )
        assert (code, out) == (1, "")
        assert err == "error: Hankel determinant of 'geometric-q@q=1' of order 2 vanishes\n"

    def test_repeated_family_parameter_exits_two(self, capsys):
        code, out, err = run(capsys, "moments", "--family", "q-factorial:m=2,m=3")
        assert (code, out) == (2, "")
        assert err == "error: bad family parameter 'm=3' in 'q-factorial:m=2,m=3'\n"

    def test_pole_exits_two(self, capsys):
        code, _, err = run(
            capsys, "moments", "--family", "q-central-binomial", "--max-n", "1", "--q", "-1"
        )
        assert code == 2
        assert "pole" in err

    def test_unparseable_q_exits_two(self, capsys):
        code, _, err = run(
            capsys, "moments", "--family", "geometric-q", "--max-n", "2", "--q", "2/0"
        )
        assert code == 2

    def test_depth_above_the_hard_cap_exits_two(self, capsys):
        code, _, err = run(capsys, "moments", "--family", "geometric-q", "--max-n", "25")
        assert code == 2
        assert "hard limit" in err

    def test_depth_above_the_soft_cap_warns_but_runs(self, capsys):
        code, out, err = run(capsys, "moments", "--family", "geometric-q", "--max-n", "13")
        assert code == 0
        assert "warning" in err
        assert out.splitlines()[-1].startswith("a(13)")

    def test_missing_subcommand_exits_two(self, capsys):
        assert run(capsys)[0] == 2

    def test_negative_degree_exits_two(self, capsys):
        code, _, err = run(capsys, "orthopoly", "--family", "geometric-q", "--n", "-1")
        assert code == 2


# sha256 of empty output
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (argv, exit code, sha256 of stdout, sha256 of stderr), pinned from a
# known-good build: any change to what a command prints shows up here
_PINNED = [
    (
        "verify --all --max-n 4",
        0,
        "4eb0a97ec98b3841a5fde86eb87c213e8431cc805b82552b64f48ca76dd5fd9b",
        _EMPTY,
    ),
    (
        "verify --all --max-n 4 --q 5/4 --format json",
        0,
        "c97ec103a90c43c9bcfe7c9371d4263a36c99d02a44ff0e0f8d8bdad8ca2ad6b",
        _EMPTY,
    ),
    (
        "verify --family geometric-q --q 1 --max-n 5",
        1,
        _EMPTY,
        "880bb83d30db0849e8f711702ad492896ff818254daff41cb96f4487ae5736f6",
    ),
    (
        "hankel --family andrews-q-catalan --max-n 5 --format json",
        0,
        "10882b296228e83ceea0cb05a5b5da564550118afc65d99b9ab028486d63e1bd",
        _EMPTY,
    ),
    (
        "hankel --family geometric-q --max-n 4 --q 1",
        0,
        "c31e1804c8e1e7b53313dd452a22b7db2dde2310ed64c07834466d6cd03a5687",
        _EMPTY,
    ),
    (
        "orthopoly --family q-central-binomial --n 5 --all-methods --format latex",
        0,
        "0de2ed4490c2c82bc734693311de9cbe9a9749a2fad35c8f1e2b34d7155b9bf0",
        _EMPTY,
    ),
    (
        "orthopoly --family multifactorial:r=2,m=1 --n 4 --method det --format json",
        0,
        "a7c1c218d4eef3370837503083a64551bdc8eafc458c4777efcb4e05dff9e474",
        _EMPTY,
    ),
    (
        "recurrence --family q-double-factorial --max-n 5 --q 3/2",
        0,
        "edaa0ddf2295f20b000b49f4ab538230b7fa2be4cb90a0696ee28ee77ee8b680",
        _EMPTY,
    ),
    (
        "recurrence --family andrews-q-catalan --max-n 4 --format latex",
        0,
        "0819446c71a34f8d873a3ab0102bcc720719a078f1792fcab37b99328e3f1a26",
        _EMPTY,
    ),
    (
        "moments --family lucas-functional --max-n 6 --q=-2/3",
        0,
        "6cb00ab89a488423d2c129a364365fed1736cb7e24f1a80cd10b60045d2d22fd",
        _EMPTY,
    ),
    (
        "triangle --family q-factorial:m=1 --max-n 4 --q 7/3",
        0,
        "8c8a3b355c39c0b22a6f646f3f55e543db94e0ec07e0732b5b176fff18d89ec6",
        _EMPTY,
    ),
    (
        "recurrence --family q-central-binomial --max-n 6 --format json",
        0,
        "8fc619cdff57915116a0f7ddfc75176c3a78d09ed7392102497ef2df04b3c975",
        _EMPTY,
    ),
    (
        "triangle --family andrews-q-catalan --max-n 4 --format json",
        0,
        "ab5d0539096fc4f587195f35520d435f041c335bb6d4456b63583e8fb33cd2a8",
        _EMPTY,
    ),
    (
        "recurrence --family q-double-factorial --max-n 8 --format json",
        0,
        "5de4e774eca60a5f919954575e8c2aec382254ac92cdf01d86bb9f313e4399d6",
        _EMPTY,
    ),
    (
        "recurrence --family andrews-q-catalan --max-n 9 --format json",
        0,
        "209f3d5c6926f892c9b7784ea62ea7f453eed9f60e3189247feedb25095ce2ae",
        _EMPTY,
    ),
    (
        "moments --family andrews-q-catalan --max-n 6 --q 5/4 --format json",
        0,
        "d8dfbb1c6c4ffcdd9f9b2b3e9813eb86aa3bc0802558af7591a358655ffb64a7",
        _EMPTY,
    ),
    (
        "moments --family andrews-q-catalan --max-n 6 --q 5/4 --format latex",
        0,
        "fab209877b0a82dbb30c21852d8548caa370dc22ff4c3423530244f127a52ecc",
        _EMPTY,
    ),
    (
        "orthopoly --family q-central-binomial --n 4 --all-methods --q 3/2 --format latex",
        0,
        "26dcc19a5b0dd4d35f67ce92f1e411aed4e2f2912a745eba756edca161083e9e",
        _EMPTY,
    ),
    (
        "orthopoly --family multifactorial:r=2,m=1 --n 5 --method det --q=-2/3 --format json",
        0,
        "baa8d71f6ce83afa8ffadcc8a898c6a1db994eeeb6f56b7b229d9dae6c80fb15",
        _EMPTY,
    ),
    (
        "recurrence --family q-central-binomial --max-n 5 --q 2/3 --format json",
        0,
        "92ed7a755cc15b729d920faf9c25e4c2ce5ccc358dd4a82555404c4ba7127b5d",
        _EMPTY,
    ),
    (
        "recurrence --family q-double-factorial --max-n 5 --q 5/4 --format json",
        0,
        "b782fc5022808f5a83a659c62015b3b64b1b0ef432b5bd050c4f7df37b6ca1fe",
        _EMPTY,
    ),
    (
        "triangle --family andrews-q-catalan --max-n 4 --q 5/4 --format latex",
        0,
        "573629467b8718532db54afe8dfef36f573fdf98dea75b261ad2f2f1e9437809",
        _EMPTY,
    ),
    (
        "hankel --family q-double-factorial --max-n 6 --q 9/8 --format json",
        0,
        "4aca9104aa00c52939919e7f4ce2ed53e67df44a3de54f69e19755c03709fed6",
        _EMPTY,
    ),
    (
        "verify --all --max-n 6 --q=-2/3 --format json",
        0,
        "18655bd8e1685e057f3fbdbd80f65b99a96433fb9deb0d6ab751e2b3a8dc1e04",
        _EMPTY,
    ),
    (
        "moments --family q-central-binomial --max-n 1 --q=-1",
        2,
        _EMPTY,
        "f5629ca147398b7f8b0e0bc4b55783022483c867bb9c33d613aefbf3f79f11f2",
    ),
    (
        "verify --all --max-n 5 --q 0",
        1,
        _EMPTY,
        "a24aa85c5369dfcc3fd68b340c5eed9fae2f58197e72660f9da762d345dbb938",
    ),
    # a closed form whose point build meets a vanishing denominator at a true pole
    (
        "orthopoly --family andrews-q-catalan --n 3 --method closed --q=-1",
        2,
        _EMPTY,
        "f5629ca147398b7f8b0e0bc4b55783022483c867bb9c33d613aefbf3f79f11f2",
    ),
    # a functional's basis built where its denominators vanish, without a pole
    (
        "moments --family lucas-functional --max-n 12 --q=-1 --format json",
        0,
        "052ff8fcfe37f1d9bd5256c62d7b34f312c15a1bcdfb44ad46adae7b5632ba59",
        _EMPTY,
    ),
    # d_2 and d_3 vanish at this point while d_4 and d_5 do not: only the
    # row exchanges of hankel_direct reach them
    (
        "hankel --family lucas-functional --max-n 7 --q=-1",
        0,
        "d2ecc2e82fa4eaa60d55f8b58b0741379bc48a0b15b2828adde3e9846da19429",
        _EMPTY,
    ),
    # the symbolic text and LaTeX renderings, each built only when it is printed
    (
        "hankel --family andrews-q-catalan --max-n 5",
        0,
        "fa724b843cce36279322a8187d9fd8779aaa3fda1577e79c3934a6a0f57e023b",
        _EMPTY,
    ),
    (
        "hankel --family andrews-q-catalan --max-n 5 --format latex",
        0,
        "52b5661f57170fc4122c99284d6205ba99763e782effe159580fe8cd531f899f",
        _EMPTY,
    ),
    (
        "recurrence --family q-central-binomial --max-n 4",
        0,
        "43349f129d2f7a8276065d82517d2acd5fe1160ab6ec67a2ff76e1336422b902",
        _EMPTY,
    ),
    (
        "triangle --family andrews-q-catalan --max-n 4",
        0,
        "810ce2cf4a9a29ea7e3f133e89f4ecdee250e06ca18a0c7373d53be5dcedf944",
        _EMPTY,
    ),
    (
        "orthopoly --family q-factorial:m=2 --n 4 --method det",
        0,
        "28ade1891afb7ef2449861d8c86a9b6dd265e9feb2d029b327cd96d6c2d1dcca",
        _EMPTY,
    ),
    (
        "orthopoly --family q-factorial:m=2 --n 4 --method det --format latex",
        0,
        "3b04e91395ba4138f4940955760a7cbe3e6b2539000170d707855995669905bf",
        _EMPTY,
    ),
]


@pytest.mark.parametrize("argv, code, out_sha, err_sha", _PINNED, ids=[p[0] for p in _PINNED])
def test_output_is_pinned(capsys, argv, code, out_sha, err_sha):
    got_code, out, err = run(capsys, *shlex.split(argv))
    digest = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
    assert (got_code, *digest) == (code, out_sha, err_sha)


# sha256 of each --help at 80 columns, the same on Python 3.10 to 3.13
_HELP_PINNED = [
    ("", "7468ce239f6248df7dc658f1e10b994cc5f848acdcf52046c50b32fcff6461b8"),
    ("moments", "f26c222fc5c11b4b88eae3de1962b6bfb644c53958fbc6c3c301623fa50d0438"),
    ("orthopoly", "79f8d78718fec125ffd21fe494f611474ebe8344e1e7bcf83da594cb85dc7104"),
    ("recurrence", "562f338cf92f354cac3a4181d9401614a385c6af867750c0c908a08abf510a0a"),
    ("triangle", "8d072888f542ccf17d92c551b074bd060fc24751e6e93d054ee0ebcb07c016e9"),
    ("hankel", "0e99e167c1f1961e7696abf9664a65d44c65e7b1057a9aa0d82d47a09cdce2bd"),
    ("verify", "c2f0e0bd05603835dda94bc78bdec7be9014e7a291d353ed54a3381b7cb2eeae"),
]


@pytest.mark.parametrize(
    "command, out_sha", _HELP_PINNED, ids=[p[0] or "qortho" for p in _HELP_PINNED]
)
def test_help_is_pinned(capsys, monkeypatch, command, out_sha):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, err = run(capsys, *command.split(), "--help")
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, out_sha, "")


# -- the streamed JSON document ---------------------------------------------------------

_DOCUMENTS = [
    "moments --family andrews-q-catalan --max-n 5",
    "hankel --family q-central-binomial --max-n 4",
    "recurrence --family andrews-q-catalan --max-n 4",
    "triangle --family q-double-factorial --max-n 4",
    "orthopoly --family geometric-q --n 3 --all-methods",
    "verify --all --max-n 4",
]


@pytest.mark.parametrize("q", [[], ["--q", "5/4"]], ids=["symbolic", "q=5/4"])
@pytest.mark.parametrize("argv", _DOCUMENTS)
def test_json_is_its_own_indent_two_rendering(capsys, argv, q):
    code, out, err = run(capsys, *shlex.split(argv), *q, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)


def test_json_arrives_in_a_few_writes_none_of_them_whole(monkeypatch):
    # an unbuffered stdout (PYTHONUNBUFFERED) makes each write a system call,
    # so one write per encoder chunk would cost thousands of them
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["verify", "--all", "--max-n", "4", "--format", "json"]) == 0
    doc = "".join(out.writes)
    assert doc == json.dumps(json.loads(doc), indent=2) + "\n"
    assert 1 < len(out.writes) <= 16
    assert max(map(len, out.writes)) < len(doc) // 2


def test_the_encoder_refuses_what_is_not_a_qortho_value():
    assert json.loads(_ENCODER.encode([Fraction(3, 4)])) == [{"num": ["3/4"], "den": ["1"]}]
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        _ENCODER.encode({"value": object()})


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(unbuffered):
    # as `qortho verify ... | head -1`: no traceback, and the exit code 141
    # that a shell reports for a process ended by SIGPIPE
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["verify", "--all", "--max-n", "6", "--q", "5/4", "--format", "json"]
    child = subprocess.Popen(
        [sys.executable, "-m", "qortho.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()  # far more than a pipe buffer is still unwritten
    try:
        _, err = child.communicate(timeout=120)
    finally:
        child.kill()
    assert (child.returncode, err) == (141, b"")
