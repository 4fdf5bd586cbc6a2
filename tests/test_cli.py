"""End-to-end command line behavior: text, json, and latex output,
plus the exit-code contract (0 success, 1 mathematical disagreement or
degeneracy, 2 usage and evaluation errors)."""

import hashlib
import json
import shlex

import pytest

from qortho.cli import SCHEMA_VERSION, main
from qortho.exactalg import QRational
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
]


@pytest.mark.parametrize("argv, code, out_sha, err_sha", _PINNED, ids=[p[0] for p in _PINNED])
def test_output_is_pinned(capsys, argv, code, out_sha, err_sha):
    got_code, out, err = run(capsys, *shlex.split(argv))
    digest = [hashlib.sha256(s.encode()).hexdigest() for s in (out, err)]
    assert (got_code, *digest) == (code, out_sha, err_sha)
