"""End-to-end command line behavior: text, json, and latex output,
plus the exit-code contract (0 success, 1 mathematical disagreement or
degeneracy, 2 usage and evaluation errors)."""

import json

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
