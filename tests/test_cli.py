"""Command line behaviour: exit codes, JSON payloads, corpus runs."""

import io
import json
import os
import shutil
import subprocess
import sys
import time

from random import Random

import pytest

from gitstab.cli import main
from gitstab.degeneration import MAX_FIELD_DIM
from gitstab.poly import print_poly
from helpers import (
    README_CLI_RECORD,
    random_hpoly,
    random_weights,
    readme_cli_examples,
    run_cli,
    run_python,
    solve_stopping_short,
)

UNSTABLE_CUBIC = "z0*z1^2 + z2^2*z3 - z2*z3^2 + z1*z2*z3"
FERMAT = "z0^3 + z1^3 + z2^3 + z3^3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out)


with open(README_CLI_RECORD, encoding="utf-8") as fh:
    README_CLI_ROWS = json.load(fh)


def test_readme_examples_are_all_pinned():
    # Every README example that needs no input file, as text and as JSON, has
    # its exit code and stdout recorded in tests/data; an edited example must
    # be recorded anew (see helpers.record_readme_cli).
    assert [row["argv"] for row in README_CLI_ROWS] == readme_cli_examples()


@pytest.mark.parametrize(
    "row", README_CLI_ROWS, ids=[f"{k}-{r['argv'][0]}" for k, r in enumerate(README_CLI_ROWS)]
)
def test_readme_example_keeps_its_pinned_output(row):
    assert run_cli(row["argv"]) == row["result"]


def test_parse_canonicalizes(capsys):
    code, payload = run_json(capsys, "parse", "-f", "z2*z3^2+z0*z1^2-z2^2*z3")
    assert code == 0
    assert payload == {
        "f": "z0*z1^2 - z2^2*z3 + z2*z3^2",
        "n_vars": 4,
        "degree": 3,
        "terms": 3,
    }


def test_parse_explicit_n_vars(capsys):
    code, payload = run_json(capsys, "parse", "-f", "z0*z1", "-n", "5")
    assert code == 0 and payload["n_vars"] == 5


def test_variable_count_gate(capsys):
    # 256 variables is the limit, explicit or inferred from the highest index
    code, payload = run_json(capsys, "parse", "-f", "z0*z255")
    assert code == 0 and payload["n_vars"] == 256
    for argv in (["stability", "-f", "z0*z1", "-n", "257"], ["stability", "-f", "z0*z256"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: n_vars must be at most 256, got 257\n")


def test_parse_error_exits_two(capsys):
    code, out, err = run(capsys, "parse", "-f", "z0^2 + w1^2")
    assert code == 2 and out == "" and err.startswith("error:")


def test_parse_from_file(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text(FERMAT + "\n")
    code, payload = run_json(capsys, "parse", "--poly-file", str(path))
    assert code == 0 and payload["degree"] == 3


def test_missing_polynomial_exits_two(capsys):
    code, out, err = run(capsys, "parse")
    assert code == 2 and "no polynomial" in err


def test_mu_json(capsys):
    code, payload = run_json(capsys, "mu", "-f", UNSTABLE_CUBIC, "-w=-7,5,1,1")
    assert code == 0
    assert payload == {
        "mu": "3",
        "spectrum": {"3": "z0*z1^2 + z2^2*z3 - z2*z3^2", "7": "z1*z2*z3"},
        "limit": "z0*z1^2 + z2^2*z3 - z2*z3^2",
    }


def test_mu_human_output(capsys):
    code, out, err = run(capsys, "mu", "-f", UNSTABLE_CUBIC, "-w=-7,5,1,1")
    assert code == 0
    assert out.splitlines()[0] == "mu = 3"
    assert "  7: z1*z2*z3" in out.splitlines()


def test_weights_must_parse(capsys):
    code, out, err = run(capsys, "mu", "-f", FERMAT, "-w", "1,oops,0,0")
    assert code == 2 and err.startswith("error:")


def test_exponent_notation_is_refused_at_once(capsys, tmp_path):
    # Read as a Fraction, "1e100000000" is an integer of 10^8 digits that
    # takes minutes to build; the rational gate refuses it unread.
    path = tmp_path / "program.json"
    path.write_text('{"objective": ["1e100000000"], "constraints": []}')
    for argv in (("mu", "-f", "z0*z1", "-w", "1e100000000,0"), ("lp-debug", str(path))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "cannot interpret '1e100000000'" in err, argv


def test_limit(capsys):
    code, payload = run_json(capsys, "limit", "-f", FERMAT, "-w=1,-1,0,0")
    assert code == 0 and payload == {"limit": "z1^3", "mu": "-3"}
    # limit reads the same spectrum as mu: its answer is mu's limit and mu
    rng = Random(4242)
    for _ in range(60):
        n = rng.randint(2, 5)
        f = print_poly(random_hpoly(rng, n, rng.randint(1, 4), 8, den_bound=3))
        w = "-w=" + ",".join(map(str, random_weights(rng, n, bound=5, den_bound=rng.choice((1, 4)))))
        code, limit = run_json(capsys, "limit", "-f", f, "-n", str(n), w)
        assert code == 0
        code, spectrum = run_json(capsys, "mu", "-f", f, "-n", str(n), w)
        assert limit == {"limit": spectrum["limit"], "mu": spectrum["mu"]}, (f, w)


def test_futaki_json(capsys):
    code, payload = run_json(capsys, "futaki", "-f", UNSTABLE_CUBIC, "-w=-7,5,1,1")
    assert code == 0
    assert payload == {"n": 3, "d": 3, "kappa": "3", "futaki": "-8"}


def test_futaki_rejects_nonzero_trace(capsys):
    code, out, err = run(capsys, "futaki", "-f", FERMAT, "-w", "1,0,0,0")
    assert code == 2 and "trace" in err


def test_dash_w_requires_equals_form_for_negatives(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["futaki", "-f", FERMAT, "-w", "-1,1,0,0"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_stability_exit_codes(capsys):
    assert run(capsys, "stability", "-f", FERMAT)[0] == 0
    assert run(capsys, "stability", "-f", "z0*z1 + z2*z3")[0] == 3
    assert run(capsys, "stability", "-f", UNSTABLE_CUBIC)[0] == 4


def test_stability_json_payload(capsys):
    code, payload = run_json(capsys, "stability", "-f", "z0*z1 + z2*z3")
    assert code == 3
    assert payload["class"] == "weakly_stable_not_stable"
    assert payload["fixing_dim"] == 2
    assert payload["mu"] == "0"
    assert payload["basis"] == "given"
    lam = [int(x) for x in payload["destabilizer"]]
    assert lam != [0, 0, 0, 0] and sum(lam) == 0


def test_stability_qualifier_mentions_coordinates(capsys):
    code, out, err = run(capsys, "stability", "-f", FERMAT)
    assert "relative to the given coordinates" in out


def test_stability_explicit_basis_flips_quadric(capsys):
    basis = "[[1,0,0,1],[0,1,0,0],[0,0,1,0],[1,0,0,-1]]"
    f = "z0^2 + z1^2 + z2^2 - z3^2"
    assert run(capsys, "stability", "-f", f)[0] == 0
    code, payload = run_json(capsys, "stability", "-f", f, "--basis", basis)
    assert code == 3
    assert payload["class"] == "weakly_stable_not_stable"
    assert payload["basis"] == [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]]


def test_stability_rejects_bad_basis(capsys):
    code, out, err = run(capsys, "stability", "-f", FERMAT, "--basis", "[[1,0],[0,1]]")
    assert code == 2 and "basis" in err
    code, out, err = run(
        capsys, "stability", "-f", "z0^2 + z1^2", "--basis", "[[1,1],[1,1]]"
    )
    assert code == 2 and err.startswith("error:")


def test_stability_basis_sweep_is_deterministic(capsys):
    args = ("stability", "-f", "z0^2 + z1^2 + z2^2 - z3^2", "--basis-sweep", "6", "--seed", "11")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second


def test_basis_sweep_stops_once_not_weakly_stable(capsys, monkeypatch):
    # Random bases are drawn as they are tried, so a form that is not weakly
    # stable as written draws none.
    import gitstab.cli

    bases, drawn = [], []
    real_substitute, real_draw = gitstab.cli.substitute_integer, gitstab.cli._random_basis

    def substitute_integer(f, basis, den):
        bases.append(basis)
        return real_substitute(f, basis, den)

    def random_basis(rng, n):
        drawn.append(n)
        return real_draw(rng, n)

    monkeypatch.setattr(gitstab.cli, "substitute_integer", substitute_integer)
    monkeypatch.setattr(gitstab.cli, "_random_basis", random_basis)
    for extra in ((), ("--json",)):
        plain = run(capsys, "stability", "-f", UNSTABLE_CUBIC, *extra)
        swept = run(capsys, "stability", "-f", UNSTABLE_CUBIC, "--basis-sweep", "1000", *extra)
        assert plain[0] == 4 and swept == plain
    assert bases == [] and drawn == []
    # Every candidate is still built and validated first.
    singular = "[[1,1,0,0],[1,1,0,0],[0,0,1,0],[0,0,0,1]]"
    code, out, err = run(
        capsys, "stability", "-f", UNSTABLE_CUBIC, "--basis-sweep", "3", "--basis", singular
    )
    assert code == 2 and out == "" and err.startswith("error:")
    # A form that is stable as written is still tried in every basis.
    assert run(capsys, "stability", "-f", FERMAT, "--basis-sweep", "2") == (
        0,
        "class = stable (relative to the given coordinates and 2 tried bases)\nfixing_dim = 0\n",
        "",
    )
    assert len(bases) == len(drawn) == 2


def test_stability_refuses_a_singular_basis(capsys):
    singular = "[[1,1,0,0],[1,1,0,0],[0,0,1,0],[0,0,0,1]]"
    for extra in ((), ("--basis-sweep", "2")):
        code, out, err = run(capsys, "stability", "-f", FERMAT, "--basis", singular, *extra)
        assert (code, out, err) == (2, "", "error: matrix is singular\n")


def test_each_cli_basis_gets_one_rank_test(monkeypatch, capsys):
    # _parse_basis and _random_basis test each basis as it is read or drawn,
    # and the substitution trusts it.
    from gitstab import linalg

    sizes = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: sizes.append(len(rows)) or rank(rows))
    basis = "[[1,1,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
    assert run(capsys, "stability", "-f", FERMAT, "--basis", basis)[0] == 0
    assert sizes == [4]
    sizes.clear()
    assert run(capsys, "stability", "-f", FERMAT, "--basis-sweep", "2", "--seed", "3")[0] == 0
    assert len(sizes) >= 2 and sizes == [4] * len(sizes)


def test_a_constant_term_is_a_usage_error(capsys):
    code, out, err = run(capsys, "mu", "-f", "z0^2 + 3", "-n", "3", "-w=1,2,3")
    assert (code, out, err) == (2, "", "error: constant term 3 has no variable (at position 7)\n")


def test_stability_refuses_a_negative_basis_sweep(capsys):
    code, out, err = run(capsys, "stability", "-f", "z0^2+z1^2", "--basis-sweep", "-1")
    assert (code, out, err) == (2, "", "error: --basis-sweep must be at least 0, got -1\n")
    code, out, err = run(capsys, "stability", "-f", "z0^2+z1^2", "--basis-sweep", "1001")
    assert (code, out, err) == (2, "", "error: --basis-sweep must be at most 1000, got 1001\n")


def test_destabilize(capsys):
    code, payload = run_json(capsys, "destabilize", "-f", UNSTABLE_CUBIC)
    assert code == 4 and payload["destabilizer"] is not None
    code, out, err = run(capsys, "destabilize", "-f", FERMAT)
    assert code == 0 and "no destabilizer" in out


def test_degenerate_from_destabilizer(capsys):
    code, payload = run_json(
        capsys, "degenerate", "-f", UNSTABLE_CUBIC, "--from-destabilizer", "-w=-7,5,1,1"
    )
    assert code == 0
    assert payload["generator"] == ["-24", "12", "0", "0"]
    assert payload["strata"] == {"0": "z0*z1^2 + z2^2*z3 - z2*z3^2", "12": "z1*z2*z3"}
    assert payload["futaki"] == "-8"
    assert payload["trivial"] is False
    assert payload["normalized_generator"] == [-7, 5, 1, 1]


def test_degenerate_diagonal_field_human(capsys):
    code, out, err = run(
        capsys, "degenerate", "-f", FERMAT, "--field", "diag:1/2,1/3,0,-1/6"
    )
    assert code == 0
    lines = out.splitlines()
    assert "s_rescale = 2" in lines
    assert any(l.startswith("  s^4: z0^3") for l in lines)
    assert "trivial = False" in lines


def test_degenerate_matrix_field(capsys):
    rows = "[[0,1,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]]"
    code, payload = run_json(capsys, "degenerate", "-f", FERMAT, "--field", rows)
    assert code == 0
    assert payload["basis"] is not None
    assert payload["futaki"] == "8/3"


def test_degenerate_requires_a_field(capsys):
    code, out, err = run(capsys, "degenerate", "-f", FERMAT)
    assert code == 2 and "--field or --from-destabilizer" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--from-destabilizer", "-w=1,-1,0,0", "--field", "diag:1,0,0,-1"), "exclude each other"),
        (("--field", "diag:1,0,0,-1", "-w=5,5,5,5"), "-w is read only with --from-destabilizer"),
    ],
    ids=["destabilizer-and-field", "field-and-weights"],
)
def test_degenerate_refuses_an_input_it_would_ignore(capsys, flags, message):
    code, out, err = run(capsys, "degenerate", "-f", FERMAT, *flags)
    assert code == 2 and message in err and out == ""


def test_degenerate_empty_field_is_a_malformed_field(capsys):
    code, out, err = run(capsys, "degenerate", "-f", FERMAT, "--field", "")
    assert code == 2 and out == "" and err.startswith("error: malformed field matrix: ")


def test_degenerate_refuses_a_field_above_the_dimension_limit(capsys):
    n = MAX_FIELD_DIM + 1
    rows = json.dumps([[(i * n + j) % 7 - 3 for j in range(n)] for i in range(n)])
    start = time.perf_counter()
    code, out, err = run(capsys, "degenerate", "-f", "z0^2", "-n", str(n), "--field", rows)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: a non-diagonal field on {n} variables is above the {MAX_FIELD_DIM} limit\n"
    diagonal = "diag:" + ",".join(["1"] + ["0"] * (n - 1))
    assert run(capsys, "degenerate", "-f", "z0^2", "-n", str(n), "--field", diagonal)[0] == 0


def test_degenerate_nilpotent_obstruction_exits_two(capsys):
    rows = "[[0,1,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]"
    code, out, err = run(capsys, "degenerate", "-f", "z0*z1^2 + z2^2*z3", "--field", rows)
    assert code == 2 and "nilpotent" in err


def test_crosscheck_agreement_exit_zero(capsys):
    code, payload = run_json(capsys, "crosscheck", "-f", FERMAT, "--bound", "2")
    assert code == 0
    assert payload["agreement"] is True and payload["violations"] == []


def test_crosscheck_disagreement_exit_five(capsys):
    f = "z0^3 + z0^2*z3 + z0*z2^2 + z1^2*z3"
    code, out, err = run(capsys, "crosscheck", "-f", f, "--bound", "1")
    assert code == 5
    assert "agreement = False" in out
    code, payload = run_json(capsys, "crosscheck", "-f", f, "--bound", "2")
    assert code == 0 and payload["agreement"] is True


def test_crosscheck_human_lists_violations(capsys):
    code, out, err = run(capsys, "crosscheck", "-f", UNSTABLE_CUBIC, "--bound", "3")
    assert code == 0
    assert "violation negative_futaki" in out or "violation zero_futaki_nontrivial" in out


def _corpus_lines():
    return [
        json.dumps({"f": FERMAT, "n_vars": 4}),
        json.dumps({"f": "z0*z1 + z2*z3", "n_vars": 4}),
        json.dumps({"f": UNSTABLE_CUBIC, "n_vars": 4}),
    ]


def test_corpus_single_worker(capsys, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(_corpus_lines()) + "\n")
    code, out, err = run(capsys, "corpus", str(path), "--workers", "1")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert [r["class"] for r in rows] == [
        "stable",
        "weakly_stable_not_stable",
        "not_weakly_stable",
    ]
    # corpus always prints JSON and takes no --json flag.
    with pytest.raises(SystemExit) as exc:
        main(["corpus", str(path), "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_corpus_refuses_fewer_than_one_worker(capsys, monkeypatch, workers):
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(_corpus_lines()) + "\n"))
    code, out, err = run(capsys, "corpus", "-", "--workers", workers)
    assert (code, out, err) == (2, "", f"error: --workers must be at least 1, got {workers}\n")


def test_corpus_reports_bad_rows(capsys, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(_corpus_lines() + [json.dumps({"n_vars": 4})]) + "\n")
    code, out, err = run(capsys, "corpus", str(path), "--workers", "1")
    assert code == 2
    rows = [json.loads(l) for l in out.splitlines()]
    assert len(rows) == 4 and "error" in rows[3]


@pytest.mark.parametrize("n_vars", [3.7, "2", True])
def test_corpus_rejects_a_non_integer_n_vars(capsys, tmp_path, n_vars):
    # int() would read 3.7 as 3, "2" as 2 and true as 1
    bad = json.dumps({"f": "z0*z1", "n_vars": n_vars})
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([_corpus_lines()[0], bad]) + "\n")
    code, out, err = run(capsys, "corpus", str(path), "--workers", "1")
    assert code == 2
    rows = [json.loads(l) for l in out.splitlines()]
    assert rows[0]["class"] == "stable"
    assert rows[1] == {
        "error": f"n_vars must be a JSON integer, got {json.dumps(n_vars)}",
        "line": bad,
    }


def test_corpus_rejects_too_many_variables(capsys, tmp_path):
    big = json.dumps({"f": "z0*z1", "n_vars": 257})
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join([big, _corpus_lines()[0]]) + "\n")
    code, out, err = run(capsys, "corpus", str(path), "--workers", "1")
    assert code == 2
    rows = [json.loads(l) for l in out.splitlines()]
    assert rows[0] == {"error": "n_vars must be at most 256, got 257", "line": big}
    assert rows[1]["class"] == "stable"


def test_corpus_parallel_matches_serial(capsys, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(_corpus_lines() * 3) + "\n")
    code_s, out_s, _ = run(capsys, "corpus", str(path), "--workers", "1")
    code_p, out_p, _ = run(capsys, "corpus", str(path), "--workers", "2")
    assert code_s == code_p == 0 and out_s == out_p


def test_corpus_internal_error_stays_on_its_line(capsys, tmp_path, monkeypatch):
    import gitstab.cli

    lines = _corpus_lines()
    real = gitstab.cli.classify_torus

    def faulty(f):
        if len(f.terms) == 2:  # the middle line, z0*z1 + z2*z3
            raise RuntimeError("internal check failed")
        return real(f)

    monkeypatch.setattr(gitstab.cli, "classify_torus", faulty)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "corpus", str(path), "--workers", "1")
    assert code == 2 and err == ""
    rows = [json.loads(l) for l in out.splitlines()]
    assert len(rows) == 3
    assert rows[0]["class"] == "stable" and rows[2]["class"] == "not_weakly_stable"
    assert rows[1] == {"error": "internal check failed", "line": lines[1]}


def test_internal_error_exits_six(capsys, monkeypatch):
    import gitstab.cli

    def faulty(f):
        raise RuntimeError("internal check failed")

    monkeypatch.setattr(gitstab.cli, "classify_torus", faulty)
    code, out, err = run(capsys, "stability", "-f", FERMAT)
    assert (code, out, err) == (6, "", "internal error: internal check failed\n")


SEMI = "z0^2 + z0*z1"  # solves the decision, strict and cone programs


def test_cone_program_short_of_the_cap_exits_six(capsys, monkeypatch):
    import gitstab.lp

    monkeypatch.setattr(gitstab.lp, "solve", solve_stopping_short(gitstab.lp.solve, 3))
    code, out, err = run(capsys, "stability", "-f", SEMI)
    assert (code, out) == (6, "")
    assert err == "internal error: cone and decision programs disagree\n"


def test_cone_program_short_of_the_cap_is_its_corpus_line_error(capsys, monkeypatch, tmp_path):
    import gitstab.lp

    monkeypatch.setattr(gitstab.lp, "solve", solve_stopping_short(gitstab.lp.solve, 3))
    lines = [json.dumps({"f": SEMI, "n_vars": 2})] + _corpus_lines()
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "corpus", str(path), "--workers", "1")
    assert code == 2 and err == ""
    rows = [json.loads(l) for l in out.splitlines()]
    assert rows[0] == {
        "error": "cone and decision programs disagree",
        "line": lines[0],
    }
    assert [r["class"] for r in rows[1:]] == [
        "stable",
        "weakly_stable_not_stable",
        "not_weakly_stable",
    ]


def test_oversized_basis_change_exits_two_quickly(capsys):
    # Expanding z0^800 + z1^800 in the swap field's eigenbasis took 11 s
    # before the substitution was bounded, and drawing and rank-testing one
    # random basis in 256 variables took 16 s before the bound was checked
    # ahead of every basis.
    big = "z0^800 + z1^800"
    wide = " + ".join(f"z{i}^2" for i in range(256))
    for argv, work in (
        (("degenerate", "-f", big, "--field", "[[0,1],[1,0]]"), 1283202),
        (("stability", "-f", big, "--basis", "[[1,1],[1,-1]]"), 1283202),
        (("stability", "-f", wide, "--basis-sweep", "1"), 25264128),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err == (
            f"error: substitution needs about {work} coefficient products, "
            "above the 200000 limit\n"
        )


def test_corpus_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(_corpus_lines()[0] + "\n"))
    code, out, err = run(capsys, "corpus", "-", "--workers", "1")
    assert code == 0 and json.loads(out)["class"] == "stable"


def test_corpus_prints_each_row_when_it_is_ready(capsys, tmp_path, monkeypatch):
    # A line that aborts the run must not take the rows before it along.
    import gitstab.cli

    real = gitstab.cli.classify_torus
    calls = []

    def third_line_runs_out_of_memory(f):
        calls.append(f)
        if len(calls) == 3:
            raise MemoryError
        return real(f)

    monkeypatch.setattr(gitstab.cli, "classify_torus", third_line_runs_out_of_memory)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(_corpus_lines()) + "\n")
    with pytest.raises(MemoryError):
        main(["corpus", str(path), "--workers", "1"])
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["class"] for r in rows] == ["stable", "weakly_stable_not_stable"]


def test_corpus_pool_never_outgrows_the_work(capsys, tmp_path, monkeypatch):
    # A fake pool that maps inline: no process is started, whatever is asked.
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(_corpus_lines()) + "\n")
    code, out, err = run(capsys, "corpus", str(path), "--workers", "1000000")
    assert code == 0 and len(out.splitlines()) == 3
    assert sizes == [3]


def test_lp_debug_prints_pivots(capsys, tmp_path):
    path = tmp_path / "program.json"
    path.write_text(
        json.dumps(
            {
                "objective": [1, 1],
                "constraints": [[[1, 2], "<=", 4], [[3, 1], "<=", 6]],
            }
        )
    )
    code, out, err = run(capsys, "lp-debug", str(path))
    assert code == 0
    assert "pivot 0: phase 2" in out
    assert "status = optimal" in out
    assert "value = 14/5" in out
    assert "witness = (8/5, 6/5)" in out


def test_lp_debug_pins_the_worked_cubic_pivot_trace(capsys, tmp_path):
    # The capped cone program classify_torus solves for the worked cubic:
    # trace zero, every support weight >= 0, total weight <= 1.  The expected
    # text is the trace of the dense Fraction tableau, so any change to the
    # pivot order or to a single tableau entry shows here.
    total = [1, 3, 4, 4]
    support = [[1, 2, 0, 0], [0, 1, 1, 1], [0, 0, 2, 1], [0, 0, 1, 2]]
    constraints = [[[1, 1, 1, 1], "=", 0]] + [[g, ">=", 0] for g in support]
    path = tmp_path / "cone.json"
    path.write_text(
        json.dumps({"objective": total, "constraints": constraints + [[total, "<=", 1]]})
    )
    expected = os.path.join(os.path.dirname(__file__), "data", "lp_debug_worked_cubic.txt")
    with open(expected) as fh:
        want = fh.read()
    code, out, err = run(capsys, "lp-debug", str(path))
    assert code == 0 and err == ""
    assert out == want


@pytest.mark.parametrize(
    "spec, message",
    [
        ({}, "'objective' and 'constraints'"),
        ({"objective": [1, 1]}, "'objective' and 'constraints'"),
        ([[1, 1], []], "'objective' and 'constraints'"),
        ({"objective": 1, "constraints": []}, "must be JSON arrays"),
        ({"objective": [1, 1], "constraints": [[[1, 2], "<="]]}, "[row, rel, rhs] triple"),
        ({"objective": [1, 1], "constraints": [[1, "<=", 4]]}, "[row, rel, rhs] triple"),
        ({"objective": [1, None], "constraints": []}, "cannot interpret None"),
    ],
)
def test_lp_debug_malformed_program_exits_two(capsys, tmp_path, spec, message):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "lp-debug", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


_CLI_WITHOUT_SYMPY = (
    "import sys\n"
    "from gitstab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.exit(99 if 'sympy' in sys.modules else code)\n"
)


def test_degenerate_field_imports_no_sympy():
    def degenerate(field):
        argv = ("degenerate", "-f", FERMAT, "--field", field, "--json")
        return run_python("-c", _CLI_WITHOUT_SYMPY, *argv)

    proc = degenerate("[[0,1,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]]")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["futaki"] == "8/3"
    proc = degenerate("[[0,2,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]]")  # eigenvalues +-sqrt(2)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "irrational eigenvalues" in proc.stderr


@pytest.mark.parametrize(
    "entry, shown",
    [("null", "None"), ("0.5", "0.5"), ('"1/0"', "'1/0'"), ("true", "True")],
)
def test_malformed_matrix_entries_exit_two(capsys, tmp_path, entry, shown):
    message = f"cannot interpret {shown} as a rational number"
    field = f"[[1,{entry}],[0,1]]"
    code, out, err = run(capsys, "degenerate", "-f", "z0^3 + z1^3", "--field", field)
    assert code == 2 and out == "" and err.startswith("error:") and message in err
    basis = f"[[{entry},0],[0,1]]"
    code, out, err = run(capsys, "stability", "-f", "z0^2 + z1^2", "--basis", basis)
    assert code == 2 and out == "" and err.startswith("error:") and message in err
    path = tmp_path / "program.json"
    path.write_text(f'{{"objective": [1, {entry}], "constraints": []}}')
    code, out, err = run(capsys, "lp-debug", str(path))
    assert code == 2 and out == "" and err.startswith("error:") and message in err


# Nested far past the interpreter's recursion limit; argv cannot carry this
# much, so these run in-process.
_TOO_DEEP = "[" * 100_000 + "]" * 100_000


def test_json_nested_too_deep_exits_two(capsys, tmp_path):
    path = tmp_path / "program.json"
    path.write_text(_TOO_DEEP)
    for argv in (
        ("degenerate", "-f", "z0^3 + z1^3", "--field", _TOO_DEEP),
        ("stability", "-f", "z0^2 + z1^2", "--basis", _TOO_DEEP),
        ("lp-debug", str(path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "recursion" in err, argv


def test_corpus_row_nested_too_deep_stays_on_its_line(capsys, monkeypatch):
    good = _corpus_lines()[0]
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{_TOO_DEEP}\n{good}\n"))
    code, out, err = run(capsys, "corpus", "-", "--workers", "1")
    assert code == 2 and err == ""
    rows = [json.loads(l) for l in out.splitlines()]
    assert len(rows) == 2 and rows[0]["line"] == _TOO_DEEP
    assert "recursion" in rows[0]["error"]
    assert rows[1]["class"] == "stable"


def test_stability_run_imports_no_multiprocessing():
    script = (
        "import sys\n"
        "from gitstab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.exit(98 if 'multiprocessing' in sys.modules else code)\n"
    )
    proc = run_python("-c", script, "stability", "-f", FERMAT, "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["class"] == "stable"


# Modules that `import gitstab` must load: the benchmark tracer wraps their
# functions, and start-up must still load every one of them eagerly.
_TRACED_MODULES = (
    "poly", "lp", "linalg", "stability", "boxscan", "degeneration", "futaki", "vfield", "weights"
)
_NOT_AT_START_UP = ("dataclasses", "inspect", "logging")


def test_cli_import_loads_no_dataclasses_inspect_or_logging():
    script = f"import sys, gitstab.cli\nprint([m for m in {_NOT_AT_START_UP!r} if m in sys.modules])"
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_stability_run_loads_no_dataclasses_inspect_or_logging(monkeypatch):
    # The unstable cubic reaches the LP's DEBUG call, which must not import logging.
    monkeypatch.delenv("GITSTAB_LOG", raising=False)
    script = (
        "import sys\n"
        "from gitstab.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"sys.exit(97 if any(m in sys.modules for m in {_NOT_AT_START_UP!r}) else code)\n"
    )
    proc = run_python("-c", script, "stability", "-f", UNSTABLE_CUBIC, "--json")
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout)["destabilizer"] == [-7, 5, 1, 1]
    assert proc.stderr == ""


def test_package_import_loads_every_traced_module():
    script = (
        "import sys, gitstab\n"
        f"print([m for m in {_TRACED_MODULES!r} if 'gitstab.' + m not in sys.modules])"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = run_python("-m", "gitstab", "stability", "-f", FERMAT, "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"] == "stable"


def test_log_env_var_enables_debug_output(monkeypatch):
    rows = "[[0,1,0,0],[1,0,0,0],[0,0,0,0],[0,0,0,0]]"
    monkeypatch.setenv("GITSTAB_LOG", "DEBUG")
    proc = run_python("-m", "gitstab", "degenerate", "-f", FERMAT, "--field", rows)
    assert proc.returncode == 0
    assert "eigenbasis" in proc.stderr
    assert proc.stderr.startswith(
        "DEBUG gitstab.degeneration: rewrote polynomial in an eigenbasis; weights "
    )
    monkeypatch.setenv("GITSTAB_LOG", "")
    quiet = run_python("-m", "gitstab", "degenerate", "-f", FERMAT, "--field", rows)
    assert quiet.returncode == 0 and "eigenbasis" not in quiet.stderr


def test_crosscheck_disagreement_warns_without_log_setting(monkeypatch):
    # The LP side is forced to "stable" on an unstable form, so the box
    # finds violations the LP denies.
    monkeypatch.delenv("GITSTAB_LOG", raising=False)
    script = (
        "import sys\n"
        "from gitstab import stability\n"
        "stable = stability.StabilityVerdict(stability.STABLE, None, 0, None)\n"
        "stability.classify_torus = lambda f: stable\n"
        "from gitstab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = run_python("-c", script, "crosscheck", "-f", UNSTABLE_CUBIC, "--bound", "2", "--json")
    assert proc.returncode == 5, proc.stderr
    assert json.loads(proc.stdout)["agreement"] is False
    assert proc.stderr == (
        "WARNING gitstab.degeneration: crosscheck disagreement: "
        "LP says weakly_stable=True, box says False\n"
    )


@pytest.mark.skipif(shutil.which("gitstab") is None, reason="console script not installed")
def test_console_script_installed():
    proc = subprocess.run(
        ["gitstab", "futaki", "-f", UNSTABLE_CUBIC, "-w=-7,5,1,1", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["futaki"] == "-8"
