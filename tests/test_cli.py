import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import starkit
from starkit import cli
from starkit.cli import main
from starkit.corpus import CORPUS_VERSION
from starkit.parsing import (MAX_COEFF_BITS, MAX_DEGREE, MAX_LITERAL_DIGITS,
                             MAX_NESTING, MAX_TERMS)

from conftest import fixture_path

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_star_pinned_output(capsys):
    code, out, _ = run(capsys, "star", "--form", "omega0",
                       "--order", "3", "z1", "z2")
    assert code == 0
    assert out == "z1*z2 - 1/2*i*h\n"


def test_star_with_series_inputs(capsys):
    code, out, _ = run(capsys, "star", "--order", "4", "h*z1", "h*z2")
    assert code == 0
    assert out == "z1*z2*h^2 - 1/2*i*h^3\n"


def test_star_in_dim_four(capsys):
    code, out, _ = run(capsys, "star", "--form", "omega0x2",
                       "--order", "2", "z1*z3", "z4")
    assert code == 0
    assert out == "z1*z3*z4 - 1/2*i*z1*h\n"


def test_bracket(capsys):
    code, out, _ = run(capsys, "bracket", "z1", "z2")
    assert (code, out) == (0, "-1\n")
    # q/p aliases are accepted on input; output uses the z names
    code, out, _ = run(capsys, "bracket", "--form", "omega0x2",
                       "q2^2*p2", "q2")
    assert (code, out) == (0, "z3^2\n")


def test_verify_dq_passes(capsys):
    code, out, _ = run(capsys, "verify-dq", "--form", "omega0",
                       "--order", "6", "--seed", "42")
    assert code == 0
    assert out.rstrip().endswith("pass")
    assert "[FAIL]" not in out


def test_surface_ingest_pinned_lines(capsys):
    code, out, _ = run(capsys, "surface-ingest", fixture_path("octagon.json"))
    assert (code, out) == (0, "genus 2, zeros [order 2], sum 2 = 2g-2\n")
    code, out, _ = run(capsys, "surface-ingest", fixture_path("square.json"))
    assert (code, out) == (0, "genus 1, zeros [], sum 0 = 2g-2\n")


def test_surface_ingest_malformed_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "open.json"
    bad.write_text(json.dumps({
        "edges": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-2"]],
        "pairing": [[0, 2], [1, 3]],
    }))
    code, _, err = run(capsys, "surface-ingest", str(bad))
    assert code == 2
    assert "does not close" in err

    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "surface-ingest", str(missing))
    assert code == 2

    notjson = tmp_path / "garbage.json"
    notjson.write_text("{not json")
    code, _, err = run(capsys, "surface-ingest", str(notjson))
    assert code == 2


def test_patch_check_square(capsys):
    code, out, _ = run(capsys, "patch-check", "--surface",
                       fixture_path("square.json"), "--order", "4",
                       "--count", "1")
    assert code == 0
    assert out.rstrip().endswith("pass")


def test_product_star_reports_delta(capsys):
    code, out, _ = run(capsys, "product-star", "--rank", "2", "--genus", "2",
                       "--order", "2", "q1", "p1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta = 5 (2*delta = 10 coordinates)"
    assert lines[1] == "q1*p1 - 1/2*i*h"
    code, out, _ = run(capsys, "product-star", "--rank", "1", "--genus", "2",
                       "--order", "2", "q1", "p2")
    assert code == 0
    assert out.splitlines()[0] == "delta = 2 (2*delta = 4 coordinates)"


@pytest.mark.parametrize("rank, genus, f, g, expected", [
    ("3", "3", "q1^3*p1^3+q2*p19^2", "q1^3*p1^3+q19^3*p2", [
        "delta = 19 (2*delta = 38 coordinates)",
        "q1^6*p1^6 + q1^3*p1^3*p2*q19^3 + q1^3*p1^3*q2*p19^2"
        " + q2*p2*q19^3*p19^2"
        " + (3*i*q2*p2*q19^2*p19 - 1/2*i*q19^3*p19^2)*h"
        " + (45/4*q1^4*p1^4 - 3/2*q2*p2*q19 + 3/2*q19^2*p19)*h^2"
        " + 3/4*i*q19*h^3 + 27/2*q1^2*p1^2*h^4 + 9/16*h^6"]),
    ("4", "2", "q17^3*p17^3+q1^2*p2", "q17^3*p17^3+p1*q2^2", [
        "delta = 17 (2*delta = 34 coordinates)",
        "q17^6*p17^6 + q1^2*p2*q17^3*p17^3 + p1*q2^2*q17^3*p17^3"
        " + q1^2*p1*q2^2*p2 + (i*q1^2*p1*q2 - i*q1*q2^2*p2)*h"
        " + (45/4*q17^4*p17^4 + q1*q2)*h^2 + 27/2*q17^2*p17^2*h^4"
        " + 9/16*h^6"]),
], ids=["delta19", "delta17"])
def test_product_star_in_the_papers_delta_range(capsys, rank, genus, f, g,
                                                expected):
    # Sym^delta(T*X) at delta = r^2 (g - 1) + 1 = 19 and 17, order 8
    code, out, _ = run(capsys, "product-star", "--rank", rank,
                       "--genus", genus, f, g)
    assert (code, out.splitlines()) == (0, expected)


def test_product_star_conflicting_n(capsys):
    code, _, err = run(capsys, "product-star", "--n", "3", "--rank", "2",
                       "--genus", "2", "q1", "p1")
    assert code == 2
    assert "conflicts" in err


def test_symmetrize(capsys):
    code, out, _ = run(capsys, "symmetrize", "--n", "2", "p1")
    assert (code, out) == (0, "1/2*p1 + 1/2*p2\n")


def test_symmetrize_at_the_copy_limit(capsys):
    # q1*p2 has two distinct blocks and seven empty ones: 9!/7! = 72 images
    code, out, _ = run(capsys, "symmetrize", "--n", "9", "q1*p2")
    terms = out.rstrip("\n").split(" + ")
    assert code == 0
    assert len(terms) == 72
    assert len(set(terms)) == 72
    assert all(t.startswith("1/72*") for t in terms)


def test_symmetrize_needs_a_copy(capsys):
    code, out, err = run(capsys, "symmetrize", "--n", "0", "1")
    assert (code, out, err) == (2, "", "error: need at least one copy\n")


@pytest.mark.parametrize("argv", [
    ["verify-dq"],
    ["patch-check", "--surface", fixture_path("square.json")],
    ["verify-transport", "--map", fixture_path("shear_map.json")],
])
@pytest.mark.parametrize("count", ["0", "-1"])
def test_count_below_one_is_exit_2(capsys, argv, count):
    # zero generated cases would be a pass with no check run
    code, out, err = run(capsys, *argv, "--count", count)
    assert (code, out) == (2, "")
    assert err == f"error: --count must be at least 1, got {count}\n"


OVER = str(cli.MAX_ORDER + 1)
ORDER_OVER = f"--order {OVER} is over the limit of {cli.MAX_ORDER}"


def nested(levels: int) -> str:
    return "(" * levels + "z1" + ")" * levels


@pytest.mark.parametrize("argv, message", [
    (["star", "--order", OVER, "z1", "z2"], ORDER_OVER),
    (["verify-dq", "--count", "1", "--order", OVER], ORDER_OVER),
    (["patch-check", "--surface", fixture_path("square.json"),
      "--order", OVER], ORDER_OVER),
    (["product-star", "--n", "1", "--order", OVER, "q1", "p1"], ORDER_OVER),
    (["transport", "--map", fixture_path("shear_map.json"),
      "--order", OVER, "z1", "z2"], ORDER_OVER),
    (["verify-transport", "--map", fixture_path("shear_map.json"),
      "--count", "1", "--order", OVER], ORDER_OVER),
    (["product-star", "--n", str(cli.MAX_COPIES + 1), "q1", "p1"],
     f"{cli.MAX_COPIES + 1} copies is over the limit of {cli.MAX_COPIES}"),
    # delta = 2^2 (17 - 1) + 1 = 65, one over the copy limit
    (["product-star", "--rank", "2", "--genus", "17", "q1", "p1"],
     f"65 copies is over the limit of {cli.MAX_COPIES}"),
    (["symmetrize", "--n", str(cli.MAX_SYMMETRIZE_COPIES + 1), "q1"],
     f"symmetrize --n {cli.MAX_SYMMETRIZE_COPIES + 1} is over the limit "
     f"of {cli.MAX_SYMMETRIZE_COPIES}"),
    (["bracket", "--form", fixture_path("form_dim17.json"), "z1", "z2"],
     f"form dimension 17 is over the limit of {cli.MAX_FORM_DIM}"),
    (["verify-dq", "--count", str(cli.MAX_COUNT + 1)],
     f"--count {cli.MAX_COUNT + 1} is over the limit of {cli.MAX_COUNT}"),
    (["patch-check", "--surface", fixture_path("square.json"),
      "--count", "10000000"],
     f"--count 10000000 is over the limit of {cli.MAX_COUNT}"),
    (["verify-transport", "--map", fixture_path("shear_map.json"),
      "--count", str(cli.MAX_COUNT + 1)],
     f"--count {cli.MAX_COUNT + 1} is over the limit of {cli.MAX_COUNT}"),
    # the parser's recursion stops at its nesting limit, not the
    # interpreter's
    (["star", nested(MAX_NESTING + 1), "z2"],
     f"syntax error at column {MAX_NESTING + 1}: parentheses nested "
     f"deeper than {MAX_NESTING} levels"),
    (["star", nested(200), "z2"],
     f"syntax error at column {MAX_NESTING + 1}: parentheses nested "
     f"deeper than {MAX_NESTING} levels"),
    # "^" is refused by the degree it would reach, before expanding
    (["bracket", f"z1^{MAX_DEGREE + 1}", "z2"],
     f"syntax error at column 4: degree {MAX_DEGREE + 1} is over the "
     f"limit of {MAX_DEGREE}"),
    (["bracket", "(z1+z2+1)^120", "z1"],
     f"syntax error at column 11: degree 120 is over the limit of "
     f"{MAX_DEGREE}"),
    (["star", "z1^99999999", "z2"],
     f"syntax error at column 4: degree 99999999 is over the limit of "
     f"{MAX_DEGREE}"),
    # coefficients stay below the interpreter's int/str digit limit: a
    # constant power by its estimated size, a literal by its length, and
    # a product of allowed powers when it is printed
    (["bracket", "2^20000*z1", "z2"],
     f"syntax error at column 3: coefficients of about 40000 bits are "
     f"over the limit of {MAX_COEFF_BITS}"),
    (["star", "z1^" + "9" * 5000, "z2"],
     f"syntax error at column 4: integer literal of 5000 digits is over "
     f"the limit of {MAX_LITERAL_DIGITS}"),
    (["bracket", "2^4000*2^4000*2^4000*2^4000*z1", "z2"],
     f"a coefficient has over {sys.get_int_max_str_digits()} digits, too "
     f"many to print"),
])
def test_oversized_request_is_exit_2(capsys, argv, message):
    # refused before any series, product space or permutation is built
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


SIX_PAIRS = "(" + "+".join(f"q{i}+p{i}" for i in range(1, 7)) + ")"


@pytest.mark.parametrize("f, message", [
    # 12 terms to the 10th: C(21, 10) multisets, C(22, 12) monomials
    (f"{SIX_PAIRS}^10", f"syntax error at column 39: up to 352716 terms "
                        f"is over the limit of {MAX_TERMS}"),
    # at degree 64: about 4.9e12 monomials of degree at most 64
    (f"{SIX_PAIRS}^64", f"syntax error at column 39: up to 4898229264825 "
                        f"terms is over the limit of {MAX_TERMS}"),
    # 1365 times 1365 term products, C(20, 12) monomials of degree 8
    (f"{SIX_PAIRS}^4*{SIX_PAIRS}^4", f"syntax error at column 40: up to "
                                     f"125970 terms is over the limit of "
                                     f"{MAX_TERMS}"),
], ids=["power", "power-at-degree-limit", "product"])
def test_term_count_is_refused_before_expanding(capsys, f, message):
    # the bound is checked before anything is expanded, so the refusal
    # is quick; expanded, the 10th power alone has 352716 terms
    start = time.perf_counter()
    code, out, err = run(capsys, "product-star", "--n", "6", "--order", "1",
                         f, "p1")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_degree_at_the_limit_parses(capsys):
    code, out, err = run(capsys, "bracket", f"z1^{MAX_DEGREE}", "z2")
    assert (code, out, err) == (0, f"-{MAX_DEGREE}*z1^{MAX_DEGREE - 1}\n",
                                "")


def test_nesting_at_the_limit_parses(capsys):
    code, out, err = run(capsys, "star", "--order", "2", nested(MAX_NESTING),
                         "z2")
    assert (code, out, err) == (0, "z1*z2 - 1/2*i*h\n", "")


@pytest.mark.parametrize("argv, data, message", [
    (["verify-transport", "--map"],
     {"dim": 2, "degree_bound": 1, "forward": [1, "z2"],
      "inverse": ["z1", "z2"]},
     "map forward must be a list of strings"),
    (["transport", "--map"],
     {"dim": 2, "degree_bound": 1, "forward": ["z1", "z2"],
      "inverse": "z1"},
     "map inverse must be a list of strings"),
    (["patch-check", "--surface"],
     {"edges": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
      "pairing": [[0]]},
     "pairing entries must be [i, j] pairs"),
    (["surface-ingest"],
     {"edges": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
      "pairing": 3},
     "surface pairing must be a list"),
    (["surface-ingest"], {"edges": 3, "pairing": []},
     "surface edges must be a list"),
    (["transport", "--map"],
     {"dim": 3, "degree_bound": 1, "forward": ["z1", "z2"],
      "inverse": ["z1", "z2"]},
     "map declares dim 3 but forward has 2 components"),
    (["surface-ingest"],
     {"edges": [["1" + "0" * 5000, "0"], ["0", "1"], ["-1", "0"],
                ["0", "-1"]],
      "pairing": [[0, 2], [1, 3]]},
     "rational literal of 5001 characters is too long"),
])
def test_malformed_map_or_pairing_is_exit_2(capsys, tmp_path, argv, data,
                                            message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    extra = ["z1", "z2"] if argv[0] == "transport" else []
    code, out, err = run(capsys, *argv, str(path), *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# every JSON file goes through one reader: text the decoder cannot read
# is malformed input, never a traceback
@pytest.mark.parametrize("argv", [
    ["surface-ingest"],
    ["transport", "--map"],
    ["bracket", "--form"],
], ids=["surface", "map", "form"])
@pytest.mark.parametrize("text, message", [
    ("[" + "1" * 5001 + "]", "holds a JSON number with too many digits to "
                             "read"),
    ("[" * 100_000, "nests JSON too deeply to read"),
    (b'["\xff"]', "is not UTF-8 text"),
    ("{not json", None),
], ids=["long-number", "deep-nesting", "not-utf8", "not-json"])
def test_unreadable_json_file_is_exit_2(capsys, tmp_path, argv, text,
                                        message):
    path = tmp_path / "input.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    extra = ["z1", "z2"] if argv[0] != "surface-ingest" else []
    code, out, err = run(capsys, *argv, str(path), *extra)
    if message is None:
        # the decoder's own message, as before
        message = "Expecting property name enclosed in double quotes: " \
                  "line 1 column 2 (char 1)"
    else:
        message = f"{path} {message}"
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("rows", [
    [1, 2],
    [[0, 1], [-1, 0]],
    5,
    [[None, "1"], ["-1", "0"]],
    {"a": 1},
], ids=["rows-not-lists", "number-entries", "scalar", "null-entry", "object"])
def test_malformed_form_file_is_exit_2(capsys, tmp_path, rows):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    code, out, err = run(capsys, "star", "--form", str(path), "z1", "z2")
    assert (code, out, err) == (
        2, "", "error: form file must be a JSON list of lists of rational "
               "strings\n")


def test_transport_good_map(capsys):
    code, out, _ = run(capsys, "transport", "--map",
                       fixture_path("shear_map.json"), "--order", "3",
                       "z1", "z2")
    assert (code, out) == (0, "z1*z2 - 1/2*i*h\n")


def test_transport_rejects_non_symplectic(capsys):
    code, out, _ = run(capsys, "transport", "--map",
                       fixture_path("scale_map.json"), "--order", "3",
                       "z1", "z2")
    assert code == 1
    assert "[FAIL]" in out and out.rstrip().endswith("fail")


def test_transport_rejects_broken_inverse(capsys):
    code, out, _ = run(capsys, "transport", "--map",
                       fixture_path("broken_map.json"), "--order", "3",
                       "z1", "z2")
    assert code == 1
    assert "round trip" in out


def test_verify_transport(capsys):
    code, out, _ = run(capsys, "verify-transport", "--map",
                       fixture_path("shear_map.json"), "--order", "4",
                       "--count", "2", "--seed", "7")
    assert code == 0
    assert out.rstrip().endswith("pass")
    code, out, _ = run(capsys, "verify-transport", "--map",
                       fixture_path("scale_map.json"), "--order", "4",
                       "--count", "2", "--seed", "7")
    assert code == 1


def test_malformed_expression_is_exit_2(capsys):
    code, _, err = run(capsys, "star", "z1 +", "z2")
    assert code == 2
    assert "column 5" in err
    code, _, err = run(capsys, "star", "0.5*z1", "z2")
    assert code == 2
    assert "exact rational" in err


# expression text from a small alphabet: the parser must answer every
# string with a result (exit 0) or a malformed-input error (exit 2)
EXPRESSION_TOKENS = list("0123456789+-*^() ") + ["z1", "z2", "q1", "p1", "h"]
expressions = st.lists(st.sampled_from(EXPRESSION_TOKENS), max_size=12).map(
    "".join)


@settings(max_examples=200, deadline=None)
@given(expressions, expressions)
def test_every_expression_exits_0_or_2(f, g):
    # "--" ends the options, so a leading "-" reaches the expression parser
    for argv in (["star", "--", f, g],
                 ["product-star", "--n", "2", "--", f, g]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 2), (argv, code)
        assert (code == 2) == err.getvalue().startswith("error: "), argv


# JSON files from a small alphabet: scalars, lists and objects with the
# keys the readers look for, and the bundled surfaces and maps and
# generated antisymmetric forms, each with one leaf replaced or none.
# Every command that reads such a file must exit 0, 1 or 2, and 1 ("a
# check failed") only where it runs checks.
JSON_SCALARS = st.sampled_from(
    ["0", "1", "-1", "1/2", "2", "i", "1+i", "z1", "z2", "z1^2", "z2 - z1^2",
     "z1 + z2", "", "x", "1/0", 0, 1, 2, 3, -1, 1.5, None, True])
JSON_KEYS = st.sampled_from(["edges", "pairing", "dim", "degree_bound",
                             "forward", "inverse"])
json_values = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_KEYS, inner, max_size=6),
    max_leaves=12)
BUNDLED = [json.loads(pathlib.Path(fixture_path(name)).read_text())
           for name in ("square.json", "lshape.json", "hexagon.json",
                        "octagon.json", "decagon.json", "shear_map.json",
                        "base_shear_map.json", "scale_map.json",
                        "broken_map.json")]
RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "2", "-2", "i"])


def _antisymmetric(pairs, upper):
    """The 2 pairs x 2 pairs antisymmetric matrix of rational strings
    with the given entries above the diagonal."""
    n = 2 * pairs
    rows = [["0"] * n for _ in range(n)]
    entries = iter(upper)
    for a in range(n):
        for b in range(a + 1, n):
            rows[a][b] = next(entries)
            rows[b][a] = rows[a][b][1:] if rows[a][b][0] == "-" \
                else "-" + rows[a][b]
    return rows


forms = st.integers(1, 2).flatmap(
    lambda pairs: st.lists(RATIONALS, min_size=pairs * (2 * pairs - 1),
                           max_size=pairs * (2 * pairs - 1)).map(
        lambda upper: _antisymmetric(pairs, upper)))


def _with_leaf(value, k, new):
    """value with its k-th scalar, in depth-first order, replaced by new;
    value unchanged when it has k scalars or fewer."""
    seen = [0]

    def walk(v):
        if isinstance(v, dict):
            return {key: walk(x) for key, x in v.items()}
        if isinstance(v, list):
            return [walk(x) for x in v]
        seen[0] += 1
        return new if seen[0] == k + 1 else v

    return walk(value)


json_files = st.one_of(
    json_values,
    st.builds(_with_leaf, st.sampled_from(BUNDLED) | forms,
              st.integers(0, 24), json_values),
)
FILE_COMMANDS = [
    (["surface-ingest", "{}"], False),
    (["patch-check", "--surface", "{}", "--count", "1", "--order", "2"],
     True),
    (["transport", "--map", "{}", "z1", "z2"], True),
    (["verify-transport", "--map", "{}", "--count", "1", "--order", "2"],
     True),
    (["star", "--form", "{}", "z1", "z2"], False),
    (["verify-dq", "--form", "{}", "--count", "1", "--order", "2"], True),
]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_files)
def test_every_json_file_exits_0_1_or_2(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for template, runs_checks in FILE_COMMANDS:
        argv = [str(path) if arg == "{}" else arg for arg in template]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2), (argv, data, code)
        assert code != 1 or runs_checks, (argv, data)
        assert (code == 2) == err.getvalue().startswith("error: "), \
            (argv, data)


def test_json_reports_are_deterministic(capsys):
    args = ("verify-dq", "--form", "omega0x2", "--order", "4",
            "--seed", "11", "--count", "3", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert payload["command"] == "verify-dq"
    assert payload["corpus_version"] == CORPUS_VERSION


def test_json_star_payload(capsys):
    code, out, _ = run(capsys, "star", "--order", "3", "--json", "z1", "z2")
    assert code == 0
    payload = json.loads(out)
    assert payload["outputs"]["series"] == "z1*z2 - 1/2*i*h"


SYM7 = ("(2+i) - i*q1*q2*q3*q4*q5*q6*q7 + (3-i)*p1*p2*p3*p4*p5*p6*p7"
        " + i*q1*p2 - 2/3*q3^2 + (1/2-5/3*i)*p4*q5 + 3/5*i*p7"
        " - 7*q2*p2^2 + i*p1^2*p2*q3")
SYM8 = ("(1-i)*q1*p2*q3 + i + 4/9*p8^3 - i*q1*q2*q3*q4*q5*q6*q7*q8"
        " - 3/2*q4*p4 + (2/3+i)*p1*p2*p3*p4*p5*p6*p7*p8")

# SHA-256 of whole --json reports on the star and bracket paths; a change
# in any printed coefficient or in the report's layout shows here
PINNED_JSON = {
    "star": (("star", "--order", "6", "h*z1^3 + 1/3*z2 - 5/7*i",
              "z2^3 - 2/7*i*z1 + 3*h^2*z1*z2"),
             "142826735cf429dcc89d1c3e2c1f079f"
             "8d864354a72474cca34839db18b112e3"),
    "product-star": (("product-star", "--n", "19", "q1^3*p1^3+q2*p19^2",
                      "q1^3*p1^3+q19^3*p2"),
                     "6224a6b9b4a9b049a9a81e4aa3e1750b"
                     "a0e7c77c61e87916d7dcdeef8fb0d5f0"),
    "verify-dq": (("verify-dq", "--seed", "11"),
                  "5449b9e12c04c9c25fd8aeef5faa70ec"
                  "ff8fbbfefabc4352e465a0a0ccac9aa4"),
    "transport": (("transport", "--map", "tests/fixtures/shear_map.json",
                   "z1^2*z2 + 1/3*z1", "z2^2 - 2/5*i*z1*z2"),
                  "d678a5ef4658d49b4fa94e174c800556"
                  "e27f7111d5ca25022c996ca097ece206"),
    "bracket": (("bracket", "--form", "omega0x2",
                 "z1^3*z4 - 2/3*i*z2*z3^2 + z1",
                 "z2^2*z3 + 5*z4^3 - i*z1*z2"),
                "870919bf6b79328a40e439fb41081375"
                "b144a6faabfc9da58b0ba9cb3adf71b6"),
    "verify-transport": (("verify-transport", "--map",
                          "tests/fixtures/shear_map.json"),
                         "b9e1b8ce81133d082ba8e62553462a72"
                         "ead39b80ff783c92f1a9614ef0749c4e"),
    # products of series with h-terms in one factor, through the
    # substitutions of a degree-3 map
    "verify-transport-deep": (("verify-transport", "--map",
                               "tests/fixtures/base_shear_map.json",
                               "--order", "6", "--count", "3"),
                              "37d9f70289335c9c1cdf0fcd08d68776"
                              "9c7db237626eaa41a8d71540bc0f71b7"),
    # orbit averages whose coefficients are real, imaginary and mixed,
    # with imaginary part +-1 and denominators above 1
    "symmetrize-7": (("symmetrize", "--n", "7", SYM7),
                     "5460fb12bc53bf7c045c7bbf72a76825"
                     "f3b1143b8aa344cc51e33b57efa19b6e"),
    "symmetrize-8": (("symmetrize", "--n", "8", SYM8),
                     "70eb5f3e120247200c38786d07a7a9de"
                     "d0995c73d20e927d85bf002d0c8de6b5"),
    "surface-ingest": (("surface-ingest", "tests/fixtures/octagon.json"),
                       "c2ea21f25c39425c76f579e36f7c30aa"
                       "3c8d4908512096dfcb7b0c357e63b961"),
    "patch-check": (("patch-check", "--surface",
                     "tests/fixtures/hexagon.json", "--count", "2"),
                    "e6c3b8b2947037fe33b346d092710453"
                    "e3c0e1a99b3917b2bb4a99fee2801a98"),
}


@pytest.mark.parametrize("name", sorted(PINNED_JSON))
def test_json_output_is_pinned(capsys, monkeypatch, name):
    argv, digest = PINNED_JSON[name]
    # the report echoes the map path as given
    monkeypatch.chdir(REPO_ROOT)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the text and the --json report, with the exit code, of runs
# whose report carries extra outputs or whose map gate fails
PINNED_RUNS = {
    "product-star-rank-genus": (
        ("product-star", "--rank", "2", "--genus", "2", "--order", "3",
         "q1*p1", "p1^2"), 0,
        "7d2f80dff0ae83841e421d17b62db88f8144ab8f9b58fbd51dd2e63388739782",
        "a6bdc442fe9b51ea6824804b40b096b2acd33e37f4322c74a6e3e9f4da45931d"),
    "transport-scale": (
        ("transport", "--map", "tests/fixtures/scale_map.json", "z1", "z2"),
        1,
        "1bc06786d0ce188af0c18d69098c213e1e79e53bd129723ac003634793b0dd0c",
        "8f9ebcd03bda2fb173ce62a6d3df936692f24f236e5e4f328c04b124ec848bcb"),
    "verify-transport-scale": (
        ("verify-transport", "--map", "tests/fixtures/scale_map.json"), 1,
        "269335296446d8215ffc47fd8101178b79e429429af6c80bd009fa127f3ce9c6",
        "3f1cfdf2fdfbc13fe95e51dd1f82f4e53ce5e02f366bef6a84ff9018caca7b50"),
    "transport-broken": (
        ("transport", "--map", "tests/fixtures/broken_map.json", "z1", "z2"),
        1,
        "4ea0a4eec8375ca7ca302759f51793ea6a2467debd02c6ffd6f91655bcc4de3d",
        "1c1ebdae09da3296b07e3a1b778a081eeb81bb56f6008f02bf0102dee464fe62"),
    "verify-transport-broken": (
        ("verify-transport", "--map", "tests/fixtures/broken_map.json"), 1,
        "0b6dc648bb9c8734d69a408e21a98a79cf6d23289e00f901cb963c814be1df3e",
        "4767e2fdeabf74d24786c7c0ee23d427d1a2bda21fe9350b0e72f0ca6254abda"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_text_and_json_runs_are_pinned(capsys, monkeypatch, name):
    argv, exit_code, text_digest, json_digest = PINNED_RUNS[name]
    monkeypatch.chdir(REPO_ROOT)
    for extra, digest in (((), text_digest), (("--json",), json_digest)):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


def test_symmetrize_text_is_pinned(capsys):
    code, out, _ = run(capsys, "symmetrize", "--n", "7", SYM7)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3dea6afb6bb786cfa0a84259470f1347a6d247e569d137abc625a7931369e80e")


def test_parser_is_reused_across_calls(capsys, monkeypatch):
    # main() builds its parser on the first call and keeps it: commands
    # run one after another in one process, an argparse error among
    # them, each print what a fresh process prints
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ("star", "--order", "3", "z1", "z2"),
        ("surface-ingest", "tests/fixtures/octagon.json", "--json"),
        ("symmetrize", "--n", "2", "--bogus", "p1"),
        ("bracket", "z1^2*z2", "z1"),
        ("--help",),
        ("symmetrize", "--help"),
    ]
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "starkit.cli", *argv],
                               capture_output=True, text=True,
                               env=_child_env(COLUMNS="80"))
        assert (code, out.out, out.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._parser() is cli._parser()


def test_json_identical_across_hash_seeds():
    # string hashing varies per process; reports must not
    cmd = [sys.executable, "-m", "starkit.cli", "surface-ingest",
           fixture_path("octagon.json"), "--json"]
    outs = []
    for seed in ("0", "424242"):
        env = _child_env(PYTHONHASHSEED=seed)
        outs.append(subprocess.run(cmd, capture_output=True, text=True,
                                   env=env, check=True).stdout)
    assert outs[0] == outs[1]


def _child_env(**extra):
    """Environment for a fresh process, with the package importable from
    wherever this test process imported it."""
    src_dir = pathlib.Path(starkit.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src_dir),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _run_entry_point(cmd, *argv):
    """Run a console-script command in a fresh process."""
    return subprocess.run([*cmd, *argv], capture_output=True, text=True,
                          env=_child_env())


def test_console_script_is_installed():
    # tomllib is in the standard library from Python 3.11 on
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"starkit": "starkit.cli:main"}

    # what the generated console-script wrapper runs for that target
    module, func = scripts["starkit"].split(":")
    wrapper = [sys.executable, "-c",
               f"import sys\nfrom {module} import {func}\nsys.exit({func}())"]
    out = _run_entry_point(wrapper, "star", "--order", "3", "z1", "z2")
    assert (out.returncode, out.stdout) == (0, "z1*z2 - 1/2*i*h\n"), out.stderr
    out = _run_entry_point(wrapper, "star", "z1 +", "z2")
    assert out.returncode == 2, out.stderr

    # an installed script, where there is one, must behave the same
    script = shutil.which("starkit")
    if script is not None:
        out = _run_entry_point([script], "star", "--order", "3", "z1", "z2")
        assert (out.returncode, out.stdout) == (0, "z1*z2 - 1/2*i*h\n"), \
            out.stderr
