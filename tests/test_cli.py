import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import starkit
from starkit import cli
from starkit.atlas import MAX_EDGES
from starkit.cli import main
from starkit.corpus import CORPUS_VERSION
from starkit.parsing import (MAX_COEFF_BITS, MAX_DEGREE, MAX_LITERAL_DIGITS,
                             MAX_NESTING, MAX_TERMS)

from conftest import fixture_path, symmetric_polygon

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
    # nine distinct blocks each: two orbits of 9! images, twice the limit
    (["symmetrize", "--n", "9",
      "q1*p2^2*q3^3*p4^4*q5^5*p6^6*q7^7*p8^8*q9^9"
      " + p1*q2^2*p3^3*q4^4*p5^5*q6^6*p7^7*q8^8*p9^9"],
     f"symmetrize would write {2 * math.factorial(9)} orbit images, over "
     f"the limit of {math.factorial(cli.MAX_SYMMETRIZE_COPIES)}"),
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
    # JSON true and false are not integers or rationals, although
    # Python's bool is an int
    (["surface-ingest"],
     {"edges": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
      "pairing": [[False, 2], [True, 3]]},
     "pairing entries must be integer indices"),
    (["transport", "--map"],
     {"dim": 2, "degree_bound": True, "forward": ["z1", "z2"],
      "inverse": ["z1", "z2"]},
     "dim and degree_bound must be integers"),
    (["verify-transport", "--map"],
     {"dim": True, "degree_bound": 1, "forward": ["z1"],
      "inverse": ["z1"]},
     "dim and degree_bound must be integers"),
    (["surface-ingest"],
     {"edges": [[True, "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
      "pairing": [[0, 2], [1, 3]]},
     "edge 0 real part must be an exact rational (\"p/q\" string), "
     "not a boolean"),
    # the bound is checked before the components that would exceed it
    (["transport", "--map"],
     {"dim": 2, "degree_bound": 0, "forward": ["z1", "z2"],
      "inverse": ["z1", "z2"]},
     "degree bound must be at least 1"),
    (["verify-transport", "--map"],
     {"dim": 2, "degree_bound": -1, "forward": ["z1", "z2"],
      "inverse": ["z1", "z2"]},
     "degree bound must be at least 1"),
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


def test_trailing_whitespace_in_an_expression_is_read_as_nothing(capsys):
    want = run(capsys, "star", "--order", "3", "z1", "z2")
    assert want[0] == 0
    for f in ("z1 ", "z1\t", "z1 \n"):
        assert run(capsys, "star", "--order", "3", f, "z2 ") == want
    assert run(capsys, "star", "z1 + \t", "z2") == run(capsys, "star",
                                                        "z1 +", "z2")


def test_operand_dropped_after_a_second_double_dash_is_exit_2(capsys):
    # argparse takes "--" as the end of options once more and leaves g an
    # empty list rather than refusing the command line
    code, out, err = run(capsys, "star", "--", "0", "--")
    assert (code, out) == (2, "")
    assert err == "error: an expression argument is missing\n"


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
    # series factors whose every coefficient is one-body: each term lies
    # in at most one copy, with constants and h-terms in both factors
    "product-star-one-body-series": (
        ("product-star", "--n", "3",
         "q1*p1^2 + h*(p2^2 - 1/3*q3) + h^2*q1^3 - 5",
         "i*p1*q1 + 1/2*q2^2 + h*p3^2 + h^3*(q1 + p2^2)"),
        "3a0c3b09aef14efc50dacb57b3b09531"
        "d7d16e2cc713b8c4fe434780990ad487"),
}


@pytest.mark.parametrize("name", sorted(PINNED_JSON))
def test_json_output_is_pinned(capsys, monkeypatch, name):
    argv, digest = PINNED_JSON[name]
    # the report echoes the map path as given
    monkeypatch.chdir(REPO_ROOT)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# z1^128, written as a product since "^" refuses degrees past 64
Z1_128 = "z1^64*z1^64"


def power_sum(copies: int, a: int, b: int) -> str:
    """P_{a,b} = sum_i q_i^a p_i^b, written out."""
    return " + ".join(f"q{i}^{a}*p{i}^{b}" for i in range(1, copies + 1))


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
    # an orbit average of 3,600 terms at the copy limit, from a real, an
    # imaginary and a mixed coefficient and exponents past 9
    "symmetrize-9": (
        ("symmetrize", "--n", "9", "3/2*q1^10*p2*q3^2*p4^3"
         " - 2/5*i*q1^2*p1*q2*p3 + (1/2 - 7/3*i)*p1^11*q2^3*p2"), 0,
        "e23b53a353305ce5dc4229fb9b35c5989939fecb62dd1d714340d97fe6d33123",
        "457b3491002b9094030b19980dfc4d86c13109d6485f1de493d63029b82548c7"),
    "verify-transport-broken": (
        ("verify-transport", "--map", "tests/fixtures/broken_map.json"), 1,
        "0b6dc648bb9c8734d69a408e21a98a79cf6d23289e00f901cb963c814be1df3e",
        "4767e2fdeabf74d24786c7c0ee23d427d1a2bda21fe9350b0e72f0ca6254abda"),
    # a product whose exponents pass 255, so the fields widen from 8 to
    # 16 bits, with h-terms in one factor ("^" stops at degree 64)
    "star-wide-fields": (
        ("star", "--order", "4", f"h*{Z1_128}*z2 + {Z1_128}*z2^3 - 1/3*i*z1",
         f"{Z1_128}*z1*z2^2 - 2/3*i*{Z1_128}*z2"), 0,
        "3e90a1ebbf44acfa74ad9c76287978c6df5cb04af392e479927c00ef3d6f2cc9",
        "8ebbe831487d42a5ceb5a48e07a9f151ba27ec8626a8d802058dfb61784273d4"),
    # a non-block form with Gaussian rational entries: the bivector's own
    # denominator and mixed coefficient denominators run through every
    # walk and bracket
    "star-gauss4": (
        ("star", "--form", "tests/fixtures/form_gauss4.json", "--order", "5",
         "z1^2*z3 - 1/2*i*z2*z4 + h*z1*z4^2",
         "z2^2*z4 + 3/7*z1*z3 - i*z3^2"), 0,
        "e8d16ab5112b3c0d53a3e95266ea3216f39445d3454f49ee2cc1c1fd83139462",
        "3abc5d1b2b7c4d6588ed768b91f10904ef9f5d65e4b1ab2814fbfb2b901ebc9e"),
    "verify-dq-gauss4": (
        ("verify-dq", "--form", "tests/fixtures/form_gauss4.json",
         "--count", "3"), 0,
        "8f70f7cb91ecdca0f4f668e7e8538276c8e1bd9259957f2f5fa07dbde0da8a29",
        "eb6a8c31f5a8afe934acba8bcea6e647f8743277ca7c52b5be5d3c56950d2452"),
    # symmetric multiples of power sums on Sym^delta, delta = 5 and 10
    "product-star-symmetric-delta-5": (
        ("product-star", "--rank", "2", "--genus", "2",
         f"(1/2 - 2*i)*({power_sum(5, 2, 3)})",
         f"(2/3 + i)*({power_sum(5, 3, 2)})"), 0,
        "7b4cc2f8112df8cb46c751b55638453a333abb4c6361d991fe821d9d224ae94d",
        "0a6db05484ae521e84b93985ec788d9f05ae6d3e7001ecfe0cf14698cc21e164"),
    "product-star-symmetric-delta-10": (
        ("product-star", "--rank", "3", "--genus", "2",
         f"-3/2*({power_sum(10, 2, 2)})",
         f"(1 - 1/3*i)*({power_sum(10, 3, 1)})"), 0,
        "ec1665eb1068d0548084a8f29fddd6ec8e9d6e420677533f1040b10b9ef9f82f",
        "922210ee070c3bc41c86b13ed1a0f0706820bb86330fe7fdbfb42a397147c07b"),
    # one-body factors that differ from copy to copy, with constants
    "product-star-one-body-with-constant": (
        ("product-star", "--n", "4",
         "2/3 + q1^2*p1 - i*p2^3 + 3*q3*p3^2 + q4^4 - 1/2*p1",
         "-1/5*i + q1*p1^2 + q2^3 + (1+i)*q3^3*p3 + p4 + 4*q1"), 0,
        "c4f2cb497e685f77ea8a3b23ba925c8f18456095ce006f049396e8edda61823d",
        "6004e2d3434309403f959084ead87f0a7ca5d3c01e53cd5a292ebdd6eed3383a"),
    # fiber power sums, which star-commute: no h-terms at all
    "product-star-fiber-power-sums": (
        ("product-star", "--n", "6",
         " + ".join(f"p{i}^3" for i in range(1, 7)),
         "(1/2 - i)*(" + " + ".join(f"p{i}^4" for i in range(1, 7)) + ")"),
        0,
        "268491d5a0d9fd957c4039ad5f975a5532b48e78ee2d6e9ea51abd74a348301c",
        "433baf8c953d6ac6a483c0838a8790a00d80cc1075ca7242df021fe6b044a105"),
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


# SHA-256 of patch-check's text and --json report at --count 8 --order 8
# --seed 1000, and of surface-ingest --json, on every fixture surface:
# identity overlaps, translated ones, and a corner at each vertex class
PINNED_SURFACES = {
    "square": (
        "f666b3cda997f17a33dc09f46676c78e3cdf62ca565906bb511ab2b4c3edcbe0",
        "aeea756e3925b4eb9f4e5c8b79c105cbcf6ffad6793f0cbec5badaf375829a7c",
        "180d9093202acf2536a827c7c01ec3c15f4fb6a4ed9bf88b78acb85d2c362c5a"),
    "hexagon": (
        "31abadf74eb0077b1b05c7d0092205d198e220c77fba241303767da7ae271c8d",
        "e4a22b4bd98becce1a139ed3a6ca93a7ecfa462e4e54ca8daf0bfa0f0cf88fe2",
        "3c50736ec847e09813471845140a4ccf3a1f0cefc19c66d1975f3185d4d910a7"),
    "lshape": (
        "3b923dabf8011f8eeb87811aaabaae1219214f20387b343c9c6334038ad69721",
        "280a0ddcb9b0a9108c4f1acabaf1755683e59bed7a27c361a9444036185ed7bc",
        "12b2c9b3c4611d3763ec4fb01e6b40143b8de1990526fb7462289b7ad7c4e97d"),
    "octagon": (
        "3e659fae326ffc98608e6fb96794d2ef4c948c5382477cb81341be933c565eeb",
        "03997d97b1ac340225fce5e4f955d1d82de817fb534a1e2b512c6808a33e0dee",
        "c2ea21f25c39425c76f579e36f7c30aa3c8d4908512096dfcb7b0c357e63b961"),
    "decagon": (
        "cbe17561b5d9ab43c31827f570712777ce3260e5fac38dd2f976cc3c384ed56f",
        "322e4d92fe92ce16c98fe094fda2e5f72fcc7b58e27b7867a5b2adfc30501a1a",
        "6893ae3f634a46bcfbebadddc4d125c491c053ecdfde0ad80cb76c6ae2c9f105"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SURFACES))
def test_surface_runs_are_pinned(capsys, monkeypatch, name):
    patch_text, patch_json, ingest_json = PINNED_SURFACES[name]
    monkeypatch.chdir(REPO_ROOT)
    path = f"tests/fixtures/{name}.json"
    argv = ("patch-check", "--surface", path, "--count", "8", "--order",
            "8", "--seed", "1000")
    for extra, digest in (((), patch_text), (("--json",), patch_json)):
        code, out, _ = run(capsys, *argv, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra
    code, out, _ = run(capsys, "surface-ingest", path, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ingest_json


# the fixture surfaces with rational edges: every x and y stretched by
# (1/3, 5/2), or sheared by x += y/2
TRANSFORMS = {
    "stretch": lambda x, y: (x / 3, y * Fraction(5, 2)),
    "shear": lambda x, y: (x + y / 2, y),
}


def _transformed(name, transform) -> str:
    """Write the transformed fixture into the working directory, since
    --json echoes the path, and return its file name."""
    data = json.loads(pathlib.Path(fixture_path(f"{name}.json")).read_text())
    edges = [TRANSFORMS[transform](Fraction(x), Fraction(y))
             for x, y in data["edges"]]
    data["edges"] = [[str(x), str(y)] for x, y in edges]
    path = f"{name}-{transform}.json"
    pathlib.Path(path).write_text(json.dumps(data))
    return path


# SHA-256 of surface-ingest --json and of patch-check --count 2 --order 4
# --json on those surfaces
PINNED_RATIONAL_SURFACES = {
    ("square", "stretch"): (
        "4277b2331005eddcf8cf61edb3b883e845f1b59fc851b239aae29204a9cc9e5b",
        "cc08d804e1fc108ef0b3eb1d03c82a977a722a8e6208371d39bf689d96a9c1c2"),
    ("hexagon", "stretch"): (
        "38d9c6b50c080ce5525712a23c71e3af7e4598f8f81ece42a6498068b0fa5d6c",
        "ee0ca547e8b9997d5cf4962bb529f6834472f6d49781ac79afecaeb8659a53ad"),
    ("lshape", "stretch"): (
        "af2df25fcf4f50f2879b44f7c9ab5839ab7ee8ef25ecc51d4778c45cdbb78ccf",
        "3e77b582c30bba0fa4fb64d9d78d625acd0b5acefb13512c82a53ff0119af5ab"),
    ("octagon", "stretch"): (
        "694e7b032f399728b355c12bbcd576065e40568b4f274ac04b05af31542266d8",
        "caca4e396bb195d75ff643b1e47f3bc5b4013eafa9f21e5e6bd3d2529b6e9e5c"),
    ("decagon", "stretch"): (
        "97f29a4fc18260528626841fd858acc28b068fe94a414d07fba555de929f5a8e",
        "805481112146a8a872bbdac178ba47a1a024f459f0c839e20fb182757d3e93ca"),
    ("square", "shear"): (
        "e743a0a293845c8c0164e613c5056a0bea8c8f5e5760d657daef3e0712ae4f75",
        "4a6f08cc253041369aee23af15e8a812bc628750f7157678c69569dce5c2a5f7"),
    ("hexagon", "shear"): (
        "0c6e336eedbecd46af7dfccc3e531011d1d24b32792199aea090f08d435ea3f6",
        "812d458abe2ddd7d53f6baa1483c5b39e177d74ba34988d4e4b0ea114f57484d"),
    ("lshape", "shear"): (
        "dcb570dd7b253a202773743b8c3f26ab81010f579ba75f1e0c39d4352a1b2fc1",
        "bd789ee6fd97844e8a323750ec7dabc2c9f6adb38c58b994df6184d8a006e7c4"),
    ("octagon", "shear"): (
        "d1755d379fc5a688a70fb0d60fd960d830b936d1ae9caf799299c435e5954fe0",
        "87b1c35d93e9c3adcf10c7cec04788226b138f865a0f69eb62cda0b339a152d5"),
    ("decagon", "shear"): (
        "0e715457dbbd2b4b757d8bdb7454eaecac7a6ee32e60550e8b57dbc73731c0a4",
        "ecf9ca5a8ece0f8045dcffc981f8fb32c4e42fbcd5d9cbbd6ef0bb5557f1f7a8"),
}


@pytest.mark.parametrize("name, transform", sorted(PINNED_RATIONAL_SURFACES))
def test_rational_surface_runs_are_pinned(capsys, monkeypatch, tmp_path, name,
                                          transform):
    monkeypatch.chdir(tmp_path)
    path = _transformed(name, transform)
    runs = (("surface-ingest", path, "--json"),
            ("patch-check", "--surface", path, "--count", "2", "--order",
             "4", "--json"))
    for argv, digest in zip(runs, PINNED_RATIONAL_SURFACES[name, transform]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


# the error line of each kind of malformed polygon, from surface-ingest
# and from patch-check
MALFORMED_POLYGONS = {
    "open": (
        [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-2"]], [[0, 2], [1, 3]],
        "polygon does not close (edge sum -i)"),
    "rational-open": (
        [["1/3", "0"], ["0", "5/2"], ["-1/3", "0"], ["0", "-5/3"]],
        [[0, 2], [1, 3]],
        "polygon does not close (edge sum 5/6*i)"),
    "rational-unequal-pair": (
        [["1/3", "0"], ["0", "5/2"], ["-1/3", "5/2"], ["0", "-5"]],
        [[0, 2], [1, 3]],
        "paired edges unequal: edge 2 must be the reverse of edge 0 "
        "(expected -1/3, got -1/3+5/2*i)"),
    "rational-clockwise": (
        [["0", "5/2"], ["1/3", "0"], ["0", "-5/2"], ["-1/3", "0"]],
        [[0, 2], [1, 3]],
        "polygon must be simple and counterclockwise (signed area -5/3/2)"),
    "zero-edge": (
        [["1", "0"], ["0", "0"], ["-1", "0"], ["0", "1"]], [[0, 2], [1, 3]],
        "edge 1 is the zero vector"),
    "unequal-pair": (
        [["1", "0"], ["0", "1"], ["-1", "1"], ["0", "-2"]], [[0, 2], [1, 3]],
        "paired edges unequal: edge 2 must be the reverse of edge 0 "
        "(expected -1, got -1+i)"),
    "backtracking": (
        [["1", "0"], ["-1", "0"], ["1", "0"], ["0", "1"], ["-1", "0"],
         ["0", "-1"]],
        [[0, 1], [2, 4], [3, 5]],
        "degenerate corner at vertex 1: edge backtracks on its predecessor"),
    "clockwise": (
        [["0", "1"], ["1", "0"], ["0", "-1"], ["-1", "0"]], [[0, 2], [1, 3]],
        "polygon must be simple and counterclockwise (signed area -2/2)"),
    "crossing": (
        [["3", "0"], ["1", "2"], ["-3", "0"], ["1", "-2"], ["-1", "-2"],
         ["-1", "2"]],
        [[0, 2], [1, 4], [3, 5]],
        "polygon boundary crosses itself (edges 0 and 3)"),
    "touching": (
        [["2", "1"], ["2", "0"], ["-2", "-1"], ["0", "3"], ["-2", "0"],
         ["0", "-3"]],
        [[0, 2], [1, 4], [3, 5]],
        "polygon boundary crosses itself (edges 0 and 3)"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_POLYGONS))
@pytest.mark.parametrize("command", ["surface-ingest", "patch-check"])
def test_malformed_polygon_errors_are_pinned(capsys, tmp_path, command,
                                             name):
    edges, pairing, message = MALFORMED_POLYGONS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"edges": edges, "pairing": pairing}))
    argv = ([command, str(path)] if command == "surface-ingest"
            else [command, "--surface", str(path)])
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["surface-ingest", "patch-check"])
def test_oversized_polygon_is_exit_2(capsys, tmp_path, command):
    # ingest is quadratic in the edges, so a surface past the limit is
    # refused before any edge is read: here a closed convex polygon with
    # its first edge split in two
    data = symmetric_polygon(MAX_EDGES // 2)
    x, y = (int(v) for v in data["edges"][0])
    data["edges"][:1] = [[f"{x}/2", f"{y}/2"]] * 2
    assert len(data["edges"]) == MAX_EDGES + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    argv = ([command, str(path)] if command == "surface-ingest"
            else [command, "--surface", str(path)])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (
        2, "", f"error: surface has {MAX_EDGES + 1} edges, over "
               f"the limit of {MAX_EDGES}\n")


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


@pytest.mark.parametrize("argv", [
    ("star", "--order", "4", "z1^3*z2 - 2/3*i*z2^2 + h*z1", "z2^3*z1 + 1/5"),
    ("product-star", "--n", "10", "q1^2*p1*q2 + 1/3*i*p10^2",
     "q1*p1^2 + q10^2*p2"),
    ("patch-check", "--surface", fixture_path("hexagon.json"), "--count", "2"),
    ("symmetrize", "--n", "5", "3/2*q1^2*p2 - 1/3*i*q1*p1*q3 + p5^2"),
])
def test_text_and_json_identical_across_hash_seeds(argv):
    # polynomials are keyed by integers and printed in sorted order, so
    # neither the text nor the report may depend on string hashing
    for extra in ((), ("--json",)):
        cmd = [sys.executable, "-m", "starkit.cli", *argv, *extra]
        outs = {subprocess.run(cmd, capture_output=True, text=True,
                               env=_child_env(PYTHONHASHSEED=seed),
                               check=True).stdout
                for seed in ("0", "424242")}
        assert len(outs) == 1, extra


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
