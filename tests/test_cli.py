import json
import random

import pytest

from blobalg.cli import _SUITES, main, run_suite
from blobalg.presentation import evaluate_word
from blobalg.reports import Report
from blobalg.words import parse_word


def _word_text(letters):
    return " ".join("e" if x == 0 else f"U{x}" for x in letters)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_word_subcommand(capsys):
    code, out, _ = run(capsys, "word", "--path", "0,-1,0,1")
    assert code == 0
    assert out.strip() == "U1 e U2 U1"


def test_word_variant(capsys):
    code, out, _ = run(capsys, "word", "--path", "0,1,0,1,0", "--variant")
    assert code == 0
    assert out.strip() == "e U1 e U2 U1 U3"


def test_walks_text_and_json(capsys):
    code, out, _ = run(capsys, "walks", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["0,-1,-2", "0,-1,0", "0,1,0", "0,1,2"]
    code, out, _ = run(capsys, "walks", "--n", "3", "--m", "1", "--format", "json")
    assert json.loads(out) == [{"sigma": [0, -1, 0, 1]}, {"sigma": [0, 1, 0, 1]},
                               {"sigma": [0, 1, 2, 1]}]


def test_phi_subcommand(capsys):
    code, out, _ = run(capsys, "phi", "--n", "2", "--word", "U1 e U1")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 2, "pairs": [[1, 2], [3, 4]], "blobs": [], "coeff": "g"}


def test_mul_words(capsys):
    code, out, _ = run(capsys, "mul", "--n", "3", "--left", "U2 U1", "--right", "e U2 U1")
    assert code == 0
    data = json.loads(out)
    want = evaluate_word(parse_word("U2 U1 e U2 U1", 3))
    assert data["coeff"] == str(want.coeff)
    assert [tuple(p) for p in data["pairs"]] == list(want.diagram.pairs)


def test_mul_accepts_diagram_json(capsys):
    code, left, _ = run(capsys, "phi", "--n", "2", "--word", "e")
    code, out, _ = run(capsys, "mul", "--n", "2", "--left", left.strip(), "--right", "e")
    assert code == 0
    assert json.loads(out)["coeff"] == "de"


@pytest.mark.parametrize("coeff, want", [
    ("q^-2 + 2 + q^2", "q^-2 + 2 + q^2"),
    ("q^-2 + 3 + q^2", "q^-2 + 3 + q^2"),
    ("q^-1000000", "q^-1000000"),
    ("q^-15000" + " + q" * 15000, "q^-15000 + 15000*q"),
], ids=["canonical", "near-miss", "high-degree", "many-terms"])
def test_mul_keeps_a_json_coefficient(capsys, coeff, want):
    # canonical monomial text, a near miss, a short text of high degree, and
    # as many terms as monomial(15000, 0, 0) without its text
    side = json.dumps({"pairs": [[1, 6], [2, 3], [4, 5]], "coeff": coeff})
    code, out, _ = run(capsys, "mul", "--n", "3", "--left", side, "--right", "U1 e")
    assert code == 0
    assert out == ('{"n": 3, "pairs": [[1, 4], [2, 3], [5, 6]], "blobs": [[5, 6]], '
                   '"coeff": "%s"}\n' % want)


@pytest.mark.parametrize("n", range(2, 9))
def test_chained_products_match_phi_of_the_concatenated_word(capsys, n):
    # each product's JSON is the next product's left operand
    rng = random.Random(f"chained-{n}")
    letters = [rng.randrange(n) for _ in range(8)]
    code, left, _ = run(capsys, "phi", "--n", str(n), "--word", _word_text(letters))
    for _ in range(6):
        right = [rng.randrange(n) for _ in range(8)]
        letters += right
        code, out, _ = run(capsys, "mul", "--n", str(n), "--left", left.strip(),
                           "--right", _word_text(right))
        assert code == 0
        assert out == run(capsys, "phi", "--n", str(n), "--word", _word_text(letters))[1]
        left = out


def test_mul_rejects_mismatched_strand_count(capsys):
    code, left, _ = run(capsys, "phi", "--n", "2", "--word", "e")
    code, _, err = run(capsys, "mul", "--n", "3", "--left", left.strip(), "--right", "e")
    assert code == 2 and "error" in err


def test_basis_n2_known_words(capsys):
    code, out, _ = run(capsys, "basis", "--n", "2")
    assert code == 0
    assert set(out.splitlines()) == {"1", "e", "U1", "e U1", "U1 e", "e U1 e"}


def test_basis_squared_latex_grid(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3", "--m", "1", "--squared",
                       "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == r"\begin{array}{ccc}"
    assert lines[-1] == r"\end{array}"
    assert len([l for l in lines if l.endswith(r"\\")]) == 3


def test_basis_walk_words(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3", "--m", "1", "--format", "json")
    assert json.loads(out) == ["U1 e U2 U1", "e U1 e U2 U1", "e U2 U1"]


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--n-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n ")
    assert lines[5].split() == ["3", "8", "20", "20", "20", "yes"]
    assert lines[6].strip() == "|S_(3,-3)|=1 |S_(3,-1)|=3 |S_(3,1)|=3 |S_(3,3)|=1"


def test_dims_enumerates_the_walks_once_per_n(capsys, monkeypatch):
    from blobalg import cli

    calls = []
    real = cli.all_walks

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "all_walks", counted)
    code, out, _ = run(capsys, "dims", "--n-max", "8")
    assert code == 0 and "NO" not in out
    assert calls == [(n,) for n in range(1, 9)]


def test_env_var_defaults(capsys, monkeypatch):
    monkeypatch.setenv("BLOBALG_SEED", "99")
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--n", "3")
    assert code == 0 and "seed=99" in out


@pytest.mark.parametrize("name", ["BLOBALG_SEED", "BLOBALG_PRIME"])
def test_non_integer_env_var_exits_two(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "x")
    code, out, err = run(capsys, "verify", "--suite", "relations", "--n", "2")
    assert code == 2 and out == ""
    assert err == f"error: {name} must be an integer, got 'x'\n"


# other scripts' digits, which int() reads from a str: Arabic-Indic 3, 1, 2
# and 2147483647, and fullwidth 3
_ARABIC_PRIME = "".join(chr(0x0660 + int(c)) for c in "2147483647")


@pytest.mark.parametrize("argv, flag, value", [
    (["phi", "--n", "\u0663", "--word", "U1"], "--n", "\u0663"),
    (["mul", "--n", "\u0662", "--left", "U1", "--right", "U1"], "--n", "\u0662"),
    (["walks", "--n", "3", "--m", "\u0661"], "--m", "\u0661"),
    (["basis", "--n", "\uff13"], "--n", "\uff13"),
    (["dims", "--n-max", "\u0663"], "--n-max", "\u0663"),
    (["verify", "--suite", "relations", "--n", "2", "--seed", "\u0663"], "--seed", "\u0663"),
    (["verify", "--suite", "relations", "--n", "2", "--prime", _ARABIC_PRIME], "--prime", _ARABIC_PRIME),
])
def test_non_ascii_integer_argument_exits_two(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: argument {flag}: invalid int value: {value!r}\n"


@pytest.mark.parametrize("name, value", [("BLOBALG_SEED", "\u0663"), ("BLOBALG_PRIME", _ARABIC_PRIME)])
def test_non_ascii_integer_env_var_exits_two(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "verify", "--suite", "relations", "--n", "2")
    assert code == 2 and out == ""
    assert err == f"error: {name} must be an integer, got {value!r}\n"


def test_ascii_integers_keep_their_sign_and_spaces(capsys, monkeypatch):
    code, out, _ = run(capsys, "phi", "--n", " +3 ", "--word", "U1")
    assert code == 0 and json.loads(out)["n"] == 3
    monkeypatch.setenv("BLOBALG_SEED", " 3 ")
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--n", "2", "--prime", "2147483647 ")
    assert code == 0 and out.endswith("suite=relations n=2 seed=3 prime=2147483647 passed=true\n")


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--n", "4")
    assert code == 0
    assert "passed=true" in out


def test_verify_fail_exit_one(capsys, monkeypatch):
    import blobalg.cli as cli

    def fake_suite(suite, n, seed, prime):
        rep = Report("forced")
        rep.add("always", "1", "0", False)
        return [rep]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    code, out, _ = run(capsys, "verify", "--suite", "relations", "--n", "4")
    assert code == 1
    assert "passed=false" in out


def test_unbuildable_standard_module_fails_its_check(capsys, monkeypatch):
    import blobalg.towers as towers

    real = towers._walk_words

    def repeated(n, m):
        words = real(n, m)
        return (words[0],) * len(words)

    # the shared walk words, patched rather than cached, so no later test sees them
    monkeypatch.setattr(towers, "_walk_words", repeated)
    code, out, err = run(capsys, "verify", "--suite", "bases", "--n", "3")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert any(line.startswith("[PASS] bases(n=3)/") for line in lines)
    assert "== bases(n=3): ok" in out
    failed = [line for line in lines if line.startswith("[FAIL] modules(n=3)/dim m=")]
    assert failed and all("not built: rows are not independent" in line for line in failed)
    assert "passed=false" in out


@pytest.mark.parametrize("argv, message", [
    (["phi", "--n", "x", "--word", "U1"], "argument --n: invalid int value: 'x'"),
    (["phi", "--n", "3"], "the following arguments are required: --word"),
    (["phi", "--n", "3", "--word", "U1", "--extra"], "unrecognized arguments: --extra"),
    ([], "the following arguments are required: command"),
])
def test_argument_rejections_print_one_line_and_return_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["-h"], ["phi", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and out.startswith("usage: blobalg") and err == ""


def test_usage_errors_exit_two(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nonsense", "--n", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: argument --suite: invalid choice: 'nonsense'")
    assert len(err.splitlines()) == 1
    code, _, err = run(capsys, "phi", "--n", "3", "--word", "U7")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "verify", "--suite", "relations", "--n", "3",
                       "--prime", "1000")
    assert code == 2


def test_verify_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "tower", "--n", "3", "--seed", "11")
    _, out2, _ = run(capsys, "verify", "--suite", "tower", "--n", "3", "--seed", "11")
    assert out1 == out2
    _, out3, _ = run(capsys, "verify", "--suite", "tower", "--n", "3", "--seed", "12")
    assert "seed=12" in out3


def test_mul_rejects_diagram_json_without_pairs(capsys):
    code, out, err = run(capsys, "mul", "--n", "2", "--left", "{}", "--right", "U1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "pairs" in err and len(err.splitlines()) == 1


def test_verify_rejects_n_below_suite_minimum(capsys):
    code, out, err = run(capsys, "verify", "--suite", "bases", "--n", "0")
    assert code == 2 and out == ""
    assert err.strip() == "error: suite bases needs n >= 1"


def test_walks_rejects_negative_n(capsys):
    code, out, err = run(capsys, "walks", "--n", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["walks", "--n", "3", "--m", "2"], "error: no walks of length 3 reach weight 2"),
    (["walks", "--n", "2", "--m", "-4"], "error: no walks of length 2 reach weight -4"),
    (["basis", "--n", "3", "--m", "2"], "error: no walks of length 3 reach weight 2"),
    (["basis", "--n", "3", "--m", "2", "--squared"], "error: no walks of length 3 reach weight 2"),
    (["basis", "--n", "-1"], "error: --n must be nonnegative"),
    (["dims", "--n-max", "-2"], "error: --n-max must be nonnegative"),
])
def test_unreachable_weight_or_negative_size_exits_two(capsys, argv, message):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no library warning on the way to the error
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("coeff", ['"q^"', '"g^-1"', '"2*-3"', '"x"', '"q+"', '""', "5"])
def test_malformed_scalar_exits_two(capsys, coeff):
    side = '{"pairs": [[1, 6], [2, 3], [4, 5]], "coeff": %s}' % coeff
    code, out, err = run(capsys, "mul", "--n", "3", "--left", side, "--right", "U1 e")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["phi", "--n", "4", "--word", "U\u00b2"], "error: bad word token 'U\u00b2'"),
    (["phi", "--n", "4", "--word", "U\u0663"], "error: bad word token 'U\u0663'"),
    (["mul", "--n", "4", "--left", "U1", "--right", "e U\u00b2"], "error: bad word token 'U\u00b2'"),
    (["word", "--path", "0,,1"], "error: weight '' is not an integer in walk '0,,1'"),
    (["word", "--path", "0,\u0661"], "error: weight '\u0661' is not an integer in walk '0,\u0661'"),
    (["phi", "--n", "3", "--word", "U10"], "error: U10 out of range for n=3"),
    (["phi", "--n", "3", "--word", "U" + "1" * 30],
     "error: letter 'U11111111111111111111111'... (31 characters) out of range for n=3"),
])
def test_bad_word_or_walk_token_is_named(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


_MB = 1 << 20


# About 1 MB per input, past what one command-line argument may hold, so
# main runs in-process: a long bad token, a long whitespace run and 250k
# tokens for each parser.  Each gives its value (the output of the short
# argv given) or exit 2 with one short line naming the token's start.
@pytest.mark.parametrize("argv, want", [
    (["phi", "--n", "3", "--word", "U1 " + "V" * _MB], "error: bad word token 'VVVVV"),
    (["phi", "--n", "3", "--word", "U" + "1" * _MB], "error: letter 'U1111"),
    (["phi", "--n", "3", "--word", "U" + "1" * 5000], "error: letter 'U1111"),
    (["phi", "--n", "3", "--word", "U" + "0" * _MB + "2"], ["phi", "--n", "3", "--word", "U2"]),
    (["phi", "--n", "3", "--word", "U1" + " " * _MB + "U2"], ["phi", "--n", "3", "--word", "U1 U2"]),
    (["phi", "--n", "3", "--word", "U1 U2 " * (1 << 17)], ["phi", "--n", "3", "--word", "U1 U2"]),
    (["word", "--path", "0," + "x" * _MB], "error: weight 'xxxxx"),
    (["word", "--path", "0," + "1" * _MB], "error: weight '11111"),
    (["word", "--path", "0," + " " * _MB + "1"], ["word", "--path", "0,1"]),
    (["word", "--path", ",".join(str(-i) for i in range(1 << 18))], ["word", "--path", "0,-1"]),
], ids=["word-token", "word-digits", "word-5000-digits", "word-zeros", "word-spaces", "word-many",
        "walk-token", "walk-digits", "walk-spaces", "walk-many"])
def test_a_megabyte_input_gives_its_value_or_one_short_line(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    if isinstance(want, str):
        assert code == 2 and out == ""
        assert err.startswith(want) and err.count("\n") == 1 and len(err) < 200, err[:300]
    else:
        assert (code, out, err) == run(capsys, *want)


@pytest.mark.parametrize("coeff, message", [
    ("q^", "error: q exponent '' is not an integer in scalar 'q^'"),
    ("q^1.5", "error: q exponent '1.5' is not an integer in scalar 'q^1.5'"),
    # canonical monomial text up to the fault
    ("q^-2 + 2 + q^", "error: q exponent '' is not an integer in scalar 'q^-2 + 2 + q^'"),
    ("q^-1 + x", "error: unknown symbol 'x' in scalar 'q^-1 + x'"),
    ("q^-1 + q + ", "error: malformed scalar 'q^-1 + q + '"),
    ("g*q^-1 + g*q^-1x", "error: q exponent '-1x' is not an integer in scalar 'g*q^-1 + g*q^-1x'"),
])
def test_malformed_exponent_is_named(capsys, coeff, message):
    side = json.dumps({"pairs": [[1, 6], [2, 3], [4, 5]], "coeff": coeff})
    code, out, err = run(capsys, "mul", "--n", "3", "--left", side, "--right", "U1 e")
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("side, message", [
    ({"pairs": [[1, 2, 3], [4]]}, "error: arc [1, 2, 3] is not a pair of points"),
    ({"pairs": [[1], [2, 3, 4]]}, "error: arc [1] is not a pair of points"),
    ({"pairs": [[1, 4], [2, 3]], "blobs": [[1]]}, "error: blob arc [1] is not a pair of points"),
])
def test_arc_that_is_not_a_pair_exits_two(capsys, side, message):
    code, out, err = run(capsys, "mul", "--n", "2", "--left", json.dumps(side), "--right", "U1")
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("side, message", [
    ({"pairs": [[1, 4], [2, 3]], "coeff": 5}, 'field "coeff" must be a string, not 5'),
    ({"pairs": [[1, 4], [2, 3]], "coeff": None}, 'field "coeff" must be a string, not null'),
    ({"pairs": [[1, 4], [2, 3]], "coeff": ["q"]}, 'field "coeff" must be a string, not ["q"]'),
    ({"pairs": None}, 'field "pairs" must be a list of [i, j] lists, not null'),
    ({"pairs": [5, [2, 3]]}, 'field "pairs" must be a list of [i, j] lists, not [5, [2, 3]]'),
    ({"pairs": [[1, 4], [2, 3]], "blobs": [5]},
     'field "blobs" must be a list of [i, j] lists, not [5]'),
    ({"pairs": [[1, 4], [2, 3]], "blobs": None},
     'field "blobs" must be a list of [i, j] lists, not null'),
])
def test_json_field_of_the_wrong_type_is_named(capsys, side, message):
    # these used to surface Python's "'int' object has no attribute 'strip'"
    code, out, err = run(capsys, "mul", "--n", "2", "--left", json.dumps(side), "--right", "U1")
    assert code == 2 and out == ""
    assert err == f"error: diagram JSON {message}\n"


@pytest.mark.parametrize("value", ["true", "2.0", "1.5"])
@pytest.mark.parametrize("where", ["point", "blob point", "n"])
def test_non_integer_diagram_input_exits_two(capsys, value, where):
    v = json.loads(value)
    n = int(v)  # the strand count v would pass as, if it were coerced
    data = {"pairs": [[1, 2], [3, 4]][:n], "blobs": [[1, 2]]}
    if where == "n":
        data["n"] = v
    else:
        arc = data["pairs" if where == "point" else "blobs"][0]
        arc[arc.index(n)] = v
    code, out, err = run(capsys, "mul", "--n", str(n), "--left", json.dumps(data), "--right", "e")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "is not an integer" in err


@pytest.mark.parametrize("blobs", [[[1, 4], [1, 4]], [[1, 4], [4, 1]]])
def test_repeated_blob_arc_exits_two(capsys, blobs):
    left = json.dumps({"pairs": [[1, 4], [2, 3]], "blobs": blobs})
    code, out, err = run(capsys, "mul", "--n", "2", "--left", left, "--right", "U1")
    assert code == 2 and out == ""
    assert err == "error: blob arc (1, 4) is listed more than once\n"


def test_unverified_walk_factorization_fails_its_check(capsys, monkeypatch):
    import blobalg.walks as walks
    from blobalg.words import unit

    # every prefix comes out as the empty word, which is wrong for 0,-1,-2,-1
    monkeypatch.setattr(walks, "_literal_prefix", lambda word, tail: unit(word.n))
    with pytest.raises(AssertionError, match="factorization failed for walk 0,-1,-2,-1"):
        walks.factor_walk_words(3, -1)
    code, out, err = run(capsys, "verify", "--suite", "walks", "--n", "3")
    assert code == 1 and err == ""
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] walks(n=3)/factor m=-1: 3 prefixes * U1 == reduced prefixes, images verified"
        "  (factorization failed for walk 0,-1,-2,-1)",
        "[FAIL] walks(n=3)/factor m=1: 3 prefixes * U1 e U2 U1 == reduced prefixes, images verified"
        "  (factorization failed for walk 0,1,0,1)",
    ]
    assert out.endswith("passed=false\n")


def test_internal_error_exit_three(capsys, monkeypatch):
    import blobalg.cli as cli

    def broken(args):
        raise RuntimeError("table lookup went wrong")

    monkeypatch.setattr(cli, "cmd_word", broken)
    code, out, err = run(capsys, "word", "--path", "0,1")
    assert code == 3 and out == ""
    assert err == "error: internal: RuntimeError: table lookup went wrong\n"


def test_parser_is_built_once(capsys):
    import blobalg.cli as cli

    parser = cli._build_parser()
    code, out, _ = run(capsys, "word", "--path", "0,-1,0,1")
    assert code == 0 and out.strip() == "U1 e U2 U1"
    assert cli._build_parser() is parser


def test_closed_stdout_exits_141_quietly(capsys, monkeypatch):
    import io
    import sys

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["walks", "--n", "3"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_reader_closing_the_pipe_early_exits_141():
    import os
    import subprocess
    import sys

    # 2^15 walks print far more than a pipe buffer holds
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen([sys.executable, "-m", "blobalg.cli", "walks", "--n", "15"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"0,") and err == b""


# -- streamed verify output ----------------------------------------------------


def _buffered_output(suite, n, seed=0, prime=2147483647):
    """What verify prints, built from the library's buffered reports."""
    reports = run_suite(suite, n, seed, prime)
    passed = all(rep.passed for rep in reports)
    lines = [line for rep in reports for line in rep.lines()]
    lines.append(f"suite={suite} n={n} seed={seed} prime={prime} "
                 f"passed={'true' if passed else 'false'}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("suite, n", [
    *(("all", n) for n in range(1, 8)),
    *((suite, n) for suite, (min_n, _) in _SUITES.items() for n in range(max(min_n, 1), 6)),
])
def test_streamed_verify_equals_buffered_reports(capsys, suite, n):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", str(n))
    assert code == 0 and err == ""
    assert out == _buffered_output(suite, n)


def test_streamed_report_keeps_only_failed_checks():
    from blobalg.reports import streaming

    lines = []
    with streaming(lines.append):
        rep = Report("t")
    assert Report("u").sink is None
    for knob in ("sink", "streamed"):  # set only by `streaming` and `add`
        with pytest.raises(TypeError):
            Report("v", **{knob: None})
    rep.add("a", 1, 1, True)
    rep.add("b", 1, 0, False, "why")
    rep.add("c", 2, 2, True)
    assert lines == ["[PASS] t/a: 1 == 1", "[FAIL] t/b: 1 == 0  (why)", "[PASS] t/c: 2 == 2"]
    assert [c.instance for c in rep.checks] == ["b"] and rep.streamed == 2
    assert not rep.passed
    assert rep.summary() == "== t: FAILED (2/3 checks)"
    assert rep.lines() == ["[FAIL] t/b: 1 == 0  (why)", "== t: FAILED (2/3 checks)"]


class _Mutated(Report):
    """A report whose `at`-th check fails (or raises, when `error` is set)."""

    at, error, calls = 300, False, 0

    def add(self, instance, lhs, rhs, passed, note=""):
        self.calls += 1
        if self.calls == self.at:
            if self.error:
                raise RuntimeError("broken mid-report")
            passed = False
        return super().add(instance, lhs, rhs, passed, note)


def test_check_failing_mid_report_prints_in_place_and_exits_one(capsys, monkeypatch):
    import blobalg.presentation as presentation

    monkeypatch.setattr(presentation, "Report", _Mutated)
    code, out, err = run(capsys, "verify", "--suite", "redux", "--n", "5")
    assert code == 1 and err == ""
    lines = out.splitlines()
    total = len(lines) - 2
    assert total > _Mutated.at + 256  # the failure sits inside a block
    assert all(line.startswith("[PASS] redux(n=5)/") for i, line in enumerate(lines[:total])
               if i != _Mutated.at - 1)
    assert lines[_Mutated.at - 1].startswith("[FAIL] redux(n=5)/")
    assert lines[-2:] == [f"== redux(n=5): FAILED ({total - 1}/{total} checks)",
                          "suite=redux n=5 seed=0 prime=2147483647 passed=false"]
    assert out == _buffered_output("redux", 5)


def test_internal_error_mid_report_keeps_the_decided_lines(capsys, monkeypatch):
    import blobalg.presentation as presentation

    monkeypatch.setattr(_Mutated, "error", True)
    monkeypatch.setattr(presentation, "Report", _Mutated)
    code, out, err = run(capsys, "verify", "--suite", "all", "--n", "5")
    assert code == 3
    assert err == "error: internal: RuntimeError: broken mid-report\n"
    lines = out.splitlines()
    # relations and identities (both from presentation) finish; redux stops
    relations, identities = (lines.index(line) for line in lines if line.startswith("== "))
    assert lines[relations].startswith("== relations(n=5): ok")
    assert lines[identities].startswith("== identities(n=5): ok")
    redux = lines[identities + 1:]
    assert len(redux) == _Mutated.at - 1 and all(line.startswith("[PASS] redux(n=5)/")
                                                  for line in redux)


def test_verify_writes_in_blocks(monkeypatch):
    import io
    import sys

    class Counting(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Counting())
    assert main(["verify", "--suite", "redux", "--n", "5"]) == 0
    lines = sys.stdout.getvalue().count("\n")
    assert lines > 600 and sys.stdout.writes <= -(-lines // 256) + 1


def test_verify_reader_closing_the_pipe_early_exits_141():
    import os
    import subprocess
    import sys

    # redux at n = 7 prints far more than a pipe buffer holds
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen([sys.executable, "-m", "blobalg.cli", "verify", "--suite", "redux",
                             "--n", "7"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert first.startswith(b"[PASS] redux(n=7)/") and err == b""


# -- direct dispatch to a command's parser --------------------------------------


@pytest.mark.parametrize("argv", [
    ["mul", "--n", "3", "--left", "U1", "--right", "e"],
    ["verify", "--suite", "all", "--n", "2"],
    ["walks", "--n", "3", "--m", "1", "--format", "json"],
    ["basis", "--n", "2", "--squared", "--m", "0"],
    ["phi", "--n", "x", "--word", "U1"],
    ["phi", "--n", "٣", "--word", "U1"],
    ["phi", "--n", "3"],
    ["phi", "--n", "3", "--word", "U1", "--extra"],
    ["verify", "--suite", "nonsense", "--n", "3"],
    ["verify", "--n", "3", "--suite"],
])
def test_command_parser_agrees_with_the_full_parse(argv):
    import blobalg.cli as cli

    def parse(parse_args, args):
        try:
            return vars(parse_args(args))
        except ValueError as exc:
            return str(exc)

    parser = cli._build_parser()
    direct = parse(parser.commands[argv[0]].parse_args, argv[1:])
    if isinstance(direct, dict):
        direct["command"] = argv[0]
    assert direct == parse(parser.parse_args, argv)
