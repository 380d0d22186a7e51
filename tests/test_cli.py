"""Command-line interface: exit codes, output stability, file handling."""

import json
import os
import subprocess
import sys
import time
from math import gcd

import pytest

from betabern.cli import EX_DATAERR, EX_USAGE, main

YZ = "params: - ; vars: y:0, z:0"
APPENDIX_ONE = "nu[1,1]p.pch[p](pch[p](y,z), z)"
APPENDIX_TWO = "nu[1,1]p.nu[1,1]q.pch[p](pch[q](y,z), z)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(*argv):
    """One CLI call in a fresh interpreter, as users run it."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "betabern.cli", *argv, "--no-banner"],
                          capture_output=True, text=True, env=env, timeout=60)


class TestBasics:
    def test_usage_error_without_command(self, capsys):
        code, _, err = run(capsys)
        assert code == EX_USAGE and "usage error" in err

    def test_banner_and_suppression(self, capsys):
        code, out, _ = run(capsys, "check", "--context", YZ, "-t", "y")
        assert code == 0 and out.startswith("betabern 0.1.0\n")
        code, out, _ = run(capsys, "check", "--context", YZ, "-t", "y", "--no-banner")
        assert code == 0 and out == "ok: y\n"

    def test_byte_identical_output(self, capsys):
        argv = ("normalize", "--context", YZ, "-t", APPENDIX_ONE, "--no-banner")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestCheck:
    def test_zero_hyperparameter_exits_65(self, capsys):
        code, _, err = run(capsys, "check", "--context", "params: - ; vars: x:0",
                           "-t", "nu[1,0]p.x", "--no-banner")
        assert code == EX_DATAERR
        assert "positive hyperparameters" in err

    def test_wellformed_term_ok(self, capsys):
        code, out, _ = run(capsys, "check", "--context", "params: p ; vars: x:0, y:0",
                           "-t", "pch[p](x, y)", "--no-banner")
        assert code == 0 and out == "ok: pch[p](x, y)\n"


class TestNormalize:
    def test_golden_reified_form(self, capsys):
        code, out, _ = run(capsys, "normalize", "--context", YZ,
                           "-t", APPENDIX_ONE, "--no-banner")
        assert code == 0
        assert "reified: rch[1,2](y, z)" in out

    def test_structured_output(self, capsys):
        code, out, _ = run(capsys, "normalize", "--context", YZ,
                           "-t", APPENDIX_ONE, "--no-banner", "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 0 and payload["n"] == 2
        assert payload["weights"] == [[1, 2]]


class TestDecide:
    def test_equal_exits_zero(self, capsys):
        code, out, _ = run(capsys, "decide", "--context", "params: p ; vars: x:0, y:0",
                           "-t", "rch[1,1](x,y)",
                           "-t", "pch[p](pch[p](rch[1,1](x,y), x), pch[p](y, rch[1,1](x,y)))",
                           "--no-banner")
        assert code == 0 and out.startswith("equal")

    def test_not_equal_exits_one_with_witness(self, capsys):
        code, out, _ = run(capsys, "decide", "--context", "params: - ; vars: x:2",
                           "-t", "nu[1,1]p.x(p,p)", "-t", "nu[1,1]p.nu[1,1]q.x(p,q)",
                           "--no-banner")
        assert code == 1
        assert "not equal" in out and "witness:" in out

    def test_parse_error_exits_65(self, capsys):
        code, _, err = run(capsys, "decide", "--context", YZ,
                           "-t", "rch[0,0](y,z)", "-t", "y", "--no-banner")
        assert code == EX_DATAERR and "error" in err

    def test_structured_verdict(self, capsys):
        code, out, _ = run(capsys, "decide", "--context", YZ,
                           "-t", APPENDIX_ONE, "-t", APPENDIX_TWO,
                           "--no-banner", "--format", "structured")
        assert code == 1
        payload = json.loads(out)
        assert payload["equal"] is False
        assert payload["left"]["weights"] == [[1, 2]]
        assert payload["right"]["weights"] == [[1, 3]]
        assert payload["witness"] == {"index": [], "column": 1, "chain": "z",
                                      "left_weight": 2, "right_weight": 3}

    def test_term_files_and_corpus(self, capsys, tmp_path):
        a = tmp_path / "a.term"
        a.write_text(APPENDIX_ONE)
        b = tmp_path / "b.term"
        b.write_text("rch[1,2](y, z)")
        code, out, _ = run(capsys, "decide", "--context", YZ,
                           "--term-file", str(a), "--term-file", str(b), "--no-banner")
        assert code == 0 and out.startswith("equal")

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "pair1.bbt").write_text(
            f"context: {YZ}\n# the two-draw forms\n{APPENDIX_ONE}\nrch[1,2](y, z)\n")
        (corpus / "pair2.bbt").write_text(f"{APPENDIX_ONE}\n{APPENDIX_TWO}\n")
        code, out, _ = run(capsys, "decide", "--context", YZ,
                           "--corpus", str(corpus), "--no-banner")
        assert code == 1
        assert "pair1.bbt: equal" in out and "pair2.bbt: not equal" in out

    @pytest.mark.parametrize("name", ["missing", "empty"])
    def test_corpus_without_files_exits_65(self, capsys, tmp_path, name):
        # a missing or empty directory must not read as "all pairs equal"
        corpus = tmp_path / name
        if name == "empty":
            corpus.mkdir()
        code, out, err = run(capsys, "decide", "--context", YZ,
                             "--corpus", str(corpus), "--no-banner")
        assert code == EX_DATAERR and out == ""
        assert err.startswith("error: corpus ") and err.count("\n") == 1


class TestEval:
    def test_polynomial_output(self, capsys):
        code, out, _ = run(capsys, "eval", "--context", "params: - ; vars: x:2",
                           "-t", "nu[1,1]p.x(p,p)",
                           "-a", "f_x(a,b) = a*b + 1/2", "--no-banner")
        assert code == 0 and out == "5/6\n"

    def test_symbolic_result(self, capsys):
        code, out, _ = run(capsys, "eval", "--context", "params: p ; vars: x:0, y:0",
                           "-t", "pch[p](x, y)", "-a", "f_x = 1", "-a", "f_y = 0",
                           "--no-banner")
        assert code == 0 and out == "p\n"

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--context", YZ, "-t", "y",
                           "-a", "f_y = 1", "--no-banner")
        assert code == EX_USAGE and "missing --arg" in err

    def test_unknown_variable_in_arg(self, capsys):
        code, _, err = run(capsys, "eval", "--context", YZ, "-t", "y",
                           "-a", "f_w = 1", "-a", "f_y = 0", "-a", "f_z = 0",
                           "--no-banner")
        assert code == EX_DATAERR and "unknown variable" in err

    @pytest.mark.parametrize("context, term, arg", [
        ("params: - ; vars: x:1", "nu[1,1]p.x(p)", "f_x(\u00e9) = \u00e9*\u00e9"),
        ("params: - ; vars: x:2", "nu[1,1]p.nu[2,1]q.x(p,q)", "f_x(a,a) = a"),
        ("params: - ; vars: x:1", "nu[1,1]p.x(p)", "f_x(1) = 1"),
    ])
    def test_bad_formals_exit_65(self, capsys, context, term, arg):
        code, out, err = run(capsys, "eval", "--context", context, "-t", term,
                             "-a", arg, "--no-banner")
        assert code == EX_DATAERR and out == "", err
        assert err.startswith("error: ")
        assert "Traceback" not in err and "internal error" not in err

    def test_repeated_argument_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--context", "params: - ; vars: x:1",
                             "-t", "nu[1,1]p.x(p)", "-a", "f_x(a) = a", "-a", "f_x(b) = 1",
                             "--no-banner")
        assert code == EX_USAGE and out == ""
        assert "repeated --arg" in err and "Traceback" not in err


    def test_huge_exponent_refused_while_parsing(self):
        # expanding a^(10^11) would not finish; the parser refuses it first
        proc = spawn("eval", "--context", "params: - ; vars: x:1", "-t", "nu[1,1]p.x(p)",
                     "-a", "f_x(a) = a^100000000000")
        assert proc.returncode == EX_DATAERR and proc.stdout == ""
        assert proc.stderr == "error: exponent 100000000000 is 2^32 or more\n"

    def test_huge_moment_in_closed_form(self, capsys):
        # E[q^e] under Beta(1, 1) is 1/(e+1), one factor of the shorter
        # product, not e of them
        started = time.time()
        code, out, _ = run(capsys, "eval", "--context", "params: - ; vars: x:1",
                           "-t", "nu[1,1]p.x(p)", "-a", "f_x(a) = a^10000000", "--no-banner")
        assert code == 0 and out == "1/10000001\n"
        assert time.time() - started < 2.0

    def test_large_exponent_on_binder_free_term(self, capsys):
        code, out, _ = run(capsys, "eval", "--context", "params: q ; vars: x:1", "-t", "x(q)",
                           "-a", "f_x(a) = 1/2*a^1000000 - a^3", "--no-banner")
        assert code == 0 and out == "1/2*q^1000000 - q^3\n"


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ("check", "--context", YZ, "-t", "y", "--format", "structured"),
        ("eval", "--context", YZ, "-t", "y", "-a", "f_y = 1", "-a", "f_z = 0",
         "--format", "text"),
        ("replay", "--context", YZ, "--start", "y", "--end", "y", "--steps", os.devnull,
         "-t", "nonsense(("),
        ("replay", "--context", YZ, "--start", "y", "--end", "y", "--steps", os.devnull,
         "--term-file", os.devnull),
        ("replay", "--context", YZ, "--start", "y", "--end", "y", "--steps", os.devnull,
         "--format", "text"),
        ("simulate", "--context", YZ, "-t", "y", "--trials", "10", "--format", "structured"),
    ], ids=["check-format", "eval-format", "replay-term", "replay-term-file",
            "replay-format", "simulate-format"])
    def test_unread_option_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--no-banner")
        assert code == EX_USAGE and out == ""
        assert err.startswith("usage error: unrecognized arguments: ")


class TestNonAsciiInput:
    """Non-ASCII digits and letters are bad characters, not crashes."""

    @pytest.mark.parametrize("argv", [
        ("normalize", "--context", YZ, "-t", "rch[\u00b2,1](y,z)"),
        ("check", "--context", "params: - ; vars: y:\u00b2", "-t", "y"),
        ("eval", "--context", "params: - ; vars: x:1", "-t", "nu[1,1]p.x(p)",
         "-a", "f_x(a) = a^\u00b2"),
    ])
    def test_exits_65(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--no-banner")
        assert code == EX_DATAERR, err
        assert "unexpected character '\u00b2'" in err
        assert "Traceback" not in err and "internal error" not in err


class TestLongNumerals:
    """Input numerals past Python's 4,300-digit int-string limit are refused
    at their token; derived weights past it print in full."""

    def test_overlong_weight_exits_65(self, capsys):
        code, _, err = run(capsys, "check", "--context", YZ,
                           "-t", f"rch[{'1' * 5000},1](y, z)", "--no-banner")
        assert code == EX_DATAERR
        assert err == "error: line 1, col 5: numeral of 5000 digits exceeds the limit of 4300\n"

    @pytest.mark.parametrize("argv", [
        ("check", "--context", f"params: - ; vars: y:{'1' * 4301}", "-t", "y"),
        ("eval", "--context", "params: - ; vars: x:1", "-t", "nu[1,1]p.x(p)",
         "-a", f"f_x(a) = {'9' * 4301}*a"),
    ])
    def test_overlong_numerals_elsewhere_exit_65(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--no-banner")
        assert code == EX_DATAERR, err
        assert "numeral of 4301 digits exceeds the limit of 4300" in err

    def test_overlong_derivation_field_exits_65(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text(f"Scale rl path=. k={'1' * 4301}\n")
        code, _, err = run(capsys, "replay", "--context", YZ, "--start", "rch[1,2](y,z)",
                           "--end", "rch[1,2](y,z)", "--steps", str(steps), "--no-banner")
        assert code == EX_DATAERR
        assert err == ("error: derivation line 1: field 'k': numeral of 4301 digits "
                       "exceeds the limit of 4300\n")

    @pytest.mark.parametrize("value", ["\u0661\u0662", "\u00b2"])
    def test_non_ascii_derivation_numeral_exits_65(self, capsys, tmp_path, value):
        steps = tmp_path / "steps.txt"
        steps.write_text(f"Scale rl path=. k={value}\n", encoding="utf-8")
        code, _, err = run(capsys, "replay", "--context", YZ, "--start", "rch[1,2](y,z)",
                           "--end", "rch[1,2](y,z)", "--steps", str(steps), "--no-banner")
        assert code == EX_DATAERR
        assert err.startswith("error: derivation line 1: field 'k': expected a numeral, "
                              "a name or a quoted term, got ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_numeral_at_the_limit_accepted(self, capsys):
        term = f"rch[{'1' * 4300},1](y, z)"
        code, out, _ = run(capsys, "check", "--context", YZ, "-t", term, "--no-banner")
        assert code == 0 and out == f"ok: {term}\n"

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_long_derived_weights_print(self, capsys, fmt):
        a, b = "7" * 3000, "3" * 2500
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "normalize", "--context", "params: - ; vars: y:0, z:0, w:0",
                             "-t", f"rch[{a},{b}](y, rch[{b},{a}](z, w))",
                             "--format", fmt, "--no-banner")
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit  # restored after the command
        a, b = int(a), int(b)
        weights = [a * b, a * (a + b), b * b]  # chains w, y, z
        g = gcd(*weights)
        sys.set_int_max_str_digits(0)
        try:
            want = [w // g for w in weights]
            assert max(len(str(w)) for w in want) > 4300
            if fmt == "text":
                assert f"I=(): {' '.join(map(str, want))}\n" in out
            else:
                assert json.loads(out)["weights"] == [want]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_int_string_limit_holds_outside_output(self, capsys, monkeypatch):
        # the command imports ``normalize`` when it runs, so the spy goes on
        # the normalizer module
        import betabern.normalizer as normalizer
        seen = []

        def spy(ctx, t):
            seen.append(sys.get_int_max_str_digits())
            return normalize(ctx, t)

        normalize = normalizer.normalize
        monkeypatch.setattr(normalizer, "normalize", spy)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, _, err = run(capsys, "normalize", "--context", YZ, "-t", "rch[1,2](y, z)",
                               "--no-banner")
            assert code == 0, err
            assert seen == [4300]  # lifted only while printing
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)


class TestReplay:
    def test_golden_derivation_file(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text(
            "Conj lr path=.\n"
            "Conj lr path=l\n"
            "D1 lr path=l.l\n"
            "D1 lr path=l.r\n"
            "D1 lr path=r\n"
            "Scale rl path=. k=3\n"
            "ConvexZero rl path=r i=3 y='y'\n"
            "ConvexSymm lr path=r\n"
            "ConvexDistr lr path=.\n"
            "ConvexZero lr path=l\n"
            "ConvexIdem lr path=r\n"
            "Scale lr path=. k=2\n")
        code, out, _ = run(capsys, "replay", "--context", YZ,
                           "--start", APPENDIX_ONE, "--end", "rch[1,2](y,z)",
                           "--steps", str(steps), "--no-banner")
        assert code == 0 and "derivation ok" in out

    def test_wrong_end_exits_one(self, capsys, tmp_path):
        steps = tmp_path / "steps.txt"
        steps.write_text("ConvexSymm lr path=.\n")
        code, out, _ = run(capsys, "replay", "--context", YZ,
                           "--start", "rch[1,2](y,z)", "--end", "rch[1,2](y,z)",
                           "--steps", str(steps), "--no-banner")
        assert code == 1 and "different term" in out


    def test_reserved_word_binder_exits_65(self, capsys, tmp_path):
        # D1 introduces a binder named 'rch': its text would not parse
        steps = tmp_path / "steps.txt"
        steps.write_text("D1 rl path=. i=1 j=1 p=rch\nD1 lr path=.\n")
        code, out, err = run(capsys, "replay", "--context", YZ, "--start", "rch[1,2](y,z)",
                             "--end", "rch[1,2](y,z)", "--steps", str(steps), "--no-banner")
        assert code == EX_DATAERR and "derivation ok" not in out
        assert err == ("error: step 0 (D1 rl path=. i=1 j=1 p=rch) produced ill-formed term: "
                       "at .: binder 'rch' is a reserved word\n")

    @pytest.mark.parametrize("step, message", [
        ("D1 rl path=. i=a j=1 p=q", "D1: field 'i' must be a numeral"),
        ("D1 rl path=. i=1 j=1 p=7", "D1: field 'p' must be a name"),
        ("ConvexIdem rl path=. i=a j=1", "ConvexIdem: field 'i' must be a numeral"),
        ("D2 rl path=. p='y'", "D2: field 'p' must be a name"),
        ("Scale rl path=. k=a", "Scale: field 'k' must be a numeral"),
        ("Scale rl path=. k='y'", "Scale: field 'k' must be a numeral"),
    ])
    def test_field_of_the_wrong_kind_exits_65(self, capsys, tmp_path, step, message):
        steps = tmp_path / "steps.txt"
        steps.write_text(step + "\n")
        code, _, err = run(capsys, "replay", "--context", YZ, "--start", "rch[1,2](y,z)",
                           "--end", "rch[1,2](y,z)", "--steps", str(steps), "--no-banner")
        assert code == EX_DATAERR
        assert err == f"error: step 0 ({step}): {message}\n"


class TestSimulate:
    def test_report_format(self, capsys):
        code, out, _ = run(capsys, "simulate", "--context", YZ, "-t", APPENDIX_ONE,
                           "--impl", "polya", "--trials", "20000", "--seed", "13",
                           "--no-banner")
        assert code == 0
        assert "pass: yes" in out
        assert any(line.startswith("leaf y ") and line.endswith("1/3")
                   for line in out.splitlines())

    def test_betabern_impl(self, capsys):
        code, out, _ = run(capsys, "simulate", "--context", YZ, "-t", APPENDIX_TWO,
                           "--impl", "betabern", "--trials", "20000", "--seed", "14",
                           "--no-banner")
        assert code == 0 and "pass: yes" in out

    @pytest.mark.parametrize("trials, message", [
        ("0", "error: trials must be at least 1\n"),
        ("-3", "error: trials must be at least 1\n"),
        ("3", "error: trials=3 too small for this distribution\n"),
    ])
    def test_bad_trials_exit_65(self, capsys, trials, message):
        code, out, err = run(capsys, "simulate", "--context", YZ, "-t", APPENDIX_ONE,
                             "--trials", trials, "--no-banner")
        assert (code, out, err) == (EX_DATAERR, "", message)


class TestPaperSuite:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "paper-suite", "--no-banner")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "checks passed" in lines[-1]


class TestDeepInput:
    """A deeply nested term is checked and decided, not an internal error.

    Run in a fresh interpreter, as users run the CLI, so that the stack
    depth the test runner adds does not move the limit.
    """

    CONTEXT = "params: - ; vars: y:0, z:0"

    D = "rch[1,2](z, " * 3000 + "y" + ")" * 3000

    def cli(self, command, depth, *argv):
        deep = "rch[1,2](z, " * depth + "y" + ")" * depth
        if command == "replay":
            terms = ["--start", deep, "--end", deep]
        else:
            terms = ["-t", deep] * (2 if command == "decide" else 1)
        return spawn(command, "--context", self.CONTEXT, *terms, *argv)

    def assert_decided(self, command, depth):
        # the chain reaches y with probability (2/3)^depth
        proc = self.cli(command, depth)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        if command == "decide":
            assert proc.stdout == "equal (k=0, n=2)\n"
        else:
            y, z = 2 ** depth, 3 ** depth - 2 ** depth
            assert proc.stdout == ("k: 0\nn: 2\nchains:\n  [0] y\n  [1] z\nweights:\n"
                                   f"  I=(): {y} {z}\nreified: rch[{y},{z}](y, z)\n")

    @pytest.mark.parametrize("command", ["normalize", "decide"])
    @pytest.mark.parametrize("depth", [1000, 3000])
    def test_deep_chain_decided(self, command, depth):
        self.assert_decided(command, depth)

    def test_check_accepts_deep_chain(self):
        proc = self.cli("check", 3000)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"ok: {'rch[1,2](z, ' * 3000}y{')' * 3000}\n"

    @pytest.mark.parametrize("command", ["normalize", "decide"])
    def test_depth_900_still_decided(self, command):
        self.assert_decided(command, 900)

    @pytest.mark.parametrize("swaps", [0, 2])
    def test_replay_deep_chain(self, tmp_path, swaps):
        # ConvexSymm twice on the innermost choice returns to the start term
        steps = tmp_path / "steps.txt"
        steps.write_text(f"ConvexSymm lr path={'.'.join('r' * 2999)}\n" * swaps)
        proc = self.cli("replay", 3000, "--steps", str(steps))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "derivation ok\n"

    # short ids: pytest puts the test id in PYTEST_CURRENT_TEST, and an id
    # holding these terms would exceed the kernel's limit on one
    # environment string, so the child could not start
    @pytest.mark.parametrize("step, start, end", [
        ("D1 rl path=. i=1 j=1 p=q", D, f"nu[1,1]q.{D}"),
        ("C4 rl path=.", f"rch[1,1](nu[1,1]p.{D}, nu[1,1]q.{D})", f"nu[1,1]p.rch[1,1]({D}, {D})"),
    ], ids=["D1", "C4"])
    def test_replay_moves_binder_over_deep_chain(self, tmp_path, step, start, end):
        # D1 checks the new name against every name of the chain, and C4
        # renames q to p through the whole right branch
        steps = tmp_path / "steps.txt"
        steps.write_text(step + "\n")
        proc = spawn("replay", "--context", self.CONTEXT, "--start", start, "--end", end,
                          "--steps", str(steps))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "derivation ok\n"

    def test_eval_deep_argument_blames_the_polynomial(self):
        poly = "(" * 3000 + "a" + ")" * 3000
        proc = spawn("eval", "--context", "params: - ; vars: x:1", "-t", "nu[1,1]p.x(p)",
                          "-a", f"f_x(a) = {poly}")
        assert proc.returncode == EX_DATAERR
        assert proc.stdout == ""
        assert proc.stderr == f"error: polynomial {poly[:40]!r}... is nested too deeply\n"


class TestStartUp:
    """Each command loads only the modules it runs.

    Run in fresh interpreters: this test session has already imported
    every module, so an in-process call cannot see what a command loads,
    nor whether ``main`` maps an error whose module it never imported.
    """

    SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    LOADED = r"""
import json, sys
from betabern.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("betabern."))]))
"""

    def child(self, *argv):
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": self.SRC}, timeout=60)

    def loaded(self, *argv):
        proc = self.child("-c", self.LOADED, json.dumps([*argv, "--no-banner"]))
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        return code, set(modules)

    @pytest.mark.parametrize("argv, want_code, want", [
        (("check", "--context", YZ, "-t", "y"), 0, {"terms"}),
        (("check", "--context", YZ, "-t", "pch[p](y, z)"), EX_DATAERR, {"terms"}),
        (("decide", "--context", YZ, "-t", APPENDIX_ONE, "-t", APPENDIX_TWO), 1,
         {"terms", "normalizer", "decide"}),
        (("normalize", "--context", YZ, "-t", APPENDIX_ONE), 0, {"terms", "normalizer"}),
        (("normalize", "--context", YZ), EX_USAGE, {"terms", "normalizer"}),
        (("eval", "--context", "params: - ; vars: x:1", "-t", "nu[1,1]p.x(p)",
          "-a", "f_x(a) = a"), 0, {"terms", "normalizer", "poly", "semantics"}),
        (("simulate", "--context", YZ, "-t", "y", "--trials", "10"), 0,
         {"terms", "normalizer", "simulate"}),
    ], ids=["check", "check-parse-error", "decide", "normalize", "usage", "eval", "simulate"])
    def test_command_loads_only_its_modules(self, argv, want_code, want):
        code, modules = self.loaded(*argv)
        assert code == want_code
        assert modules == {"betabern.cli", *(f"betabern.{m}" for m in want)}

    def test_usage_error_loads_no_command_module(self):
        code, modules = self.loaded("bogus")
        assert code == EX_USAGE
        assert modules == {"betabern.cli", "betabern.terms"}

    @pytest.mark.parametrize("argv, stderr", [
        (("eval", "--context", "params: - ; vars: x:1", "-t", "nu[1,1]p.x(p)", "-a", "garbage"),
         "error: argument 'garbage' needs the form 'f_<var>(formals) = poly'\n"),
        (("replay", "--context", YZ, "--start", "y", "--end", "y", "--steps", "STEPS"),
         "error: derivation line 1: unknown axiom 'Nope'\n"),
    ], ids=["PolyError", "AxiomError"])
    def test_errors_of_lazily_loaded_modules_exit_65(self, tmp_path, argv, stderr):
        steps = tmp_path / "steps.txt"
        steps.write_text("Nope lr path=.\n")
        argv = [str(steps) if arg == "STEPS" else arg for arg in argv]
        proc = self.child("-m", "betabern.cli", *argv, "--no-banner")
        assert proc.returncode == EX_DATAERR
        assert proc.stdout == ""
        assert proc.stderr == stderr
