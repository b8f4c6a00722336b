import contextlib
import io
import json
import random
import subprocess
import sys

import pytest

from tribcount import cli, closed_forms, fast_count, oracle
from tribcount.core_word import prefix, trib_number

import invariant_checks


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_values(capsys):
    code, out, _ = run(capsys, "count", "--stat", "A", "--n", "65")
    assert code == 0 and out.strip() == "29"
    code, out, _ = run(capsys, "count", "--stat", "B", "--n", "60")
    assert code == 0 and out.strip() == "47"
    code, out, _ = run(capsys, "count", "--stat", "D", "--n", "500")
    assert code == 0 and out.strip() == "29"


def test_count_large_n_formula_only(capsys):
    code, out, _ = run(capsys, "count", "--stat", "B", "--n", str(10**15))
    assert code == 0
    assert int(out.strip()) == fast_count.algorithm_B(10**15)


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "--stat", "X", "--n", "5")
    assert code == 1
    code, _, err = run(capsys, "count", "--stat", "A", "--n", "-1")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "count", "--stat", "A", "--n", str(10**19))
    assert code == 1 and "error" in err


def test_bad_subcommand(capsys):
    assert run(capsys, "bogus")[0] == 1


def test_table_zero_rows(capsys):
    code, out, _ = run(capsys, "table", "--from", "1", "--to", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,A,B,C,D"
    assert lines[1:] == [f"{n},0,0,0,0" for n in range(1, 8)]


def test_table_row_8(capsys):
    code, out, _ = run(capsys, "table", "--from", "8", "--to", "8")
    assert code == 0
    assert out.strip().split("\n")[1] == "8,1,1,0,0"


def test_table_json_row_24(capsys):
    code, out, _ = run(capsys, "table", "--from", "24", "--to", "24",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"n": 24, "A": 7, "B": 9, "C": 0, "D": 0}]


def _json_table(lo, hi):
    rows = [{"n": n, "A": closed_forms.distinct_squares(n),
             "B": fast_count.algorithm_B(n), "C": closed_forms.distinct_cubes(n),
             "D": fast_count.algorithm_D(n)} for n in range(lo, hi + 1)]
    return json.dumps(rows) + "\n"


@pytest.mark.parametrize("lo,hi,chunk", [
    (0, 0, 3), (0, 2, 3), (0, 3, 3), (0, 10, 3), (10**18 - 4, 10**18, 2),
    (1, 2 * cli._CHUNK + 1, cli._CHUNK),
])
def test_table_json_streams_the_bytes_of_json_dumps(capsys, monkeypatch,
                                                    lo, hi, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    code, out, _ = run(capsys, "table", "--from", str(lo), "--to", str(hi),
                       "--format", "json")
    assert code == 0
    assert out == _json_table(lo, hi)


def test_table_csv_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--from", "1", "--to", "60")
    assert code == 0
    lines = out.strip().split("\n")
    assert not out.endswith(",\n")
    for line in lines[1:]:
        n, a, b, c, d = (int(x) for x in line.split(","))
        assert a == closed_forms.distinct_squares(n)
        assert b == fast_count.algorithm_B(n)
        assert c == closed_forms.distinct_cubes(n)
        assert d == fast_count.algorithm_D(n)


def test_table_bad_range(capsys):
    assert run(capsys, "table", "--from", "5", "--to", "4")[0] == 1
    assert run(capsys, "table", "--from", "0", "--to", str(2 * 10**6))[0] == 1
    # 10^6 + 1 rows, one past the cap, refused before any row is printed
    code, out, err = run(capsys, "table", "--from", "1", "--to", "1000001")
    assert code == 1 and out == ""
    assert "table range limited to 10^6 rows" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max", "100")
    assert code == 0
    for name in "ABCD":
        assert f"{name}: ok" in out


def test_verify_exhaustive(capsys):
    code, out, _ = run(capsys, "verify", "--max", "150", "--exhaustive")
    assert code == 0
    assert "restricted root lengths: ok" in out
    assert "fourth powers absent: ok" in out
    assert "repetition roots primitive: ok" in out


EXHAUSTIVE_LINES = ("restricted root lengths", "fourth powers absent",
                    "repetition roots primitive")


def _verify_fails_at(capsys, line):
    """verify --exhaustive at 600 prints the four counts ok, ``line`` FAIL
    and the other claims ok, and exits 2."""
    code, out, _ = run(capsys, "verify", "--max", "600", "--exhaustive")
    assert code == 2
    want = [f"{name}: ok over [1, 600]" for name in "ABCD"]
    want += [f"{name}: {'FAIL' if name == line else 'ok'}"
             for name in EXHAUSTIVE_LINES]
    assert out.splitlines() == want


def _scan_with(monkeypatch, change_runs):
    """Make the oracle's scan hand verify its square runs through
    ``change_runs``; the per-position columns stay as scanned."""
    scan = oracle.scan_repetitions

    def changed(n, exhaustive=False):
        s = scan(n, exhaustive)
        return s._replace(square_runs=change_runs(s.square_runs))
    monkeypatch.setattr(oracle, "scan_repetitions", changed)


def test_verify_fails_on_a_root_outside_the_families(capsys, monkeypatch):
    # the families lose root length 1, at which the squares aa end
    roots = oracle._roots
    monkeypatch.setattr(oracle, "_roots", lambda n, power, exhaustive: [
        L for L in roots(n, power, exhaustive) if exhaustive or L != 1])
    _verify_fails_at(capsys, "restricted root lengths")


def test_verify_fails_on_a_fourth_power(capsys, monkeypatch):
    # the first square run, aa ending at 8, grown to span 4 letters: aaaa
    def grown(runs):
        (L, first, _), *rest = runs
        return ((L, first, first + 2 * L), *rest)
    _scan_with(monkeypatch, grown)
    _verify_fails_at(capsys, "fourth powers absent")


def test_verify_fails_on_a_non_primitive_root(capsys, monkeypatch):
    # a run of root length 2 ending at 8, whose root, letters 7 and 8, is
    # aa, a power of a
    assert prefix(8)[6:] == "aa"
    _scan_with(monkeypatch, lambda runs: runs + ((2, 8, 8),))
    _verify_fails_at(capsys, "repetition roots primitive")


def test_verify_cap(capsys):
    code, _, err = run(capsys, "verify", "--max", str(oracle.ORACLE_CAP + 1))
    assert code == 1
    assert err == (f"error: --max {oracle.ORACLE_CAP + 1} outside "
                   f"[1, {oracle.ORACLE_CAP}]\n")
    assert run(capsys, "verify", "--max", str(oracle.EXHAUSTIVE_CAP + 1),
               "--exhaustive")[0] == 1


def test_verify_reports_divergence(capsys, monkeypatch):
    monkeypatch.setitem(cli._STATS, "B", lambda n: 0)
    code, out, _ = run(capsys, "verify", "--max", "60")
    assert code == 2
    assert "B: FAIL at n=8" in out
    assert "A: ok" in out


def test_positions_square_65(capsys):
    code, out, _ = run(capsys, "positions", "--kind", "square", "--n", "65")
    assert code == 0
    assert [int(x) for x in out.split()] == invariant_checks.SQUARE_ENDS_65


def test_positions_cube_365(capsys):
    code, out, _ = run(capsys, "positions", "--kind", "cube", "--n", "365")
    assert code == 0
    assert [int(x) for x in out.split()] == invariant_checks.CUBE_ENDS_365


def test_positions_cube_57_empty(capsys):
    code, out, _ = run(capsys, "positions", "--kind", "cube", "--n", "57")
    assert code == 0
    assert out.strip() == ""


def test_positions_repeated_cube_500(capsys):
    code, out, _ = run(capsys, "positions", "--kind", "cube", "--n", "500",
                       "--repeated")
    assert code == 0
    assert [int(x) for x in out.split()] == invariant_checks.CUBE_ENDS_500_REPEATED


def test_positions_indicator_mode(capsys):
    code, out, _ = run(capsys, "positions", "--kind", "square", "--n", "65")
    assert code == 0
    assert [int(x) for x in out.split()] == invariant_checks.SQUARE_ENDS_65
    code, out, _ = run(capsys, "positions", "--kind", "cube", "--n", "365")
    assert code == 0
    assert [int(x) for x in out.split()] == invariant_checks.CUBE_ENDS_365


def test_positions_match_oracle(capsys):
    n = 20_000
    printed = {}
    for kind in ("square", "cube"):
        for extra in ((), ("--repeated",)):
            code, out, _ = run(capsys, "positions", "--kind", kind, "--n",
                               str(n), *extra)
            assert code == 0, (kind, extra)
            printed[kind, bool(extra)] = [int(x) for x in out.split()]
    summary = oracle.scan_repetitions(n)
    for kind, ends, vec in (("square", summary.squares, summary.a),
                            ("cube", summary.cubes, summary.c)):
        assert printed[kind, True] == list(ends), kind
        assert printed[kind, False] == [i for i in range(1, n + 1) if vec[i]], kind


def test_kernel_output(capsys):
    code, out, _ = run(capsys, "kernel", "--m", "5")
    assert code == 0
    assert out.strip() == "m=5 word=bab length=3 first_end=15"
    code, out, _ = run(capsys, "kernel", "--m", "4")
    assert out.strip() == "m=4 word=aa length=2 first_end=8"
    code, out, _ = run(capsys, "kernel", "--m", "1")
    assert out.strip() == "m=1 word=a length=1 first_end=1"


def test_kernel_bad_order(capsys):
    assert run(capsys, "kernel", "--m", "0")[0] == 1


def test_kernel_limit_is_the_library_bound(capsys):
    # the CLI prints every kernel word the library materialises
    code, out, _ = run(capsys, "kernel", "--m", "28")
    assert code == 0
    assert " length=3045154 first_end=" in out
    code, out, err = run(capsys, "kernel", "--m", "30")
    assert code == 1 and out == ""
    assert err == "error: --m 30 outside [1, 29]\n"


def test_count_at_block_lengths(capsys):
    for m in (5, 10, 20, 25):
        code, out, _ = run(capsys, "count", "--stat", "B", "--n", str(trib_number(m)))
        assert code == 0 and int(out) == closed_forms.repeated_squares_at_t(m)
        code, out, _ = run(capsys, "count", "--stat", "D", "--n", str(trib_number(m)))
        assert code == 0 and int(out) == closed_forms.repeated_cubes_at_t(m)


def test_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "tribcount.cli", "count", "--stat", "C", "--n", "365"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "11"
    proc = subprocess.run(
        [sys.executable, "-m", "tribcount.cli", "count", "--stat", "C"],
        capture_output=True, text=True)
    assert proc.returncode == 1


def test_positions_row_cap(capsys):
    # positions are streamed, up to 10^6 of them
    code, out, err = run(capsys, "positions", "--kind", "square", "--n",
                         str(10**18))
    assert code == 1 and out == "" and "10^6 rows" in err
    # B(203290) is exactly 10^6, so one more position is refused
    assert fast_count.algorithm_B(203_290) == cli.ROW_CAP
    code, out, err = run(capsys, "positions", "--kind", "square", "--n",
                         "203291", "--repeated")
    assert code == 1 and out == "" and "10^6 rows" in err
    n = 2_000_000
    assert closed_forms.distinct_cubes(n) < cli.ROW_CAP < closed_forms.distinct_squares(n)
    code, _, err = run(capsys, "positions", "--kind", "square", "--n", str(n))
    assert code == 1 and "10^6 rows" in err
    code, out, _ = run(capsys, "positions", "--kind", "cube", "--n", str(n))
    assert code == 0
    assert len(out.split()) == closed_forms.distinct_cubes(n)


def test_listings_across_write_chunks(capsys):
    # more lines than one chunk: the bytes one print per line would write
    n = 20_000
    code, out, _ = run(capsys, "positions", "--kind", "square", "--n", str(n))
    ends = [e for e in range(1, n + 1) if closed_forms.a_indicator(e)]
    assert len(ends) > 2 * cli._CHUNK
    assert code == 0 and out == "".join(f"{e}\n" for e in ends)
    lo, hi = 10**15, 10**15 + cli._CHUNK
    code, out, _ = run(capsys, "table", "--from", str(lo), "--to", str(hi))
    assert code == 0 and out == "n,A,B,C,D\n" + "".join(
        f"{n},{closed_forms.distinct_squares(n)},{fast_count.algorithm_B(n)},"
        f"{closed_forms.distinct_cubes(n)},{fast_count.algorithm_D(n)}\n"
        for n in range(lo, hi + 1))


def test_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "tribcount.cli", "positions", "--kind", "square",
         "--n", "100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "8\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


GRAMMAR = [
    # argv, exit code, stream that carries the output
    (["--help"], 0, "help"),
    (["count", "--help"], 0, "help"),
    (["count", "--stat", "A", "--n=65"], 0, "answer"),
    (["count", "--st", "A", "--n", "65"], 0, "answer"),
    (["bogus"], 1, "usage"),
    (["count", "--stat", "A", "--n", "65", "--bogus", "1"], 1, "usage"),
    (["count", "--stat", "A"], 1, "usage"),
    (["count", "--stat", "X", "--n", "65"], 1, "usage"),
    (["count", "--stat", "A", "--n", "abc"], 1, "usage"),
    (["table", "--from", "1", "--to", "2", "--format", "xml"], 1, "usage"),
    (["table", "--from", "x", "--to", "2", "--fo"], 1, "usage"),
]


@pytest.mark.parametrize("argv,code,kind", GRAMMAR,
                         ids=[" ".join(case[0]) for case in GRAMMAR])
def test_cli_grammar(capsys, monkeypatch, argv, code, kind):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    got, out, err = run(capsys, *argv)
    assert got == code
    if kind == "answer":
        assert out == "29\n" and err == ""
    elif kind == "help":
        assert out.startswith("usage: tribcount") and err == ""
        assert "-h, --help" in out
    else:
        assert out == ""
        usage, message = err.splitlines()
        assert usage.startswith("usage: tribcount")
        assert message.startswith("tribcount") and ": error: " in message


AMBIGUOUS = "ambiguous option: --f could match --from, --format"


@pytest.mark.parametrize("argv,in_order", [
    (["table", "--help", "--f"], 0),
    (["table", "--from", "x", "--to", "2", "--f"], 1),
], ids=["help first", "bad value first"])
def test_ambiguous_prefix_is_reported_first(capsys, argv, in_order):
    # argparse 3.10 and 3.11 report an ambiguous prefix before anything
    # else on the line; later releases may take the options in order and
    # exit as ``in_order`` says
    code, out, err = run(capsys, *argv)
    if sys.version_info < (3, 12) or AMBIGUOUS in err:
        assert (code, out) == (1, "") and AMBIGUOUS in err
    else:
        assert code == in_order


def test_nothing_after_double_dash_is_an_option(capsys):
    # argparse's handling of "--" differs between 3.10-3.13; on each of them
    # an option after it is not read as one
    code, out, err = run(capsys, "count", "--stat", "A", "--n", "5", "--",
                         "--n=7")
    assert (code, out) == (1, "")
    assert "--n=7" in err


VALUES = ["0", "5", "65", "-1", "-5", "", "abc", "1e3", "+7", " 8", "1_000",
          "10", str(10**18), str(10**19), "A", "X", "json", "cube", "-"]
TOKENS = (VALUES + list(cli._COMMANDS)
          + ["--", "--=x", "-h", "--help", "-", "-x", "--bogus", "--st", "--f",
             "--fo", "--t", "--e", "--r", "--k", "--m", "--ma", "--st=B",
             "--f=1", "--n=", "--n=-3", "--stat=", "--exhaustive=1",
             "--repeated=", "-.5"]
          + [flag for _, _, options in cli._COMMANDS.values()
             for flag, *_ in options])


def _full_form(rng):
    """A command, then its required options and up to three more of its
    options, shuffled, each spelled in full with a valid value."""
    name = rng.choice(list(cli._COMMANDS))
    options = cli._COMMANDS[name][2]
    picks = [o for o in options if o[3]] + rng.choices(options,
                                                        k=rng.randrange(4))
    rng.shuffle(picks)
    argv = [name]
    for flag, _, kind, _, _ in picks:
        if kind is None:
            argv.append(flag)
            continue
        value = (rng.choice(kind) if kind is not int else
                 rng.choice(["0", "65", str(10**18), str(10**40), "+7", " 8",
                             "1_000", str(rng.randrange(10**6))]))
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    return argv


def _mutated(rng):
    """A full-form line, or a bare command, with one to three tokens of
    TOKENS put in, tokens replaced by them or tokens dropped."""
    argv = (_full_form(rng) if rng.random() < 0.8
            else [rng.choice(list(cli._COMMANDS))])
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(argv))
        how = rng.randrange(3)
        if how == 0:
            argv.insert(i, rng.choice(TOKENS))
        elif how == 1:
            argv[i] = rng.choice(TOKENS)
        elif len(argv) > 1:
            del argv[i]
    return argv


def test_short_path_reads_lines_as_argparse_does():
    rng = random.Random(26)
    parser = cli._parser()
    lines = [(True, _full_form(rng)) for _ in range(1000)]
    lines += [(False, _mutated(rng)) for _ in range(1000)]
    answered = 0
    for full, argv in lines:
        fast = cli._fast(argv)
        if full:
            assert fast is not None, argv
        if fast is None:
            continue
        answered += 1
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                opts = vars(parser.parse_args(argv))
            except SystemExit:
                pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")
        assert fast == (opts.pop("command"), opts), argv
    assert answered > 1000  # some random lines are in full form too


def test_positions_empty_prefix(capsys):
    for extra in ([], ["--repeated"]):
        for kind in ("square", "cube"):
            code, out, err = run(capsys, "positions", "--kind", kind, "--n", "0",
                                 *extra)
            assert (code, out, err) == (0, "", "")
    assert run(capsys, "count", "--stat", "A", "--n", "0")[:2] == (0, "0\n")


def test_option_ranges_named(capsys):
    for n in ("-1", "-5"):
        code, out, err = run(capsys, "positions", "--kind", "cube", "--n", n)
        assert code == 1 and out == "" and "--n" in err
    for stat in ("A", "B"):
        for n in (-1, 10**18 + 1):
            code, out, err = run(capsys, "count", "--stat", stat, "--n", str(n))
            assert (code, out) == (1, "")
            assert err == f"error: --n {n} outside [0, {10**18}]\n"
    for m in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--max", m)
        assert code == 1 and out == "" and "--max" in err
    for m in ("0", "30"):
        assert run(capsys, "kernel", "--m", m) == (
            1, "", f"error: --m {m} outside [1, 29]\n")
