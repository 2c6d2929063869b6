import json
import os
import re
import subprocess
import sys
from math import comb

import pytest

from lowmult import cli, search
from lowmult.cli import main
from lowmult.dlog import build_engine, predict_table_bytes
from lowmult.gf2poly import make_context, parse_poly
from lowmult.search import (
    DEFAULT_BUDGET_BYTES,
    MATCH_BLOCK,
    MultipleRecord,
    SearchParams,
    _log_route_bytes,
    _logged_tuples,
    _tmto_bytes,
    logtmto_find_all,
    tmto_find_all,
)

PKG_ROOT = None


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_find_all_micro(capsys):
    code, out, err = run_cli(
        ["find-all", "--poly", "3,1,0", "--weight", "3", "--max-degree", "7"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["0,1,3", "0,4,5", "0,2,6"]
    assert "found: 3" in err


def test_find_all_json(capsys):
    code, out, _ = run_cli(
        ["find-all", "--poly", "3,1,0", "--weight", "3", "--max-degree", "7",
         "--json", "--algorithm", "logtmto"],
        capsys,
    )
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert {tuple(r["exponents"]) for r in recs} == {
        (0, 1, 3), (0, 2, 6), (0, 4, 5)
    }
    assert all(r["weight"] == 3 for r in recs)


@pytest.mark.parametrize("algorithm", ["tmto", "logtmto"])
def test_find_all_weight_far_above_degree(algorithm, capsys):
    # D < w - 2 searches the largest weight w' of w's parity with
    # w' - 2 <= D, here 11, in one step however large w is
    def run(w):
        code, out, err = run_cli(
            ["find-all", "--poly", "10,3,0", "--weight", str(w),
             "--max-degree", "10", "--algorithm", algorithm], capsys)
        assert code == 0
        return out, [line for line in err.splitlines() if "_seconds: " not in line]

    assert run(2001) == run(11)


def _auto_pick(argv, capsys):
    """The route auto picks for a find-all run, checked against its report."""
    code, _, err = run_cli(["find-all", "--algorithm", "auto"] + argv, capsys)
    assert code == 0
    lines = err.splitlines()
    picked = lines[0].removeprefix("auto-selected algorithm: ")
    assert f"algorithm: {picked}" in lines
    return picked


def test_find_all_auto_prefers_log_for_even_weight(capsys):
    # the log route from D = AUTO_LOG_MIN_DEGREE on, for even weights only
    assert cli.AUTO_LOG_MIN_DEGREE == 2048
    p16 = ["--poly", "16,5,3,2,0"]
    assert _auto_pick(
        p16 + ["--weight", "4", "--max-degree", "2048"], capsys) == "logtmto"
    assert _auto_pick(
        p16 + ["--weight", "4", "--max-degree", "2047"], capsys) == "tmto"
    assert _auto_pick(
        p16 + ["--weight", "3", "--max-degree", "2048"], capsys) == "tmto"
    # the benchmark's n=18, w=6 instance sits below the threshold
    p18 = make_context(parse_poly("18,7,0"))
    assert cli._auto_algorithm(p18, 6, 192, DEFAULT_BUDGET_BYTES) == "tmto"
    # not from the group order M on, where each probe walks every entry
    for spec, want in (("6,1,0", "tmto"), ("10,3,0", "tmto"),
                       ("12,6,4,1,0", "tmto"),  # M = 63, 1023, 4095
                       ("13,4,3,1,0", "logtmto")):  # M = 8191
        ctx = make_context(parse_poly(spec))
        assert cli._auto_algorithm(ctx, 4, 4096, DEFAULT_BUDGET_BYTES) == want


def test_find_all_auto_falls_back_when_engine_budget_tight(capsys):
    # 2^31 - 1 is prime: the baby-step/giant-step engine predicts about
    # 1 MB, so a 900 kB budget rules the log route out but fits the
    # search (about 721 kB of tmto arrays at D = 4096)
    p31 = ["--poly", "31,3,0", "--weight", "4", "--max-degree", "4096"]
    assert _auto_pick(p31 + ["--budget-bytes", "900000"], capsys) == "tmto"
    # with 1 MB the log route fits (checked without running its BSGS logs)
    ctx = make_context(parse_poly("31,3,0"))
    assert 900_000 < predict_table_bytes(ctx) <= 1_000_000
    assert cli._auto_algorithm(ctx, 4, 4096, 1_000_000) == "logtmto"
    assert cli._auto_algorithm(ctx, 4, 4096, 900_000) == "tmto"


def test_find_all_auto_plans_the_engine_the_flags_ask_for(capsys):
    # a 10^8-entry baby table predicts 1.33 GB, past a 10^8-byte budget
    # that the default plan (about 1 MB) fits: auto takes tmto
    argv = ["--poly", "31,3,0", "--weight", "4", "--max-degree", "2048",
            "--budget-bytes", "100000000"]
    big_baby = ["--bsgs-entries", "100000000"]
    assert _auto_pick(argv + big_baby, capsys) == "tmto"
    code, out, _ = run_cli(
        ["find-all", "--algorithm", "tmto"] + argv + big_baby, capsys)
    assert (code, len(out.splitlines())) == (0, 454)
    assert run_cli(["find-all", "--algorithm", "logtmto"] + argv + big_baby,
                   capsys)[0] == 4
    ctx = make_context(parse_poly("31,3,0"))
    assert cli._auto_algorithm(ctx, 4, 2048, 10**8) == "logtmto"
    assert cli._auto_algorithm(ctx, 4, 2048, 10**8,
                               bsgs_baby_entries=10**8) == "tmto"
    # a baby size the plan rejects exits 2 under auto, as under logtmto
    for algorithm in ("auto", "logtmto"):
        code, _, err = run_cli(["find-all", "--algorithm", algorithm] + argv
                               + ["--bsgs-entries", "0"], capsys)
        assert code == 2 and err.startswith("error: ")


def test_find_all_not_primitive_exit_3(capsys):
    code, _, err = run_cli(
        ["find-all", "--poly", "2,0", "--weight", "3", "--max-degree", "7"],
        capsys,
    )
    assert code == 3
    assert "reducible" in err


def test_find_all_budget_exit_4(capsys):
    code, _, err = run_cli(
        ["find-all", "--poly", "4,1,0", "--weight", "5", "--max-degree", "15",
         "--algorithm", "tmto", "--budget-bytes", "64"],
        capsys,
    )
    assert code == 4
    assert "budget" in err


def test_find_all_budget_just_below_tmto_arrays_exit_4(capsys):
    # tmto's arrays at w = 5, D = 15 (q1 = q2 = 2): a byte less stops the
    # run with exit 4, and exactly that much lets it through
    need = _tmto_bytes(4, 15, 2, 2)
    argv = ["find-all", "--poly", "4,1,0", "--weight", "5", "--max-degree",
            "15", "--algorithm", "tmto", "--budget-bytes"]
    code, _, err = run_cli(argv + [str(need - 1)], capsys)
    assert code == 4
    assert "budget" in err
    assert run_cli(argv + [str(need)], capsys)[0] == 0


@pytest.mark.parametrize("method, extra", [
    ("logsample", []),
    ("birthday", []),
    ("birthday-log", ["--precompute-degree", "20"]),
])
def test_find_some_budget_exit_4(method, extra, capsys):
    # the P=4,1,0 engine fits in 1000 bytes; a 10^6-degree power table does not
    code, out, err = run_cli(
        ["find-some", "--poly", "4,1,0", "--weight", "4",
         "--max-degree", "1000000", "--count", "1", "--max-iterations", "10",
         "--budget-bytes", "1000", "--method", method] + extra,
        capsys,
    )
    assert code == 4
    assert out == ""
    assert any(line.startswith("error:") and "budget" in line
               for line in err.splitlines())


FIND_ALL_3 = ["find-all", "--poly", "3,1,0", "--weight", "3", "--max-degree", "7"]
FIND_SOME_3 = [
    "find-some", "--poly", "3,1,0", "--weight", "3", "--max-degree", "7",
    "--count", "1", "--seed", "1",
]


def test_memory_error_exit_4(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "tmto_find_all", exhausted)
    code, out, err = run_cli(FIND_ALL_3 + ["--algorithm", "tmto"], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [FIND_ALL_3, FIND_SOME_3])
def test_verify_failure_exit_7(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_multiple", lambda *args: False)
    code, out, err = run_cli(argv + ["--verify"], capsys)
    assert code == 7
    assert out == ""
    assert "error: record 0,1,3 fails verification" in err.splitlines()


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["find-all", "--poly", "3,1,0", "--weight", "3",
              "--max-degree", "7", "--algorithm", "bogus"])
    assert exc.value.code == 2


def test_bad_poly_spec_exit_2(capsys):
    code, _, err = run_cli(
        ["find-all", "--poly", "3;1;0", "--weight", "3", "--max-degree", "7"],
        capsys,
    )
    assert code == 2


# paths that cannot be read or written: a missing file or directory, or
# a directory where a file is expected ({tmp} is the test's directory)
BAD_PATHS = {
    "missing-cache": ["log", "--poly", "4,1,0", "--element", "0x3",
                      "--cache", "{tmp}/missing.bin"],
    "directory-cache": ["log", "--poly", "4,1,0", "--element", "0x3",
                        "--cache", "{tmp}"],
    "cache-out-in-missing-dir": ["engine-build", "--poly", "4,1,0",
                                 "--cache-out", "{tmp}/missing/x.bin"],
    "progress-csv-in-missing-dir": [
        "find-some", "--poly", "3,1,0", "--weight", "3", "--max-degree", "7",
        "--count", "1", "--seed", "1", "--progress-csv", "{tmp}/missing/p.csv"],
}


@pytest.mark.parametrize("case", sorted(BAD_PATHS))
def test_unusable_paths_exit_2(case, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in BAD_PATHS[case]]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")


# numbers out of range: a modulus degree outside 2..63, a degree bound
# below 1, and a birthday-log precompute degree below 1 or below q1
# (an empty stored table, which no draw can match)
BAD_NUMBERS = {
    "estimate-n-0": ["estimate", "--n", "0", "--weight", "4",
                     "--max-degree", "10"],
    "estimate-n-64": ["estimate", "--n", "64", "--weight", "4",
                      "--max-degree", "10"],
    "estimate-negative-degree": ["estimate", "--n", "10", "--weight", "4",
                                 "--max-degree", "-10"],
    "precompute-degree-0": [
        "find-some", "--poly", "10,3,0", "--weight", "4", "--max-degree", "40",
        "--count", "1", "--method", "birthday-log", "--precompute-degree", "0"],
    "precompute-degree-below-q1": [
        "find-some", "--poly", "10,3,0", "--weight", "6", "--max-degree", "40",
        "--count", "1", "--method", "birthday-log", "--precompute-degree", "1"],
    "q1-negative": [
        "find-some", "--poly", "10,3,0", "--weight", "4", "--max-degree", "40",
        "--count", "1", "--method", "birthday-log", "--q1", "-1"],
    "bsgs-entries-negative": [
        "engine-build", "--poly", "10,3,0", "--tabulation-threshold", "11",
        "--bsgs-entries", "-5", "--cache-out", os.devnull],
    "bsgs-entries-0": [
        "engine-build", "--poly", "10,3,0", "--tabulation-threshold", "11",
        "--bsgs-entries", "0", "--cache-out", os.devnull],
    # no tuple of distinct exponents in 1..3 to draw: 5 for logsample at
    # w=7, 4 for the classical (4, 4) and the logarithmic (3, 4) splits at w=9
    "logsample-tuple-above-degree": [
        "find-some", "--poly", "10,3,0", "--weight", "7", "--max-degree", "3",
        "--count", "1", "--method", "logsample"],
    "birthday-tuple-above-degree": [
        "find-some", "--poly", "10,3,0", "--weight", "9", "--max-degree", "3",
        "--count", "1", "--method", "birthday"],
    "birthday-log-tuple-above-degree": [
        "find-some", "--poly", "10,3,0", "--weight", "9", "--max-degree", "3",
        "--count", "1", "--method", "birthday-log"],
}


@pytest.mark.parametrize("weight", ["1", "0", "-3"])
@pytest.mark.parametrize("algorithm", ["tmto", "auto"])
def test_classical_weight_below_2_names_the_minimum(algorithm, weight, capsys):
    code, out, err = run_cli(
        ["find-all", "--poly", "10,3,0", "--weight", weight, "--max-degree",
         "40", "--algorithm", algorithm], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: classical search needs weight >= 2"


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_numbers_exit_2(case, capsys):
    code, out, err = run_cli(BAD_NUMBERS[case], capsys)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("case", [
    "logsample-tuple-above-degree", "birthday-tuple-above-degree",
    "birthday-log-tuple-above-degree"])
def test_no_tuple_to_draw_names_the_weight_and_max_degree(case, capsys):
    _, _, err = run_cli(BAD_NUMBERS[case], capsys)
    assert "weight 9" in err or "weight 7" in err
    assert "max degree 3" in err


def test_find_some_basic(capsys):
    code, out, err = run_cli(
        ["find-some", "--poly", "3,1,0", "--weight", "3", "--max-degree", "7",
         "--count", "1", "--seed", "1", "--verify"],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 1
    assert "found: 1" in err


def test_find_some_exhausted_exit_5(capsys):
    code, out, err = run_cli(
        ["find-some", "--poly", "3,1,0", "--weight", "3", "--max-degree", "7",
         "--count", "1", "--max-iterations", "0"],
        capsys,
    )
    assert code == 5
    assert out == ""
    assert "exhausted" in err


def test_find_some_progress_csv(tmp_path, capsys):
    path = tmp_path / "progress.csv"
    code, _, _ = run_cli(
        ["find-some", "--poly", "3,1,0", "--weight", "3", "--max-degree", "7",
         "--count", "3", "--seed", "1", "--progress-csv", str(path)],
        capsys,
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,found"
    assert all(len(line.split(",")) == 2 for line in lines[1:])


def test_find_some_methods(capsys):
    for method in ("logsample", "birthday", "birthday-log"):
        code, out, _ = run_cli(
            ["find-some", "--poly", "4,1,0", "--weight", "4",
             "--max-degree", "15", "--count", "2", "--seed", "7",
             "--method", method, "--max-iterations", "5000", "--verify"],
            capsys,
        )
        assert code == 0, method
        assert len(out.splitlines()) >= 2


def test_log_command(capsys):
    code, out, _ = run_cli(["log", "--poly", "3,1,0", "--element", "0x1"], capsys)
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(["log", "--poly", "3,1,0", "--element", "1,0"], capsys)
    assert code == 0 and out.strip() == "3"
    code, _, _ = run_cli(["log", "--poly", "3,1,0", "--element", "0x0"], capsys)
    assert code == 6


@pytest.mark.parametrize("k", [0, 1, 30, 12345, 2**31 - 2])
def test_log_command_at_n31(capsys, k):
    # 2^31 - 1 is prime, so the log is a baby-step giant-step search
    code, out, _ = run_cli(["log", "--poly", "31,3,0", "--element", str(k)], capsys)
    assert code == 0 and out.strip() == str(k)


def test_zech_command(capsys):
    code, out, _ = run_cli(["zech", "--poly", "3,1,0", "--exponent", "1"], capsys)
    assert code == 0 and out.strip() == "3"
    code, _, _ = run_cli(["zech", "--poly", "3,1,0", "--exponent", "7"], capsys)
    assert code == 6


def test_estimate_command(capsys):
    code, out, _ = run_cli(
        ["estimate", "--n", "53", "--weight", "4", "--max-degree", "1048576"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "≈21.3"


def test_estimate_beyond_the_largest_float_is_inf(capsys):
    # 100000^199 / (199! 2^63) is about 10^675
    code, out, err = run_cli(
        ["estimate", "--n", "63", "--weight", "200", "--max-degree", "100000"],
        capsys,
    )
    assert (code, out.strip(), err) == (0, "≈inf", "")


def test_engine_build_and_reuse(tmp_path, capsys):
    cache = tmp_path / "engine.bin"
    code, out, err = run_cli(
        ["engine-build", "--poly", "4,1,0", "--cache-out", str(cache)], capsys
    )
    assert code == 0
    assert cache.exists()
    assert "predicted table memory" in err
    code, out, _ = run_cli(
        ["zech", "--poly", "4,1,0", "--cache", str(cache), "--exponent", "1"],
        capsys,
    )
    assert code == 0 and out.strip() == "4"
    # cache built for a different modulus is refused
    code, _, err = run_cli(
        ["zech", "--poly", "3,1,0", "--cache", str(cache), "--exponent", "1"],
        capsys,
    )
    assert code == 2


def test_cached_engine_is_checked_against_the_budget(tmp_path, capsys):
    # a loaded engine counts against --budget-bytes as a built one does:
    # the same exit 4 and message, from the predicted table bytes
    cache = tmp_path / "engine.bin"
    assert run_cli(["engine-build", "--poly", "10,3,0", "--cache-out",
                    str(cache)], capsys)[0] == 0
    need = predict_table_bytes(make_context(parse_poly("10,3,0")))
    argv = ["find-all", "--poly", "10,3,0", "--weight", "4", "--max-degree",
            "64", "--algorithm", "logtmto", "--budget-bytes"]
    built = run_cli(argv + [str(need - 1)], capsys)
    loaded = run_cli(argv + [str(need - 1), "--cache", str(cache)], capsys)
    assert built[0] == loaded[0] == 4
    assert loaded[1] == ""
    assert built[2] == loaded[2]
    assert "predicted engine tables need" in loaded[2]
    assert run_cli(argv + [str(2**20), "--cache", str(cache)], capsys)[0] == 0


def test_oracle_subcommand_hidden_but_works(capsys):
    code, out, _ = run_cli(
        ["oracle", "--poly", "3,1,0", "--weight", "3", "--max-degree", "7"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["0,1,3", "0,4,5", "0,2,6"]
    helptext = subprocess.run(
        [sys.executable, "-m", "lowmult.cli", "--help"],
        capture_output=True, text=True,
    ).stdout
    assert "oracle" not in helptext


def test_single_thread_runs_byte_identical():
    cmd = [sys.executable, "-m", "lowmult.cli", "find-some", "--poly",
           "4,1,0", "--weight", "4", "--max-degree", "15", "--count", "5",
           "--seed", "11", "--method", "birthday-log"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout



FIND_1737 = ["find-all", "--poly", "10,3,0", "--weight", "6", "--max-degree", "48"]


@pytest.mark.parametrize("algorithm", ["tmto", "logtmto"])
@pytest.mark.parametrize("extra", [[], ["--json"], ["--verify"],
                                   ["--json", "--verify"]])
def test_find_all_writes_from_rows_without_records(algorithm, extra,
                                                   monkeypatch, capsys):
    # the lines and JSON objects the records would give, none built
    ctx = make_context(parse_poly("10,3,0"))
    if algorithm == "tmto":
        result = tmto_find_all(ctx, SearchParams.balanced(6, 48, "classical"))
    else:
        result = logtmto_find_all(ctx, build_engine(ctx), SearchParams.balanced(
            6, 48, "logarithmic"))
    if "--json" in extra:
        want = "".join(json.dumps({"exponents": list(r.poly.exponents),
                                   "weight": r.weight, "degree": r.degree}) + "\n"
                       for r in result.records)
    else:
        want = "".join(str(r.poly) + "\n" for r in result.records)
    made = []
    init = MultipleRecord.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultipleRecord, "__init__", counting)
    code, out, _ = run_cli(FIND_1737 + ["--algorithm", algorithm] + extra, capsys)
    assert code == 0
    assert out == want
    assert made == []


def _predicted_6_1_0(algorithm):
    """The route's predicted bytes at P=6,1,0, w=6, D=64."""
    if algorithm == "tmto":
        return _tmto_bytes(6, 64, 2, 3)
    M = make_context(parse_poly("6,1,0")).order
    return _log_route_bytes(M, 64, 2, 2, comb(64, 2), comb(64, 2),
                            _logged_tuples(64, 2))


def _held_and_sort(err):
    """The held and sort bytes of an exit-4 message of the key sorter."""
    return map(int, re.search(
        r"error: multiples held \((\d+) bytes, and (\d+) to sort them\)",
        err).groups())


@pytest.mark.parametrize("algorithm", ["tmto", "logtmto"])
def test_find_all_exits_4_once_held_multiples_pass_the_budget(
        algorithm, monkeypatch, capsys):
    # P=6,1,0, w=6, D=64 has 119,785 multiples, each handed to the sorter
    # once and held as one packed 8-byte key: 0.96 MB, and 1.92 MB with
    # their sort's one concatenation (16 bytes a multiple in all).  With
    # 512 KiB of budget beside the route's prediction the run stops with
    # exit 4 while it matches, and no block is taken while the keys held
    # and their sort pass the room by more than one MATCH_BLOCK of
    # 6-column rows.
    predicted = _predicted_6_1_0(algorithm)
    room = 2**19
    spare = MATCH_BLOCK * 8 * 6
    taken = []
    add_rows = search._KeySorter.add_rows

    def spy(self, rows):
        held = self._rows
        add_rows(self, rows)
        taken.append(held)

    monkeypatch.setattr(search._KeySorter, "add_rows", spy)
    code, out, err = run_cli(
        ["find-all", "--poly", "6,1,0", "--weight", "6", "--max-degree", "64",
         "--algorithm", algorithm, "--budget-bytes", str(predicted + room)],
        capsys)
    assert code == 4
    assert out == ""
    held, work = _held_and_sort(err)
    assert "budget" in err
    assert held + work > room + spare
    assert len(taken) > 1  # past the up-front check
    assert max(taken) * 16 <= room + spare


@pytest.mark.parametrize("algorithm", ["tmto", "logtmto"])
def test_find_all_exits_4_before_unpacking_past_the_budget(
        algorithm, monkeypatch, capsys):
    # P=6,1,0, w=6, D=64 with keys too wide to pack (PACK_BITS = 0): each
    # of the 119,785 multiples is held as its 6-column row, 5.7 MB, and
    # sorting them takes their concatenation, an order and lexsort's work
    # and the sorted copy, 15.3 MB more.  With 6 MB beside the prediction
    # the run stops with exit 4 as soon as the keys it holds and their
    # sort pass the room, while it matches, and never reaches the sort.
    monkeypatch.setattr(search, "PACK_BITS", 0)
    room = 6 * 2**20
    reached = []
    sorted_keys = search._KeySorter.sorted_keys

    def spy(self):
        reached.append(self._rows)
        return sorted_keys(self)

    monkeypatch.setattr(search._KeySorter, "sorted_keys", spy)
    budget = _predicted_6_1_0(algorithm) + room
    code, out, err = run_cli(
        ["find-all", "--poly", "6,1,0", "--weight", "6", "--max-degree", "64",
         "--algorithm", algorithm, "--budget-bytes", str(budget)],
        capsys)
    assert code == 4
    assert out == ""
    held, work = _held_and_sort(err)
    assert "budget" in err
    assert reached == []
    assert held <= room < held + work
