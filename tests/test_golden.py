"""Golden CLI runs: stdout bytes, exit codes and report lines, pinned.

The expected values were captured from a known-good build.  A change
that is meant to keep behaviour (a refactor, a speed-up) must keep every
case here byte-identical; a change that alters output on purpose updates
the pins and says why.  The logtmto and birthday-log log_calls lines
were re-pinned when each log of 1 + tuple came to be taken once (phase 1
logs only tuples with an odd exponent; phase 2 reads the table's logs
where both halves have the same size).  The logtmto report lines were
re-pinned again when the w = 6 search became canonical: each multiple
comes from one decomposition and the lower weights from the weight-4
search, so duplicates and zero-shift skips are that search's, zero
halves are paired below M (zero_residue_emits), and its table and logs
join the counts; stdout is unchanged.  Both find-all cases were
re-pinned when every search came to meet each multiple of its weight
once and the tmto route to take its lower weights from the weight-4
search too: duplicates_suppressed is 0 on both routes, and tmto's
table_entries counts the weight-4 search's 48 stored tuples; stdout is
unchanged.
"""

import hashlib

import pytest

from lowmult.cli import main

FIND_ALL = ["find-all", "--poly", "10,3,0", "--weight", "6", "--max-degree", "48"]
FIND_SOME = [
    "find-some", "--poly", "16,5,3,2,0", "--weight", "4",
    "--max-degree", "200", "--count", "20", "--seed", "7",
]

ALL_1737 = "41ce0c9d1259d1c326c95a8422c2658f19d1f639f7ff68e698bd12b5e4e023ff"

# name: (argv, exit code, stdout sha256, stdout lines, stderr lines
# without the timing ones)
GOLDEN = {
    "find-all-tmto": (
        FIND_ALL + ["--algorithm", "tmto"], 0, ALL_1737, 1737,
        [
            "# run report", "algorithm: tmto", "w: 6", "D: 48", "q1: 2",
            "q2: 3", "found: 1737",
            "duplicates_suppressed: 0", "zero_shift_skips: 0",
            "zero_residue_emits: 0", "table_entries: 1176", "log_calls: 0",
        ],
    ),
    "find-all-logtmto": (
        FIND_ALL + ["--algorithm", "logtmto"], 0, ALL_1737, 1737,
        [
            "# run report", "algorithm: logtmto", "w: 6", "D: 48", "q1: 2",
            "q2: 2", "found: 1737",
            "duplicates_suppressed: 0", "zero_shift_skips: 16",
            "zero_residue_emits: 72", "table_entries: 1173", "log_calls: 875",
        ],
    ),
    "find-some-logsample": (
        FIND_SOME + ["--method", "logsample"], 0,
        "300b74aa855ad8da3464b29d64c908533537d609dd5b4e28952123b72ef4f158", 20,
        [
            "# sampling report", "method: logsample", "found: 20",
            "iterations: 8461", "duplicates_suppressed: 11", "log_calls: 6461",
        ],
    ),
    "find-some-birthday": (
        FIND_SOME + ["--method", "birthday"], 0,
        "1dc75c09d1a0a7d279af138b4302f88f30bc0a5e973faab473c26b585941322d", 20,
        [
            "# sampling report", "method: birthday", "found: 20",
            "iterations: 10059", "duplicates_suppressed: 809", "log_calls: 0",
        ],
    ),
    "find-some-birthday-log": (
        FIND_SOME + ["--method", "birthday-log"], 0,
        "4fd49bd95ccbfa45156d13182591aa267d74c9c318eea9ddb7498256942ed3f1", 20,
        [
            "# sampling report", "method: birthday-log", "found: 20",
            "iterations: 56", "duplicates_suppressed: 27", "log_calls: 156",
        ],
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_cli_run(name, capsysbinary):
    argv, want_code, want_sha, want_lines, want_err = GOLDEN[name]
    code = main(argv)
    out, err = capsysbinary.readouterr()
    assert code == want_code
    assert out.count(b"\n") == want_lines
    assert hashlib.sha256(out).hexdigest() == want_sha
    err_lines = [
        line for line in err.decode().splitlines() if "seconds" not in line
    ]
    assert err_lines == want_err
