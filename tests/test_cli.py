"""The JSON-report command line: exit codes, payloads, determinism."""

import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import pathlib
import runpy
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import cli
from shiftlab.cli import main
from shiftlab.core import Pattern, make_pattern
from shiftlab.deepshift import LevelBudget, params_to_dict, schedule_params


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    return rc, json.loads(out), err


@pytest.fixture()
def archive(tmp_path, capsys):
    out = str(tmp_path / "fam")
    rc, report, _ = run_json(
        capsys,
        "deep-build",
        "--n0", "2",
        "--depth", "3",
        "--override", "2,2,2,2",
        "--out", out,
    )
    assert rc == 0
    return out, report


# ---------------------------------------------------------------------------
# Report envelope
# ---------------------------------------------------------------------------


def test_census_report_shape(capsys):
    rc, report, _ = run_json(capsys, "census", "2")
    assert rc == 0
    assert report["command"] == "census"
    assert report["ok"] is True
    assert report["result"] == {"simple_patterns": 9}
    assert report["config"] == {"n": 2}
    assert "wall_seconds" in report["timing"]
    assert "machine_steps" not in report["timing"]  # nothing simulated here
    assert report["version"]


def test_reports_identical_modulo_timing(capsys, tmp_path):
    out = str(tmp_path / "fam")
    for argv in (
        ("census", "3"),
        ("deep-build", "--n0", "2", "--depth", "2", "--override", "2,2,2", "--out", out),
        ("epitome-verify", "--family", "identity", "--n", "1"),
        ("epitome-verify", "--profile", "1,0"),
        ("border-consistency",),
        ("block-count", "hard-square", "3", "--margin", "1"),
        ("block-count", "mirror", "2", "--margin", "1"),
    ):
        _, a, _ = run_json(capsys, *argv)
        _, b, _ = run_json(capsys, *argv)
        for report in (a, b):
            report.pop("timing")
        assert a == b


def test_out_file_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "--out-file", str(path), "census", "1")
    assert rc == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["result"] == {"simple_patterns": 2}


@pytest.mark.parametrize(
    "argv", [("census", "2"), ("block-count", "red-black", "5")], ids=["ok", "infeasible"]
)
def test_unwritable_out_file_exits_1_with_one_line(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "r.json"
    rc, out, err = run_cli(capsys, "--out-file", str(path), *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("shiftlab: ") and err.count("\n") == 1
    assert str(path) in err
    assert not path.exists()


def test_closed_stdout_exits_1_without_traceback(child_env):
    # the reader is gone before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "shiftlab.cli", "epitome-verify", "--spec", "mirror",
             "--profile", "1,1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=child_env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["census", "two"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("deep-build", "--n0", "2", "--depth", "1", "--oracle", "proxy", "--out", "x"),
        ("deep-build", "--n0", "2", "--depth", "1"),
        # --profile checks one enforcer window: the property check's
        # settings are refused, even at their default values
        ("epitome-verify", "--profile", "1,0", "--family", "identity", "--n", "3", "--margin", "5"),
        ("epitome-verify", "--profile", "1,0", "--family", "profile"),
        ("epitome-verify", "--profile", "1,0", "--n", "2"),
        ("epitome-verify", "--profile", "1,0", "--margin", "1"),
    ],
)
def test_usage_errors_print_one_line(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("shiftlab:") and err.count("\n") == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "shiftlab" in capsys.readouterr().out


@functools.cache
def _full_parser():
    return cli._build_parser()


def _argparse_reads(argv):
    """``vars()`` of the full argparse namespace for ``argv``, or the exit
    code of its help or usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_full_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _values(kwargs):
    """Values of one argument: well-formed ones, and odd ones that argparse
    refuses or reads while the reader may decline them."""
    if "choices" in kwargs:
        return list(kwargs["choices"]), ["nope", "-x", ""]
    if kwargs.get("type") is int:
        return ["0", "3", " 4"], ["x", "-1", "", "2.5"]
    if kwargs.get("type") is cli._int_list:
        return ["1,0", "2,1,"], ["1,x", "-1,2", "-"]
    return ["x", "hard-square", "", "0=B"], ["-x", "--", "-"]


@st.composite
def _argvs(draw, name):
    """An argv of ``name`` drawn from its ``_COMMANDS`` entry, and whether it
    is well-formed.  Each choice below is a pick between well-formed and odd
    options; up to two picks, drawn by index, take an odd one: a bad value,
    an abbreviated or unknown flag, a flag given twice or not at all, an
    extra token, a misplaced --out-file, a missing last token."""
    at, picks, odd = draw(st.sets(st.integers(0, 24), max_size=2)), itertools.count(), []

    def pick(good, bad):
        if next(picks) not in at:
            return draw(st.sampled_from(good))
        odd.append(draw(st.sampled_from(bad)))
        return odd[-1]

    chunks = []  # (positional, tokens)
    for flags, kwargs in cli._COMMANDS[name][2]:
        flag, (good, bad) = flags[0], _values(kwargs)
        if not flag.startswith("-"):
            chunks += [(True, [pick(good, bad)])] * pick([1], [0, 2])
            continue
        times = [1] if kwargs.get("required") else [0, 1]
        for _ in range(pick(times, [2, 0] if times == [1] else [2])):
            spelt = pick([flag], [flag[:-1], flag + "x"])
            if "action" in kwargs:
                chunks.append((False, [pick([spelt], [spelt + "=", spelt + "=x"])]))
            elif draw(st.booleans()):
                chunks.append((False, [f"{spelt}={pick(good, bad)}"]))
            else:
                chunks.append((False, [spelt, pick(good, bad)]))
    extra = ["-h", "--help", "--", "--bogus", "x", "--out-file", "--out-file=r.json"]
    chunks.append((False, pick([[]], [[token] for token in extra])))
    prefix = pick([[], ["--out-file", "r.json"], ["--out-file=r.json"]],
                  [["--out-file"], ["--out-file="], ["--out", "r.json"], ["--out-file", "-r"]])
    # the chunks in any order, but the positionals in theirs
    positionals = iter([tokens for positional, tokens in chunks if positional])
    shuffled = [next(positionals) if positional else tokens
                for positional, tokens in draw(st.permutations(chunks))]
    argv = [*prefix, name, *(t for tokens in shuffled for t in tokens)]
    return argv[:len(argv) - pick([0], [1])], not odd


@pytest.mark.parametrize("name", list(cli._COMMANDS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_lean_parser_reads_every_argv_like_the_full_one(name, data):
    # the argv reader declines (None) or gives exactly argparse's namespace,
    # and reads every well-formed argv
    argv, well_formed = data.draw(_argvs(name))
    read = cli._read_argv(argv)
    if read is not None or well_formed:
        assert read is not None and vars(read) == _argparse_reads(argv), argv


# the CLI jobs of perfbench/workloads.py, with {pass_dir} and {seed} filled in
_BENCHMARK_ARGVS = [
    ["deep-build", "--n0", "2", "--depth", "1", "--override", "2,4", "--out", "pass/a24"],
    ["deep-build", "--n0", "2", "--depth", "2", "--override", "2,2,4", "--out", "pass/a224"],
    ["deep-build", "--mode", "multi-block", "--n0", "2", "--depth", "1",
     "--override", "2,2,2", "--out", "pass/m222"],
    ["verify-archive", "pass/a224"],
    ["block-count", "hard-square", "4", "--margin", "1"],
    ["block-count", "red-black", "3", "--margin", "1"],
    ["lowcfg-roundtrip", "--k", "5", "--rects", "40", "--seed", "1"],
    ["census", "4"],
    ["epitome-verify", "--family", "identity", "--n", "2"],
    ["epitome-verify", "--n", "3"],
    ["epitome-verify", "--family", "mirror", "--spec", "mirror", "--n", "2"],
    ["border-consistency", "--n", "4"],
]


def _readme_argvs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return [
        shlex.split(line, comments=True)[1:]
        for line in readme.read_text().splitlines()
        if line.startswith("shiftlab ")
    ]


def test_argv_reader_reads_all_traffic():
    # every benchmark job (run with --out-file) and README example is read
    # from the command table, exactly as argparse reads it
    readme = _readme_argvs()
    assert len(readme) == 17
    for argv in [["--out-file", "r.json", *a] for a in _BENCHMARK_ARGVS] + readme:
        read = cli._read_argv(argv)
        assert read is not None and vars(read) == _argparse_reads(argv), argv


def test_a_command_that_runs_loads_no_argparse(child_env, tmp_path):
    # argparse and gettext cost a few milliseconds a run, and gettext loads
    # locale; the "ascii" codec of an --out-file loaded encodings.ascii
    path = tmp_path / "r.json"
    snippet = (
        "import json, sys; from shiftlab.cli import main; "
        f"rc = main(['--out-file', {str(path)!r}, 'census', '2']); "
        "print(json.dumps([rc, sorted(sys.modules)]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, timeout=120, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    assert rc == 0 and json.loads(path.read_text())["result"] == {"simple_patterns": 9}
    assert not set(loaded) & {"argparse", "gettext", "locale", "encodings.ascii"}


def test_infeasible_exits_3(capsys):
    rc, report, _ = run_json(capsys, "census", "6")
    assert rc == 3
    assert report["infeasible"] is True
    assert "error" in report


def test_bad_input_exits_1(capsys):
    rc, out, err = run_cli(capsys, "kc-exact", "10a1", "--max-len", "3", "--budget", "8")
    assert rc == 1
    assert out == ""
    assert "shiftlab:" in err


# ---------------------------------------------------------------------------
# Counting and complexity commands
# ---------------------------------------------------------------------------


def test_block_count_hard_square(capsys):
    rc, report, _ = run_json(capsys, "block-count", "hard-square", "2")
    assert rc == 0
    assert report["result"] == {"count": 7}
    assert report["metrics"] == {"filler": "0", "route": "row-transfer", "rows": 3, "states": 3}


RING_SEARCH = {"filler": None, "route": "ring-search", "rows": None, "states": None}


def test_block_count_reports_the_filler_route(capsys, tmp_path):
    rc, report, _ = run_json(capsys, "block-count", "red-black", "2", "--margin", "1")
    assert (rc, report["result"], report["metrics"]) == (
        0, {"count": 80}, {"filler": "W", "route": "row-transfer", "rows": 9, "states": 9}
    )
    rc, report, _ = run_json(capsys, "block-count", "mirror", "2", "--margin", "1")
    assert rc == 0 and report["metrics"] == RING_SEARCH
    # no 000 and no 111 in a row: a 1 x 1 block alone fits neither, but
    # its margin box does, and there no letter is a filler
    for name in ("000", "111"):
        (tmp_path / name).write_text(f"3 1 2\n{name}\n")
    spec = f"file:{tmp_path / '000'},{tmp_path / '111'}"
    rc, report, _ = run_json(capsys, "block-count", spec, "1", "--margin", "1")
    assert (rc, report["result"], report["metrics"]) == (0, {"count": 2}, RING_SEARCH)


@pytest.mark.parametrize(
    "argv, count, filler, rows, states",
    [
        # the benchmark's two counts: rows of width n, and the largest state
        # dict (one row for hard-square, two for red-black 3)
        (("hard-square", "4", "--margin", "1"), 1234, "0", 8, 8),
        (("red-black", "3", "--margin", "1"), 18748, "W", 27, 712),
        # OEIS A006506
        (("hard-square", "7"), 1280128950, "0", 34, 34),
        (("hard-square", "8"), 660647962955, "0", 55, 55),
    ],
)
def test_block_count_row_transfer_metrics(capsys, argv, count, filler, rows, states):
    rc, report, _ = run_json(capsys, "block-count", *argv)
    assert (rc, report["result"]) == (0, {"count": count})
    assert report["metrics"] == {
        "filler": filler, "route": "row-transfer", "rows": rows, "states": states
    }


def test_block_count_over_the_transfer_bounds_exits_3(capsys):
    # 243 rows of width 5 and 4-row states: refused before any state is built
    rc, report, _ = run_json(capsys, "block-count", "red-black", "5")
    assert rc == 3 and report["infeasible"]
    assert "row transfer" in report["error"]


def test_block_count_over_the_row_bound_exits_3_quickly(capsys):
    # every one of the 3^12 red-black rows of width 12 is admissible: the
    # listing stops at row 3^11 + 1
    start = time.perf_counter()
    rc, report, _ = run_json(capsys, "block-count", "red-black", "12")
    assert time.perf_counter() - start < 2
    assert rc == 3 and report["infeasible"]
    assert "admissible rows" in report["error"]


def test_block_count_negative_n_exits_1(capsys):
    rc, out, err = run_cli(capsys, "block-count", "hard-square", "-1")
    assert rc == 1
    assert out == ""
    assert err.startswith("shiftlab:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("border-consistency", "--n", "0"),
        ("epitome-verify", "--family", "identity", "--n", "0"),
        ("epitome-verify", "--family", "identity", "--n", "1", "--margin", "-1"),
        ("kc-incompressible", "--side", "0", "--threshold", "1", "--budget", "10"),
        ("kc-exact", "11", "--max-len", "-3", "--budget", "5"),
        ("kc-exact", "11", "--max-len", "3", "--budget", "-5"),
        ("border-consistency", "--projection", "0=B,1"),
        ("border-consistency", "--projection", "0=B"),
        ("render", "{tmp}/missing.txt"),
        ("two-part-code", "--pattern", "{tmp}/missing.txt", "--k", "2"),
        ("deep-member", "--family", "{tmp}/missing", "--pattern", "x"),
        ("verify-archive", "{tmp}"),
        ("verify-archive", "{tmp}/partial"),
        ("deep-member", "--family", "{tmp}/partial", "--pattern", "x"),
        ("verify-archive", "{tmp}/proxy"),
        ("deep-member", "--family", "{tmp}/proxy", "--pattern", "x"),
        ("kc-incompressible", "--side", "2", "--threshold", "-3", "--budget", "10"),
        ("kc-incompressible", "--mode", "perms", "--length", "0", "--budget", "10"),
        ("kc-incompressible", "--mode", "perms", "--count", "0", "--budget", "10"),
        ("deep-build", "--n0", "2", "--depth", "1", "--override", "", "--out", "{tmp}/x"),
        ("deep-build", "--n0", "2", "--depth", "1", "--override", ",,", "--out", "{tmp}/x"),
        ("lowcfg-roundtrip", "--k", "3", "--rects", "-5"),
    ],
)
def test_sizes_below_range_exit_1(capsys, tmp_path, argv):
    """Sizes below range and unreadable inputs: exit 1, one stderr line."""
    (tmp_path / "manifest.json").write_text("{")  # a malformed archive at {tmp}
    # an archive at {tmp}/partial whose manifest lacks measured_steps
    (tmp_path / "partial").mkdir()
    partial = {"params": params_to_dict(schedule_params(2, 3, 1)), "levels": []}
    (tmp_path / "partial" / "manifest.json").write_text(json.dumps(partial))
    # an archive at {tmp}/proxy whose params name the search older builds offered
    (tmp_path / "proxy").mkdir()
    proxy = dict(partial, params=dict(partial["params"], oracle="proxy"), measured_steps=[0, 0])
    (tmp_path / "proxy" / "manifest.json").write_text(json.dumps(proxy))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("shiftlab:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("border-consistency", "--n", "6"),
        ("epitome-verify", "--spec", "hard-square", "--family", "identity", "--n", "6",
         "--margin", "0"),
    ],
)
def test_candidate_enumerations_are_bounded(capsys, monkeypatch, argv):
    """5,598,861 hard-square 6 x 6 candidates: refused once counted, before
    one is built."""
    def built(*_):
        raise AssertionError("a candidate was built")

    monkeypatch.setattr(Pattern, "_adopt", classmethod(built))
    rc, report, _ = run_json(capsys, *argv)
    assert rc == 3 and report["infeasible"] is True
    assert "5598861" in report["error"]


@pytest.mark.parametrize(
    "projection, named",
    [("0=B", "leaves out '1'"), ("0=B,1", "'1' is not of the form a=b"), ("=B,1=W", "'=B'")],
)
def test_projection_errors_name_the_problem(capsys, projection, named):
    rc, out, err = run_cli(capsys, "border-consistency", "--projection", projection)
    assert rc == 1 and out == ""
    assert named in err


def test_kc_exact_reports_machine_steps(capsys):
    rc, report, _ = run_json(capsys, "kc-exact", "11", "--max-len", "8", "--budget", "64")
    assert rc == 0
    assert report["result"] == {"found": True, "value": 3, "witness": "111"}
    assert report["timing"]["machine_steps"] > 0


def test_kc_exact_bounds_its_search(capsys):
    rc, report, _ = run_json(capsys, "kc-exact", "0000000000", "--max-len", "40", "--budget", "5")
    assert rc == 0
    assert report["result"] == {"found": False, "value": None, "witness": None}
    assert report["metrics"]["runs"] == 0
    rc, report, _ = run_json(capsys, "kc-exact", "0101010101", "--max-len", "40", "--budget", "10")
    assert rc == 3 and report["infeasible"] is True


def test_kc_exact_refuses_a_cut_off_output_past_the_bound(capsys):
    # the 13-bit INC WHILE OUT0 ENDW would print 3.3 * 10^12 zeros
    rc, report, _ = run_json(
        capsys, "kc-exact", "0" * 16, "--max-len", "17", "--budget", "10000000000000"
    )
    assert rc == 3 and report["infeasible"] is True
    assert "characters" in report["error"]


def test_kc_incompressible_pattern(capsys):
    rc, report, _ = run_json(
        capsys, "kc-incompressible", "--side", "2", "--threshold", "4", "--budget", "256"
    )
    assert rc == 0
    assert report["result"]["pattern"] == ["00", "00"]
    assert (report["metrics"]["printable"], report["metrics"]["passed_over"]) == (0, 0)


def test_kc_incompressible_threshold_infeasible(capsys):
    rc, report, _ = run_json(
        capsys, "kc-incompressible", "--side", "2", "--threshold", "9", "--budget", "16"
    )
    assert rc == 3


def test_kc_incompressible_perms(capsys):
    rc, report, _ = run_json(
        capsys,
        "kc-incompressible",
        "--mode", "perms",
        "--length", "4",
        "--count", "4",
        "--distinct",
        "--budget", "4096",
    )
    assert rc == 0
    res = report["result"]
    assert res["permutations"] == [[1, 2, 3, 4], [1, 2, 4, 3], [1, 3, 2, 4], [1, 3, 4, 2]]
    assert res["threshold"] == 18
    assert res["rank_width"] == 5
    assert res["encoding"] == "00000" + "00001" + "00010" + "00011"
    metrics = report["metrics"]
    assert metrics["printable"] == metrics["passed_over_printable"] == 0
    assert metrics["passed_over_not_distinct"] == 627
    assert "passed_over" not in metrics


# ---------------------------------------------------------------------------
# Deep families
# ---------------------------------------------------------------------------


def test_deep_build_payload(archive):
    out, report = archive
    res = report["result"]
    assert res["measured_steps"] == [0, 17, 17, 17]
    assert [lv["side"] for lv in res["levels"]] == [2, 4, 8, 16]
    assert "level_1/Q_0.txt" in res["manifest_files"]
    assert report["timing"]["machine_steps"] == [0, 17, 17, 17]


def test_deep_build_reports_search_counters_in_metrics(archive):
    _, report = archive
    levels = report["metrics"]["levels"]
    assert [lv["level"] for lv in levels] == [1, 2, 3]
    for lv in levels:
        assert set(lv) == {
            "level", "runs", "memo_reuses", "cycle_cutoffs", "printable", "passed_over"
        }
        assert lv["runs"] == 15  # the programs of at most 3 bits
    assert "metrics" not in report["result"]


def test_deep_member_accept_and_reject(archive, tmp_path, capsys):
    out, _ = archive
    probe = tmp_path / "probe.txt"
    probe.write_text(make_pattern(["0000", "0000", "0000", "0000"]).to_text())
    rc, report, _ = run_json(capsys, "deep-member", "--family", out, "--pattern", str(probe))
    assert rc == 0
    assert report["result"]["accepted"] is True
    assert report["result"]["witness_bits"] == 9

    board = make_pattern(["".join("01"[(r + c) % 2] for c in range(16)) for r in range(16)])
    probe.write_text(board.to_text())
    rc, report, _ = run_json(capsys, "deep-member", "--family", out, "--pattern", str(probe))
    assert rc == 2
    assert report["result"]["accepted"] is False
    assert "witness_bits" not in report["result"]


def test_deep_member_reads_stdin(archive, capsys, monkeypatch):
    import io

    out, _ = archive
    text = make_pattern(["00", "00"]).to_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    rc, report, _ = run_json(capsys, "deep-member", "--family", out, "--pattern", "-")
    assert rc == 0 and report["result"]["accepted"] is True


def test_verify_archive_pass_and_corruption(archive, tmp_path, capsys):
    out, _ = archive
    rc, report, _ = run_json(capsys, "verify-archive", out)
    assert rc == 0
    assert report["result"] == {"ok": True, "manifest_diff": [], "mismatches": []}

    block = tmp_path / "fam" / "level_1" / "Q_0.txt"
    text = block.read_text()
    ix = text.index("0", text.index("\n"))
    block.write_text(text[:ix] + "1" + text[ix + 1 :])
    rc, report, _ = run_json(capsys, "verify-archive", out)
    assert rc == 2
    assert report["result"]["mismatches"] == ["Q_1^0 (level_1/Q_0.txt)"]


def test_verify_archive_expect_params_diff(archive, tmp_path, capsys):
    out, _ = archive
    params = schedule_params(2, 3, 3, structural_override=(2, 2, 2, 2))
    other = params._replace(budgets=(params.budgets[0], LevelBudget(1, 2, 3)) + params.budgets[2:])
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params_to_dict(other)))
    rc, report, _ = run_json(
        capsys, "verify-archive", out, "--expect-params", str(pfile)
    )
    assert rc == 2
    assert any("params.budgets" in d for d in report["result"]["manifest_diff"])


def _absolute_block(archive_dir):
    return os.path.join(archive_dir, "level_1", "Q_1.txt")


def _outside_block(archive_dir):
    """A copy of a valid level-1 block outside the archive, as a path relative
    to it: a reader that let the path through would load and answer."""
    outside = pathlib.Path(archive_dir).parent / "outside.txt"
    outside.write_text(pathlib.Path(_absolute_block(archive_dir)).read_text())
    return os.path.relpath(outside, archive_dir)


def _put(*path, value):
    """Set the manifest node at ``path``; a callable value is called with the
    archive directory."""
    def tamper(manifest, archive_dir):
        for key in path[:-1]:
            manifest = manifest[key]
        manifest[path[-1]] = value(archive_dir) if callable(value) else value

    return tamper


@pytest.mark.parametrize(
    "tamper, named",
    [
        # field types
        (_put("levels", 1, "block_files", value=[5, 6]), "block file 5"),
        (_put("levels", 1, "witness_matrix", value=7), "'witness_matrix' 7"),
        (_put("levels", 1, "witness_perms", value=5), "'witness_perms' is not a list"),
        (_put("measured_steps", value=5), "'measured_steps' is not a list"),
        (_put("params", "N", value=5), "params 'N' is not a list"),
        (_put("params", "budgets", value=[[1, 2]]), "params 'budgets' has 1 entries, not 4"),
        (_put("levels", 1, "level", value="x"), "'level' is not an int"),
        # paths that leave the archive, to blocks that would load
        (_put("levels", 1, "block_files", 0, value=_absolute_block), "not a file inside"),
        (_put("levels", 1, "block_files", 0, value=_outside_block), "not a file inside"),
        # level shapes
        (lambda m, d: m["levels"].pop(), "'levels' has 3 entries, not 4"),
        (lambda m, d: m["levels"].reverse(), "manifest level 0 is numbered 3"),
        (lambda m, d: m["levels"][1]["block_files"].pop(), "has 1 entries, not 2"),
        (_put("levels", 1, "block_files", 0, value="level_0/Q_0.txt"), "not 4x4 binary"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [("deep-member", "--family", "{out}", "--pattern", "{probe}"), ("verify-archive", "{out}")],
    ids=["deep-member", "verify-archive"],
)
def test_malformed_manifest_exits_1_with_one_line(archive, tmp_path, capsys, argv, tamper, named):
    out, _ = archive
    mpath = pathlib.Path(out) / "manifest.json"
    manifest = json.loads(mpath.read_text())
    tamper(manifest, out)
    mpath.write_text(json.dumps(manifest))
    probe = tmp_path / "probe.txt"
    probe.write_text(make_pattern(["00", "00"]).to_text())
    argv = [a.format(out=out, probe=probe) for a in argv]
    rc, stdout, err = run_cli(capsys, *argv)
    assert (rc, stdout) == (1, "")
    assert err.startswith("shiftlab:") and err.count("\n") == 1
    assert named in err


def test_deep_build_multi_block_infeasible(tmp_path, capsys):
    rc, report, _ = run_json(
        capsys,
        "deep-build",
        "--n0", "2",
        "--depth", "1",
        "--mode", "multi-block",
        "--out", str(tmp_path / "m"),
    )
    assert rc == 3
    assert report["infeasible"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("deep-build", "--n0", "2", "--depth", "1", "--out", "{tmp}/f"),
        ("kc-incompressible", "--side", "6", "--threshold", "37", "--budget", "10"),
        ("kc-incompressible", "--mode", "perms", "--length", "6", "--count", "5", "--budget", "10"),
    ],
)
def test_program_search_above_limit_exits_3(capsys, tmp_path, argv):
    # searches over programs of up to 63, 36 and 46 bits
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    rc, report, err = run_json(capsys, *argv)
    assert rc == 3
    assert report == {
        "command": argv[0],
        "error": "program searches are limited to max_len <= 24",
        "infeasible": True,
    }
    assert err == ""
    assert not any(tmp_path.iterdir())  # refused before an archive was written


# ---------------------------------------------------------------------------
# Standard squares
# ---------------------------------------------------------------------------


def test_lowcfg_build_writes_square(tmp_path, capsys):
    out = tmp_path / "sq"
    rc, report, _ = run_json(capsys, "lowcfg-build", "--k", "2", "--out", str(out))
    assert rc == 0
    path = out / "P_2.txt"
    assert report["result"]["side"] == 5
    pk = Pattern.from_text(path.read_text())
    assert pk.height == 5


def test_lowcfg_build_inline_rows(capsys):
    rc, report, _ = run_json(capsys, "lowcfg-build", "--k", "1")
    assert rc == 0
    assert report["result"]["pattern"] == ["000", "000", "000"]


def test_lowcfg_roundtrip_ok(tmp_path, capsys):
    rc, report, _ = run_json(
        capsys,
        "lowcfg-roundtrip",
        "--k", "3",
        "--rects", "5",
        "--seed", "11",
        "--out", str(tmp_path / "desc"),
    )
    assert rc == 0
    res = report["result"]
    assert res["constant"] == 48
    assert len(res["rects"]) == 5
    assert all(e["ok"] and e["within_bound"] for e in res["rects"])
    assert (tmp_path / "desc" / "description.json").exists()
    # five rectangles on one grid square each; every hard-square standard
    # square is all 0, so one square is built per level met
    assert report["metrics"] == {"squares_described": 5, "squares_built": 2}
    assert "metrics" not in res


@pytest.mark.parametrize("command", ["lowcfg-build", "lowcfg-roundtrip"])
@pytest.mark.parametrize("k", ["12", "40"])
def test_lowcfg_level_above_limit_exits_3(capsys, command, k):
    rc, report, err = run_json(capsys, command, "--k", k)
    assert rc == 3
    assert report == {
        "command": command,
        "error": "lowcfg is limited to levels k <= 11",
        "infeasible": True,
    }
    assert err == ""


def test_lowcfg_rejects_non_nn_spec(capsys):
    rc, out, err = run_cli(capsys, "lowcfg-build", "--spec", "red-black", "--k", "1")
    assert rc == 1
    assert "nearest-neighbour" in err


# ---------------------------------------------------------------------------
# Epitome commands
# ---------------------------------------------------------------------------


def test_epitome_verify_profile_family(capsys):
    rc, report, _ = run_json(capsys, "epitome-verify")
    assert rc == 0
    assert report["result"]["checked"] == 9
    assert report["result"]["ok"] is True
    # nine enforcer windows, each scanned with all nine simple slot patterns
    assert report["metrics"] == {"window_scans": 81}
    # the config echoes the settings the check used
    assert [report["config"][k] for k in ("family", "n", "margin")] == ["profile", 2, 1]


def test_epitome_verify_single_profile(capsys):
    rc, report, _ = run_json(capsys, "epitome-verify", "--profile", "1,1")
    assert rc == 0
    res = report["result"]
    assert res["cases"] == 9
    assert res["clause1_self_compatible"] is True
    assert res["clause2_compatible_implies_leq"] is True
    assert res["clause3_violations_witnessed"] is True
    assert report["metrics"] == {"window_scans": 9}
    # a single window takes no family, size or margin
    assert [report["config"][k] for k in ("family", "n", "margin")] == [None, None, None]


def test_epitome_verify_profile_needs_a_three_letter_spec(capsys):
    rc, out, err = run_cli(capsys, "epitome-verify", "--spec", "hard-square", "--profile", "1,1")
    assert rc == 1
    assert out == ""
    assert err.splitlines() == ["shiftlab: pattern alphabet does not match spec 'hard-square'"]


def test_epitome_verify_mirror(capsys):
    rc, report, _ = run_json(
        capsys, "epitome-verify", "--spec", "mirror", "--family", "mirror", "--n", "2"
    )
    assert rc == 0
    assert report["result"]["checked"] == 24
    # each of the 24 witness windows against each of the 24 candidates
    assert report["metrics"] == {"window_scans": 576}


def test_epitome_verify_identity_rejected(capsys):
    rc, report, _ = run_json(
        capsys, "epitome-verify", "--family", "identity", "--n", "2"
    )
    assert rc == 2
    assert report["result"]["ok"] is False
    assert "counterexample" in report["result"]
    assert report["metrics"] == {
        "annulus_colorings": 3**12,
        "candidates": 80,
        "window_checks": 3**12 * 80,
    }


def test_epitome_verify_hard_square_identity_n3_frozen(capsys):
    # 65,536 annulus colorings against 63 candidates; the counterexample was
    # recorded from a route that loaded and scanned one window per pair
    rc, report, _ = run_json(
        capsys, "epitome-verify", "--spec", "hard-square", "--family", "identity", "--n", "3"
    )
    assert rc == 2
    res = report["result"]
    assert (res["ok"], res["checked"]) == (False, 63)
    assert res["counterexample"] == {
        "pattern": ["000", "000", "000"],
        "annulus": "00000\n0...0\n0...0\n0...0\n00000\n",
        "also_compatible": ["000", "000", "001"],
        "other_value": "('000', '000', '001')",
    }
    assert report["metrics"] == {
        "annulus_colorings": 2**16,
        "candidates": 63,
        "window_checks": 2**16 * 63,
    }


def test_epitome_verify_infeasible_scale(capsys):
    rc, report, _ = run_json(
        capsys, "epitome-verify", "--family", "identity", "--n", "3"
    )
    assert rc == 3


@pytest.mark.parametrize("argv", [("--n", "6"), ("--profile", "1,1,1,1,1,1")])
def test_epitome_verify_profile_sweeps_are_bounded(capsys, argv):
    rc, report, _ = run_json(capsys, "epitome-verify", *argv)
    assert rc == 3
    assert report["infeasible"] is True
    assert report["error"] == "117649 profiles of length 6 exceed the 100000 a check lists; lower n"


def test_border_consistency_defaults(capsys):
    rc, report, _ = run_json(capsys, "border-consistency")
    assert rc == 0
    res = report["result"]
    assert res["groups"] == 47
    assert res["flagged"] == 16
    assert res["ledger_bits"] == 8
    assert len(res["flagged_borders"]) == 16
    # the 63 admissible 3 x 3 hard-square patterns, in 47 border groups
    assert report["metrics"] == {"candidates": 63, "groups": 47}


@pytest.mark.parametrize(
    "argv",
    [
        ("epitome-verify", "--spec", "red-black", "--family", "interior-popcount", "--n", "2"),
        ("epitome-verify", "--spec", "hard-square", "--n", "2"),
        ("border-consistency", "--spec", "red-black", "--family", "interior-popcount", "--n", "2"),
    ],
)
def test_vacuous_checks_exit_1(capsys, argv):
    # the family is undefined on every candidate: nothing would be checked
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("shiftlab:") and err.count("\n") == 1
    assert "undefined on every 2x2 pattern" in err


def test_border_consistency_ordered_family_with_undefined_values(capsys):
    # profile is undefined on most red-black patterns; a 2 x 2 pattern is
    # all border, so each group holds one value and none is flagged
    rc, report, _ = run_json(
        capsys, "border-consistency", "--spec", "red-black", "--family", "profile", "--n", "2"
    )
    assert rc == 0
    assert (report["result"]["groups"], report["result"]["flagged"]) == (80, 0)
    assert report["metrics"] == {"candidates": 80, "groups": 80}


@pytest.mark.parametrize(
    "argv, family, kind",
    [
        (("border-consistency",), "interior-popcount", "plain"),
        (("border-consistency", "--kind", "ordered"), "interior-popcount", "ordered"),
        (("border-consistency", "--spec", "red-black", "--family", "profile", "--n", "2"),
         "profile", "ordered"),
        (("border-consistency", "--family", "constant", "--n", "2"), "constant", "plain"),
        (("epitome-verify", "--spec", "hard-square", "--family", "interior-popcount", "--n", "2",
          "--kind", "ordered"), "interior-popcount", "ordered"),
        (("epitome-verify", "--family", "identity", "--n", "1"), "identity", "plain"),
    ],
)
def test_results_carry_the_family_and_kind_checked(capsys, argv, family, kind):
    rc, report, _ = run_json(capsys, *argv)
    assert rc in (0, 2)
    assert (report["result"]["family"], report["result"]["kind"]) == (family, kind)
    # the kind is a setting only where it was given
    assert report["config"]["kind"] == (kind if "--kind" in argv else None)


@pytest.mark.parametrize(
    "argv",
    [
        ("border-consistency", "--spec", "red-black", "--family", "profile", "--n", "2",
         "--kind", "plain"),
        ("border-consistency", "--family", "identity", "--kind", "ordered"),
        ("epitome-verify", "--family", "identity", "--n", "1", "--kind", "plain"),
        ("epitome-verify", "--spec", "mirror", "--family", "mirror", "--n", "2",
         "--kind", "ordered"),
        ("epitome-verify", "--profile", "1,0", "--kind", "ordered"),
    ],
)
def test_kind_with_a_family_of_one_kind_exits_1(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("shiftlab: --kind") and err.count("\n") == 1


def test_border_consistency_full_detail(capsys):
    rc, report, _ = run_json(
        capsys, "border-consistency", "--family", "constant", "--n", "2", "--full"
    )
    assert rc == 0
    assert report["result"]["flagged"] == 0
    assert len(report["result"]["detail"]) == 7


def test_border_consistency_projection(capsys):
    rc, report, _ = run_json(
        capsys,
        "border-consistency",
        "--family", "constant",
        "--n", "2",
        "--projection", "0=B,1=W",
    )
    assert rc == 0
    rc2, _, err = run_cli(
        capsys,
        "border-consistency",
        "--projection", "0=x,1=y",
    )
    assert rc2 == 1 and "projection" in err


# ---------------------------------------------------------------------------
# Codes and rendering
# ---------------------------------------------------------------------------


def test_two_part_code_cli(tmp_path, capsys):
    pfile = tmp_path / "p.txt"
    pfile.write_text(make_pattern(["0" * 8] * 8).to_text())
    rc, report, _ = run_json(
        capsys, "two-part-code", "--pattern", str(pfile), "--k", "2"
    )
    assert rc == 0
    res = report["result"]
    assert res["payload_bits"] == 76
    assert res["roundtrip"] is True
    assert "bits" not in res
    rc2, report2, _ = run_json(
        capsys, "two-part-code", "--pattern", str(pfile), "--k", "2", "--emit-bits"
    )
    assert len(report2["result"]["bits"]) == report2["result"]["total_bits"]


def test_render_prints_raw_grid(tmp_path, capsys):
    pfile = tmp_path / "p.txt"
    pfile.write_text(make_pattern(["BW", "RW"]).to_text())
    rc, out, _ = run_cli(capsys, "render", str(pfile))
    assert rc == 0
    assert out == "BW\nRW\n"


def test_tracer_targets_name_library_functions():
    # perfbench/tracer.py wraps these names in the package; one that a
    # change drops or renames would break only a traced benchmark run
    tracer = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    targets = runpy.run_path(str(tracer), run_name="perfbench_tracer")["TARGETS"]
    assert targets
    for modname, fname, *_ in targets:
        module = importlib.import_module(f"shiftlab.{modname}")
        assert callable(getattr(module, fname, None)), f"shiftlab.{modname}.{fname}"


def test_console_entry_point_subprocess(child_env):
    # numpy made unimportable: the CLI, a census and the generic route's
    # window check run on the standard library alone
    for argv, rc in [
        (["census", "2"], 0),
        (["epitome-verify", "--family", "identity", "--n", "2"], 2),
    ]:
        snippet = (
            "import sys; sys.modules['numpy'] = None; from shiftlab.cli import main; "
            f"sys.exit(main({argv!r}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env,
        )
        assert proc.returncode == rc, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == argv[0]
        if argv[0] == "census":
            assert report["result"] == {"simple_patterns": 9}
        else:
            assert report["result"]["ok"] is False and "counterexample" in report["result"]
