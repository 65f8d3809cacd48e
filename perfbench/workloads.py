"""The benchmark's workloads: job lists, frozen answers and per-job checks.

Every job runs in a fresh interpreter (see child.py).  ``argv`` is the
``shiftlab`` command line with ``{pass_dir}`` and ``{seed}`` filled in by the
runner; the probe job has no command line and calls the library directly.

A check returns one message per failed operation.  An operation is one job,
except for ``lowcfg-roundtrip`` (one per rectangle) and the probe job (one
per probe), whose ``ops`` say how many they carry.  ``steps`` is the number
of machine steps the job simulates, the sum of its ``measured_steps``; the
traced run checks that ``run_program`` reports exactly that many.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FROZEN = json.loads(Path(__file__).with_name("frozen.json").read_text(encoding="ascii"))

ARCHIVES = ("a24", "a224", "m222")
PROBES = 400
LOWCFG_RECTS = 40


@dataclass(frozen=True)
class Outcome:
    """What a job left behind: the CLI report (None when it wrote none),
    the probe answers, and the pass directory its archives live in."""

    report: dict | None
    answers: list | None
    pass_dir: Path
    seed: int


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[Outcome], list[str]]
    rc: int = 0
    ops: int = 1
    steps: int = 0
    probes: bool = False
    # jobs of the same pass whose output this job reads
    needs: tuple[str, ...] = ()


def _result(out: Outcome) -> dict:
    return out.report["result"] if out.report else {}


def _expect(failures: list[str], got, want, what: str) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, expected {want!r}")


def archive_digests(path: Path) -> dict[str, str]:
    """sha256 of every stored file but manifest.json, whose format is not
    part of the frozen answer."""
    out = {}
    for root, _, files in os.walk(path):
        for f in files:
            if f != "manifest.json":
                full = Path(root) / f
                out[full.relative_to(path).as_posix()] = hashlib.sha256(full.read_bytes()).hexdigest()
    return dict(sorted(out.items()))


def _check_build(archive: str):
    def check(out: Outcome) -> list[str]:
        failures: list[str] = []
        _expect(failures, _result(out).get("measured_steps"), FROZEN["measured_steps"][archive],
                "measured_steps")
        got = archive_digests(out.pass_dir / archive)
        want = FROZEN["archive_sha256"][archive]
        for rel in sorted(set(got) | set(want)):
            _expect(failures, got.get(rel), want.get(rel), f"sha256 of {archive}/{rel}")
        return failures

    return check


def _check_verify(out: Outcome) -> list[str]:
    failures: list[str] = []
    res = _result(out)
    _expect(failures, res.get("ok"), True, "verify-archive ok")
    _expect(failures, res.get("mismatches"), [], "verify-archive mismatches")
    return failures


def _check_probes(out: Outcome) -> list[str]:
    from probes import Oracle, make_probes, read_archive

    families = [read_archive(out.pass_dir / a) for a in ARCHIVES]
    return Oracle(families).check(make_probes(families, out.seed, PROBES), out.answers or [])


def _check_fields(want: dict):
    def check(out: Outcome) -> list[str]:
        failures: list[str] = []
        for key, value in want.items():
            _expect(failures, _result(out).get(key), value, key)
        return failures

    return check


def _check_lowcfg(out: Outcome) -> list[str]:
    rects = _result(out).get("rects", [])
    failures = [f"rect {e['rect']}: {e}" for e in rects if not (e["ok"] and e["within_bound"])]
    if len(rects) != LOWCFG_RECTS:
        failures.append(f"{len(rects)} rectangles reported, expected {LOWCFG_RECTS}")
    return failures


def _steps(archive: str) -> int:
    return sum(FROZEN["measured_steps"][archive])


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # complexity does ~80% of the work; deepshift writes, re-reads and
    # queries archives.
    "family-build": (
        Job("deep-build-2,4",
            ("deep-build", "--n0", "2", "--depth", "1", "--override", "2,4",
             "--out", "{pass_dir}/a24"),
            _check_build("a24"), steps=_steps("a24")),
        Job("deep-build-2,2,4",
            ("deep-build", "--n0", "2", "--depth", "2", "--override", "2,2,4",
             "--out", "{pass_dir}/a224"),
            _check_build("a224"), steps=_steps("a224")),
        Job("deep-build-multi-2,2,2",
            ("deep-build", "--mode", "multi-block", "--n0", "2", "--depth", "1",
             "--override", "2,2,2", "--out", "{pass_dir}/m222"),
            _check_build("m222"), steps=_steps("m222")),
        Job("verify-archive-2,2,4", ("verify-archive", "{pass_dir}/a224"),
            _check_verify, steps=_steps("a224"), needs=("deep-build-2,2,4",)),
        Job("member-probes", (), _check_probes, ops=PROBES, probes=True,
            needs=("deep-build-2,4", "deep-build-2,2,4", "deep-build-multi-2,2,2")),
    ),
    # core and admissibility do the work; complexity is never called.
    "admissible-count": (
        Job("block-count-hard-square-4",
            ("block-count", "hard-square", "4", "--margin", "1"),
            _check_fields({"count": FROZEN["hard_square_4_margin_1"]})),
        Job("block-count-red-black-3",
            ("block-count", "red-black", "3", "--margin", "1"),
            _check_fields({"count": FROZEN["red_black_3_margin_1"]})),
        Job("lowcfg-roundtrip-k5",
            ("lowcfg-roundtrip", "--k", "5", "--rects", str(LOWCFG_RECTS), "--seed", "{seed}"),
            _check_lowcfg, ops=LOWCFG_RECTS),
    ),
    # epitomes' numpy kernels carry the load; exhaustive, so seed-free.
    "epitome-sweep": (
        Job("census-4", ("census", "4"), _check_fields({"simple_patterns": FROZEN["census_4"]})),
        # identity does not have the enforcement property: exit 2 is the answer
        Job("epitome-identity-2", ("epitome-verify", "--family", "identity", "--n", "2"),
            _check_fields(FROZEN["epitome_identity_n2"]), rc=2),
        Job("epitome-profile-3", ("epitome-verify", "--n", "3"),
            _check_fields(FROZEN["epitome_profile_n3"])),
        Job("epitome-mirror-2",
            ("epitome-verify", "--family", "mirror", "--spec", "mirror", "--n", "2"),
            _check_fields(FROZEN["epitome_mirror_n2"])),
        Job("border-consistency-4", ("border-consistency", "--n", "4"),
            _check_fields(FROZEN["border_consistency_n4"])),
    ),
}

# Pass time of the frozen baseline (perfbench/baseline, shiftlab 0.1.0) at
# the nominal machine speed that run.py scales times to: the unscaled wall_s
# of the seed commit, rounded, as measured on a 2-core Xeon at 2.0 GHz.
NOMINAL_PASS_S = {
    "family-build": 5.7,
    "admissible-count": 7.4,
    "epitome-sweep": 16.0,
}

# Functions each workload must call at least once in a traced pass, and
# function prefixes it must never call.  selftest.py asserts both.
CALLED = {
    "family-build": (
        "complexity.run_program", "complexity.printable_strings",
        "deepshift.build_family", "deepshift.verify_archive", "deepshift.save_family",
        "deepshift.load_family", "deepshift.member", "cli.main",
    ),
    "admissible-count": (
        "core.contains_forbidden", "core.iter_rect_patterns",
        "admissibility.extendable", "admissibility.lex_first_completion",
        "lowcfg.standard_square", "lowcfg.reconstruct_subpattern", "cli.main",
    ),
    "epitome-sweep": (
        "core.contains_forbidden", "core.iter_rect_patterns",
        "epitomes.simple_pattern_census", "epitomes.epitome_property_check",
        "epitomes.verify_enforcer", "epitomes.border_epitome_consistency", "cli.main",
    ),
}
NOT_CALLED = {
    "family-build": ("core.", "admissibility.", "lowcfg.", "epitomes."),
    "admissible-count": ("complexity.", "deepshift.", "epitomes."),
    "epitome-sweep": ("complexity.", "deepshift.", "lowcfg."),
}
