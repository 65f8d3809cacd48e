"""Run one benchmark job in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<job spec as JSON>'`` (run.py does this).

The spec names the source directory to import shiftlab from (the
checkout's ``src`` or the frozen ``perfbench/baseline``), the job and where
to write results.  The child puts that directory first on ``sys.path``,
imports shiftlab, generates its inputs and stamps ``ready``; then it runs
the job and stamps ``done``.  The stamps are ``time.perf_counter()``, which
on Linux reads the system-wide monotonic clock, so the parent can subtract
its own spawn stamp from ``ready``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from time import perf_counter


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = spec["src"]
    sys.path.insert(0, src)
    import shiftlab

    if not os.path.abspath(shiftlab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"child: imported shiftlab from {shiftlab.__file__}, not {src}", file=sys.stderr)
        return 4
    out = {
        "shiftlab_file": shiftlab.__file__,
        "version": shiftlab.__version__,
        "python": platform.python_version(),
    }

    tracer = None
    if spec["kind"] in ("cli", "warmup"):
        from shiftlab import cli
    elif spec["kind"] == "probes":
        from probes import make_probes, read_archive
        from shiftlab import deepshift
        from shiftlab.core import BINARY, make_pattern

        families = [read_archive(d) for d in spec["archives"]]
        probes = make_probes(families, spec["seed"], spec["probes"])
        patterns = [make_pattern(p.rows, BINARY) for p in probes]
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    out["ready"] = perf_counter()

    if spec["kind"] == "cli":
        out["rc"] = cli.main(["--out-file", spec["report"], *spec["argv"]])
    elif spec["kind"] == "probes":
        fams = [deepshift.load_family(d) for d in spec["archives"]]
        answers = []
        for p, pat in zip(probes, patterns):
            res = deepshift.member(pat, fams[p.archive])
            answers.append({
                "accepted": res.accepted,
                "level": res.level,
                "corner_ids": res.corner_ids,
                "offset": res.offset,
            })
        out["rc"] = 0
        out["answers"] = answers
    else:  # "warmup": imports only
        out["rc"] = 0
    out["done"] = perf_counter()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        out["layers"] = tracer.summary()
        out["member_s"] = tracer.durations("deepshift.member")
        with open(spec["spans"], "w", encoding="ascii") as fh:
            json.dump(tracer.span_records(), fh)
    with open(spec["result"], "w", encoding="ascii") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
