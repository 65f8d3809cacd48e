"""Command-line entry point.

Every subcommand prints a JSON report carrying the package version, the
effective configuration, the results, and a timing block in which wall-clock
seconds and simulated machine steps are kept strictly apart (``render`` is
the one plain-text exception).  Commands that run the description machine,
an epitome check, a block count or a lowcfg roundtrip add a ``metrics``
block of work counters (for ``block-count``, the filler letter that spares
the ring searches, or null, the route that counted, and the row transfer's
row and state counts; for ``lowcfg-roundtrip``, the covering squares
described and the distinct ones built), kept out of the results.  Exit
codes: 0 success, 1 bad usage or bad input or a reader that closed stdout
early, 2 a verification or consistency check failed, 3 the request is
infeasible at the attempted scale.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .admissibility import block_count
from .complexity import (
    StepMeter,
    ctime,
    encode_rank_tuple,
    incompressible_permutations,
    lex_first_incompressible,
    permutation_rank,
    rank_width,
    tuple_threshold,
)
from .core import InfeasibleError, PatternError, get_spec, read_head, read_pattern, write_pattern
from .deepshift import (
    build_family,
    decode_two_part,
    load_family,
    member,
    params_from_dict,
    params_to_dict,
    save_family,
    schedule_params,
    two_part_code,
    verify_archive,
    witness_bit_length,
)
from .epitomes import (
    Profile,
    border_epitome_consistency,
    constant_family,
    epitome_property_check,
    identity_family,
    interior_popcount_family,
    mirror_family,
    profile_family,
    simple_pattern_census,
    verify_enforcer,
)
from .lowcfg import (
    NNSpec,
    build_Pk,
    describe_subpattern,
    description_constant,
    lowcfg_roundtrip,
    save_description,
)

_FAMILY_FACTORIES = {
    "profile": profile_family,
    "mirror": mirror_family,
    "identity": identity_family,
    "constant": constant_family,
    "interior-popcount": interior_popcount_family,
}


def _family_of(args):
    """The family ``--family`` names, of the kind ``--kind`` names; only
    interior-popcount comes in both kinds, so ``--kind`` is refused with any
    other family."""
    factory = _FAMILY_FACTORIES[args.family]
    if args.kind is None:
        return factory()
    if args.family != "interior-popcount":
        raise PatternError(f"--kind applies to the interior-popcount family only, not {args.family}")
    return factory(kind=args.kind)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (payload, ok, machine_steps | None),
# optionally followed by a metrics dict.
# ---------------------------------------------------------------------------


def _cmd_block_count(args):
    count, metrics = block_count(get_spec(args.spec), args.n, args.margin)
    return {"count": count}, True, None, metrics


def _cmd_census(args):
    return {"simple_patterns": simple_pattern_census(args.n)}, True, None


def _cmd_deep_build(args):
    params = schedule_params(
        args.n0,
        args.c,
        args.depth,
        mode=args.mode,
        structural_override=None if args.override is None else tuple(args.override),
    )
    fam = build_family(params)
    manifest = save_family(fam, args.out)
    payload = {
        "out": args.out,
        "params": params_to_dict(fam.params),
        "measured_steps": fam.measured_steps,
        "levels": [
            {"level": lv.level, "blocks": len(lv.blocks), "side": fam.params.N[lv.level]}
            for lv in fam.levels
        ],
        "manifest_files": sorted(
            rel for lv in manifest["levels"] for rel in lv["block_files"]
        ),
    }
    metrics = {
        "levels": [
            {"level": i, **meter.counters()} for i, meter in enumerate(fam.meters, 1)
        ]
    }
    return payload, True, fam.measured_steps, metrics


def _cmd_deep_member(args):
    fam = load_family(args.family)
    p = read_pattern(args.pattern)
    res = member(p, fam)
    payload = {
        "accepted": res.accepted,
        "level": res.level,
        "corner_ids": res.corner_ids,
        "offset": res.offset,
    }
    if res.accepted:
        payload["witness_bits"] = witness_bit_length(res, fam)
    # a rejected probe is signalled through the exit code; no witness fields
    return payload, res.accepted, None


def _cmd_lowcfg_build(args):
    nn = NNSpec(get_spec(args.spec))
    pk = build_Pk(nn, args.k)
    payload = {"k": args.k, "side": pk.height}
    if args.out:
        path = os.path.join(args.out, f"P_{args.k}.txt")
        write_pattern(pk, path)
        payload["written"] = path
    else:
        payload["pattern"] = pk.rows()
    return payload, True, None


def _cmd_lowcfg_roundtrip(args):
    import random

    if args.rects < 0:
        raise PatternError("rects must be nonnegative")
    nn = NNSpec(get_spec(args.spec))
    pk = build_Pk(nn, args.k)
    side = pk.height
    rng = random.Random(args.seed)
    rects = []
    for _ in range(args.rects):
        h = rng.randrange(1, side + 1)
        w = rng.randrange(1, side + 1)
        r0 = rng.randrange(0, side - h + 1)
        c0 = rng.randrange(0, side - w + 1)
        rects.append((r0, c0, h, w))
    metrics: dict = {}
    entries = lowcfg_roundtrip(nn, pk, args.k, rects, metrics)
    ok = all(e["ok"] and e["within_bound"] for e in entries)
    payload = {
        "constant": description_constant(nn.spec.alphabet),
        "rects": entries,
    }
    if args.out and entries:
        desc = describe_subpattern(nn, pk, args.k, rects[0])
        save_description(desc, args.out)
        payload["written"] = args.out
    return payload, ok, None, metrics


def _cmd_kc_exact(args):
    if set(args.string) - {"0", "1"}:
        raise PatternError(f"expected a bit string, got {args.string!r}")
    meter = StepMeter()
    res = ctime(args.string, args.max_len, args.budget, meter)
    payload = {
        "found": res.value is not None,
        "value": res.value,
        "witness": res.witness,
    }
    return payload, True, meter.steps, meter.counters()


def _cmd_kc_incompressible(args):
    meter = StepMeter()
    if args.mode == "pattern":
        p = lex_first_incompressible(args.side, args.budget, args.threshold, meter)
        payload = {
            "threshold": args.threshold,
            "pattern": p.rows(),
        }
    else:
        perms = incompressible_permutations(
            args.length, args.count, args.budget, distinct=args.distinct, meter=meter
        )
        ranks = [permutation_rank(perm) for perm in perms]
        payload = {
            "threshold": tuple_threshold(args.length, args.count),
            "rank_width": rank_width(args.length),
            "permutations": [list(p) for p in perms],
            "encoding": encode_rank_tuple(tuple(ranks), args.length),
        }
    return payload, True, meter.steps, meter.counters()


# the property check's settings; --profile checks one enforcer window and
# takes none of them, nor --kind
_PROPERTY_DEFAULTS = {"family": "profile", "n": 2, "margin": 1}


def _cmd_epitome_verify(args):
    spec = get_spec(args.spec)
    if args.profile is not None:
        given = [f"--{k}" for k in (*_PROPERTY_DEFAULTS, "kind") if getattr(args, k) is not None]
        if given:
            raise PatternError(f"{', '.join(given)} cannot be used with --profile")
        rep = verify_enforcer(Profile(tuple(args.profile)), spec)
        payload = {
            "profile": list(rep.prof.counts),
            "clause1_self_compatible": rep.clause1,
            "clause2_compatible_implies_leq": rep.clause2,
            "clause3_violations_witnessed": rep.clause3,
            "converse_leq_implies_compatible": rep.converse,
            "cases": len(rep.cases),
        }
        return payload, rep.ok, None, {"window_scans": len(rep.cases)}
    for key, default in _PROPERTY_DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, default)  # the config echoes what the check used
    fam = _family_of(args)
    rep = epitome_property_check(spec, fam, args.n, window_margin=args.margin)
    payload = {
        "family": rep.family,
        "kind": rep.kind,
        "checked": len(rep.entries),
        "ok": rep.ok,
        "note": rep.note,
    }
    if rep.counterexample is not None:
        payload["counterexample"] = rep.counterexample
    return payload, rep.ok, None, rep.work


def _cmd_border_consistency(args):
    spec = get_spec(args.spec)
    fam = _family_of(args)
    if args.projection == "identity":
        projection = {a: a for a in spec.alphabet.letters}
    else:
        projection = {}
        for entry in args.projection.split(","):
            src, eq, dst = entry.partition("=")
            if not (src and eq and dst):
                raise PatternError(f"projection entry {entry!r} is not of the form a=b")
            projection[src] = dst
    rep = border_epitome_consistency(spec, projection, fam, args.n)
    payload = {
        "family": rep.family,
        "kind": rep.kind,
        "groups": len(rep.groups),
        "flagged": rep.flagged_count,
        "ledger_bits": rep.ledger_bits,
        "flagged_borders": [g.border for g in rep.groups if g.flagged][:20],
    }
    if args.full:
        payload["detail"] = [
            {"border": g.border, "size": g.size, "values": list(g.values), "flagged": g.flagged}
            for g in rep.groups
        ]
    metrics = {"candidates": sum(g.size for g in rep.groups), "groups": len(rep.groups)}
    return payload, True, None, metrics


def _cmd_two_part_code(args):
    spec = get_spec(args.spec)
    p = read_pattern(args.pattern)
    code = two_part_code(p, args.k, spec, margin=args.margin)
    roundtrip = decode_two_part(code.bits) == p
    payload = {
        "total_bits": len(code.bits),
        "header_bits": code.header_bits,
        "dictionary_bits": code.dictionary_bits,
        "index_bits": code.index_bits,
        "payload_bits": code.payload_bits,
        "dictionary_size": code.dictionary_size,
        "roundtrip": roundtrip,
    }
    if args.emit_bits:
        payload["bits"] = code.bits
    return payload, roundtrip, None


def _cmd_render(args):
    p = read_pattern(args.pattern)
    return p.render()


def _cmd_verify_archive(args):
    expected = params_from_dict(read_head(args.expect_params)) if args.expect_params else None
    rep = verify_archive(args.archive, expected_params=expected)
    payload = {
        "ok": rep.ok,
        "manifest_diff": rep.manifest_diff,
        "mismatches": rep.mismatches,
    }
    return payload, rep.ok, None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``shiftlab:`` line on stderr and exits
    1; subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(1, f"shiftlab: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shiftlab",
        description="Workbench for two-dimensional shifts of finite type.",
    )
    parser.add_argument("--out-file", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("block-count", help="count margin-admissible n x n patterns")
    q.add_argument("spec")
    q.add_argument("n", type=int)
    q.add_argument("--margin", type=int, default=0)
    q.set_defaults(func=_cmd_block_count)

    q = sub.add_parser("census", help="count simple patterns by enumeration")
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_census)

    q = sub.add_parser("deep-build", help="build and archive a standard block family")
    q.add_argument("--n0", type=int, required=True)
    q.add_argument("--c", type=int, default=3)
    q.add_argument("--depth", type=int, required=True)
    q.add_argument("--mode", choices=["two-block", "multi-block"], default="two-block")
    q.add_argument("--override", type=_int_list, default=None,
                   help="comma-separated n_i list replacing the c-fold growth")
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_deep_build)

    q = sub.add_parser("deep-member", help="decide membership in an archived family")
    q.add_argument("--family", required=True)
    q.add_argument("--pattern", required=True)
    q.set_defaults(func=_cmd_deep_member)

    q = sub.add_parser("lowcfg-build", help="build the canonical level-k square")
    q.add_argument("--spec", default="hard-square")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_lowcfg_build)

    q = sub.add_parser("lowcfg-roundtrip", help="describe and rebuild random sub-rectangles")
    q.add_argument("--spec", default="hard-square")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--rects", type=int, default=10)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None, help="save the first description here")
    q.set_defaults(func=_cmd_lowcfg_roundtrip)

    q = sub.add_parser("kc-exact", help="exact bounded complexity of a bit string")
    q.add_argument("string")
    q.add_argument("--max-len", type=int, required=True)
    q.add_argument("--budget", type=int, required=True)
    q.set_defaults(func=_cmd_kc_exact)

    q = sub.add_parser("kc-incompressible", help="lex-first incompressible object")
    q.add_argument("--mode", choices=["pattern", "perms"], default="pattern")
    q.add_argument("--side", type=int, default=2)
    q.add_argument("--threshold", type=int, default=4)
    q.add_argument("--length", type=int, default=4, help="permutation length (perms mode)")
    q.add_argument("--count", type=int, default=2, help="tuple size (perms mode)")
    q.add_argument("--distinct", action="store_true")
    q.add_argument("--budget", type=int, required=True)
    q.set_defaults(func=_cmd_kc_incompressible)

    q = sub.add_parser("epitome-verify", help="check the enforcement property of a family")
    q.add_argument("--spec", default="red-black")
    # unset here so that --profile can refuse them; see _PROPERTY_DEFAULTS
    q.add_argument("--family", choices=sorted(_FAMILY_FACTORIES), default=None,
                   help="default profile")
    q.add_argument("--n", type=int, default=None, help="default 2")
    q.add_argument("--margin", type=int, default=None, help="default 1")
    q.add_argument("--kind", choices=["plain", "ordered"], default=None,
                   help="kind for families that support both (default plain)")
    q.add_argument("--profile", type=_int_list, default=None,
                   help="verify a single enforcer window for this profile")
    q.set_defaults(func=_cmd_epitome_verify)

    q = sub.add_parser("border-consistency", help="group cover patterns by border ring")
    q.add_argument("--spec", default="hard-square")
    q.add_argument("--family", choices=sorted(_FAMILY_FACTORIES), default="interior-popcount")
    q.add_argument("--n", type=int, default=3)
    q.add_argument("--projection", default="identity",
                   help='"identity" or comma list like "0=B,1=W"')
    q.add_argument("--kind", choices=["plain", "ordered"], default=None,
                   help="kind for families that support both (default plain)")
    q.add_argument("--full", action="store_true", help="include every group in the report")
    q.set_defaults(func=_cmd_border_consistency)

    q = sub.add_parser("two-part-code", help="dictionary-plus-indices code of a pattern")
    q.add_argument("--pattern", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--spec", default="hard-square")
    q.add_argument("--margin", type=int, default=0)
    q.add_argument("--emit-bits", action="store_true")
    q.set_defaults(func=_cmd_two_part_code)

    q = sub.add_parser("render", help="print a pattern file as a grid")
    q.add_argument("pattern")
    q.set_defaults(func=_cmd_render)

    q = sub.add_parser("verify-archive", help="rebuild an archived family and compare")
    q.add_argument("archive")
    q.add_argument("--expect-params", default=None)
    q.set_defaults(func=_cmd_verify_archive)

    return parser


def _write_stdout(text: str) -> bool:
    """Write and flush ``text``; False when the reader has closed stdout."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # What is still buffered would fail again in the interpreter's exit
        # flush, which prints "Exception ignored": point the descriptor at
        # devnull so that flush succeeds quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def _emit(args, report: dict) -> bool:
    """Write the report; False when stdout was closed before it was, or when
    ``--out-file`` cannot be written (said in one line on stderr)."""
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out_file", None):
        try:
            with open(args.out_file, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"shiftlab: {exc}", file=sys.stderr)
            return False
        return True
    return _write_stdout(text)


def _config_of(args) -> dict:
    skip = {"func", "command", "out_file"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1, --help 0
        return exc.code or 0

    t0 = time.perf_counter()
    try:
        out = args.func(args)
    except InfeasibleError as exc:
        report = {"command": args.command, "error": str(exc), "infeasible": True}
        return 3 if _emit(args, report) else 1
    except (OSError, ValueError) as exc:
        # PatternError and json.JSONDecodeError are ValueErrors
        print(f"shiftlab: {exc}", file=sys.stderr)
        return 1

    if isinstance(out, str):
        return 0 if _write_stdout(out) else 1

    payload, ok, machine_steps, *metrics = out
    timing = {"wall_seconds": round(time.perf_counter() - t0, 6)}
    if machine_steps is not None:
        # simulated cost, never mixed into the wall clock
        timing["machine_steps"] = machine_steps
    report = {
        "command": args.command,
        "version": __version__,
        "config": _config_of(args),
        "ok": ok,
        "result": payload,
        "timing": timing,
    }
    if metrics:
        report["metrics"] = metrics[0]
    if not _emit(args, report):
        return 1
    return 0 if ok else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
