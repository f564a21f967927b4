"""Command-line front end.

Batch, line-oriented interface over the library; every subcommand parses its
word operands as whitespace-separated signed generator indices ("1 2 -1").

Exit codes: 0 success (including a found root), 1 usage or parse error,
2 a negative answer (``root``: a certified NoRoot; ``verify``: the claimed
root is refuted), 3 a non-generic outcome, 4 an internal consistency check
failed (a computed root that does not verify, a minimal conjugator that is
not simple); the message goes to stderr as an ``error:`` line, never as a
traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import lab
from .conjugacy import (
    ConjugationCertificate,
    OrbitData,
    SlidingBoundExceeded,
    cycling_orbit,
    is_rigid,
    is_uss_minimal,
    slide_to_rigid,
)
from .core import CanonicalBraid, braid_from_text, render_nf
from .roots import NonGeneric, NoRoot, Root, extract_root, verify_root

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_ROOT = 2
EXIT_NON_GENERIC = 3
EXIT_INTERNAL = 4

NO_ROOT_MESSAGE = "A k-th root does not exist."


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep codes stable
        raise _UsageError(message)


def _parse_braid(args) -> CanonicalBraid:
    return braid_from_text(args.n, args.word)


def _emit(args, payload: dict, text: str) -> None:
    """Print ``payload`` as indented JSON under ``--format json``, else ``text``."""
    print(json.dumps(payload, indent=2) if args.format == "json" else text)


def render_certificate(cert: ConjugationCertificate) -> str:
    return (
        f"target={cert.target}\n"
        f"conjugator={cert.conjugator}\n"
        f"iterations={cert.iterations}"
    )


def render_orbit(orbit: OrbitData) -> str:
    flag = "true" if orbit.self_conjugate else "false"
    return f"t={orbit.t}, pc={orbit.pc}, self={flag}"


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}") from exc


def _cmd_nf(args) -> int:
    text = render_nf(_parse_braid(args))
    _emit(args, {"braid": text}, text)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    braid = _parse_braid(args)
    values = {
        "inf": braid.inf,
        "sup": braid.sup,
        "canonicalLength": braid.canonical_length,
        "exponentSum": braid.exponent_sum(),
    }
    _emit(args, values, "\n".join(f"{key}={value}" for key, value in values.items()))
    return EXIT_OK


def _slide(args, detail: bool):
    """Slide the braid to a rigid conjugate, or report the failure and return None.

    The text report is three lines with ``detail`` and one without.
    """
    try:
        return slide_to_rigid(_parse_braid(args))
    except SlidingBoundExceeded as exc:
        _emit(args, {"nonGeneric": exc.reason,
                     "last": render_nf(exc.last),
                     "conjugator": render_nf(exc.conjugator),
                     "iterations": exc.iterations},
              (f"non-generic: not rigid within {exc.iterations} slidings\n"
               f"last={exc.last}\n"
               f"conjugator={exc.conjugator}") if detail else
              "non-generic: no rigid conjugate within the sliding bound")
        return None


def _cmd_slide(args) -> int:
    cert = _slide(args, detail=True)
    if cert is None:
        return EXIT_NON_GENERIC
    _emit(args, {"target": render_nf(cert.target),
                 "conjugator": render_nf(cert.conjugator),
                 "iterations": cert.iterations},
          render_certificate(cert))
    return EXIT_OK


def _cmd_rigid(args) -> int:
    answer = is_rigid(_parse_braid(args))
    _emit(args, {"rigid": answer}, "true" if answer else "false")
    return EXIT_OK


def _cmd_uss_minimal(args) -> int:
    cert = _slide(args, detail=False)
    if cert is None:
        return EXIT_NON_GENERIC
    answer = is_uss_minimal(cert.target)
    _emit(args, {"rigidRepresentative": render_nf(cert.target),
                 "ussMinimal": answer},
          "true" if answer else "false")
    return EXIT_OK


def _cmd_orbit(args) -> int:
    cert = _slide(args, detail=False)
    if cert is None:
        return EXIT_NON_GENERIC
    orbit = cycling_orbit(cert.target)
    _emit(args, {"base": render_nf(orbit.base), "t": orbit.t,
                 "pc": render_nf(orbit.pc), "self": orbit.self_conjugate},
          render_orbit(orbit))
    return EXIT_OK


def _cmd_root(args) -> int:
    braid = _parse_braid(args)
    outcome = extract_root(braid, args.k)
    if isinstance(outcome, Root):
        text = render_nf(outcome.root)
        _emit(args, {"outcome": "root", "root": text}, text)
        return EXIT_OK
    if isinstance(outcome, NoRoot):
        _emit(args, {"outcome": "no-root", "message": NO_ROOT_MESSAGE},
              NO_ROOT_MESSAGE)
        return EXIT_NO_ROOT
    assert isinstance(outcome, NonGeneric)
    _emit(args, {"outcome": "non-generic", "reason": outcome.reason,
                 "reduced": render_nf(outcome.reduced),
                 "conjugator": render_nf(outcome.conjugator)},
          f"non-generic: {outcome.reason}")
    return EXIT_NON_GENERIC


def _cmd_verify(args) -> int:
    x = _parse_braid(args)
    a = braid_from_text(args.n, args.root_word)
    answer = verify_root(x, args.k, a)
    _emit(args, {"verified": answer}, "true" if answer else "false")
    return EXIT_OK if answer else EXIT_NO_ROOT


def _cmd_sample(args) -> int:
    spec = lab.SampleSpec(n=args.n, r=args.r, model=args.model,
                          seed=args.seed, count=args.count)
    for word in lab.sample(spec):
        print(word.text())
    return EXIT_OK


def _print_rows(args, rows, fields, note: str) -> None:
    if args.format == "json":
        print(lab.rows_to_json(rows, note=note))
    else:
        print(lab.rows_to_csv(rows, fields, note=note), end="")


def _cmd_experiment(args) -> int:
    specs = [lab.SampleSpec(n=args.n, r=r, model=args.model, seed=args.seed,
                            count=args.count) for r in _int_list(args.lengths)]
    _print_rows(args, lab.run_genericity_experiment(specs), lab.EXPERIMENT_FIELDS,
                f"{lab.SAMPLING_NOTE}; model={args.model}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    rows = lab.benchmark_root(
        ns=_int_list(args.strands), ls=_int_list(args.lengths),
        k=args.k, count=args.count, seed=args.seed, model=args.model)
    _print_rows(args, rows, lab.BENCH_FIELDS, f"planted roots; model={args.model}")
    return EXIT_OK


def _add_braid_command(sub, name, func, help_text, with_k=False, extra_word=None):
    cmd = sub.add_parser(name, help=help_text)
    cmd.add_argument("-n", type=int, required=True, help="number of strands")
    if with_k:
        cmd.add_argument("-k", type=int, required=True, help="root degree (> 1)")
    cmd.add_argument("word", help="braid word, e.g. \"1 2 -1\"")
    if extra_word:
        cmd.add_argument(extra_word, help="candidate root word")
    cmd.add_argument("--format", choices=("text", "json"), default="text")
    cmd.set_defaults(func=func)
    return cmd


def _build_parser() -> _Parser:
    parser = _Parser(prog="braidkit",
                     description="Braid normal forms, conjugacy tools, and k-th roots.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_braid_command(sub, "nf", _cmd_nf, "left normal form of a braid word")
    _add_braid_command(sub, "invariants", _cmd_invariants,
                       "inf, sup, canonical length, exponent sum")
    _add_braid_command(sub, "slide", _cmd_slide,
                       "iterated cyclic sliding to a rigid conjugate")
    _add_braid_command(sub, "rigid", _cmd_rigid, "rigidity test")
    _add_braid_command(sub, "uss-minimal", _cmd_uss_minimal,
                       "minimality of the ultra summit set of the rigid conjugate")
    _add_braid_command(sub, "orbit", _cmd_orbit,
                       "cycling orbit summary of the rigid conjugate")
    _add_braid_command(sub, "root", _cmd_root, "extract a k-th root", with_k=True)
    _add_braid_command(sub, "verify", _cmd_verify,
                       "check a claimed k-th root", with_k=True,
                       extra_word="root_word")

    spl = sub.add_parser("sample", help="print a reproducible stream of braid words")
    spl.add_argument("-n", type=int, required=True)
    spl.add_argument("-r", type=int, required=True, help="word length parameter")
    spl.add_argument("--model", choices=lab.SAMPLE_MODELS,
                     default=lab.SIGNED_ARTIN_WORD)
    spl.add_argument("--seed", type=int, default=0)
    spl.add_argument("--count", type=int, default=10)
    spl.set_defaults(func=_cmd_sample)

    exp = sub.add_parser("experiment",
                         help="genericity statistics over sampled braids")
    exp.add_argument("-n", type=int, required=True)
    exp.add_argument("--lengths", required=True, help="comma-separated r values")
    exp.add_argument("--model", choices=lab.SAMPLE_MODELS,
                     default=lab.SIGNED_ARTIN_WORD)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--count", type=int, default=100)
    exp.add_argument("--format", choices=("csv", "json"), default="csv")
    exp.set_defaults(func=_cmd_experiment)

    ben = sub.add_parser("bench", help="extract_root runtime benchmark")
    ben.add_argument("--strands", required=True, help="comma-separated n values")
    ben.add_argument("--lengths", required=True, help="comma-separated l values")
    ben.add_argument("-k", type=int, default=2)
    ben.add_argument("--count", type=int, default=8)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--model", choices=lab.SAMPLE_MODELS,
                     default=lab.POSITIVE_SIMPLE_PRODUCT)
    ben.add_argument("--format", choices=("csv", "json"), default="csv")
    ben.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # RootExtractionError and invariant failures
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
