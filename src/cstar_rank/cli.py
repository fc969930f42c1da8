"""Command-line front end: JSON in, JSON report out, seeded and reproducible.

Every command emits a single JSON report carrying the tool version, the
effective tolerance and seed, the result, and any residuals worth recording.
Timestamps and wall time are included unless ``--no-timestamp`` is given, so
that identical configurations produce byte-identical reports.

Exit status: 0 on success, 1 on domain errors (singular inputs, failed
reductions, overflow, ...), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from ._version import __version__
from .algebra import DEFAULT_TOL, Algebra
from .errors import CstarRankError
from .hilbert_module import (
    ModuleSpace,
    ModuleTuple,
    dual_witness,
    normalize_tuple,
    pairing,
    tuple_from_json_list,
    unimodularity_margin,
)
from .stable_rank import (
    PerturbationParams,
    bass_reduce,
    density_experiment,
    hv_pad,
    hv_perturb,
    sr_formula,
    warfield_forward,
)


def _positive(convert, message):
    """An argparse type: ``convert`` the text, then require ``0 < value < inf``."""

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(message.format(text))
        return value

    return parse


_positive_int = _positive(int, "must be a positive integer")
_positive_float = _positive(float, "must be a positive finite number, got {!r}")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_tuple(path) -> ModuleTuple:
    return tuple_from_json_list(_load_json(path))


# Each handler runs one command: it fills ``residuals`` and returns the result.
def _sr_formula(args, residuals):
    return sr_formula(args.sr_a, args.n, args.m)


def _check(args, residuals):
    margin = unimodularity_margin(_load_tuple(args.input_path))
    residuals["unimodularity_margin"] = margin
    return {"unimodular": bool(margin > args.tol)}


def _dual(args, residuals):
    t = _load_tuple(args.input_path)
    witness = dual_witness(t, args.tol)
    unit = t.space.right_algebra_unit()
    residuals["pairing_residual"] = (pairing(witness, t) - unit).norm()
    return {"witness": witness.to_json_list()}


def _params(args) -> PerturbationParams:
    return PerturbationParams(
        eps=args.eps, tol=args.tol, max_retries=args.max_retries, seed=args.seed
    )


def _reduce(args, residuals):
    t = _load_tuple(args.input_path)
    coeffs = bass_reduce(t, _params(args))
    reduced = warfield_forward(t, coeffs)
    residuals["reduced_margin"] = unimodularity_margin(reduced)
    return {
        "coefficients": coeffs.to_json_dict(),
        "reduced": reduced.to_json_list(),
        "reduced_unimodular": True,
    }


def _pad(args, residuals):
    data = _load_json(args.input_path)
    t = tuple_from_json_list(data["tuple"])
    if data.get("pad_with") is not None:
        u = tuple_from_json_list(data["pad_with"])
    else:
        u = ModuleTuple(tuple(t.space.standard_unimodular_tuple()))
    padded = hv_pad(t, normalize_tuple(u, args.tol), args.eps, args.tol)
    residuals["padded_margin"] = unimodularity_margin(padded)
    return {"padded": padded.to_json_list(), "unimodular": True}


def _perturb(args, residuals):
    t = _load_tuple(args.input_path)
    moved = hv_perturb(t, _params(args))
    residuals["perturbed_margin"] = unimodularity_margin(moved)
    return {
        "perturbed": moved.to_json_list(),
        "distance": (t - moved).norm(),
        "distance_bound": math.sqrt(args.eps) + args.eps,
    }


def _density(args, residuals):
    space = ModuleSpace(Algebra(tuple(args.blocks)), args.rows, args.cols)
    return density_experiment(space, args.k, args.trials, args.seed, args.tol).to_json_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstar-rank",
        description=(
            "Unimodularity checks, dual witnesses, stable-rank reductions and "
            "Monte-Carlo density experiments for matrix Hilbert C*-modules."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    # Every report echoes a seed; commands that draw randomness take --seed.
    common.set_defaults(seed=0)
    common.add_argument(
        "--tol",
        type=_positive(
            float, "must be a positive finite number (from --tol or CSTAR_RANK_TOL), got {!r}"
        ),
        # A string default goes through the same validator as the flag.
        default=os.environ.get("CSTAR_RANK_TOL", DEFAULT_TOL),
        help="invertibility tolerance (env CSTAR_RANK_TOL overrides the default)",
    )
    common.add_argument("--out", dest="out_path", default=None, help="write the report here instead of stdout")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamp and wall time so reports are byte-identical",
    )

    p = sub.add_parser("sr-formula", parents=[common], help="stable rank of the n x m matrix module")
    p.add_argument("--sr-a", type=_positive_int, required=True, help="stable rank of the base algebra")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.set_defaults(handler=_sr_formula)

    p = sub.add_parser("check", parents=[common], help="test a tuple for unimodularity")
    p.add_argument("--input", dest="input_path", required=True, help="JSON file with a module tuple")
    p.set_defaults(handler=_check)

    p = sub.add_parser("dual", parents=[common], help="dual witness of a unimodular tuple")
    p.add_argument("--input", dest="input_path", required=True)
    p.set_defaults(handler=_dual)

    p = sub.add_parser("reduce", parents=[common], help="collapse the last entry of a unimodular tuple")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--eps", type=_positive_float, default=0.1)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-retries", type=_positive_int, default=PerturbationParams.max_retries)
    p.set_defaults(handler=_reduce)

    p = sub.add_parser("pad", parents=[common], help="append the spectral bump that forces unimodularity")
    p.add_argument("--input", dest="input_path", required=True,
                   help='JSON file {"tuple": [...], "pad_with": [...]}; pad_with optional')
    p.add_argument("--eps", type=_positive_float, required=True)
    p.set_defaults(handler=_pad)

    p = sub.add_parser("perturb", parents=[common], help="move a tuple onto a nearby unimodular one")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-retries", type=_positive_int, default=PerturbationParams.max_retries)
    p.set_defaults(handler=_perturb)

    p = sub.add_parser("density", parents=[common], help="Monte-Carlo unimodularity density estimate")
    p.add_argument("--blocks", type=_positive_int, nargs="+", required=True, help="base algebra block sizes")
    p.add_argument("--rows", type=_positive_int, required=True)
    p.add_argument("--cols", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True, help="tuple length")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_density)

    sub.add_parser("verify-suite", parents=[common], help="run the full acceptance battery")
    return parser


def run(args) -> dict:
    """Run one command and assemble its report (library errors propagate)."""
    started = time.perf_counter()
    report = {
        "command": args.command,
        "version": __version__,
        "tolerance": args.tol,
        "seed": args.seed,
        "residuals": {},
    }
    # Overflow surfaces as a DomainError from the margin, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        report["result"] = args.handler(args, report["residuals"])
    elapsed = time.perf_counter() - started
    if not args.no_timestamp:
        report["timestamp"] = (
            datetime.datetime.now(datetime.timezone.utc).isoformat()
        )
        report["wall_time_s"] = elapsed
    return report


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _run_verify_suite(args) -> int:
    from .acceptance import run_all

    results = run_all()
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if args.out_path:
        summary = {
            "command": "verify-suite",
            "version": __version__,
            "criteria": [asdict(r) for r in results],
        }
        _emit(summary, args.out_path)
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "verify-suite":
        return _run_verify_suite(args)

    try:
        report = run(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: bad input: {exc!r}", file=sys.stderr)
        return 2
    except CstarRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _emit(report, args.out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
