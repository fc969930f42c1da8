"""Command-line front end: JSON in, JSON report out, seeded and reproducible.

Every command emits a single JSON report carrying the tool version, the
effective tolerance and seed, the result, and any residuals worth recording.
Timestamps and wall times, ``verify-suite``'s per-criterion seconds among
them, are included unless ``--no-timestamp`` is given, so that identical
configurations produce byte-identical reports.

Exit status: 0 on success; 2 on usage errors, an unreadable ``--input`` or an
unwritable ``--out``, and anything refused while objects are built from the
input (block shapes and counts, mixed spaces, a ``p`` or ``q`` that is no
projection), with the refused node's JSON path; 1 when the computation refuses
(singular inputs, failed reductions, overflow, ...), on memory exhaustion and
when the output closes early.  Any other exception is a defect and shows as a
traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import sys
import time

from ._version import __version__
from .errors import CstarRankError, DomainError, _InputError
from .scalars import DEFAULT_TOL, WITNESS_TOL, _require_positive_finite, sr_formula


def _positive(convert, message):
    """An argparse type: ``convert`` the text, then apply the one positive-number rule."""

    def parse(text):
        try:
            value = convert(text)
            _require_positive_finite("value", value)
        except ValueError:
            raise argparse.ArgumentTypeError(message.format(text)) from None
        return value

    return parse


_positive_int = _positive(int, "must be a positive integer")
_positive_float = _positive(float, "must be a positive finite number, got {!r}")


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise _InputError(f"malformed JSON: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        except ValueError as exc:  # bytes that are no UTF-8, an integer too long to convert
            raise _InputError(f"{path}: {exc}") from None
        except RecursionError:  # nested deeper than the parser's stack
            raise _InputError("JSON nests too deeply to parse") from None


# Each command has a loader: it imports the modules the command runs and returns the
# handler, which fills ``residuals`` and returns the result.  The loader runs before
# ``run`` starts the clock, so a report's wall time holds no imports, and a command
# loads only what it runs: ``sr-formula`` no numpy, ``check`` and ``dual`` no
# ``stable_rank``, and only ``density`` ``numpy.random``.
def _sr_formula():
    return lambda args, residuals: sr_formula(args.sr_a, args.n, args.m)


def _check():
    from .hilbert_module import _is_unimodular_at, tuple_from_json_list, unimodularity_margin

    def check(args, residuals):
        t = tuple_from_json_list(_load_json(args.input_path))
        residuals["unimodularity_margin"] = margin = unimodularity_margin(t)
        return {"unimodular": bool(_is_unimodular_at(t.space, t._stacked(), args.tol, margin))}

    return check


def _dual():
    from .hilbert_module import dual_witness, pairing, tuple_from_json_list

    def dual(args, residuals):
        t = tuple_from_json_list(_load_json(args.input_path))
        witness = dual_witness(t, args.tol)
        unit = t.space.right_algebra_unit()
        residual = (pairing(witness, t) - unit).norm()
        if residual > WITNESS_TOL:
            # Below rounding a singular Gram sum can pass tol; its "witness" does not pair to 1.
            raise DomainError(
                f"witness pairing residual {residual:.3g} exceeds {WITNESS_TOL:g}; "
                f"tol={args.tol:g} is below the rounding level of this tuple"
            )
        residuals["pairing_residual"] = residual
        return {"witness": witness.to_json_list()}

    return dual


def _reduce():
    from .hilbert_module import tuple_from_json_list
    from .stable_rank import _bass_reduce

    def reduce(args, residuals):
        t = tuple_from_json_list(_load_json(args.input_path))
        coeffs, reduced, residuals["reduced_margin"] = _bass_reduce(t, args.tol)
        return {
            "coefficients": coeffs.to_json_dict(),
            "reduced": t.space._tuple_from_stacked(reduced).to_json_list(),
            "reduced_unimodular": True,
        }

    return reduce


def _pad():
    from .algebra import _Json
    from .hilbert_module import normalize_tuple, tuple_from_json_list
    from .stable_rank import _hv_pad

    def pad(args, residuals):
        data = _Json(_load_json(args.input_path))
        t = tuple_from_json_list(data["tuple"])
        if data.get("pad_with") is not None:
            u = normalize_tuple(tuple_from_json_list(data["pad_with"]), args.tol)
        else:
            # The standard tuple's Gram sum is already the unit.
            u = t.space.standard_unimodular_tuple()
        padded, residuals["padded_margin"] = _hv_pad(t, u, args.eps, args.tol)
        return {"padded": padded.to_json_list(), "unimodular": True}

    return pad


def _perturb():
    from .hilbert_module import tuple_from_json_list
    from .stable_rank import PerturbationParams, _hv_perturb

    def perturb(args, residuals):
        t = tuple_from_json_list(_load_json(args.input_path))
        moved, residuals["perturbed_margin"] = _hv_perturb(t, PerturbationParams(args.eps, args.tol, args.seed))
        return {
            "perturbed": moved.to_json_list(),
            "distance": (t - moved).norm(),
            "distance_bound": math.sqrt(args.eps) + args.eps,
        }

    return perturb


def _density():
    import numpy.random  # noqa: F401  (the draws' module, loaded here rather than on the clock)

    from .algebra import Algebra
    from .hilbert_module import ModuleSpace
    from .stable_rank import density_experiment

    def density(args, residuals):
        space = ModuleSpace(Algebra(tuple(args.blocks)), args.rows, args.cols)
        return density_experiment(space, args.k, args.trials, args.seed, args.tol).to_json_dict()

    return density


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

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", dest="out_path", default=None, help="write the report here instead of stdout")
    output.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamp and wall time so reports are byte-identical",
    )
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    # Every report echoes a seed.  density draws from --seed; reduce and perturb
    # still accept --seed, but their reductions are deterministic and do not read it.
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

    p = sub.add_parser("sr-formula", parents=[common], help="stable rank of the n x m matrix module")
    p.add_argument("--sr-a", type=_positive_int, required=True, help="stable rank of the base algebra")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.set_defaults(load=_sr_formula)

    p = sub.add_parser("check", parents=[common], help="test a tuple for unimodularity")
    p.add_argument("--input", dest="input_path", required=True, help="JSON file with a module tuple")
    p.set_defaults(load=_check)

    p = sub.add_parser("dual", parents=[common], help="dual witness of a unimodular tuple")
    p.add_argument("--input", dest="input_path", required=True)
    p.set_defaults(load=_dual)

    p = sub.add_parser("reduce", parents=[common], help="collapse the last entry of a unimodular tuple")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(load=_reduce)

    p = sub.add_parser("pad", parents=[common], help="append the spectral bump that forces unimodularity")
    p.add_argument("--input", dest="input_path", required=True,
                   help='JSON file {"tuple": [...], "pad_with": [...]}; pad_with optional')
    p.add_argument("--eps", type=_positive_float, required=True)
    p.set_defaults(load=_pad)

    p = sub.add_parser("perturb", parents=[common], help="move a tuple onto a nearby unimodular one")
    p.add_argument("--input", dest="input_path", required=True)
    p.add_argument("--eps", type=_positive_float, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(load=_perturb)

    p = sub.add_parser("density", parents=[common], help="Monte-Carlo unimodularity density estimate")
    p.add_argument("--blocks", type=_positive_int, nargs="+", required=True, help="base algebra block sizes")
    p.add_argument("--rows", type=_positive_int, required=True)
    p.add_argument("--cols", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True, help="tuple length")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(load=_density)

    # The battery pins its own tolerances and seeds, so it takes only --out and --no-timestamp.
    sub.add_parser("verify-suite", parents=[output], help="run the full acceptance battery")
    return parser


def run(args, handler) -> dict:
    """Run one command's loaded ``handler`` and assemble its report (library errors propagate)."""
    started = time.perf_counter()
    report = {
        "command": args.command,
        "version": __version__,
        "tolerance": args.tol,
        "seed": args.seed,
        "residuals": {},
    }
    # Overflow surfaces as a DomainError from the margin, not as a warning.  A command
    # that computes in numpy has loaded it; sr-formula has not, and needs no errstate.
    np = sys.modules.get("numpy")
    with np.errstate(over="ignore", invalid="ignore") if np else contextlib.nullcontext():
        report["result"] = handler(args, report["residuals"])
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
    from dataclasses import asdict

    from .acceptance import run_all

    results = run_all()
    for res in results:
        print(res.line(timed=not args.no_timestamp))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if args.out_path:
        criteria = [asdict(r) for r in results]
        if args.no_timestamp:
            for criterion in criteria:
                del criterion["seconds"]
        summary = {"command": "verify-suite", "version": __version__, "criteria": criteria}
        _emit(summary, args.out_path)
    return 0 if not failed else 1


def _run_command(args) -> int:
    handler = args.load()
    try:
        report = run(args, handler)
    except _InputError as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return 2
    except CstarRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1

    _emit(report, args.out_path)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    command = _run_verify_suite if args.command == "verify-suite" else _run_command
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
    except BrokenPipeError:
        # The reader closed the output early (``| head``).  Point stdout at
        # devnull, so that the flush at exit has nothing left to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: broken pipe: the output closed before the report was written",
              file=sys.stderr)
        return 1
    except OSError as exc:  # an --input that cannot be read or an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
