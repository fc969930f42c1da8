"""A mutation census of the gates: each tolerance and bound, changed by hand, must fail tier-1.

Run from anywhere, with the packages tier-1 needs (numpy, pytest, hypothesis)::

    python tests/mutants.py            # every mutant
    python tests/mutants.py bump-clip  # only the named ones

Each entry of ``MUTANTS`` is ``(file, exact old text, new text, why)``, with the file
relative to ``src/cstar_rank``.  For each, the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, replaces the old text, which must occur
exactly once, runs tier-1 there with ``-x`` and prints whether the mutant was killed and
by which test.  A mutant in ``EQUIVALENT`` changes no verdict any input can reach, so it
is expected to survive.  pytest does not collect this file, and it needs no package
beyond those of tier-1.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = {
    "bump-clip": (
        "stable_rank.py", "(eps - w).clip(0.0, eps) / eps", "(eps - w).clip(0.0, 2 * eps) / eps",
        "the bump's upper clip: a negative eigenvalue of b0 would give a bump above 1"),
    "strict-margin": (
        "hilbert_module.py", "return float(margin) if margin > tol else 0.0",
        "return float(margin) if margin >= tol else 0.0",
        "a tuple is unimodular at tol iff its margin exceeds tol; >= differs only at exact equality"),
    "dual-margin": (
        "hilbert_module.py", "    if not margin > tol:\n        raise DomainError(\n            f\"tuple is not",
        "    if not min(bottoms) > tol:\n        raise DomainError(\n            f\"tuple is not",
        "dual_witness decides on the margin is_unimodular reads, not on the unscaled smallest eigenvalue"),
    "distance-bound": (
        "stable_rank.py", "bound = math.sqrt(eps) + eps", "bound = 2 * (math.sqrt(eps) + eps)",
        "hv_perturb's distance gate sits at sqrt(eps) + eps"),
    "self-adjoint-rtol": (
        "algebra.py", "SELF_ADJOINT_RTOL = 1e-10", "SELF_ADJOINT_RTOL = 1e-3",
        "positive_part and inv_sqrt refuse an anti-Hermitian part above 1e-10 relative"),
    "route-threshold": (
        "stable_rank.py", "if min(lows) < eps else None", "if min(lows) < eps / 2 else None",
        "hv_perturb pads exactly where some eigenvalue of b0 lies below eps"),
    "gate-norm-slack": (
        "algebra.py", "bound * (1.0 - 1e-10)", "bound * (1.0 + 1e-3)",
        "the Frobenius norm decides a gate only when it clears the bound"),
    "json-projection": (
        "hilbert_module.py", "moved > PROJECTION_TOL * x.norm()", "moved > 1e-6 * x.norm()",
        "a JSON entry may move by at most 1e-10 relative when projected into its space"),
    "inv-sqrt-sign": (
        "algebra.py", "margin = _margin([norm], [w[0]])", "margin = _margin([norm], [abs(w[0])])",
        "inv_sqrt refuses a negative eigenvalue, not only a small one"),
    "bracket-slack": (
        "hilbert_module.py", "(tol + (64 * s + 4 * (n + 2)) * 2.0 ** -53) * traces", "(tol + 0) * traces",
        "the Cholesky bracket's rounding slack keeps a rounded margin out of the density count"),
    "bracket-product-slack": (
        "hilbert_module.py", "64 * s + 4 * (n + 2)", "64 * s",
        "the bracket's slack covers the gap between its one product per block and the margins' per-entry sums"),
    "trial-pairing-order": (
        "hilbert_module.py", "f.reshape(len(f), -1, *shape).swapaxes(0, 1) for",
        "f.reshape(len(f), -1, *shape).swapaxes(0, 1)[::-1] for",
        "a stack of trials sums each trial's entries in its tuple's order, from the first, as pairing does"),
    "rounding-bound": (
        "hilbert_module.py", "64 * s * (k * r + s) * 2.0 ** -53", "32 * s * (k * r + s) * 2.0 ** -53",
        "B(k), below which an obstructed density cell is still drawn"),
    "lapack-scan": (
        "algebra.py", "    if not all(np.isfinite(b).all() for b in blocks):\n        raise DomainError(_NOT_FINITE)\n",
        "",
        "the LAPACK boundary refuses non-finite blocks before LAPACK sees them"),
    "telescope-tol": (
        "stable_rank.py", "TELESCOPE_TOL = 1e-7", "TELESCOPE_TOL = 1e-3",
        "the telescoping residual of Warfield's step is accepted up to 1e-7"),
    "counting-bound": (
        "hilbert_module.py", "return any(k * r < s for r, s in self.compressed_shapes)",
        "return any(k * r <= s for r, s in self.compressed_shapes)",
        "k-tuples are ruled out exactly when k r < s in some block"),
    "margin-bottom": (
        "algebra.py", "functools.reduce(np.minimum, bottoms)", "functools.reduce(np.maximum, bottoms)",
        "the margin's numerator is the smallest singular value over all blocks"),
    "margin-floor": (
        "algebra.py", "np.maximum(1.0, functools.reduce", "np.maximum(2.0, functools.reduce",
        "the margin's denominator is max(1, largest): a small element keeps its absolute margin"),
    "margin-top": (
        "algebra.py", "functools.reduce(np.maximum, tops)", "functools.reduce(np.minimum, tops)",
        "the margin's denominator reads the largest singular value over all blocks"),
    "damping-k": (
        "stable_rank.py", "k = math.floor(adjointable_norm(coeffs) / eps) + 1",
        "k = math.floor(adjointable_norm(coeffs) / eps)",
        "the damping's k is the smallest integer exceeding ||a||/eps"),
    "svd-finite": (
        "algebra.py", "    if not all(map(math.isfinite, tops + bottoms)):\n        raise DomainError(_NOT_FINITE)\n",
        "",
        "singular values of finite blocks can overflow; the SVD extremes refuse them"),
    "gram-finite": (
        "hilbert_module.py", "        if not finite:\n            raise DomainError(_NOT_FINITE)\n", "",
        "eigenvalues of a finite Gram sum can overflow; the Gram spectrum refuses them"),
    "reported-margin": (
        "stable_rank.py", "    return moved, decided\n", "    return moved, margin\n",
        "perturb reports the margin that decided the moved tuple, not the one its route was read from"),
    "witness-tol": (
        "scalars.py", "WITNESS_TOL = 1e-8", "WITNESS_TOL = 1e-6",
        "a witness pairs with its tuple to the unit within 1e-8"),
    "reader-wrap": (
        "algebra.py", 'CstarRankError) as exc:\n            raise _InputError(f"{self.path}: {exc}") from None',
        "CstarRankError) as exc:\n            raise",
        "a constructor's refusal of an input node comes back as the reader's error, with the node's path"),
    "catch-value-error": (
        "cli.py", "    except _InputError as exc:", "    except ValueError as exc:",
        "only the reader's error exits 2; a ValueError of the computation is a defect, not bad input"),
}

#: Mutants that change no reachable verdict, with the reason in their ``why``.
EQUIVALENT = {"strict-margin"}


def run(name):
    """``(verdict, detail, seconds)`` of one mutant on a fresh copy of the tree."""
    file, old, new, _ = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / "src" / "cstar_rank" / file
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "STALE", f"(old text occurs {text.count(old)} times in {file})", 0.0
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, capture_output=True, text=True, timeout=900)
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "SURVIVED", "(tier-1 passed)", seconds
    killers = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return "killed", f"by {killers[0] if killers else proc.stdout.strip().splitlines()[-1]}", seconds


def main(names):
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}")
    unexpected = 0
    for name in names or list(MUTANTS):
        verdict, detail, seconds = run(name)
        expected = "SURVIVED" if name in EQUIVALENT else "killed"
        unexpected += verdict != expected
        note = " (equivalent)" if name in EQUIVALENT else ""
        print(f"{name}{note}: {verdict} {detail} [{seconds:.0f} s]", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
