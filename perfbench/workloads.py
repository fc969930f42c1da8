"""The four workloads of the benchmark.

Each workload builds its inputs from the seed in ``setup`` (spaces, tuples,
seeds handed to the library, JSON files for the CLI), then yields operations
forever from ``stream``.  ``call`` is the timed part: one call into the
public API of ``cstar_rank`` (or one CLI process).  ``check`` verifies the
output against the paper's invariants, mostly with plain numpy so that a
broken library cannot certify itself, and returns how many of the
operation's counted units failed.  A designated failure (the
``ReductionFailedError`` of a negative control, the ``DomainError`` of
``dual_witness`` on a non-unimodular tuple, exit code 1 from the CLI for
the same) is a success; a wrong verdict, a missed bound or any other
exception is a failure.  ``corrupt`` damages one output on purpose for the
self-test, which shows that ``check`` fires.

See README.md next to this file for each workload's input mix and why it
was chosen.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import cstar_rank as cr

TOL = cr.DEFAULT_TOL
WITNESS_TOL = 1e-8
HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    weight: int  # counted operations: trials for density-grid, 1 elsewhere
    payload: tuple


@dataclass
class SpaceSpec:
    """A module space plus what the checks need to judge it without the library."""

    label: str
    space: object
    pairs: tuple  # per block (r, s); compressed (rank p, rank q) for corners
    col_bases: tuple  # per block: orthonormal basis of the range of q, None for matrix spaces
    units: tuple  # per block: the unit of the right algebra (identity or q)

    def obstructed(self, k: int) -> bool:
        """The counting obstruction: some block needs more than k*r columns."""
        return any(k * r < s for r, s in self.pairs)

    def stable_rank(self) -> int:
        return max(-(-s // r) for r, s in self.pairs if s)


def matrix_space(base, rows, cols) -> SpaceSpec:
    name = "+".join(f"M{k}" for k in base)
    return SpaceSpec(
        label=f"M_{rows}x{cols}({name})",
        space=cr.ModuleSpace(cr.Algebra(tuple(base)), rows, cols),
        pairs=tuple((rows * k, cols * k) for k in base),
        col_bases=(None,) * len(base),
        units=tuple(np.eye(cols * k) for k in base),
    )


def _projection(dim, rank, rng):
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis = np.linalg.qr(gauss)[0][:, :rank]
    proj = basis @ basis.conj().T
    return (proj + proj.conj().T) / 2.0, basis


def corner(base, size, p_ranks, q_ranks, rng) -> SpaceSpec:
    """The corner p M_size(A) q with randomly oriented projections of the given ranks."""
    ambient = cr.Algebra(tuple(size * k for k in base))
    ps = [_projection(d, r, rng) for d, r in zip(ambient.block_sizes, p_ranks)]
    qs = [_projection(d, r, rng) for d, r in zip(ambient.block_sizes, q_ranks)]
    space = cr.corner_space(
        cr.Algebra(tuple(base)),
        size,
        ambient.element([p for p, _ in ps]),
        ambient.element([q for q, _ in qs]),
    )
    name = "+".join(f"M{k}" for k in base)
    return SpaceSpec(
        label=f"p[{','.join(map(str, p_ranks))}]M_{size}({name})q[{','.join(map(str, q_ranks))}]",
        space=space,
        pairs=tuple(zip(p_ranks, q_ranks)),
        col_bases=tuple(b for _, b in qs),
        units=tuple(q for q, _ in qs),
    )


def random_tuple(spec, k, rng):
    return cr.ModuleTuple(tuple(spec.space.random_element(rng) for _ in range(k)))


# -- independent numerics --------------------------------------------------------


def blocks_of(t) -> list:
    return [x.blocks for x in t.entries]


def json_blocks(entries) -> list:
    """Per-entry block arrays of a JSON module tuple (rows of [re, im] pairs)."""
    out = []
    for entry in entries:
        blocks = []
        for m in entry["blocks"]:
            arr = np.asarray(m, dtype=float)
            blocks.append(arr[..., 0] + 1j * arr[..., 1])
        out.append(blocks)
    return out


def gram_margin(spec, entries) -> float:
    """Smallest over largest singular value of the Gram sum, compressed to q."""
    largest, smallest = 0.0, math.inf
    for i, basis in enumerate(spec.col_bases):
        g = sum(x[i].conj().T @ x[i] for x in entries)
        if basis is not None:
            g = basis.conj().T @ g @ basis
        if g.size == 0:
            continue
        svals = np.linalg.svd(g, compute_uv=False)
        largest = max(largest, float(svals[0]))
        smallest = min(smallest, float(svals[-1]))
    return smallest / max(1.0, largest)


def distance(a_entries, b_entries) -> float:
    """Norm of the difference of two tuples, as one stacked element."""
    worst = 0.0
    for i in range(len(a_entries[0])):
        diff = np.vstack([a[i] - b[i] for a, b in zip(a_entries, b_entries)])
        if diff.size:
            worst = max(worst, float(np.linalg.svd(diff, compute_uv=False)[0]))
    return worst


def pairing_residual(spec, y_entries, x_entries) -> float:
    """|| sum_j <y_j, x_j> - 1 || in the right algebra."""
    worst = 0.0
    for i, unit in enumerate(spec.units):
        pairing = sum(y[i].conj().T @ x[i] for y, x in zip(y_entries, x_entries))
        worst = max(worst, float(np.linalg.norm(pairing - unit, 2)))
    return worst


def _fixed_order(n):
    # Seed-independent interleaving, so that any prefix of a pass (the last,
    # partial pass of a run) holds cheap and dear operations alike.
    return np.random.default_rng(20130614).permutation(n)


class Workload:
    name = ""
    REFERENCE = "python"  # reference-slice profile, see calibration.py

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.child_tracer = None

    def rng(self, *keys):
        return np.random.default_rng([self.seed, *keys])

    def setup(self):
        raise NotImplementedError

    def stream(self):
        raise NotImplementedError

    def pass_ops(self) -> list:
        raise NotImplementedError

    def call(self, op):
        raise NotImplementedError

    def check(self, op, out):
        """Return (failed units, message or None)."""
        raise NotImplementedError

    def corrupt(self, op, out):
        raise NotImplementedError

    def close(self):
        pass


# -- density-grid ------------------------------------------------------------------


class DensityGrid(Workload):
    """``density_experiment`` over a grid of matrix spaces and skew corners."""

    name = "density-grid"
    TRIALS = 50
    BASES = ((1,), (2,), (1, 2), (2, 3))
    CORNERS = (
        ((1,), 4, (2,), (3,)),
        ((1, 2), 3, (2, 3), (3, 4)),
        ((2,), 3, (4,), (4,)),
        ((3,), 2, (2,), (5,)),
    )

    def setup(self):
        rng = self.rng(1)
        cells = []
        for base in self.BASES:
            for n in range(1, 7):
                for m in range(1, 7):
                    spec = matrix_space(base, n, m)
                    cells.extend((spec, k) for k in range(1, 5))
        for args in self.CORNERS:
            spec = corner(*args, rng)
            cells.extend((spec, k) for k in range(1, 5))
        self.cells = [cells[i] for i in _fixed_order(len(cells))]
        # sr_formula is evaluated here, so that checks make no traced calls.
        self.expected_sr = {
            spec.label: max(cr.sr_formula(1, r, s) for r, s in spec.pairs if s)
            for spec, _ in cells
        }
        warm = self.rng(1, 1).integers(0, 2**62, size=len(self.cells))
        for (spec, k), seed in zip(self.cells, warm):
            cr.density_experiment(spec.space, k, 1, int(seed), TOL)

    def stream(self):
        for cycle in itertools.count():
            seeds = self.rng(2, cycle).integers(0, 2**62, size=len(self.cells))
            for (spec, k), seed in zip(self.cells, seeds):
                yield Op(f"{spec.label}/k{k}", self.TRIALS, (spec, k, int(seed)))

    def pass_ops(self):
        return list(itertools.islice(self.stream(), len(self.cells)))

    def call(self, op):
        spec, k, seed = op.payload
        return cr.density_experiment(spec.space, k, self.TRIALS, seed, TOL)

    def check(self, op, report):
        spec, k, _ = op.payload
        obstructed = spec.obstructed(k)
        expected_sr = self.expected_sr[spec.label]
        if expected_sr != spec.stable_rank():
            return op.weight, f"{op.kind}: sr_formula gives {expected_sr}, not the block ceiling"
        if report.trials != self.TRIALS or report.k != k:
            return op.weight, f"{op.kind}: report echoes trials={report.trials} k={report.k}"
        if report.exact_obstruction != obstructed:
            return op.weight, f"{op.kind}: exact_obstruction={report.exact_obstruction}"
        if report.predicted_sr != expected_sr:
            return op.weight, f"{op.kind}: predicted_sr={report.predicted_sr}, expected {expected_sr}"
        hits = round(report.unimodular_fraction * self.TRIALS)
        if obstructed:
            if hits:
                return hits, f"{op.kind}: fraction {report.unimodular_fraction} on an obstructed cell"
            return 0, None
        if hits == self.TRIALS:
            return 0, None
        # At n k = m a Gaussian tuple is numerically singular at tol with
        # probability near 1e-6 per trial, and the library is right to say
        # so.  Redraw the trials (trial i uses seed XOR i) and accept the
        # shortfall only if every missing trial has a margin within 10 tol.
        clear, band = self._redrawn_margins(op)
        if clear <= hits <= clear + band:
            return 0, None
        return abs(hits - clear), (
            f"{op.kind}: fraction {report.unimodular_fraction}; {clear} trials clear tol, "
            f"{band} within 10 tol"
        )

    def _redrawn_margins(self, op):
        from cstar_rank.sampling import derived_seed, rng_from_seed

        spec, k, seed = op.payload
        clear = band = 0
        for i in range(self.TRIALS):
            rng = rng_from_seed(derived_seed(seed, i))
            margin = gram_margin(spec, blocks_of(random_tuple(spec, k, rng)))
            clear += margin > 10 * TOL
            band += TOL / 10 <= margin <= 10 * TOL
        return clear, band

    def corrupt(self, op, report):
        fields = dataclasses.asdict(report)
        fields["unimodular_fraction"] = 1.0 - fields["unimodular_fraction"]
        return SimpleNamespace(**fields)


# -- hv-pipeline ---------------------------------------------------------------------


class HvPipeline(Workload):
    """``hv_perturb`` on matrix spaces and corners, with negative controls."""

    name = "hv-pipeline"
    EPS = (0.01, 0.1, 1.0)
    VARIANTS = 8
    MATRIX = (  # (base, rows, cols), tuple length = stable rank
        ((1,), 1, 1),
        ((2,), 1, 2),
        ((1, 2), 2, 2),
        ((2, 3), 2, 3),
        ((2,), 3, 4),
        ((2, 3), 4, 5),
    )
    CORNERS = (
        ((1,), 4, (2,), (3,)),
        ((1, 2), 3, (2, 3), (3, 4)),
        ((2,), 3, (4,), (4,)),
    )
    NEGATIVE = ((1,), 1, 2)  # 1-tuples in M_{1x2}(C): never reducible

    def setup(self):
        rng = self.rng(1)
        specs = [matrix_space(*shape) for shape in self.MATRIX]
        specs += [corner(*args, rng) for args in self.CORNERS]
        negative = matrix_space(*self.NEGATIVE)
        kinds = [(spec, spec.stable_rank(), eps, False) for spec in specs for eps in self.EPS]
        kinds += [(negative, 1, eps, True) for eps in self.EPS]
        order = _fixed_order(len(kinds))
        self.pool = []
        for variant in range(self.VARIANTS):
            for i in order:
                spec, n, eps, neg = kinds[i]
                t = random_tuple(spec, n, rng)
                seed = int(rng.integers(0, 2**31))
                label = f"{spec.label}/n{n}/eps{eps:g}" + ("/negative" if neg else "")
                self.pool.append(Op(label, 1, (spec, t, eps, seed, neg)))
        warmed = set()
        for op in self.pool:  # first hv_perturb per space: fills the is_full cache
            if op.payload[0].label not in warmed:
                warmed.add(op.payload[0].label)
                self.call(op)

    def stream(self):
        return itertools.cycle(self.pool)

    def pass_ops(self):
        return list(self.pool)

    def call(self, op):
        _, t, eps, seed, _ = op.payload
        try:
            return cr.hv_perturb(t, cr.PerturbationParams(eps=eps, tol=TOL, seed=seed))
        except cr.ReductionFailedError as exc:
            return exc

    def check(self, op, out):
        spec, t, eps, _, negative = op.payload
        if negative:
            if isinstance(out, cr.ReductionFailedError):
                return 0, None
            return 1, f"{op.kind}: negative control returned {type(out).__name__}"
        if isinstance(out, BaseException):
            return 1, f"{op.kind}: {type(out).__name__}: {out}"
        if len(out) != len(t) or out.space != t.space:
            return 1, f"{op.kind}: result has the wrong shape"
        moved = blocks_of(out)
        margin = gram_margin(spec, moved)
        if not margin > TOL:
            return 1, f"{op.kind}: result not unimodular (margin {margin:.3g})"
        dist = distance(blocks_of(t), moved)
        bound = math.sqrt(eps) + eps
        if not dist < bound:
            return 1, f"{op.kind}: moved {dist:.6g}, bound {bound:.6g}"
        return 0, None

    def corrupt(self, op, out):
        _, t, _, _, _ = op.payload
        return cr.ModuleTuple(tuple(x * 50.0 for x in t.entries))


# -- oracle-crosscheck -------------------------------------------------------------------


class OracleCrosscheck(Workload):
    """Both unimodularity routes plus the dual witness on larger spaces."""

    name = "oracle-crosscheck"
    REFERENCE = "lapack"
    VARIANTS = 4
    # (base, rows, cols) -> {tuple length: copies per pass}.  The copies put
    # the 50th and 90th percentiles inside one kind of operation each (M_4x5
    # and M_6x6 2-tuples), not on the edge between two kinds, and in kinds
    # that take 15 ms and more, well above the few-ms stalls of a busy host.
    MATRIX = (
        (((3,), 6, 6), {1: 3, 2: 5}),  # dim 324, stable rank 1
        (((2, 3), 4, 5), {1: 2, 2: 4, 3: 3}),  # dim 260, stable rank 2
        (((3,), 2, 5), {2: 1, 3: 1}),  # dim 90, stable rank 3
        (((1, 2), 3, 3), {1: 1, 2: 1}),  # dim 45, stable rank 1
    )
    CORNERS = (
        (((3,), 3, (5,), (7,)), {1: 1, 2: 1}),
        (((2, 3), 2, (3, 5), (4, 6)), {1: 1, 2: 1}),
    )

    def setup(self):
        rng = self.rng(1)
        kinds = []
        for shape, copies in self.MATRIX:
            spec = matrix_space(*shape)
            kinds.extend((spec, k) for k, c in copies.items() for _ in range(c))
        for args, copies in self.CORNERS:
            spec = corner(*args, rng)
            kinds.extend((spec, k) for k, c in copies.items() for _ in range(c))
        order = _fixed_order(len(kinds))
        self.pool = []
        for variant in range(self.VARIANTS):
            for i in order:
                spec, k = kinds[i]
                self.pool.append(Op(f"{spec.label}/k{k}", 1, (spec, random_tuple(spec, k, rng))))
        warmed = set()
        for op in self.pool:
            if op.kind not in warmed:
                warmed.add(op.kind)
                self.call(op)

    def stream(self):
        return itertools.cycle(self.pool)

    def pass_ops(self):
        return list(self.pool)

    def call(self, op):
        t = op.payload[1]
        um = cr.unimodularity_margin(t)
        gen = cr.generation_margin(t)
        try:
            witness = cr.dual_witness(t, TOL)
        except cr.DomainError as exc:
            witness = exc
        return um, gen, witness

    def check(self, op, out):
        spec, t = op.payload
        um, gen, witness = out
        low, high = TOL / 10.0, TOL * 10.0
        if not (low <= um <= high or low <= gen <= high):
            if (um > TOL) != (gen > TOL):
                return 1, f"{op.kind}: routes disagree (um {um:.3g}, gen {gen:.3g})"
            if (um > TOL) == spec.obstructed(len(t)):
                return 1, f"{op.kind}: verdict {um > TOL} contradicts the counting bound"
        if um > TOL:
            if isinstance(witness, BaseException):
                return 1, f"{op.kind}: dual_witness raised {witness!r}"
            residual = pairing_residual(spec, blocks_of(witness), blocks_of(t))
            if not residual <= WITNESS_TOL:
                return 1, f"{op.kind}: pairing residual {residual:.3g}"
        elif not isinstance(witness, cr.DomainError):
            return 1, f"{op.kind}: dual_witness accepted a tuple with margin {um:.3g}"
        return 0, None

    def corrupt(self, op, out):
        um, gen, witness = out
        return um, (0.0 if gen > TOL else 1.0), witness


# -- cli-oneshot -----------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    run_s: float = None  # the report's own wall_time_s


class CliOneshot(Workload):
    """One fresh ``cstar-rank`` process per operation."""

    name = "cli-oneshot"

    def __init__(self, seed, src=None):
        super().__init__(seed)
        self.src = str(src)
        self.workdir = None
        self._nots_bytes = None

    def _write(self, name, data):
        path = self.workdir / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def setup(self):
        rng = self.rng(1)
        self.workdir = HERE / "out" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        small = matrix_space((1, 2), 2, 3)
        big = matrix_space((2, 3), 4, 5)
        null = matrix_space((1,), 1, 2)
        ops = {}

        sr_a, n, m = (int(v) for v in rng.integers(1, 9, size=3))
        ops["sr-formula"] = (["sr-formula", "--sr-a", str(sr_a), "--n", str(n), "--m", str(m)],
                             {"expect": cr.sr_formula(sr_a, n, m), "args": (sr_a, n, m)})

        pair = random_tuple(small, 2, rng)
        pair_path = self._write("pair.json", pair.to_json_list())
        ops["check"] = (["check", "--input", pair_path, "--no-timestamp"],
                        {"spec": small, "t": pair, "margin": cr.unimodularity_margin(pair)})
        ops["dual"] = (["dual", "--input", pair_path], {"spec": small, "t": pair})

        triple = random_tuple(small, 3, rng)
        seed = int(rng.integers(0, 2**31))
        params = cr.PerturbationParams(eps=0.1, tol=TOL, seed=seed)
        reduced = cr.warfield_forward(triple, cr.bass_reduce(triple, params))
        ops["reduce"] = (["reduce", "--input", self._write("triple.json", triple.to_json_list()),
                          "--seed", str(seed)],
                         {"spec": small, "margin": cr.unimodularity_margin(reduced)})

        single = random_tuple(small, 1, rng)
        ops["pad"] = (["pad", "--input", self._write("pad.json", {"tuple": single.to_json_list(), "pad_with": None}),
                       "--eps", "0.5"],
                      {"spec": small, "length": 1 + small.stable_rank()})

        seed = int(rng.integers(0, 2**31))
        report = cr.density_experiment(small.space, 2, 200, seed, TOL).to_json_dict()
        ops["density"] = (["density", "--blocks", "1", "2", "--rows", "2", "--cols", "3", "--k", "2",
                           "--trials", "200", "--seed", str(seed)],
                          {"report": report})

        lone = random_tuple(null, 1, rng)
        ops["dual-fail"] = (["dual", "--input", self._write("lone.json", lone.to_json_list())],
                            {"exit": 1})

        t = random_tuple(big, 2, rng)
        seed = int(rng.integers(0, 2**31))
        ops["perturb"] = (["perturb", "--input", self._write("big.json", t.to_json_list()),
                           "--eps", "0.1", "--seed", str(seed)],
                          {"spec": big, "t": t, "eps": 0.1})

        self.ops = {name: Op(name, 1, payload) for name, payload in ops.items()}
        # The perturb (a cold is_full on M_4x5(M2+M3) in a fresh process) is
        # one call in eight, so the 90th percentile falls inside its times.
        self.cycle = [self.ops[name] for name in (
            "sr-formula", "check", "perturb", "dual", "reduce", "pad", "density", "dual-fail",
        )]

    def stream(self):
        return itertools.cycle(self.cycle)

    def pass_ops(self):
        return list(self.cycle)

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src
        return env

    def call(self, op):
        argv, _ = op.payload
        tracer = self.child_tracer
        if tracer is None:
            cmd = [sys.executable, "-m", "cstar_rank.cli", *argv]
        else:
            stats = str(self.workdir / "child-stats.json")
            cmd = [sys.executable, str(HERE / "tracechild.py"), stats, *argv]
        proc = subprocess.run(cmd, capture_output=True, env=self._env(), cwd=self.workdir, timeout=150)
        if tracer is not None:
            with open(stats, encoding="utf-8") as handle:
                tracer.merge(json.load(handle))
        run_s = None
        if proc.returncode == 0 and b'"wall_time_s"' in proc.stdout:
            run_s = json.loads(proc.stdout)["wall_time_s"]
        return CliResult(proc.returncode, proc.stdout, proc.stderr, run_s)

    def check(self, op, out):
        _, ref = op.payload
        expected_code = ref.get("exit", 0)
        if out.code != expected_code:
            tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return 1, f"{op.kind}: exit {out.code}, expected {expected_code} {tail[0]}"
        if expected_code != 0:
            return (0, None) if out.stderr.startswith(b"error:") else (1, f"{op.kind}: no error line")
        report = json.loads(out.stdout)
        result = report["result"]
        kind = op.kind
        if kind == "sr-formula":
            sr_a, n, m = ref["args"]
            if not result == ref["expect"] == -(-(sr_a + m - 1) // n):
                return 1, f"{kind}: {result} != {ref['expect']}"
        elif kind == "check":
            margin = gram_margin(ref["spec"], blocks_of(ref["t"]))
            if result["unimodular"] != (ref["margin"] > TOL) or result["unimodular"] != (margin > TOL):
                return 1, f"{kind}: verdict {result['unimodular']}, margin {margin:.3g}"
            if not math.isclose(report["residuals"]["unimodularity_margin"], ref["margin"], rel_tol=1e-9):
                return 1, f"{kind}: margin differs from the library's"
            if self._nots_bytes is None:
                self._nots_bytes = out.stdout
            elif out.stdout != self._nots_bytes:
                return 1, f"{kind}: --no-timestamp output is not byte-identical"
        elif kind == "dual":
            witness = json_blocks(result["witness"])
            residual = pairing_residual(ref["spec"], witness, blocks_of(ref["t"]))
            if not (residual <= WITNESS_TOL and report["residuals"]["pairing_residual"] <= WITNESS_TOL):
                return 1, f"{kind}: pairing residual {residual:.3g}"
        elif kind == "reduce":
            margin = gram_margin(ref["spec"], json_blocks(result["reduced"]))
            if not margin > TOL or not math.isclose(
                report["residuals"]["reduced_margin"], ref["margin"], rel_tol=1e-9
            ):
                return 1, f"{kind}: reduced margin {margin:.3g}"
        elif kind == "pad":
            padded = json_blocks(result["padded"])
            if len(padded) != ref["length"] or not gram_margin(ref["spec"], padded) > TOL:
                return 1, f"{kind}: padded tuple not unimodular"
        elif kind == "density":
            if result != ref["report"]:
                return 1, f"{kind}: report differs from the library's"
        elif kind == "perturb":
            moved = json_blocks(result["perturbed"])
            dist = distance(blocks_of(ref["t"]), moved)
            bound = math.sqrt(ref["eps"]) + ref["eps"]
            if not gram_margin(ref["spec"], moved) > TOL or not dist < bound:
                return 1, f"{kind}: moved {dist:.6g}, bound {bound:.6g}"
            if not math.isclose(result["distance"], dist, rel_tol=1e-9, abs_tol=1e-12):
                return 1, f"{kind}: reported distance {result['distance']} != {dist}"
        return 0, None

    def corrupt(self, op, out):
        return dataclasses.replace(out, code=out.code + 3)

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (DensityGrid, HvPipeline, OracleCrosscheck, CliOneshot)
}
