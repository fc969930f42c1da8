"""Benchmark of ``cstar_rank``, driven from outside through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout, nothing is installed.  The metrics and their units are read
from ``BENCHMARK.json`` at the root.

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics.  ``--trace 1`` traces the set-up once, then alternates untraced and
traced passes over a fixed list of operations and prints the per-layer
metrics (set-up plus one pass) and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``; a detailed record (machine block, sample counts, failures) goes
to ``perfbench/out/``.

Load comes from this one process, one operation at a time.  BLAS is pinned
to one thread, for child processes too.  ``--self-test`` damages the output
of the first operation before it is checked, to show that the checks count
it.  ``--setup-only`` times one set-up and prints ``{"setup_s": ...}``; the
timed run starts two of these after it has measured, and reports the median
of three set-ups.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS; children inherit it
# One CPU for this process and its children, so that the reference slices
# (calibration.py) time the CPU that the measured calls ran on.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# The 90th percentile needs ten samples beyond it.  Only cli-oneshot (a fresh
# process per operation) can fall short in --seconds; it then runs on to
# whole passes that hold that many, for at most LATE_LIMIT_S more.
MIN_LATENCY_SAMPLES = 100
LATE_LIMIT_S = 40
MIN_CHUNK_SAMPLES = 100
MIN_CHUNKS = 5
MAX_ERRORS_KEPT = 20


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    if not (SRC / "cstar_rank" / "__init__.py").is_file():
        fail(f"no cstar_rank package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import cstar_rank

    if Path(cstar_rank.__file__).resolve().parent != (SRC / "cstar_rank").resolve():
        fail(f"cstar_rank was imported from {cstar_rank.__file__}, not from {SRC}")
    return cstar_rank


# -- running operations --------------------------------------------------------------


class Tally:
    """Counts, failures and per-call times of a stretch of operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.samples = []  # wall-clock seconds per call
        self.scaled = []  # the same, scaled to the reference speed
        self.weights = []
        self.errors = []
        self.run_s = 0.0
        self.startup_s = 0.0


def execute(workload, op, tally, corrupt=False, clock=None):
    """Time one call into the library, then check its output (untimed)."""
    start = perf_counter()
    try:
        out = workload.call(op)
        error = None
    except Exception as exc:  # an unexpected exception is a failed operation
        out, error = None, exc
    elapsed = perf_counter() - start
    tally.samples.append(elapsed)
    tally.scaled.append(elapsed)
    if clock is not None:
        clock.add(tally, len(tally.samples) - 1, elapsed)
    tally.busy += elapsed
    tally.attempted += op.weight
    if error is not None:
        failed, message = op.weight, f"{op.kind}: {type(error).__name__}: {error}"
    else:
        if corrupt:
            out = workload.corrupt(op, out)
        try:
            failed, message = workload.check(op, out)
        except Exception as exc:
            failed, message = op.weight, f"{op.kind}: check raised {exc!r}"
    tally.failed += failed
    tally.weights.append(op.weight - failed)  # only correct units count in the rate
    if message and len(tally.errors) < MAX_ERRORS_KEPT:
        tally.errors.append(message)
    run_s = getattr(out, "run_s", None)
    if run_s is not None:
        tally.run_s += run_s
        tally.startup_s += elapsed - run_s


def chunk_stats(samples, weights, pass_len):
    """Rate and latency percentiles, as medians over chunks of whole passes.

    The rate is the median over single passes.  A percentile chunk holds as
    many whole passes as give it at least MIN_CHUNK_SAMPLES calls, so that
    its 90th percentile has ten samples beyond it.  Every chunk has the same
    mix of operations, and the median over chunks keeps a burst of load from
    a neighbour on the machine out of the figures.  With fewer than
    MIN_CHUNKS chunks the whole run is one chunk.
    """
    import numpy as np

    def chunks(size):
        count = len(samples) // size
        if count < MIN_CHUNKS:
            return [(0, len(samples))]
        return [(c * size, (c + 1) * size) for c in range(count)]

    rates = [sum(weights[a:b]) / sum(samples[a:b]) for a, b in chunks(pass_len)]
    size = pass_len * -(-MIN_CHUNK_SAMPLES // pass_len)
    spans = chunks(size)
    p50 = [float(np.percentile(samples[a:b], 50)) * 1e3 for a, b in spans]
    p90 = [float(np.percentile(samples[a:b], 90)) * 1e3 for a, b in spans]
    return {
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(p50),
        "latency_p90_ms": statistics.median(p90),
        "rate_chunks": len(rates),
        "percentile_chunks": len(spans),
        "percentile_chunk_samples": spans[0][1] - spans[0][0],
    }


def child_setup(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_setup(workload, clock):
    """One set-up, timed between two reference slices."""
    def measure():
        started = perf_counter()
        workload.setup()
        return perf_counter() - started

    scaled, raw = clock.scaled(measure)
    return {"setup_s": scaled, "setup_raw_s": raw}


def timed_run(workload, args):
    from calibration import ReferenceClock

    clock = ReferenceClock(workload.REFERENCE)
    setups = [timed_setup(workload, clock)]
    tally = Tally()
    pass_len = len(workload.pass_ops())
    needed = pass_len * -(-MIN_LATENCY_SAMPLES // pass_len)
    now = perf_counter()
    deadline, hard_stop = now + args.seconds, now + args.seconds + LATE_LIMIT_S
    for index, op in enumerate(workload.stream()):
        now = perf_counter()
        if now >= deadline and (len(tally.samples) >= needed or now >= hard_stop):
            break
        execute(workload, op, tally, corrupt=args.self_test and index == 0, clock=clock)
    clock.finish()
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli-oneshot" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    # Set-up children start after the rusage read, so they cannot raise it.
    setups += [child_setup(workload.name, args.seed) for _ in range(SETUP_REPEATS - 1)]
    chunks = chunk_stats(tally.scaled, tally.weights, pass_len)
    raw = chunk_stats(tally.samples, tally.weights, pass_len)
    metrics = {
        "ops_per_s": chunks.pop("ops_per_s"),
        "latency_p50_ms": chunks.pop("latency_p50_ms"),
        "latency_p90_ms": chunks.pop("latency_p90_ms"),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    detail = {
        "latency_samples": len(tally.samples),
        **chunks,
        "error_rate": tally.failed / tally.attempted,
        "setups": setups,
        "busy_s": tally.busy,
        "wall_clock": {
            "ops_per_s": raw["ops_per_s"],
            "latency_p50_ms": raw["latency_p50_ms"],
            "latency_p90_ms": raw["latency_p90_ms"],
            "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        },
        "reference_slices": len(clock.slices),
        "reference_slice_median_s": statistics.median(clock.slices),
        "reference_profile": workload.REFERENCE,
        "reference_s": clock.reference_s,
    }
    return tally, metrics, detail


def traced_run(workload, args, cr):
    from tracing import Tracer, diff

    tracer = Tracer(default_tol=cr.DEFAULT_TOL)
    tracer.op = "setup"
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    base = tracer.snapshot()
    ops = workload.pass_ops()
    untraced, traced, passes = [], [], []
    deadline = perf_counter() + args.seconds
    while not traced or perf_counter() < deadline:
        tally = Tally()
        for op in ops:
            execute(workload, op, tally)
        untraced.append(tally)
        before = tracer.snapshot()
        tally = Tally()
        tracer.install()
        workload.child_tracer = tracer
        try:
            for index, op in enumerate(ops):
                tracer.op = index
                execute(workload, op, tally)
        finally:
            tracer.uninstall()
            workload.child_tracer = None
        traced.append(tally)
        passes.append(diff(tracer.snapshot(), before))
        tracer.record_spans = False

    # Set-up plus one pass: calls from the first traced pass, self time the
    # median over traced passes.
    names = set(base["stats"]) | {n for p in passes for n in p["stats"]}
    stats = {}
    for name in names:
        calls0, self0 = base["stats"].get(name, (0, 0.0))
        per_pass = [p["stats"].get(name, (0, 0.0)) for p in passes]
        stats[name] = [calls0 + per_pass[0][0], self0 + statistics.median(s for _, s in per_pass)]
    counters = dict(base["counters"])
    for key, value in passes[0]["counters"].items():
        counters[key] = counters.get(key, 0) + value
    unsteady = sorted(
        name for name in names
        if len({p["stats"].get(name, (0, 0.0))[0] for p in passes}) > 1
    )
    untraced_rate = sum(sum(t.weights) for t in untraced) / sum(t.busy for t in untraced)
    traced_rate = sum(sum(t.weights) for t in traced) / sum(t.busy for t in traced)
    view = {
        "stats": stats,
        "counters": counters,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead": 1.0 - traced_rate / untraced_rate,
        "cli.run_s": statistics.median(t.run_s for t in untraced),
        "cli.startup_s": statistics.median(t.startup_s for t in untraced),
    }
    total = Tally()
    for t in untraced + traced:
        total.attempted += t.attempted
        total.failed += t.failed
        total.errors.extend(t.errors[: MAX_ERRORS_KEPT - len(total.errors)])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json.gz"
    tracer.write_spans(spans_path)
    detail = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "pass_call_counts_differ": unsteady,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_kept": len(tracer.spans),
        "error_rate": total.failed / total.attempted,
        "all_calls": {k: v for k, v in sorted(stats.items())},
        "all_counters": counters,
    }
    return total, view, detail


def layer_metric(name, view):
    """Value of one per-layer metric named in BENCHMARK.json."""
    from tracing import LAYERS

    if name in view:
        return view[name]
    if name in view["counters"] or name.endswith(
        (".attempts", ".successes", ".cold_calls", "_bytes")
    ):
        return view["counters"].get(name, 0)
    stats = view["stats"]
    if name == "stable_rank.bass_reduce.useful_ratio":
        attempts = view["counters"].get("stable_rank.bass_reduce.attempts", 0)
        return view["counters"].get("stable_rank.bass_reduce.successes", 0) / attempts if attempts else 0.0
    func, _, field = name.rpartition(".")
    column = {"calls": 0, "self_s": 1}[field]
    if func in LAYERS:
        return sum(v[column] for k, v in stats.items() if k.startswith(func + "."))
    aliases = {"hilbert_module.gen_oracle": ("hilbert_module.gen_oracle", "hilbert_module.generation_margin")}
    return sum(stats.get(n, (0, 0.0))[column] for n in aliases.get(func, (func,)))


# -- record -------------------------------------------------------------------------


def commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cstar_rank").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_block(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "commit": commit(),
        "src_sha256": src_digest(),
    }


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cr = load_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, src=SRC) if args.workload == "cli-oneshot" else cls(args.seed)
    try:
        if args.setup_only:
            from calibration import ReferenceClock

            print(json.dumps(timed_setup(workload, ReferenceClock(workload.REFERENCE))))
            return 0
        if args.trace:
            tally, view, detail = traced_run(workload, args, cr)
            wanted = spec["per_layer"]
            metrics = {m["name"]: layer_metric(m["name"], view) for m in wanted}
        else:
            tally, values, detail = timed_run(workload, args)
            wanted = spec["end_to_end"]
            metrics = {m["name"]: values[m["name"]] for m in wanted}
    finally:
        workload.close()

    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "self_test": args.self_test,
        "machine": machine_block(args.seed),
        "detail": detail,
        "errors": tally.errors,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    raw = detail.get("wall_clock", {})
    for name, value in metrics.items():
        wall = f" (wall clock {raw[name]:.6g})" if name in raw else ""
        print(f"# {name} = {value:.6g} {units[name]}{wall}")
    print(f"# error_rate = {detail['error_rate']:.6g} ({tally.failed}/{tally.attempted})")
    for message in tally.errors[:5]:
        print(f"# failed: {message}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
