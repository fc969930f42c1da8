"""Repeated runs of the benchmark: spread, baseline, count determinism, self-test.

    python3 perfbench/repeat.py spread [--first-seed 1] [--out FILE]
    python3 perfbench/repeat.py counts
    python3 perfbench/repeat.py self-test

All runs last ``run_seconds`` from BENCHMARK.json (the self-test 2 s).

``spread`` runs every workload once per seed (ten seeds from
``--first-seed``, default 1..10), with tracing off.  For each end-to-end
metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, against the metric's bound.  With
``--out`` it writes all of it, plus the machine block and every run's
values, as a baseline file.  It exits 1 when the spread of a metric other
than ``setup_s`` is a third of its bound or more.  ``setup_s`` is reported
but exempt: a set-up is one short stretch (three per run), so its spread is
wide, and a later change is judged on the shift of its median, which its
bound of 0.25 covers.

``counts`` makes two traced runs per workload at seed 1 and lists every
per-layer count (calls, attempts, successes, cold calls, computed bytes)
that differs between them; these must repeat exactly.

``self-test`` runs each workload briefly with ``--self-test``, which damages
the first operation's output, and checks that the result counts it as
failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 10
COUNT_SUFFIXES = (".calls", ".attempts", ".successes", ".cold_calls", "_bytes", ".useful_ratio")


def run(workload, seed, seconds=SPEC["run_seconds"], trace=0, extra=()):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return result, record


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3.0, "values": values}


def cmd_spread(args):
    out = {"run_seconds": SPEC["run_seconds"], "runs": RUNS, "seeds": [], "machine": None,
           "times": "scaled to the reference speed, see calibration.py", "workloads": {}}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    out["seeds"] = seeds
    worst = []
    for workload in WORKLOADS:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        attempted = failed = 0
        for seed in seeds:
            result, record = run(workload, seed)
            out["machine"] = {k: v for k, v in record["machine"].items() if k != "seed"}
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()) + f" failed={result['failed']}",
                flush=True)
        stats = {m["name"]: summarize(values[m["name"]], m["bound"]) for m in SPEC["end_to_end"]}
        out["workloads"][workload] = {"attempted": attempted, "failed": failed, "metrics": stats}
        for name, s in stats.items():
            flag = "ok" if s["steady"] else ("WIDE" if s["spread"] >= s["bound"] else "over 1/3 bound")
            print(f"  {workload:18s} {name:15s} median {s['median']:10.4g}  "
                  f"IQR/median {s['spread']:.4f}  bound {s['bound']}  {flag}")
            if not s["steady"] and name != "setup_s":
                worst.append((workload, name))
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 1 if worst else 0


def cmd_counts(args):
    differ = 0
    for workload in WORKLOADS:
        first, _ = run(workload, 1, trace=1)
        second, _ = run(workload, 1, trace=1)
        names = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(COUNT_SUFFIXES)]
        diffs = [
            (n, first["metrics"][n]["value"], second["metrics"][n]["value"])
            for n in names
            if first["metrics"][n]["value"] != second["metrics"][n]["value"]
        ]
        differ += len(diffs)
        print(f"{workload}: {len(names) - len(diffs)}/{len(names)} counts repeat exactly")
        for name, a, b in diffs:
            print(f"  DIFFERS {name}: {a} vs {b}")
    return 1 if differ else 0


def cmd_self_test(args):
    bad = 0
    for workload in WORKLOADS:
        result, record = run(workload, 1, 2, extra=("--self-test",))
        fired = result["failed"] >= 1 and not result["correct"]
        bad += not fired
        first = record["errors"][0] if record["errors"] else "no failure recorded"
        print(f"{'PASS' if fired else 'FAIL'} {workload}: failed {result['failed']}"
              f"/{result['attempted']} ({first})")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None)
    sub.add_parser("counts")
    sub.add_parser("self-test")
    args = parser.parse_args()
    return {"spread": cmd_spread, "counts": cmd_counts, "self-test": cmd_self_test}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
