"""dsrkit benchmark: one closed-loop client runs a workload against dsrkit's
public API for a fixed window, checks every run's outputs, and prints its
metrics; the last line of stdout is a JSON object.

    python3 perfbench/run.py --workload experiment --seed 3 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``experiment``, ``cli-chain`` and
``ge2e-pretrain``. With ``--trace 0`` the JSON carries the end-to-end metrics
listed in ``BENCHMARK.json``, measured with tracing off, and the per-command
CLI times are printed above it. With ``--trace 1`` untraced and traced runs
alternate; the JSON carries the per-layer metrics listed in
``BENCHMARK.json`` (medians over the traced runs) and the trace overhead,
and the full per-layer table, every function and (batch, frames) bucket, is
printed above it. Every run must write artifacts byte-identical to the
reference run's, traced or not; the reference digests are kept per (code,
workload, seed) under ``.bench_out/`` so later invocations are held to them.

dsrkit is imported from ``src/`` of the checkout this file sits in, in one
process, with ``OPENBLAS_NUM_THREADS=1`` set before numpy is imported.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, CheckFailed, StepFailed, digest_tree

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
CONTENTION_SAMPLE_S = 0.1
CONTENDED_CORES = 0.5  # other processes busy on at least this many cores
IMPORTS = "import numpy, dsrkit.cli, dsrkit.pipeline"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3,
                        help="workload seed (default 3, the EXPERIMENT seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def import_dsrkit():
    """Import numpy and dsrkit from this checkout's src/, single-threaded BLAS."""
    if not (SRC / "dsrkit" / "__init__.py").is_file():
        sys.exit(f"error: no dsrkit sources under {SRC}")
    inherited = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import numpy
    import dsrkit.cli
    import dsrkit.pipeline
    if Path(dsrkit.__file__).resolve().parent != SRC / "dsrkit":
        sys.exit(f"error: imported dsrkit from {dsrkit.__file__}, not {SRC}")
    return dsrkit, numpy, inherited


def import_seconds():
    """Import time of numpy and dsrkit in a fresh interpreter, which is what
    every process that runs dsrkit pays; measured in the child, waited for."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            f"t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, timeout=120)
    return float(child.stdout)


# ---------------------------------------------------------------------------
# Environment and contention record


def environment(numpy, inherited_threads):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS_inherited": inherited_threads,
        "machine": platform.machine(),
    }


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:4]
    except OSError:
        return None


def cpu_jiffies():
    """(busy, steal, total) jiffies over all CPUs, or None off Linux."""
    try:
        first = Path("/proc/stat").read_text().split("\n", 1)[0]
        fields = [int(v) for v in first.split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal, sum(fields)


def other_cores_busy():
    """Cores that other processes kept busy while this one slept briefly."""
    before, own_before, t0 = cpu_jiffies(), sum(os.times()[:2]), time.perf_counter()
    time.sleep(CONTENTION_SAMPLE_S)
    after, own_after, t1 = cpu_jiffies(), sum(os.times()[:2]), time.perf_counter()
    if before is None or after is None:
        return None
    busy_s = (after[0] - before[0]) / os.sysconf("SC_CLK_TCK") - (own_after - own_before)
    return max(0.0, busy_s / (t1 - t0))


def steal_share(before, after):
    if before is None or after is None or after[2] == before[2]:
        return None
    return (after[1] - before[1]) / (after[2] - before[2])


# ---------------------------------------------------------------------------
# Digests


def code_hash():
    h = hashlib.sha256()
    for base in (SRC / "dsrkit", BENCH_DIR):
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def step_digests(workload, tree):
    """One SHA-256 per step over the digests of the files it wrote."""
    lines = {}
    for relpath, digest in tree.items():
        lines.setdefault(workload.step_of(relpath), []).append(f"{relpath} {digest}\n")
    return {step: hashlib.sha256("".join(text).encode()).hexdigest()
            for step, text in lines.items()}


class Reference:
    """The digests every run must reproduce: those an earlier invocation of
    this code stored for this workload and seed, else those of this
    invocation's first run that passed its checks."""

    def __init__(self, workload, seed):
        self.path = OUT / "digests" / f"{workload.name}-seed{seed}-{code_hash()[:16]}.json"
        self.stored = self.path.is_file()
        self.steps = json.loads(self.path.read_text()) if self.stored else None

    def mismatches(self, digests):
        if self.steps is None:
            self.steps = digests
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(digests, indent=1, sort_keys=True))
        return [step for step, d in digests.items() if self.steps.get(step) != d]


# ---------------------------------------------------------------------------
# Measuring


def run_once(workload, tracer, index, out_dir, reference):
    """Run the workload once under ``tracer``, check it; returns its record."""
    record = {"run": index, "traced": tracer.full, "loadavg_before": loadavg(),
              "other_cores_busy": other_cores_busy()}
    record["contended"] = (record["other_cores_busy"] or 0.0) >= CONTENDED_CORES
    jiffies = cpu_jiffies()
    tracer.run = index
    error = None
    with tracer.installed(), tracer.span("run") as root:
        try:
            workload.execute(out_dir, tracer)
        except StepFailed as exc:
            error = exc
    record["run_s"] = root[tracing.END] - root[tracing.START]
    record["steal_share"] = steal_share(jiffies, cpu_jiffies())
    record["loadavg_after"] = loadavg()

    steps = workload.steps
    done = steps if error is None else steps[:steps.index(error.step)]
    record["attempted"] = len(done) + (error is not None)
    record["failures"] = {} if error is None else {error.step: str(error)}
    record["quality"] = {}
    for step in done:
        try:
            record["quality"][step] = workload.check_step(step, out_dir)
        except (CheckFailed, OSError, ValueError, workload.dsrkit.errors.DsrkitError) as exc:
            record["failures"][step] = f"check: {exc!r}"
    tree = digest_tree(out_dir)
    record["artifacts"] = {k: v for k, v in tree.items() if k.endswith((".ckpt", ".csv", ".txt"))}
    if not record["failures"]:
        for step in reference.mismatches(step_digests(workload, tree)):
            record["failures"][step] = "artifact digests differ from the reference run"
    record["failed"] = len(record["failures"])

    mine = [s for s in tracer.spans if s[tracing.RUN] == index]
    stages = {f"pipeline.{fn}" for fn in tracing.STAGES}
    record["train_s"] = sum(s[tracing.END] - s[tracing.START]
                            for s in mine if s[tracing.NAME] in stages)
    record["cli_s"] = {s[tracing.NAME][4:]: s[tracing.END] - s[tracing.START]
                       for s in mine if s[tracing.NAME].startswith("cli.")}
    return record


def measure(workload, tracers, seconds, work_dir, reference, between_runs):
    """Closed loop over the window: the next run starts only after the
    previous one and its check finished. Cycles of one run per tracer, in
    alternating order, start while the cycle is expected to end inside the
    window; at least one cycle runs. ``between_runs`` is called after each."""
    start = time.perf_counter()
    records, cycle_s = [], []
    while not cycle_s or time.perf_counter() - start + statistics.median(cycle_s) <= seconds:
        t0 = time.perf_counter()
        for tracer in tracers if len(cycle_s) % 2 == 0 else tracers[::-1]:
            out = work_dir / f"run-{len(records)}"
            records.append(run_once(workload, tracer, len(records), out, reference))
            shutil.rmtree(out, ignore_errors=True)
            print(format_run(records[-1]), flush=True)
            between_runs()
        cycle_s.append(time.perf_counter() - t0)
    return records


# ---------------------------------------------------------------------------
# Reporting


def format_run(r):
    busy, steal = r["other_cores_busy"], r["steal_share"]
    status = "ok" if not r["failures"] else "FAILED " + "; ".join(
        f"{k}: {v}" for k, v in r["failures"].items())
    return (f"run {r['run']:2d} {'traced  ' if r['traced'] else 'untraced'} "
            f"run_s {r['run_s']:.4f}  loadavg {' '.join(r['loadavg_before'] or ['?'])}  "
            f"other_cores_busy {'?' if busy is None else f'{busy:.2f}'}"
            f"{' CONTENDED' if r['contended'] else ''}  "
            f"steal {'?' if steal is None else f'{steal:.3f}'}  {status}")


def describe(name, values, unit):
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return f"  {name:<26} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def report_end_to_end(benchmark, workload, records, import_s, prepare_s):
    ok = [r for r in records if not r["failures"]]
    setup_s = statistics.median(import_s) + statistics.median(prepare_s)
    values = {
        "setup_s": [setup_s],
        "run_s": [r["run_s"] for r in ok],
        "train_utts_per_s": [workload.training_utterances() / r["train_s"] for r in ok],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6],
    }
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    print(f"end-to-end, tracing off (setup_s = median import {statistics.median(import_s):.4f} s"
          f" over {len(import_s)} fresh interpreters + median input preparation "
          f"{statistics.median(prepare_s):.4f} s over {len(prepare_s)}):")
    for name, vals in values.items():
        if vals:
            print(describe(name, vals, units[name]))
    for step in workload.steps if ok and ok[0]["cli_s"] else ():
        print(describe(f"cli.{step}_s", [r["cli_s"][step] for r in ok], "s"))
    return {m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
            for m in benchmark["end_to_end"] if values[m["name"]]}


def report_layers(benchmark, tracer, records):
    """Per-layer table and metrics: medians over the traced runs that passed."""
    untraced = [r["run_s"] for r in records if not r["traced"] and not r["failures"]]
    runs = []
    for r in records:
        if r["traced"] and not r["failures"] and untraced:
            stats = tracing.layer_stats(tracer.spans, r["run"])
            stats["trace.run_s"] = r["run_s"]
            stats["trace.overhead_s"] = r["run_s"] - statistics.median(untraced)
            runs.append(stats)
    if not runs:
        return {}, runs
    run_s = statistics.median(r["trace.run_s"] for r in runs)
    print(f"per-layer figures, median over {len(runs)} traced run(s); "
          "[exact] = the same count in every traced run:")
    for key in sorted(set().union(*runs)):
        values = [r.get(key, 0.0) for r in runs]
        med = statistics.median(values)
        line = f"  {key:<48} {med:.6g}"
        if key.endswith(".self_s"):
            line += f"  {100 * med / run_s:5.1f}% of run_s"
        elif not key.endswith("_s") and len(set(values)) == 1:
            line += "  [exact]"
        if key in tracing.RATIOS:
            num, den, _ = tracing.RATIOS[key]
            line += (f"  (from {num} = {statistics.median(r[num] for r in runs):g}, "
                     f"{den} = {statistics.median(r[den] for r in runs):g})")
        print(line)
    setup = tracing.layer_stats(tracer.spans, "setup")
    if any(v for k, v in setup.items() if k.endswith(".calls")):
        print("set-up, traced: " + ", ".join(
            f"{k} {v:.6g}" for k, v in sorted(setup.items()) if v))
    return {m["name"]: {"value": statistics.median(r.get(m["name"], 0.0) for r in runs),
                        "unit": m["unit"]} for m in benchmark["per_layer"]}, runs


def main():
    args = parse_args()
    dsrkit, numpy, inherited_threads = import_dsrkit()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(numpy, inherited_threads)
    print("environment: " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload](dsrkit, args.seed)
    reference = Reference(workload, args.seed)
    stage_tracer = tracing.Tracer(tracing.stage_targets(dsrkit), full=False)
    layer_tracer = tracing.Tracer(tracing.layer_targets(dsrkit), full=True)
    layer_tracer.run = "setup"

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # Import time is sampled once per run as well, so its median spans the
        # whole window rather than one moment of the host's load.
        import_s = [] if args.trace else [import_seconds() for _ in range(SETUP_REPEATS)]
        prepare_s = []
        for k in range(1 if args.trace else SETUP_REPEATS):
            setup_dir = work_dir / f"setup-{k}"
            setup_dir.mkdir()
            t0 = time.perf_counter()
            with layer_tracer.installed() if args.trace else contextlib.nullcontext():
                workload.prepare(setup_dir)
            prepare_s.append(time.perf_counter() - t0)
        tracers = [stage_tracer, layer_tracer] if args.trace else [stage_tracer]
        records = measure(workload, tracers, args.seconds, work_dir, reference,
                          (lambda: None) if args.trace else lambda: import_s.append(import_seconds()))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(f"workload {workload.name} seed {args.seed}: {len(records)} runs, "
          f"{attempted} operations attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:g}); "
          f"{sum(r['contended'] for r in records)} run(s) started with another "
          f"process busy on >= {CONTENDED_CORES} core")
    print(f"artifact digests per step ({'held to' if reference.stored else 'stored for'} "
          f"later invocations): " + json.dumps(reference.steps, sort_keys=True))
    first_ok = next((r for r in records if not r["failures"]), None)
    if first_ok:
        print("quality (reported, not gated): " + json.dumps(first_ok["quality"], sort_keys=True))
        for path, digest in sorted(first_ok["artifacts"].items()):
            print(f"  sha256 {digest}  {path}")

    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "runs": records, "digests": reference.steps}
    if args.trace:
        metrics, result["layers"] = report_layers(benchmark, layer_tracer, records)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in layer_tracer.spans)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = report_end_to_end(benchmark, workload, records, import_s, prepare_s)
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"full record written to {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
