"""thetalab benchmark: one closed-loop client driving ``thetalab.cli.main``.

    python3 perfbench/run.py --workload count-mix --seed 1 --seconds 50 --trace 0

Run from the repository root (it needs ``src/thetalab``).  The seed generates
every input before timing starts; the loop then runs whole decks of ops
(see workloads.py) in this process, one at a time with stdout and stderr
captured, in one or more passes until ``--seconds`` have passed, and checks
every output against its closed form.  A reference kernel (reference.py)
is timed around every op, and the reported times are scaled by it.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
decks untraced and then traced and reports the per-layer metrics (spans.py)
and the tracing overhead.  A table with units and sample
counts goes to stdout, the last stdout line is the JSON result, and a full
report lands in ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pin every thread pool before numpy is imported.
for _var in (
    "THETALAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Total set-up samples per run: this process plus fresh child processes, so
# import and first-call costs are paid cold every time.
SETUP_SAMPLES = 5

# Per workload: (tail percentile, passes).
#
# The tail percentile is fixed.  Each leaves at least ten samples beyond it
# at the op count one pass of a 50 s run reaches (count-mix ~80 ops,
# h0-probe ~400) and lies inside a group of ops of similar cost, not on the
# edge between two op types.  On h0-probe, p90 spread least over seeds of
# p80 to p97: it falls among the 4000 probes.
#
# The timed loop runs the same ops `passes` times, a pass apart, and takes
# the median over the passes of each op's time over the reference kernel's
# time around it (see README.md, Noise).  count-mix ops cost about the same
# for every input, so what spreads its runs is the machine, and repeats help.
# A genus-3 probe's cost turns on the random orders it draws, so h0-probe
# needs as many distinct inputs as a run can hold, and makes one pass.
# verify-suite is not in BENCHMARK.json: see README.md.
WORKLOADS = {"count-mix": (80, 3), "h0-probe": (90, 1), "verify-suite": (95, 3)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (as opposed to a failed op)."""


def work_dir() -> Path:
    """A fresh directory in the checkout for this process's input files."""
    path = ROOT / f".bench_work-{os.getpid()}"
    path.mkdir()
    return path


def load_program():
    """Import thetalab from this checkout's src/ and return its cli module."""
    if not (SRC / "thetalab" / "__init__.py").is_file():
        raise BenchmarkError(f"no thetalab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import thetalab.cli

    if Path(thetalab.cli.__file__).resolve().parent != SRC / "thetalab":
        raise BenchmarkError(f"imported thetalab from {thetalab.cli.__file__}, not {SRC}")
    return thetalab.cli


def run_op(cli, op, check):
    """Run one op; returns (seconds, stdout, problem or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except Exception:  # op boundary: record the failure, keep the loop going
        seconds = time.perf_counter() - start
        return seconds, out.getvalue(), traceback.format_exc(limit=-3).strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    problem = check(op, rc, out.getvalue())
    if problem and rc != 0:
        problem += ": " + err.getvalue().strip()[:160]
    return seconds, out.getvalue(), problem


def run_decks(cli, check, decks, seconds, max_decks=None, tracer=None, digest=None, reference=None):
    """Closed loop over whole decks until `seconds` pass (or `max_decks` ran);
    it starts no deck when less than half a deck's mean time is left.

    Returns (records, decks run, elapsed seconds); a record is
    (kind, seconds, problem, reference seconds).  `reference`, if given,
    times the reference kernel; it runs before the first op and after every
    op, and an op's reference seconds are the mean of the runs just before
    and just after it (None without `reference`).  The stdout of the first
    deck feeds `digest`.
    """
    records = []
    ran = 0
    start = time.perf_counter()
    before = reference() if reference else None
    while max_decks is None or ran < max_decks:
        for op in decks[ran % len(decks)]:
            if tracer is not None:
                tracer.op = len(records)
            seconds_op, stdout, problem = run_op(cli, op, check)
            around = None
            if reference:
                after = reference()
                around, before = (before + after) / 2, after
            records.append((op.kind, seconds_op, problem, around))
            if digest is not None and ran == 0:
                digest.update(stdout.encode())
        ran += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / ran / 2 >= seconds:
            break
    return records, ran, time.perf_counter() - start


def run_passes(cli, check, decks, seconds, passes, digest):
    """The timed loop: the first pass runs whole decks for 1/`passes` of
    `seconds`, and every later pass runs the same ops again in the same order,
    all with the reference kernel timed around every op.

    Returns (one record list per pass, decks per pass, elapsed seconds).
    """
    from reference import time_kernel

    time_kernel()  # the first call pays numpy's one-time costs
    start = time.perf_counter()
    first, ndecks, _ = run_decks(cli, check, decks, seconds / passes, digest=digest, reference=time_kernel)
    runs = [first]
    for _ in range(passes - 1):
        runs.append(run_decks(cli, check, decks, float("inf"), max_decks=ndecks, reference=time_kernel)[0])
    return runs, ndecks, time.perf_counter() - start


def scaled_latencies(passes):
    """Each op's time over the reference kernel's time around it, the median
    over the passes, times REFERENCE_MS: the op's time on a machine where the
    kernel takes REFERENCE_MS.  Also returns every kernel time."""
    from reference import REFERENCE_MS

    scaled = [statistics.median(r[1] / r[3] for r in runs) * REFERENCE_MS / 1e3 for runs in zip(*passes)]
    return scaled, [r[3] for run in passes for r in run]


def setup(workload, seed, workdir):
    """Import, input generation and warm-up ops, timed together."""
    start = time.perf_counter()
    cli = load_program()
    # Imported here so that numpy's import is inside the timed set-up.
    import workloads

    inputs = workloads.make_inputs(workload, seed, workdir)
    warm = [(op.kind, *run_op(cli, op, workloads.check)) for op in inputs.warmup]
    return time.perf_counter() - start, cli, workloads, inputs, warm


def child_setup_seconds(workload, seed):
    """Set-up time of a fresh process running the same set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def latency_summary(seconds, tail_pct):
    import numpy as np

    ms = np.array(seconds) * 1e3
    tail = float(np.percentile(ms, tail_pct))
    return float(np.median(ms)), tail, int((ms > tail).sum())


def per_kind(records, scaled):
    kinds = {}
    for (kind, *_), seconds in zip(records, scaled):
        kinds.setdefault(kind, []).append(seconds * 1e3)
    return {k: {"n": len(v), "median_ms": statistics.median(v)} for k, v in sorted(kinds.items())}


def environment():
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
    src_lines = sum(
        1
        for path in sorted((SRC / "thetalab").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "threads_pinned": 1,
        "src_lines": src_lines,
    }


def print_table(title, rows):
    """rows: (name, value, unit, samples)."""
    print(title)
    print(f"  {'metric':<36} {'value':>14} {'unit':<6} samples")
    for name, value, unit, samples in rows:
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {samples}")


def benchmark(workload, seed, seconds, trace):
    """Run one workload; returns (result line, full report)."""
    workdir = work_dir()
    try:
        setup_s, cli, workloads, inputs, warm = setup(workload, seed, workdir)
        setup_samples = [setup_s]
        if not trace:
            setup_samples += [child_setup_seconds(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
        gc.collect()

        digest = hashlib.sha256()
        check = workloads.check
        npasses = 1 if trace else WORKLOADS[workload][1]
        budget = seconds / 2 if trace else seconds
        passes, ndecks, elapsed = run_passes(cli, check, inputs.decks, budget, npasses, digest)
        records = [rec for run in passes for rec in run]
        scaled, refs = scaled_latencies(passes)
        traced = []
        if trace:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_decks(cli, check, inputs.decks, float("inf"), max_decks=ndecks, tracer=tracer)[0]
            finally:
                tracer.uninstall()
        probe = [run_op(cli, op, check)[2] for op in inputs.probe]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = records + traced
    failures = [(kind, problem) for kind, _, problem, _ in every if problem]
    warm_failures = [(kind, problem) for kind, _, _, problem in warm if problem]
    tail_pct = WORKLOADS[workload][0]
    p50, tail, beyond = latency_summary(scaled, tail_pct)
    throughput = len(scaled) / sum(scaled)
    wall_throughput = len(records) / elapsed
    reference_ms = statistics.median(refs) * 1e3
    from reference import REFERENCE_MS
    fail_frac = len(failures) / len(every)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_median = statistics.median(setup_samples)

    e2e = {
        "setup_s": (setup_median, len(setup_samples)),
        "throughput_ops_s": (throughput, len(scaled)),
        "latency_p50_ms": (p50, len(scaled)),
        "latency_tail_ms": (tail, len(scaled)),
        "peak_rss_mb": (rss_mb, 1),
    }
    title = f"thetalab benchmark: workload {workload}, seed {seed}, {ndecks} decks"
    print_table(
        title + (", untraced pass" if trace else f" x {len(passes)} passes"),
        [(k, v, END_TO_END_UNITS[k], n) for k, (v, n) in e2e.items()]
        + [("fail_frac", fail_frac, "ratio", len(every))],
    )
    print(f"  latency_tail_ms is p{tail_pct} ({beyond} samples beyond it)")
    print(
        f"  op times are medians over {len(passes)} pass(es), scaled to a reference kernel "
        f"time of {REFERENCE_MS:g} ms; the kernel took {reference_ms:.4g} ms (median), and the "
        f"unscaled wall-clock throughput was {wall_throughput:.4g} ops/s"
    )

    refused = [p for p in probe if p]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "decks": ndecks,
        "environment": environment(),
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n} for k, (v, n) in e2e.items()},
        "fail_frac": {"value": fail_frac, "unit": "ratio", "samples": len(every)},
        "latency_tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setup_samples,
        "stdout_sha256_first_deck": digest.hexdigest(),
        "passes": len(passes),
        "reference_ms_median": reference_ms,
        "wall_throughput_ops_s": wall_throughput,
        "per_kind": per_kind(passes[0], scaled),
        "latencies_ms": [[r[1] * 1e3 for r in run] for run in passes],
        "reference_ms": [[r[3] * 1e3 for r in run] for run in passes],
        "failures": failures[:20],
        "warmup_failures": warm_failures,
    }
    if probe:
        report["defect_probe"] = {"ops": len(probe), "failed": len(refused), "problems": refused}
        print(
            f"  ambiguous-band defect probe (untimed): {len(refused)} of {len(probe)} "
            "count ops on stiff or weakly coupled tau failed"
        )
    print(f"  stdout sha256 (first deck): {digest.hexdigest()}")
    env = report["environment"]
    print(
        f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"commit {env['commit'][:12]}, src_lines {env['src_lines']}"
    )

    if trace:
        nops = len(traced)
        layers = layer_metrics(tracer, nops)
        # Op time only: the untraced pass also timed the reference kernel.
        untraced_throughput = len(records) / sum(r[1] for r in records)
        traced_throughput = nops / sum(r[1] for r in traced)
        overhead = 100.0 * (untraced_throughput - traced_throughput) / untraced_throughput
        layers["trace.overhead_pct"] = (overhead, "%")
        print_table(f"per-layer metrics, traced pass of the same {ndecks} decks", [(k, v, u, nops) for k, (v, u) in layers.items()])
        report["per_layer"] = {k: {"value": v, "unit": u, "samples": nops} for k, (v, u) in layers.items()}
        report["traced_throughput_ops_s"] = traced_throughput
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}.jsonl")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, (v, _) in e2e.items()}

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2))
    result = {
        "correct": not failures and not warm_failures,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    try:
        if args.setup_only:
            workdir = work_dir()
            try:
                seconds = setup(args.workload, args.seed, workdir)[0]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup_s": seconds}))
            return 0
        result, _ = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
