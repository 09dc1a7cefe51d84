"""Benchmark for barlab: three workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload classify-population --seed 1 --seconds 20 --trace 0

Workloads: classify-population, eps-sweep, cli-session (see workloads.py).
With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it wraps barlab's public functions in spans and
reports per-layer metrics instead.  Every run prints a readable report,
writes it with provenance to ``.perfbench_out/`` and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` of the checkout; without it the run exits with 2.

Times are reported at a reference CPU speed (see speed.py); the unscaled
wall times are in the report.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import replace  # noqa: E402

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# Workloads and the reference kernel (speed.py) whose work is most like their ops.
WORKLOADS = {"classify-population": "python", "eps-sweep": "numpy", "cli-session": "python"}
SETUP_SAMPLES = 5
CHILD_BLOCK = 10
P90_MIN_OPS = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the smoke test only")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for set-up samples)")
    return ap.parse_args(argv)


def _setup(args, workdir, meter):
    """Import barlab from the checkout, build the seeded inputs and warm up.

    Returns the workload and the set-up time since the script started, at
    the reference speed.
    """
    sys.path.insert(0, SRC)
    import barlab
    if os.path.dirname(os.path.abspath(barlab.__file__)) != os.path.join(SRC, "barlab"):
        raise SystemExit(f"barlab was imported from {barlab.__file__}, not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    wl.warm_up()
    raw = time.perf_counter() - _T0
    meter.block()
    return wl, raw * meter.factor(0)


class Loop:
    """Result of one measured loop; ``norm_*`` are at the reference speed."""

    def __init__(self):
        self.latencies: list[float] = []
        self.norm_latencies: list[float] = []
        self.norm_ends: list[float] = []  # cumulative normalised work after each op
        self.speeds: list[float] = []
        self.work = 0.0
        self.norm_work = 0.0
        self.failed = 0
        self.wrong = 0
        self.kinds: Counter = Counter()
        self.first: dict[int, object] = {}  # outcome of each input's first op
        self.wall = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def inputs(self) -> int:
        return len(self.first)

    @property
    def failed_inputs(self) -> int:
        return sum(out.failed for out in self.first.values())


def _cpu_s() -> float:
    """User plus system CPU time of this process and of its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _measure(wl, seconds: float, meter, rec=None) -> Loop:
    """Run ops for at least ``seconds`` and every input at least once, stopping after whole cycles.

    Every later op on an input must repeat the outcome of its first op,
    so the inputs that fail depend on the seed alone, not on how many ops
    fit in the run; an op that does not repeat it makes the run incorrect.
    Each op (call plus check) is rescaled by the kernel samples from the
    block before it to the block after it; the time the timer handler
    took during the op is left out.  An op that is a child process is
    timed by CPU time, with the timer paused while the child runs.
    """
    loop = Loop()
    items, cycle = wl.items, wl.cycle
    root = rec.span("bench.op") if rec is not None else None
    clock = time.perf_counter
    start = clock()
    children = getattr(wl, "inproc", True) is False  # cli-session, untraced
    block = CHILD_BLOCK if children else 3
    mark = meter.block(block)
    n = 0
    while n < len(items) or n % cycle or clock() - start < seconds:
        i = n % len(items)
        item = items[i]
        h0 = meter.handler_s
        t0 = clock()
        c0 = _cpu_s() if children else 0.0
        try:
            if children:
                meter.pause()
                try:
                    res = wl.call(item)
                finally:
                    meter.resume()
            elif root is None:
                res = wl.call(item)
            else:
                rec.op = n
                with root:
                    res = wl.call(item)
        except Exception as exc:  # counted as a failed op by check()
            res = exc
        t1 = clock()
        c1 = _cpu_s() if children else 0.0
        h1 = meter.handler_s
        out = wl.check(item, res)
        t2 = clock()
        h2 = meter.handler_s
        next_mark = meter.block(block)
        factor = meter.factor(mark)
        mark = next_mark
        lat = c1 - c0 if children else t1 - t0 - (h1 - h0)
        work = lat + t2 - t1 - (h2 - h1)
        loop.latencies.append(lat)
        loop.norm_latencies.append(lat * factor)
        loop.work += work
        loop.norm_work += work * factor
        loop.norm_ends.append(loop.norm_work)
        loop.speeds.append(factor)
        if i not in loop.first:
            loop.first[i] = out
        elif out != loop.first[i]:
            out = replace(out, wrong=True, kind=f"unrepeated-{out.kind}")
        loop.failed += out.failed
        loop.wrong += out.wrong
        loop.kinds[out.kind] += 1
        n += 1
    loop.wall = clock() - start
    return loop


def _child_seconds(cmd) -> tuple[float, str]:
    """Run a child to completion; returns its wall time and its stdout."""
    t = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return time.perf_counter() - t, proc.stdout


def _setup_samples(args, first: float) -> list[float]:
    """Set-up times: this process's plus fresh child processes doing the same set-up."""
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        _, out = _child_seconds(cmd)
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


def _cli_start_ms(repeats: int = 5) -> tuple[float, float]:
    """Median wall time of ``python -c pass`` and the extra time of ``import barlab.cli``, in ms."""
    interp = [_child_seconds([sys.executable, "-c", "pass"])[0] for _ in range(repeats)]
    imp = [_child_seconds([sys.executable, "-c", "import barlab.cli"])[0] for _ in range(repeats)]
    base = statistics.median(interp)
    return base * 1e3, (statistics.median(imp) - base) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "barlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _provenance(args, wl) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "sizes": wl.sizes,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "machine": platform.machine(), "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _peak_rss_mb(workload: str) -> float:
    # ru_maxrss is in KiB on Linux.  The CLI workload's work happens in
    # its children, so its figure is the largest child's.
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _loop_report(loop: Loop) -> dict:
    lat_ms = [x * 1e3 for x in loop.norm_latencies]
    rep = {
        "inputs": loop.inputs, "failed_inputs": loop.failed_inputs,
        "error_share": loop.failed_inputs / loop.inputs,
        "ops": loop.ops, "wall_s": loop.wall, "failed_ops": loop.failed, "wrong_ops": loop.wrong,
        "outcomes": dict(loop.kinds),
        "op_p50_ms": statistics.median(lat_ms), "latency_samples": len(lat_ms),
        "raw_ops_per_s": loop.ops / loop.work,
        "raw_op_p50_ms": statistics.median(loop.latencies) * 1e3,
        "speed_factor_quartiles": statistics.quantiles(loop.speeds, n=4) if loop.ops > 1 else loop.speeds,
    }
    if loop.ops >= P90_MIN_OPS:
        rep["op_p90_ms"] = statistics.quantiles(lat_ms, n=10)[-1]
    return rep


def _run_untraced(args, wl, setup_first: float, meter) -> tuple[Loop, dict, dict]:
    loop = _measure(wl, args.seconds, meter)
    meter.stop()  # set-up children time themselves; keep the sampler off their CPU
    rss = _peak_rss_mb(args.workload)
    samples = _setup_samples(args, setup_first)
    metrics = {
        "ops_per_s": (loop.ops / loop.norm_work, "1/ref_s"),
        "op_p50_ms": (statistics.median(loop.norm_latencies) * 1e3, "ref_ms"),
        "ok_share": (1.0 - loop.failed_inputs / loop.inputs, "share"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(samples), "s"),
    }
    return loop, metrics, {"setup_samples_s": samples}


def _run_traced(args, wl, workdir: str, meter) -> tuple[Loop, dict, dict]:
    import spans
    import workloads

    if hasattr(wl, "inproc"):
        wl.inproc = True
    calib = _measure(wl, args.seconds / 4.0, meter)
    rec = spans.SpanRecorder()
    inst = spans.Instrumentation(rec)
    inst.install()
    try:
        loop = _measure(wl, args.seconds, meter, rec)
        rec.op = -1
        with rec.span("bench.probe"):
            workloads.probe(workdir)
    finally:
        inst.restore()
    traced_first = loop.norm_ends[min(calib.ops, loop.ops) - 1]
    overhead = traced_first / calib.norm_work - 1.0

    # Span times are wall times; rescale them by the loop's median factor.
    factor = statistics.median(loop.speeds)
    metrics = {k: (v * factor, "ref_" + u) if u in ("s/op", "us", "ns") else (v, u)
               for k, (v, u) in spans.layer_metrics(rec, loop.ops).items()}
    meter.stop()  # keep the timer handler out of the children and the profiles
    interp_ms, import_ms = _cli_start_ms()
    metrics["cli.interp_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["trace.overhead_share"] = (overhead, "share")

    import barlab
    lu = barlab.preset_datum("loading-unloading", barlab.DEFAULT_MATERIAL)
    grid = barlab.refined_time_grid(lu, 400)
    profiles = {
        "run_eps(loading-unloading, eps=0.05, 400 steps, 64 cells)": spans.profile_top(
            lambda: barlab.run_eps(barlab.DEFAULT_MATERIAL, 0.05, 64, lu, grid)),
        "cns_classify(loading-unloading, 400 steps)": spans.profile_top(
            lambda: barlab.cns_classify(lu, barlab.DEFAULT_MATERIAL, steps=400)),
    }
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
    written = rec.write(spans_path)
    extra = {
        "calibration": {"ops": calib.ops, "untraced_work_s": calib.norm_work,
                        "traced_work_s": traced_first},
        "spans": {"total": rec.total, "written": written, "file": os.path.relpath(spans_path, ROOT)},
        "span_summary": rec.summary(), "counters": rec.counters, "cprofile_top10": profiles,
    }
    return loop, metrics, extra


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "barlab", "__init__.py")):
        print(f"error: no barlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    if args.workload == "cli-session":
        # Ops are child processes: keep them on the CPU the sampler measures.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meter = speed.SpeedMeter(WORKLOADS[args.workload])
    meter.start()
    try:
        meter.block()
        wl, setup_s = _setup(args, workdir, meter)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            loop, metrics, extra = _run_traced(args, wl, workdir, meter)
        else:
            loop, metrics, extra = _run_untraced(args, wl, setup_s, meter)
        provenance = _provenance(args, wl)
    finally:
        meter.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"provenance": provenance, "loop": _loop_report(loop),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **extra}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    _print_report(report, path)
    print(json.dumps({"correct": loop.wrong == 0, "attempted": loop.inputs, "failed": loop.failed_inputs,
                      "metrics": report["metrics"]}))
    return 0


def _print_report(report: dict, path: str) -> None:
    prov, lp = report["provenance"], report["loop"]
    print(f"perfbench {prov['workload']} seed={prov['seed']} trace={prov['trace']} "
          f"commit={prov['git_commit'][:12]} python={prov['python']} numpy={prov['numpy']} "
          f"nproc={prov['nproc']} cpu={prov['cpu_model']!r}")
    print(f"  sizes: {json.dumps(prov['sizes'])}")
    print(f"  inputs={lp['inputs']} failed_inputs={lp['failed_inputs']} "
          f"error_share={lp['error_share']:.6g}")
    print(f"  ops={lp['ops']} wall={lp['wall_s']:.3f} s failed_ops={lp['failed_ops']} "
          f"outcomes={json.dumps(lp['outcomes'])}")
    p90 = (f"op_p90_ms={lp['op_p90_ms']:.6g}" if "op_p90_ms" in lp
           else f"op_p90_ms not reported (fewer than {P90_MIN_OPS} ops)")
    print(f"  op_p50_ms={lp['op_p50_ms']:.6g} {p90} latency samples={lp['latency_samples']}")
    print(f"  unscaled: ops_per_s={lp['raw_ops_per_s']:.6g} op_p50_ms={lp['raw_op_p50_ms']:.6g}; "
          f"speed factor quartiles {', '.join(f'{q:.3f}' for q in lp['speed_factor_quartiles'])}")
    if "setup_samples_s" in report:
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in report['setup_samples_s'])}")
    for name, m in report["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    for title, rows in report.get("cprofile_top10", {}).items():
        print(f"  cProfile top-10 by internal time: {title}")
        for row in rows:
            print(f"    {row}")
    print(f"  report: {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
