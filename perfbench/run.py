"""pptlab benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; pptlab is imported from ``src/`` next to
this directory.  Set-up (import, input generation, parsing and
validation) is timed ``SETUP_REPEATS`` times before the first pass and
once after every pass, and its median reported.  Whole passes over the
workload's request list are timed until ``--seconds`` have gone by.
Times are reported at a reference machine speed (see ``SpeedProbe``).
With ``--trace 1`` untraced and traced passes alternate, and the run
reports the per-layer metrics (see METRICS.md) instead of the end-to-end
ones.

Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every request produced a correct output.
Spans of a traced run and a summary of every run go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MODULES = ("cache", "cli", "corpus", "delta", "ideals", "ladder", "parser", "pipeline", "ring", "verdict")
OUT_DIR = ROOT / ".perfbench"
# seconds the speed kernel takes on a 2.0 GHz Xeon VM core that no other
# tenant competes for; every reported time is scaled to it
REFERENCE_KERNEL_S = 0.001
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.5
PROBE_MIN_SAMPLES = 5


def _speed_kernel() -> int:
    """Fixed pure-Python work of the kinds pptlab does: a sparse product in
    int-keyed dicts, reduction mod a prime, JSON encoding and decoding."""
    a = {i * 7919: i % 13 + 1 for i in range(60)}
    b = {i * 104729: i % 11 + 1 for i in range(40)}
    out: dict[int, int] = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    out = {m: v for m, c in out.items() if (v := c % 13)}
    text = json.dumps({str(k): v for k, v in list(out.items())[:300]}, sort_keys=True)
    return len(json.loads(text))


class SpeedProbe:
    """The machine's speed through a run, sampled at even intervals of time.

    A shared VM's cores slow down by up to half for seconds to minutes when
    other tenants load the host, and CPU time slows with wall time.  While
    ``running``, a SIGALRM every ``PROBE_INTERVAL_S`` runs a fixed kernel
    wherever the program is, between two bytecodes, and records when it
    ran and how long it took.  ``factor(start, end)`` is the reference
    kernel time over the mean kernel time in and around that interval; a
    time measured there, multiplied by it, is the time at the reference
    speed, which is what the metrics report.  The kernels themselves add
    about 1% to every measured time, the same on every run.
    """

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not machine speed
        t0 = time.perf_counter()
        _speed_kernel()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(t0)
        self.samples.append(t1 - t0)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Speed factor over [start, end] widened by ``PROBE_WINDOW_S`` on each
        side, and to the ``PROBE_MIN_SAMPLES`` nearest samples if that holds
        fewer; over the whole run without an interval."""
        if not self.samples:  # a run shorter than one interval
            self._tick(None, None)
        lo, hi = 0, len(self.times)
        if start is not None:
            lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
            if hi - lo < PROBE_MIN_SAMPLES:
                mid = bisect.bisect_left(self.times, (start + end) / 2)
                lo = max(0, min(mid - PROBE_MIN_SAMPLES // 2, len(self.times) - PROBE_MIN_SAMPLES))
                hi = lo + PROBE_MIN_SAMPLES
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples[lo:hi])

    def scale(self, seconds: float, start: float) -> float:
        """A time measured from ``start``, at the reference speed."""
        return seconds * self.factor(start, start + seconds)


def at_reference_speed(metrics: dict, factor: float) -> dict:
    """Scale every time (s, ms) by ``factor`` and every rate (1/s) by its inverse."""
    scale = {"s": factor, "ms": factor, "1/s": 1.0 / factor}
    return {k: (v * scale.get(u, 1.0), u) for k, (v, u) in metrics.items()}


def _pptlab_modules() -> list[str]:
    return [m for m in sys.modules if m == "pptlab" or m.startswith("pptlab.")]


@contextlib.contextmanager
def own_pptlab():
    """Inside the block pptlab's entries in ``sys.modules`` are the
    benchmark's own; whatever was there before is put back afterwards."""
    saved = {m: sys.modules.pop(m) for m in _pptlab_modules()}
    try:
        yield
    finally:
        for m in _pptlab_modules():
            del sys.modules[m]
        sys.modules.update(saved)


def set_up(make, seed: int, src: Path, scratch: Path, keep: bool = False):
    """One timed set-up: a fresh import of pptlab from ``src`` plus the
    workload's inputs.  With ``keep`` the import stays in ``sys.modules``
    (the workload in use must resolve its own lazy imports there);
    otherwise the earlier entries are put back."""
    saved = {m: sys.modules.pop(m) for m in _pptlab_modules()}
    gc.collect()
    try:
        t0 = time.perf_counter()
        pkg = importlib.import_module("pptlab")
        if Path(pkg.__file__).resolve().parent != (src / "pptlab").resolve():
            raise ImportError(f"pptlab imported from {pkg.__file__}, not from {src}")
        pt = SimpleNamespace(**{m: importlib.import_module(f"pptlab.{m}") for m in MODULES})
        wl = make(pt, seed, scratch)
        return time.perf_counter() - t0, pt, wl
    finally:
        if not keep:
            for m in _pptlab_modules():
                del sys.modules[m]
            sys.modules.update(saved)


@dataclass
class Pass:
    """One pass, reduced to what the metrics and the failure count need."""

    wall: float
    starts: list[float]
    seconds: list[float]
    tags: list[str]
    hashes: list[str]
    problems: list[list[str]]
    spans: tuple[int, int] = (0, 0)


def run_passes(wl, seconds: float, tracer=None, between=None) -> list[Pass]:
    """Whole passes until ``seconds`` have gone by (at least one).  Each
    pass is checked as soon as it ends; ``between`` runs after each pass."""
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        gc.collect()  # every pass starts from the same heap, not the last one's garbage
        first = len(tracer) if tracer is not None else 0
        t0 = time.perf_counter()
        outcomes = wl.run_pass()
        wall = time.perf_counter() - t0
        spans = (first, len(tracer) if tracer is not None else 0)
        problems = wl.check(outcomes)
        hashes = [
            hashlib.sha256(workloads.canonical(o.output).encode()).hexdigest() for o in outcomes
        ]
        passes.append(Pass(wall, [o.start for o in outcomes], [o.seconds for o in outcomes],
                           [o.tag for o in outcomes], hashes, problems, spans))
        if between is not None:
            between()
    return passes


def tail_percentile(n: int) -> float:
    """Highest of 99.9, 99, 95, 90 with at least ten samples beyond it;
    100 (the maximum) when there are fewer than 100 samples."""
    for per_mille in (999, 990, 950, 900):
        if n * (1000 - per_mille) >= 10 * 1000:
            return per_mille / 10
    return 100.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def request_medians(passes: list[Pass], probe: SpeedProbe | None) -> list[float]:
    """Each request's median time over the passes, in request order, at
    the reference speed (as timed without a probe)."""
    def timed(ps: Pass) -> list[float]:
        if probe is None:
            return ps.seconds
        return [probe.scale(s, t) for s, t in zip(ps.seconds, ps.starts)]

    return [statistics.median(col) for col in zip(*map(timed, passes))]


def digest(passes: list[Pass]) -> str:
    """SHA-256 over the first pass's outputs (timings removed), in request order."""
    return hashlib.sha256("".join(passes[0].hashes).encode()).hexdigest()


def failures(passes: list[Pass], labels: list[str]) -> list[str]:
    """One message per failed request: a failed check, or an output that
    differs from the same request's output in the first pass."""
    reference = passes[0].hashes
    out = []
    for k, ps in enumerate(passes):
        for i, (h, problems) in enumerate(zip(ps.hashes, ps.problems)):
            if not problems and h != reference[i]:
                problems = ["output differs from pass 1"]
            if problems:
                out.append(f"pass {k + 1} request {i} [{labels[i]}]: {'; '.join(problems)}")
    return out


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]],
               probe: SpeedProbe | None) -> tuple[dict, str]:
    """The end-to-end metrics; ``setup`` holds (start, seconds) pairs."""
    times = request_medians(passes, probe)
    q = tail_percentile(len(times))
    wall = sum(times)
    setup_s = [probe.scale(s, t) if probe else s for t, s in setup]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (wall, "s"),
        "throughput_rps": (len(times) / wall, "1/s"),
        "req_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "req_p99_ms": (percentile(times, q) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    note = (
        f"{len(times)} requests per pass, each timed as its median over {len(passes)} passes"
        f" (median raw pass {statistics.median(ps.wall for ps in passes):.4f} s);"
        f" req_p99_ms is p{q:g} of them; setup_s is the median of {len(setup)} set-ups"
    )
    return metrics, note


def cache_latencies(passes: list[Pass], probe: SpeedProbe) -> dict:
    times = request_medians(passes, probe)
    out = {}
    for tag in ("hit", "miss"):
        tagged = [t for t, g in zip(times, passes[0].tags) if g == tag]
        out[f"cache.{tag}_p50_ms"] = (statistics.median(tagged) * 1e3 if tagged else 0.0, "ms")
    return out


def per_layer(tracer, traced: list[Pass], untraced: list[Pass],
              probe: SpeedProbe) -> tuple[dict, str]:
    """Per-layer metrics, each the mean over the traced passes.  Span times
    are scaled by the run's speed factor; the cache latencies and the
    tracing overhead come from per-request times at the reference speed."""
    n = len(traced)
    sums: dict[str, float] = {}
    top_ms = 0.0
    for ps in traced:
        s = tracer.summarize(*ps.spans)
        top_ms += s["top_ms"]
        for name, ms in s["incl_ms"].items():
            sums[f"{name}_ms"] = sums.get(f"{name}_ms", 0.0) + ms
        for name, calls in s["calls"].items():
            sums[f"{name}#"] = sums.get(f"{name}#", 0) + calls
        for layer, ms in s["self_ms"].items():
            sums[f"{layer}.self_ms"] = sums.get(f"{layer}.self_ms", 0.0) + ms

    def avg(key: str) -> float:
        return sums.get(key, 0.0) / n

    def count(key: str) -> float:
        return tracer.counts.get(key, 0) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    wall_ms = sum(ps.wall for ps in traced) * 1e3 / n
    untraced_wall = sum(request_medians(untraced, probe))
    traced_wall = sum(request_medians(traced, probe))
    m = {
        "ideals.insert_ms": (avg("ideals.insert_ms"), "ms"),
        "ideals.reduce_ms": (avg("ideals.reduce_ms"), "ms"),
        "ideals.inserts": (avg("ideals.insert#"), "count"),
        "ideals.rank_gained": (count("ideals.rank_gained"), "count"),
        "ideals.insert_useful_ratio": (ratio(count("ideals.rank_gained"), avg("ideals.insert#")), "ratio"),
        "ideals.ubucket_ms": (avg("ideals.ubucket_ms"), "ms"),
        "ideals.ubucket_calls": (avg("ideals.ubucket#"), "count"),
        "ideals.buckets": (count("ideals.buckets"), "count"),
        "ideals.self_ms": (avg("ideals.self_ms"), "ms"),
        "ladder.sequence_ms": (avg("ladder.sequence_ms"), "ms"),
        "ladder.self_ms": (avg("ladder.self_ms"), "ms"),
        "ladder.mul_terms_ms": (avg("ladder.mul_terms_ms"), "ms"),
        "ladder.mul_terms_calls": (avg("ladder.mul_terms#"), "count"),
    }
    for d in range(1, tracing.MAX_DEPTH_METRIC + 1):
        m[f"ladder.depth{d}_ms"] = (tracer.depth_ms[d] / n, "ms")
    m.update({
        "ring.mul_ms": (avg("ring.mul_ms"), "ms"),
        "ring.mul_calls": (avg("ring.mul#"), "count"),
        "ring.self_ms": (avg("ring.self_ms"), "ms"),
        "verdict.nu_ms": (avg("verdict.nu_ms"), "ms"),
        "verdict.nu_calls": (avg("verdict.nu#"), "count"),
        "verdict.criteria_ms": (avg("verdict.criteria_ms"), "ms"),
        "verdict.classify_ms": (avg("verdict.classify_ms"), "ms"),
        "verdict.self_ms": (avg("verdict.self_ms"), "ms"),
        "parser.parse_ms": (avg("parser.parse_ms"), "ms"),
        "parser.calls": (avg("parser.parse#"), "count"),
        "parser.self_ms": (avg("parser.self_ms"), "ms"),
        "delta.validate_ms": (avg("delta.validate_ms"), "ms"),
        "delta.validate_calls": (avg("delta.validate#"), "count"),
        "delta.power_ms": (avg("delta.power_ms"), "ms"),
        "delta.power_calls": (avg("delta.power#"), "count"),
        "delta.self_ms": (avg("delta.self_ms"), "ms"),
        "pipeline.analyze_ms": (avg("pipeline.analyze_ms"), "ms"),
        "pipeline.self_ms": (avg("pipeline.self_ms"), "ms"),
        "cli.main_ms": (avg("cli.main_ms"), "ms"),
        "cli.run_ms": (avg("cli.run_ms"), "ms"),
        "cli.build_record_ms": (avg("cli.build_record_ms"), "ms"),
        "cli.self_ms": (avg("cli.self_ms"), "ms"),
        "cache.get_ms": (avg("cache.get_ms"), "ms"),
        "cache.gets": (avg("cache.get#"), "count"),
        "cache.hit_ratio": (ratio(count("cache.hits"), avg("cache.get#")), "ratio"),
        "cache.bytes_read": (count("cache.bytes_read"), "bytes"),
        "cache.put_ms": (avg("cache.put_ms"), "ms"),
        "cache.puts": (avg("cache.put#"), "count"),
        "cache.self_ms": (avg("cache.self_ms"), "ms"),
    })
    untimed_ms = wall_ms - top_ms / n
    m.update({
        "trace.wall_s": (wall_ms / 1e3, "s"),
        "trace.untimed_ms": (untimed_ms, "ms"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.spans": (sum(b - a for a, b in (ps.spans for ps in traced)) / n, "count"),
    })
    m = at_reference_speed(m, probe.factor())
    m.update(cache_latencies(untraced, probe))
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    m = {k: m[k] for k in sorted(m, key=lambda k: k.startswith("trace."))}
    self_sum = sum(avg(f"{layer}.self_ms") for layer in tracing.LAYERS)
    note = (
        f"per traced pass: layer self times {self_sum:.3f} ms + untimed {untimed_ms:.3f} ms"
        f" = wall {wall_ms:.3f} ms over {n} traced passes; wall_s untraced"
        f" {untraced_wall:.4f} s vs traced {traced_wall:.4f} s"
    )
    return m, note


def run_all(args) -> int:
    """Every workload in turn, each in a child process so that peak RSS
    is per workload; exits nonzero if any of them failed."""
    code = 0
    for name in workloads.WORKLOADS:
        sys.stdout.flush()
        proc = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        code = code or proc.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="pptlab benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "pptlab" / "__init__.py").is_file():
        print(f"perfbench: no pptlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("PPTLAB_CACHE", None)  # cli-light runs cache-off whatever the caller set
    with own_pptlab():
        return _run(args, src)


def _run(args, src: Path) -> int:
    make = workloads.WORKLOADS[args.workload]
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    probe = SpeedProbe()
    tracer = traced = None
    with probe.running():
        # set-up is timed before the first pass and again after every pass,
        # so its samples spread over the whole run
        t0 = time.perf_counter()
        setup_s, pt, wl = set_up(make, args.seed, src, scratch, keep=True)
        setup = [(t0, setup_s)]

        def another_setup():
            t0 = time.perf_counter()
            setup.append((t0, set_up(make, args.seed, src, scratch)[0]))

        for _ in range(SETUP_REPEATS - 1):
            another_setup()

        if args.trace:
            # untraced and traced passes alternate, so the tracing overhead is
            # measured against a neighbour in time
            tracer = tracing.Tracer()
            untraced, traced = [], []
            t_end = time.perf_counter() + args.seconds
            while not traced or time.perf_counter() < t_end:
                untraced += run_passes(wl, 0)
                undo = tracing.install(tracer, pt)
                try:
                    traced += run_passes(wl, 0, tracer)
                finally:
                    tracing.uninstall(undo)
            passes = untraced + traced
        else:
            passes = run_passes(wl, args.seconds, between=another_setup)
    if scratch.exists():
        scratch.rmdir()
    factor = probe.factor()
    if args.trace:
        metrics, note = per_layer(tracer, traced, untraced, probe)
        raw = at_reference_speed(metrics, 1.0 / factor)
    else:
        metrics, note = end_to_end(passes, setup, probe)
        raw = end_to_end(passes, setup, None)[0]

    labels = wl.labels()
    failed = failures(passes, labels)
    attempted = sum(len(ps.seconds) for ps in passes)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT_DIR / "spans", label, [ps.spans for ps in traced])
    summary = dict(result, workload=args.workload, seed=args.seed, passes=len(passes),
                   digest=digest(passes), note=note, failures=failed[:50], speed_factor=factor,
                   kernel_samples=list(zip(probe.times, probe.samples)),
                   as_timed={k: v for k, (v, _) in raw.items()})
    (OUT_DIR / f"{label}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"requests/pass {len(passes[0].seconds)}")
    print(f"fail_frac {len(failed) / attempted:.6f} ({len(failed)} of {attempted})  "
          f"output digest {summary['digest']}")
    for line in failed[:10]:
        print(f"FAIL {line}")
    print(note)
    print(f"speed factor over the run {factor:.4f}: mean kernel"
          f" {statistics.fmean(probe.samples) * 1e3:.4f} ms over {len(probe.samples)} samples,"
          f" reference {REFERENCE_KERNEL_S * 1e3:g} ms")
    print(f"  {'metric':28s} {'at reference':>14s} {'as timed':>14s} unit")
    for k, (v, u) in metrics.items():
        print(f"  {k:28s} {v:14.6f} {raw[k][0]:14.6f} {u}")
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
