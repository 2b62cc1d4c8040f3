"""Benchmark for th_fredholm: four workloads, end-to-end metrics and a per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory holding `src/th_fredholm`);
the package is imported from `src` and is not installed.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  Earlier lines give provenance, the percentile used
for `op_tail_s` and its sample count, and the failure reasons.

Workloads (closed loop, one client; see BENCHMARK.json for why each exists):
  cli_cold         one fresh `python -m th_fredholm.cli CMD DOC` process per op
  defects_fmatrix  one `defect_numbers(pair, p)` call on an F-matrix case per op
  exact_sweep      one `cli.main(["sweep", ...])` call over an exact p-grid per op
  verify_oracle    the oracle pass of `verify` on one golden-shape instance per op

With --trace 0 a run reports the end-to-end metrics.  With --trace 1 it
first runs the ops untraced for half the time, then replays the same ops
with every layer wrapped (see spans.py), and reports the per-layer metrics,
the traced and untraced op medians, and the tracing overhead.

Op and set-up times are wall times scaled to a fixed reference speed of the
machine by a probe timed between ops (pace.py), because the shared hosts
this runs on change speed within seconds.  A run's length is counted in
that reference time too.  The `# detail` line also gives the unscaled wall
figures.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
# One BLAS thread, so that the only extra threads are the ones th_fredholm
# starts itself (sweep's pool); set before numpy is first imported.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(ONE_BLAS_THREAD)

from pace import Pace  # noqa: E402
from spans import Tracer, unit  # noqa: E402
from workloads import WORKLOADS, outcome, run_process  # noqa: E402

MIN_SAMPLES = 11  # op_tail_s needs ten samples beyond its percentile
SETUP_REPEATS = 5
WARMUP_OPS = 5  # in-process workloads only; cli_cold's warm-up is the setup's CLI start


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(root: str) -> dict:
    """Environment of every th_fredholm process the benchmark starts.

    The package comes from src/.  `sweep` gets its default pool size and
    BLAS one thread.  The bytecode cache is written next to the sources, so
    the warm-up process fills it and later processes start warm.
    """
    env = dict(os.environ)
    for name in ("TH_FREDHOLM_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    env.update(ONE_BLAS_THREAD)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def setup_seconds(env: dict, pace: Pace) -> tuple[list[float], list[float]]:
    """Wall and scaled times of fresh `import th_fredholm` processes, after one warm-up.

    The warm-up is a full CLI start (`--version` imports every module), so
    the timed imports find the bytecode cache filled.  Each time is scaled
    to the reference speed by the probes taken around it.
    """
    run_process([sys.executable, "-m", "th_fredholm.cli", "--version"], env)
    pace.probe()
    out = []
    for _ in range(SETUP_REPEATS):
        k = pace.probe()
        code, elapsed, _ = run_process([sys.executable, "-c", "import th_fredholm"], env)
        if code != 0:
            raise RuntimeError(f"importing th_fredholm exits {code}")
        out.append((elapsed, k))
    pace.probe()
    return [elapsed for elapsed, _ in out], [elapsed * pace.factor(k) for elapsed, k in out]


def import_profile(env: dict) -> dict[str, float]:
    """Cumulative import times (s) of the CLI and of scipy.signal, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import th_fredholm.cli"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    total = signal = 0.0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(1)) / 1e6, len(m.group(2)), m.group(3)
        if depth == 1 and name.startswith("th_fredholm"):
            total += cumulative
        if name == "scipy.signal":
            signal = cumulative
    return {"cli.import_s": total, "cli.import.scipy_signal_s": signal}


def src_lines(root: str) -> int:
    """`wc -l` over the Python sources under src/."""
    total = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def commit(root: str) -> str | None:
    """HEAD of a git checkout, read from .git without running git; None elsewhere."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def provenance(root: str, args) -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "commit": commit(root),
        "loadavg_start": os.getloadavg()[0],
        "src.lines": src_lines(root),
    }


class Tally:
    """Op times and outcomes of one measured phase."""

    def __init__(self):
        self.raw: list[float] = []  # wall seconds
        self.times: list[float] = []  # seconds at the reference speed (pace.py)
        self.outcomes = {"ok": 0, "refused": 0, "wrong": 0}
        self.reasons: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.outcomes["refused"] + self.outcomes["wrong"]


def measure(workload, ops: list, seconds: float, pace: Pace, limit: int | None = None, tracer=None) -> Tally:
    """Run ops in order, cycling, for `seconds` of op time and at least MIN_SAMPLES ops.

    Op time is counted at the reference speed, so a run holds about the same
    ops however fast the machine is at the moment.  The phase ends only
    after a whole round of the workload's ops, so every run measures the
    same mix.  With `limit` it runs exactly that many ops instead.  Only the
    op itself is timed; the speed probe runs before it and its reference
    check after the clock stops.
    """
    tally = Tally()
    probes = []
    spent = 0.0
    i = 0
    while True:
        if limit is not None:
            if i >= limit:
                break
        elif i % workload.round == 0 and i >= MIN_SAMPLES and spent >= seconds:
            break
        op = ops[i % len(ops)]
        result = error = None
        probes.append(pace.probe())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result = workload.execute(op)
            except Exception as exc:  # judged by the workload's check
                error = exc
            tally.raw.append(time.perf_counter() - t0)
        spent += tally.raw[-1] * pace.factor(probes[-1])  # later probes refine this below
        if tracer is not None:
            tracer.count_warnings(caught)
        kind, reason = outcome(workload, op, result, error)
        tally.outcomes[kind] += 1
        if reason:
            key = f"{op.kind}: {reason}"
            tally.reasons[key] = tally.reasons.get(key, 0) + 1
        i += 1
    pace.probe()  # the last op's right-hand neighbour
    tally.times = [t * pace.factor(k) for t, k in zip(tally.raw, probes)]
    return tally


def warm_up(workload, ops: list) -> None:
    """Run the first WARMUP_OPS ops untimed and unchecked: lazy imports and caches fill here."""
    for op in ops[:WARMUP_OPS]:
        try:
            workload.execute(op)
        except Exception:  # counted when the op runs measured
            pass


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with ten samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - 11)  # ordered[k] has n - 1 - k >= 10 samples above it when n >= 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb(workload) -> float:
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return workload.peak_rss_kb / 1024.0


def run(args, root: str, tmp: str) -> dict:
    env = child_env(root)
    os.environ.pop("TH_FREDHOLM_THREADS", None)
    prov = provenance(root, args)
    print("# provenance " + json.dumps(prov, sort_keys=True), flush=True)
    setup_wall, setup = setup_seconds(env, Pace("process", env))
    imports = import_profile(env) if args.trace else {}

    cls = WORKLOADS[args.workload]
    if cls.in_process:
        sys.path.insert(0, env["PYTHONPATH"])
        import th_fredholm  # noqa: F401  (imported before any op, as a user would)
    workload = cls(env, tmp)
    pace = Pace(cls.probe, env)
    ops = workload.prepare(random.Random(args.seed))
    if workload.in_process:
        warm_up(workload, ops)

    if not args.trace:
        tally = measure(workload, ops, args.seconds, pace)
    else:
        plain = measure(workload, ops, args.seconds / 2, pace)
        tracer = Tracer()
        if workload.in_process:  # cli_cold's children install their own (child.py)
            tracer.install()
        workload.tracer = tracer
        try:
            tally = measure(workload, ops, 0, pace, limit=plain.attempted, tracer=tracer)
        finally:
            tracer.uninstall()

    detail = {"setup_samples_s": setup, "wall_setup_samples_s": setup_wall, "probe_median_s": pace.median()}
    if not args.trace:
        value, pct, beyond = tail(tally.times)
        metrics = {
            "op_p50_s": metric(statistics.median(tally.times), "s"),
            "op_tail_s": metric(value, "s"),
            "ops_per_s": metric(tally.attempted / sum(tally.times), "1/s"),
            "ok_share": metric((tally.attempted - tally.failed) / tally.attempted, "share"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb(workload), "MB"),
        }
        detail.update(
            op_tail_percentile=pct,
            op_tail_beyond=beyond,
            samples=tally.attempted,
            wall_op_p50_s=statistics.median(tally.raw),
            wall_ops_per_s=tally.attempted / sum(tally.raw),
        )
        checked = [tally]
    else:
        traced_p50, plain_p50 = statistics.median(tally.times), statistics.median(plain.times)
        figures = tracer.metrics()
        figures.update(imports)
        figures["src.lines"] = prov["src.lines"]
        figures["trace.op_p50_s"] = traced_p50
        figures["trace.untraced_op_p50_s"] = plain_p50
        figures["trace.overhead_share"] = traced_p50 / plain_p50 - 1.0
        metrics = {name: metric(v, unit(name)) for name, v in sorted(figures.items())}
        detail.update(samples=tally.attempted, untraced_outcomes=plain.outcomes)
        checked = [plain, tally]

    detail.update(outcomes=tally.outcomes, reasons={k: v for t in checked for k, v in t.reasons.items()})
    print("# detail " + json.dumps(detail, sort_keys=True), flush=True)
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": all(t.outcomes["wrong"] == 0 for t in checked),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "th_fredholm", "cli.py")):
        print("error: run from the root of a th_fredholm checkout (no src/th_fredholm/cli.py here)", file=sys.stderr)
        return 2
    base = os.path.join(root, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        result = run(args, root, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
