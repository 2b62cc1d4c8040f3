"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the root of a checkout; takes about three minutes.  It checks

- the speed scaling of pace.py on made-up probe times;
- the exact references: criterion 1's four-jump table and failure points,
  the family tables against the general windings, and agreement with the
  library's own conditions and normalization on generated documents;
- that a deliberately wrong reference is counted as a failed op, on every
  workload;
- that a traced and an untraced pass over the same ops report the same op
  counts and outcomes, and that the traced layer counts match them;
- a short `run.py` run of every workload with --trace 0 and --trace 1,
  whose metric names and units must be exactly those in BENCHMARK.json;
- that `run.py` exits non-zero, printing no result, in a directory holding
  only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from pace import Pace  # noqa: E402
from run import child_env, measure  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = os.getcwd()
# the layer whose call count equals the op count, per workload
PRIMARY = {
    "cli_cold": "cli.main",
    "defects_fmatrix": "defect_solver.defect_numbers",
    "exact_sweep": "cli.main",
    "verify_oracle": "verification_oracle.kernel_residual_check",
}


def check_references() -> None:
    for p, want in gen.FOUR_JUMP_TABLE.items():
        ref = reference.expected(gen.four_jump_doc(p), p)
        assert ref.verdict == "pass" and ref.n == want, (p, ref)
    for p in gen.FOUR_JUMP_FAILURES:
        assert reference.expected(gen.four_jump_doc(p), p).verdict == "fail", p
    grid = reference.sweep_grid(gen.SWEEP_FROM, gen.SWEEP_TO, gen.SWEEP_STEPS)
    assert set(gen.FOUR_JUMP_FAILURES) <= set(grid)
    for kind, doc, row in gen.cli_documents(random.Random(3), 60):
        if row is not None:  # a single-symbol family: its table against the windings
            ref = reference.expected(doc, gen.doc_p(doc))
            assert row[1] == (ref.verdict == "pass"), (kind, doc)
            assert not row[1] or ref.n - ref.m == row[2], (kind, doc)

    from th_fredholm.fredholm_engine import fredholm_conditions, normalize

    rng = random.Random(11)
    docs = [doc for _, doc, _ in gen.cli_documents(rng, 40)]
    docs += [gen.fmatrix_doc(rng) for _ in range(5)]
    docs += [doc for _, doc in gen.golden_docs(rng)]
    for doc in docs:
        p = gen.doc_p(doc)
        pair = workloads.to_pair(doc)
        ref = reference.expected(doc, p)
        assert fredholm_conditions(pair, p).overall == ref.verdict, doc
        if ref.n is not None:
            assert normalize(pair.c, p, side="c").n == ref.n, doc
        if ref.m is not None:
            assert normalize(pair.d, p, side="d").n == ref.m, doc
    print(f"references: criterion 1 table and {len(docs)} documents agree with the library")


def check_pace() -> None:
    """Probes at the reference time leave op times as measured; probes twice as slow halve them."""
    pace = Pace()
    pace.samples = [pace.reference_s] * 4 + [2 * pace.reference_s] * 8
    assert pace.factor(1) == 1.0 and pace.factor(8) == 0.5, pace.samples
    print("pace: scaling follows the probes around each op")


def corrupted(ref: reference.Expected) -> reference.Expected:
    """A wrong answer: the verdict flipped, and the windings moved."""
    if ref.verdict == "pass":
        return replace(ref, verdict="fail", n=None, m=None)
    return replace(ref, verdict="pass", c_verdict="pass", n=10**6, m=10**6)


def check_wrong_reference(name: str, env: dict, tmp: str) -> None:
    original = workloads.expected
    workloads.expected = lambda doc, p: corrupted(original(doc, p))
    try:
        workload = workloads.WORKLOADS[name](env, tmp)
        ops = workload.prepare(random.Random(5))
        # a General pair's `special` output does not depend on the reference
        ops = [op for op in ops if op.payload.get("cmd") != "special"][:3]
        tally = measure(workload, ops, 0, Pace(workload.probe, env), limit=len(ops))
    finally:
        workloads.expected = original
    assert tally.outcomes["wrong"] == len(ops), (name, tally.outcomes, tally.reasons)
    print(f"{name}: {len(ops)} ops against a wrong reference, all counted as failed")


def check_traced_counts(name: str, env: dict, tmp: str) -> None:
    workload = workloads.WORKLOADS[name](env, tmp)
    ops = workload.prepare(random.Random(6))[: 3 if name == "cli_cold" else 6]
    pace = Pace(workload.probe, env)
    plain = measure(workload, ops, 0, pace, limit=len(ops))
    tracer = Tracer()
    tracer.install()
    workload.tracer = tracer
    try:
        traced = measure(workload, ops, 0, pace, limit=len(ops), tracer=tracer)
    finally:
        tracer.uninstall()
    assert plain.attempted == traced.attempted == len(ops), name
    assert plain.outcomes == traced.outcomes, (name, plain.outcomes, traced.outcomes)
    assert plain.outcomes["ok"] == len(ops), (name, plain.outcomes, plain.reasons)
    assert tracer.calls[PRIMARY[name]] == len(ops), (name, dict(tracer.calls))
    print(f"{name}: traced and untraced passes agree on {len(ops)} ops")


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_short_runs(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, want in (("0", end_to_end), ("1", per_layer)):
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "3", "--seconds", "1", "--trace", trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, (w["name"], proc.stdout)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            print(f"{w['name']} --trace {trace}: {result['attempted']} ops, metrics as declared")


def check_bare_directory() -> None:
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "exact_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    warnings.simplefilter("ignore")
    env = child_env(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_references()
    check_pace()
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=base)
    try:
        for name in workloads.WORKLOADS:
            check_wrong_reference(name, env, tmp)
            check_traced_counts(name, env, tmp)
    finally:
        shutil.rmtree(tmp)
    check_short_runs(spec)
    check_bare_directory()
    try:
        os.rmdir(base)
    except OSError:
        pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
