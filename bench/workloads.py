"""The four workloads: how each builds its ops from a seed, runs one, and checks it.

A workload's `prepare` returns the ops of one run in order; the runner
cycles through them.  `execute` performs one op and returns its raw result;
only `execute` is timed.  `check` compares the result with the exact
reference and returns "ok", "refused" (the program declined to certify:
exit 4 or a confidence exception) or "wrong" (error exit, unexpected
exception, or an output that disagrees with its reference).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import gen
from reference import counted_defects, expected, jacobi_determinant, sweep_grid

REFUSALS = ("RankUndecidable", "MethodDisagreement", "TruncationInsufficient", "ResidualTooLarge")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    kind: str
    payload: dict = field(default_factory=dict)


class Mismatch(Exception):
    """An output disagrees with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _refused(error: BaseException | None) -> bool:
    return error is not None and type(error).__name__ in REFUSALS


def run_process(args: list[str], env: dict, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run a child to completion: (exit code, wall seconds, peak RSS in KiB).

    The parent blocks in wait4, so the wall time carries no polling delay;
    a timer kills a child that runs longer than two minutes.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(args, env=env, stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


# -- library objects from documents -------------------------------------------


def to_pair(doc: dict):
    """Build the library's SymbolPair for a document (exact exponents kept)."""
    from th_fredholm import symbol_core as sc

    def symbol(node):
        jumps = tuple(
            sc.JumpFactor(
                sc.UnitPoint(j["theta_num"], j["theta_den"]),
                sc.Exponent(Fraction(j["beta"][0]), float(j["beta"][1])),
            )
            for j in node.get("jumps", [])
        )
        log = {t["k"]: complex(t["re"], t["im"]) for t in node.get("log_smooth", [])}
        return sc.CanonicalSymbol(
            kappa=node["kappa"], scale=complex(*node["scale"]), log_smooth=log, jumps=jumps
        )

    return sc.validate_pair(symbol(doc["a"]), symbol(doc["b"]))


# -- cli_cold -----------------------------------------------------------------

CLI_COMMANDS = ("check", "index", "defects", "special", "factor", "curve", "sweep")
CLI_SWEEP = ("--p-from", "6/5", "--p-to", "3", "--steps", "25")


class CliCold:
    """One fresh `python -m th_fredholm.cli CMD DOC` process per op."""

    name = "cli_cold"
    in_process = False
    probe = "process"  # the speed probe that scales op times (pace.py)
    round = 1

    def __init__(self, env: dict, tmp: str, tracer=None):
        self.env, self.tmp, self.tracer = env, tmp, tracer
        self.peak_rss_kb = 0

    def prepare(self, rng: random.Random) -> list[Op]:
        ops = []
        offset = rng.randrange(len(CLI_COMMANDS))
        for i, (kind, doc, row) in enumerate(gen.cli_documents(rng, 5 * len(CLI_COMMANDS))):
            path = os.path.join(self.tmp, f"doc{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.to_json(doc))
            cmd = CLI_COMMANDS[(i + offset) % len(CLI_COMMANDS)]
            ops.append(Op(kind, {"cmd": cmd, "path": path, "doc": doc, "row": row}))
        return ops

    def argv(self, op: Op) -> list[str]:
        extra = list(CLI_SWEEP) if op.payload["cmd"] == "sweep" else []
        return [op.payload["cmd"], op.payload["path"]] + extra

    def execute(self, op: Op):
        out_path = os.path.join(self.tmp, "stdout.txt")
        counters = os.path.join(self.tmp, "counters.json")
        if self.tracer is None:
            args = [sys.executable, "-m", "th_fredholm.cli"] + self.argv(op)
        else:
            args = [sys.executable, os.path.join(BENCH_DIR, "child.py"), counters] + self.argv(op)
        with open(out_path, "w", encoding="utf-8") as out:
            code, _, rss_kb = run_process(args, self.env, stdout=out)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if self.tracer is not None and os.path.exists(counters):
            with open(counters, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
            os.remove(counters)
        with open(out_path, encoding="utf-8") as fh:
            return code, fh.read()

    def check(self, op: Op, result, error) -> str:
        code, text = result
        if code == 4:
            return "refused"
        cmd, doc, row = op.payload["cmd"], op.payload["doc"], op.payload["row"]
        if cmd == "sweep":
            expect(code == 0, f"sweep exit {code}")
            grid = sweep_grid(Fraction(6, 5), Fraction(3), 25)
            _check_rows(json.loads(text)["rows"], grid, [expected(doc, p) for p in grid])
            return "ok"
        ref = expected(doc, gen.doc_p(doc))
        if cmd == "curve":
            if ref.c_verdict == "pass":
                expect(code == 0, f"curve exit {code}")
                expect(text.startswith(f"# winding={ref.n}\n"), "curve winding")
            else:
                expect(code == 1, f"curve through the origin exits {code}")
            return "ok"
        if cmd == "special":
            return _check_special(op.kind, code, text, ref, row)
        if cmd == "check" or ref.verdict != "pass":
            expect(code == ref.code, f"{cmd} exit {code}, verdict {ref.verdict}")
            expect(json.loads(text)["overall"] == ref.verdict, f"{cmd} verdict")
            return "ok"
        expect(code == 0, f"{cmd} exit {code}")
        out = json.loads(text)
        if cmd == "factor":
            sides = out["plusFactors"]
            expect((sides["c"]["n"], sides["d"]["n"]) == (ref.n, ref.m), "factor windings")
            return "ok"
        expect((out["n"], out["m"], out["index"]) == (ref.n, ref.m, ref.m - ref.n), f"{cmd} windings")
        if cmd == "defects":
            _check_defects(out["dimKer"], out["dimCoker"], ref)
            if row is not None:
                expect((out["dimKer"], out["dimCoker"]) == (row[3], row[4]), "family defect numbers")
        return "ok"


def _check_defects(dim_ker: int, dim_coker: int, ref) -> None:
    expect(dim_ker - dim_coker == ref.m - ref.n, "dimKer - dimCoker != m - n")
    counted = counted_defects(ref.n, ref.m)
    if counted is not None:
        expect((dim_ker, dim_coker) == counted, "counted defect numbers")
    else:
        expect(0 <= dim_ker <= ref.m and 0 <= dim_coker <= ref.n, "defect numbers out of range")


def _check_special(kind: str, code: int, text: str, ref, row) -> str:
    if row is not None:  # one of the four single-symbol families
        tag, fredholm, want, dim_ker, dim_coker = row
        if not fredholm:
            expect(code == 1, f"special exit {code} on a non-Fredholm family pair")
            return "ok"
        expect(code == 0, f"special exit {code}")
        out = json.loads(text)
        expect(out["family"] == tag, f"family {out['family']} != {tag}")
        expect((out["kappa"], out["dimKer"], out["dimCoker"]) == (want, dim_ker, dim_coker), "family table")
        expect(ref.verdict == "pass" and ref.n - ref.m == want, "family table against the windings")
        return "ok"
    if kind == "hankel":
        if ref.verdict != "pass":
            expect(code == ref.code, f"special exit {code}, verdict {ref.verdict}")
            return "ok"
        expect(code == 0, f"special exit {code}")
        out = json.loads(text)
        expect(out["family"] == "IdPlusHankel", "identity-plus-Hankel family")
        expect((out["n"], out["m"], out["index"]) == (ref.n, ref.m, ref.m - ref.n), "special windings")
        _check_defects(out["dimKer"], out["dimCoker"], ref)
        return "ok"
    expect(code == 0, f"special exit {code}")
    expect(json.loads(text)["family"] == "General", "general pair classified as a family")
    return "ok"


def _check_rows(rows: list, grid: list, refs: list) -> None:
    expect(len(rows) == len(grid), "sweep row count")
    for row, p, ref in zip(rows, grid, refs):
        expect(row["p"] == float(p) and row["overall"] == ref.verdict, f"sweep verdict at p={p}")
        if ref.verdict == "pass":
            got = (row["n"], row["m"], row["index"])
            expect(got == (ref.n, ref.m, ref.m - ref.n), f"sweep windings at p={p}")


# -- defects_fmatrix ----------------------------------------------------------


class DefectsFMatrix:
    """One in-process `defect_numbers(pair, p)` call on an F-matrix instance per op."""

    name = "defects_fmatrix"
    in_process = True
    probe = "kernel"
    # a round is one Latin-square quarter of the Jacobi grid plus four seeded
    # random pairs.  The Jacobi cases split 4:5:7 into fast (~0.04 s), middle
    # (~0.25 s) and slow (0.5-0.7 s) cases; the slow ones run rho to its
    # 2^16 cap and set the tail.  The random pairs are fast, so a round
    # sorts into 8 fast, 5 middle and 7 slow ops, and the median sits inside
    # the middle group rather than at its edge.
    round = 20
    RANDOM_PAIRS = 4

    def __init__(self, env: dict, tmp: str, tracer=None):
        self.tracer = tracer

    def prepare(self, rng: random.Random) -> list[Op]:
        ops = []
        for cases in gen.jacobi_rounds(rng):
            block = []
            for alpha, beta, kappa in cases:
                doc = gen.jacobi_doc(alpha, beta, kappa)
                block.append(Op("jacobi", {"doc": doc, "pair": to_pair(doc), "jacobi": (alpha, beta, kappa)}))
            for _ in range(self.RANDOM_PAIRS):
                doc = gen.fmatrix_doc(rng)
                block.insert(rng.randrange(len(block) + 1), Op("random", {"doc": doc, "pair": to_pair(doc)}))
            ops += block
        for op in ops:
            op.payload["p"] = gen.doc_p(op.payload["doc"])
            op.payload["ref"] = expected(op.payload["doc"], op.payload["p"])
        return ops

    def execute(self, op: Op):
        from th_fredholm import defect_solver

        return defect_solver.defect_numbers(op.payload["pair"], op.payload["p"])

    def check(self, op: Op, report, error) -> str:
        if _refused(error):
            return "refused"
        expect(error is None, f"defect_numbers raised {error!r}")
        ref = op.payload["ref"]
        expect(ref.verdict == "pass" and ref.defects is None, "instance is not an F-matrix case")
        expect((report.n, report.m, report.case_tag) == (ref.n, ref.m, "F-matrix"), "windings or case")
        _check_defects(report.dim_ker, report.dim_coker, ref)
        if op.kind == "jacobi":
            alpha, beta, kappa = op.payload["jacobi"]
            closed = jacobi_determinant(float(alpha), float(beta), kappa)
            rel = abs(np.linalg.det(report.matrix.matrix) - closed) / abs(closed)
            if self.tracer is not None:
                self.tracer.extreme("defect_solver.det_rel_gap_max", float(rel))
            expect((report.n, report.m) == (kappa, kappa), "Jacobi windings")
            expect(rel <= 1e-6, f"Jacobi determinant relative gap {rel:.2e}")
        return "ok"


# -- exact_sweep --------------------------------------------------------------


class ExactSweep:
    """One in-process `cli.main(["sweep", ...])` call with output to a file per op."""

    name = "exact_sweep"
    in_process = True
    probe = "kernel"
    round = 12  # the four-jump example and eleven seeded pairs

    def __init__(self, env: dict, tmp: str, tracer=None):
        self.tmp, self.tracer = tmp, tracer

    def prepare(self, rng: random.Random) -> list[Op]:
        ops = []
        grid = sweep_grid(gen.SWEEP_FROM, gen.SWEEP_TO, gen.SWEEP_STEPS)
        for i in range(self.round):
            doc = gen.four_jump_doc(None) if i == 0 else gen.sweep_doc(rng)
            path = os.path.join(self.tmp, f"sweep{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.to_json(doc))
            refs = [expected(doc, p) for p in grid]
            ops.append(Op("four-jump" if i == 0 else "seeded", {"doc": doc, "path": path, "refs": refs}))
        rng.shuffle(ops)
        return ops

    def argv(self, op: Op) -> list[str]:
        return [
            "sweep", op.payload["path"],
            "--p-from", gen.p_text(gen.SWEEP_FROM),
            "--p-to", gen.p_text(gen.SWEEP_TO),
            "--steps", str(gen.SWEEP_STEPS),
            "--out", os.path.join(self.tmp, "sweep-out.json"),
        ]

    def execute(self, op: Op):
        from th_fredholm import cli

        argv = self.argv(op)
        if self.tracer is None:
            return cli.main(argv)
        code = self.tracer.call("cli.main", cli.main, argv)
        self.tracer.counts[f"cli.exit.{code}"] += 1
        return code

    def check(self, op: Op, code, error) -> str:
        expect(error is None, f"cli.main raised {error!r}")
        if code == 4:
            return "refused"
        expect(code == 0, f"sweep exit {code}")
        with open(os.path.join(self.tmp, "sweep-out.json"), encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        grid = sweep_grid(gen.SWEEP_FROM, gen.SWEEP_TO, gen.SWEEP_STEPS)
        _check_rows(rows, grid, op.payload["refs"])
        return "ok"


# -- verify_oracle ------------------------------------------------------------


class VerifyOracle:
    """The oracle pass of `verify`, through the library, on one golden-shape instance per op."""

    name = "verify_oracle"
    in_process = True
    probe = "kernel"
    # a round is two passes over the twenty instances, each in its own order.
    # Per pass, two jump instances are slow (~0.7 s), two are middling
    # (~0.4 s) and the rest are fast.  A run of two rounds has 80 ops, and
    # op_tail_s, its eleventh-slowest op, is then among the middling jumps;
    # with rounds of one pass, a run's round count, and with it the group
    # the tail falls in, changed from run to run.
    round = 40

    def __init__(self, env: dict, tmp: str, tracer=None):
        self.tracer = tracer

    def prepare(self, rng: random.Random) -> list[Op]:
        docs = gen.golden_docs(rng)
        ops = []
        for _ in range(self.round // len(docs)):
            jumps = [d for d in docs if d[0].startswith("jump")]
            others = [d for d in docs if not d[0].startswith("jump")]
            rng.shuffle(jumps)
            rng.shuffle(others)
            # one jump instance in every five, so any prefix keeps the mix
            for i, (name, doc) in enumerate(others):
                if i % 4 == 0:
                    j_name, j_doc = jumps[i // 4]
                    ops.append(self._op(j_name, j_doc))
                ops.append(self._op(name, doc))
        return ops

    @staticmethod
    def _op(name: str, doc: dict) -> Op:
        p = gen.doc_p(doc)
        return Op(name, {"doc": doc, "pair": to_pair(doc), "p": p, "ref": expected(doc, p)})

    def execute(self, op: Op):
        from th_fredholm import defect_solver, verification_oracle as vo

        pair, p = op.payload["pair"], op.payload["p"]
        report = defect_solver.defect_numbers(pair, p)
        vo.fourier_coeffs(pair.a, 64, tol=1e-6)
        vo.fourier_coeffs(pair.b, 64, tol=1e-6)
        basis = vo.kernel_residual_check(pair, p, report, N=256, tol=1e-6)
        return report, basis

    def check(self, op: Op, result, error) -> str:
        if _refused(error):
            return "refused"
        expect(error is None, f"oracle pass raised {error!r}")
        report, basis = result
        ref = op.payload["ref"]
        expect(ref.verdict == "pass", "golden instance fails the gate")
        expect((report.n, report.m) == (ref.n, ref.m) and report.n <= 0, "windings")
        _check_defects(report.dim_ker, report.dim_coker, ref)
        expect(len(basis.vectors) == report.dim_ker == basis.gram_rank, "kernel count != dim_ker")
        if basis.residuals.size:
            expect(float(basis.residuals.max()) < 1e-6, "kernel residual")
        return "ok"


WORKLOADS = {w.name: w for w in (CliCold, DefectsFMatrix, ExactSweep, VerifyOracle)}


def outcome(workload, op: Op, result, error) -> tuple[str, str]:
    """("ok" | "refused" | "wrong", reason)."""
    try:
        return workload.check(op, result, error), ""
    except Mismatch as exc:
        return "wrong", str(exc)
    except (KeyError, TypeError, ValueError) as exc:  # output not in the documented shape
        return "wrong", f"{type(exc).__name__}: {exc}"
