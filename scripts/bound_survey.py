"""Survey, page faults and benchmark pairs for the a-priori error bound of rho, and the rank rule it certifies.

Run from the root of a checkout; ranks writes BENCH_rank_rule.json there,
survey and faults write their sections of BENCH_rho_bound.json, replacing
any earlier run's, and pairs adds its section, pairs:W:S, to the record
file --out names (pairs:W:S:trace with --trace 1, which runs bench/run.py
with its per-layer trace), refusing before it runs if that file already
holds one:

    python3 scripts/bound_survey.py survey
    python3 scripts/bound_survey.py faults [--src DIR]
    python3 scripts/bound_survey.py pairs --parent DIR --workload W --seed S --out FILE [--pairs 10] [--trace 1]
    python3 scripts/bound_survey.py verify --parent DIR --out FILE [--pairs 10]
    python3 scripts/bound_survey.py ranks

survey compares RhoSeries.tail_bound with the fine-minus-coarse estimate the
code used before (a 16-node rule with a 1e-10 rad sliver beside the production
one), with the tanh-sinh oracle and, on a subset, with the mpmath reference
of tests/test_wiener_hopf.py.  faults counts minor page faults per
rho_coefficients call with resource.getrusage, and the peak memory of
compiling the numeric modules; --src points it at another checkout's
src, whose rho_coefficients takes (rep_c, rep_d, b, keep) as this one's
does.  pairs runs bench/run.py alternately in the parent checkout
and in this one, each with a fresh bytecode cache.  verify times
cli.main(["verify", doc]) in process over the 150 documents of
scripts/census.py, as the least of 3 passes, in one child process per
checkout, alternately in the parent and in this one, each with a fresh
bytecode cache, and adds the section verify:census to --out.  ranks applies
defect_solver.rank_decision, and the rule it replaced (a cut at 1e-8 sigma_max
with a refusal only when rho's bound could move a singular value across the
cut), to the F-matrix defect matrices of criterion 4's Jacobi grid,
bench/gen.fmatrix_doc documents, the ROADMAP's random F-matrix survey and
criterion 6's draws, and prints the certification margins and every
difference between the two rules.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_rho_bound.json"
# ranks reads this many bench/gen.fmatrix_doc documents, and fmatrix_survey at this many tries per setting
RANK_FMATRIX_DOCS = 30
RANK_SURVEY_TRIES = 30


def load(section: str, out: Path, replace: bool) -> dict:
    """The record in out, refused when it already holds section and replace is false."""
    doc = json.loads(out.read_text()) if out.exists() else {}
    if section in doc and not replace:
        sys.exit(f"{out} already holds the section {section!r}; name a new record file")
    return doc


def save(section: str, data, out: Path = OUT, replace: bool = False) -> None:
    doc = load(section, out, replace)
    doc[section] = data
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def fmatrix_survey(tries: int):
    """(pair, p) for the random F-matrix pairs of the ROADMAP survey, `tries` draws per setting.

    kappa_c = 2 N1, kappa_b = -(N1 + N2), N1, N2 in 1..6, p in {2, 3/2, 3},
    numpy seed 7; draws that fail the gate or leave the F-matrix case are
    skipped.
    """
    import numpy as np
    from helpers import pair_from_c_and_b, random_generic_b, random_structural_c
    from th_fredholm.fredholm_engine import BoundaryCase, NotFredholm, normalized_pair
    from th_fredholm.symbol_core import CanonicalSymbol

    rng = np.random.default_rng(7)
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            for p in (Fraction(2), Fraction(3, 2), Fraction(3)):
                for _ in range(tries):
                    c = random_structural_c(rng)
                    b = random_generic_b(rng)
                    c = CanonicalSymbol(kappa=2 * n1, scale=c.scale, log_smooth=c.log_smooth, jumps=c.jumps)
                    b = CanonicalSymbol(kappa=-(n1 + n2), scale=b.scale, log_smooth=b.log_smooth, jumps=b.jumps)
                    pair = pair_from_c_and_b(c, b)
                    try:
                        rep_c, rep_d = normalized_pair(pair, p)
                    except (NotFredholm, BoundaryCase):
                        continue
                    if rep_c.n > 0 and rep_d.n > 0:
                        yield pair, p


def jacobi_pairs():
    """(pair, p) on criterion 4's grid: a = 1, b = 1/phi, with n = m = kappa at p = 2."""
    from helpers import jacobi_symbol
    from th_fredholm.symbol_core import CanonicalSymbol, invert, validate_pair

    exponents = (Fraction(-2, 5), Fraction(0), Fraction(3, 10), Fraction(7, 10))
    for kappa in (1, 2, 3, 4):
        for alpha in exponents:
            for beta in exponents:
                yield validate_pair(CanonicalSymbol.one(), invert(jacobi_symbol(alpha, beta, kappa))), 2


def survey_cases():
    """(group, pair, p) on criterion 4's Jacobi grid, the seeded pairs of the tests and random F-matrix pairs.

    The F-matrix pairs follow the ROADMAP survey: kappa_c = 2 N1, kappa_b = -(N1 + N2),
    N1, N2 in 1..6, p in {2, 3/2, 3}, numpy seed 7; two tries per setting.
    """
    from test_wiener_hopf import seeded_pairs, steep_pair

    for pair, p in jacobi_pairs():
        yield "jacobi", pair, p
    pair, p, _ = steep_pair()
    yield "steep", pair, p
    for pair, p, _ in seeded_pairs():
        yield "seeded", pair, p
    for pair, p in fmatrix_survey(2):
        yield "fmatrix", pair, p


def old_estimate(rho) -> float:
    """max |rho - a 16-node rule with a 1e-10 rad sliver at every site|: the estimate before the bound."""
    import numpy as np
    from th_fredholm import wiener_hopf as wh

    ks, parts = rho.ks, rho.parts
    freq = max(-ks.start, ks.stop - 1) + abs(parts.power) + parts.top
    index, offsets, weights = wh._rho_rule(parts, freq, 16, [1e-10] * len(parts.turns))
    xs = 2 * np.pi * np.array([float(t) for t in parts.turns])[index] + offsets
    coarse = wh._fourier_integrals(xs, weights, wh._rho_values(parts, index, offsets), ks)
    return float(np.max(np.abs(rho.coeffs - coarse)))


def cmd_survey(args) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    from helpers import rho_for_pair
    from test_wiener_hopf import mp_rho_coefficients
    from th_fredholm import wiener_hopf as wh
    from th_fredholm.quadrature import UNIT
    from th_fredholm.verification_oracle import rho_de

    rows, mp_count = [], {"jacobi": 0, "steep": 0, "seeded": 0, "fmatrix": 0}
    mp_quota = {"jacobi": 16, "steep": 1, "seeded": 5, "fmatrix": 10}
    seen: dict[str, int] = {}
    for group, pair, p in survey_cases():
        rep_c, rep_d, rho = rho_for_pair(pair, p, 16)
        if group == "fmatrix" and rep_c.n + rep_d.n > 16:
            rho = wh.rho_coefficients(rep_c, rep_d, pair.b, rep_c.n + rep_d.n)
        parts = rho.parts
        K = max(-rho.ks.start, rho.ks.stop - 1)
        freq = K + abs(parts.power) + parts.top
        nodes, bits = wh.RHO_RULE
        radii, slivers = wh._slivers(parts, K, bits)
        index, offsets, weights = wh._rho_rule(parts, freq, nodes, slivers)
        summands = weights * wh._rho_values(parts, index, offsets)
        mass = float(np.sum(np.abs(summands))) / (2 * math.pi)
        de = rho_de(parts, K)
        row = {
            "group": group,
            "sites": len(parts.turns),
            "nodes": rho.inner_N,
            "bound": rho.tail_bound,
            "quadrature": wh._quadrature_term(parts, K, freq, nodes, slivers),
            "sliver": wh._sliver_term(parts, K, radii, slivers),
            "rounding": wh._rounding_term(parts, rho.ks, slivers, index.size, summands),
            "l1": mass,
            "old_estimate": old_estimate(rho),
            "oracle_gap": max(abs(rho.get(k) - de.get(k)) for k in range(-K, K + 1)),
        }
        row["rounding_ulps_per_l1"] = row["rounding"] / mass / UNIT
        # mpmath on a subset, about 1 s per pair: a Latin-square quarter of the Jacobi grid, the steep
        # pair, every eighth seeded pair and the first ten F-matrix pairs, at k = 16
        i = seen[group] = seen.get(group, -1) + 1
        take = {
            "jacobi": i % 4 == (i // 4 % 4 + i // 16 + 1) % 4,  # beta index = (alpha index + kappa) mod 4
            "steep": True,
            "seeded": i % 8 == 0,
            "fmatrix": True,
        }[group]
        if take and mp_count[group] < mp_quota[group]:
            mp_count[group] += 1
            row["mpmath_gap_k16"] = abs(rho.get(16) - mp_rho_coefficients(rep_c, rep_d, pair.b, (16,))[16])
        rows.append(row)
        print(group, f"bound {row['bound']:.2e} old {row['old_estimate']:.2e}", file=sys.stderr)

    summary = {}
    for group in ("jacobi", "steep", "seeded", "fmatrix"):
        part = [r for r in rows if r["group"] == group]
        gaps = [r["mpmath_gap_k16"] for r in part if "mpmath_gap_k16" in r]
        summary[group] = {
            "cases": len(part),
            "bound_max": max(r["bound"] for r in part),
            "bound_median": statistics.median(r["bound"] for r in part),
            "old_estimate_max": max(r["old_estimate"] for r in part),
            "bound_over_old_estimate_median": statistics.median(r["bound"] / r["old_estimate"] for r in part),
            "quadrature_max": max(r["quadrature"] for r in part),
            "sliver_max": max(r["sliver"] for r in part),
            "rounding_ulps_per_l1_max": max(r["rounding_ulps_per_l1"] for r in part),
            "rounding_ulps_per_l1_min": min(r["rounding_ulps_per_l1"] for r in part),
            "l1_max": max(r["l1"] for r in part),
            "oracle_gap_max": max((r["oracle_gap"] for r in part), key=lambda gap: math.inf if gap != gap else gap),
            "mpmath_cases": len(gaps),
            "mpmath_gap_max": max(gaps, default=None),
            "bound_over_mpmath_gap_min": min((r["bound"] / r["mpmath_gap_k16"] for r in part if "mpmath_gap_k16" in r), default=None),
        }
    save("survey", {"summary": summary, "rows": rows}, replace=True)


def cmd_faults(args) -> None:
    src = Path(args.src).resolve() if args.src else ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    from helpers import golden_kernel_instances, jacobi_symbol
    from th_fredholm.defect_solver import defect_numbers
    from th_fredholm.symbol_core import CanonicalSymbol, invert, validate_pair
    from th_fredholm.wiener_hopf import rho_coefficients

    jacobi = validate_pair(CanonicalSymbol.one(), invert(jacobi_symbol(Fraction(-2, 5), Fraction(7, 10), 3)))
    name, golden, p = next(i for i in golden_kernel_instances() if defect_numbers(i[1], i[2]).m > 0)
    calls = {}
    for label, pair, p, keep in (
        ("defects: Jacobi (-2/5, 7/10, 3), 1 - m <= k <= n + m - 2", jacobi, 2, None),
        (f"verify kernel check: golden {name}, section 256", golden, p, 256),
    ):
        report = defect_numbers(pair, p)
        n, m = report.n, report.m
        ks = range(1 - m, n + m - 1) if keep is None else range(n - m + 1, keep + n + m - 1)
        args_ = (report.rep_c, report.rep_d, pair.b, ks)
        for _ in range(10):
            rho_coefficients(*args_)
        before, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        for _ in range(100):
            rho_coefficients(*args_)
        elapsed = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        calls[label] = {"minor_faults_per_call": faults / 100, "ms_per_call": elapsed * 10}
    # the benchmark's processes compile the numeric modules themselves, so their peak RSS holds this;
    # tracemalloc, as a child's ru_maxrss starts from its parent's
    probe = (
        "import sys, tracemalloc; text = open(sys.argv[1]).read(); tracemalloc.start(); "
        "compile(text, sys.argv[1], 'exec'); print(tracemalloc.get_traced_memory()[1] // 1024)"
    )
    compile_kb = {
        module: int(subprocess.run([sys.executable, "-c", probe, str(src / "th_fredholm" / f"{module}.py")],
                                   capture_output=True, text=True, check=True).stdout)
        for module in ("wiener_hopf", "verification_oracle", "quadrature")
        if (src / "th_fredholm" / f"{module}.py").exists()
    }
    save(f"faults:{src.parent.name if args.src else 'change'}",
         {"src": str(src) if args.src else "this checkout", "calls": calls, "compile_peak_kb": compile_kb},
         replace=True)


def clear_bytecode(root: Path) -> None:
    for cache in root.rglob("__pycache__"):
        shutil.rmtree(cache)


def run_bench(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    clear_bytecode(root)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "11",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def alternate(parent: Path, pairs: int, run) -> list[dict]:
    """pairs runs of run(i, side, root) in the parent checkout and in this one, alternating which goes first."""
    runs = []
    for i in range(pairs):
        order = [("parent", parent), ("change", ROOT)]
        if i % 2:
            order.reverse()
        pair = {"first": order[0][0]}
        for side, root in order:
            pair[side] = run(i, side, root)
        runs.append(pair)
    return runs


def cmd_pairs(args) -> None:
    parent, out = Path(args.parent).resolve(), Path(args.out)
    section = f"pairs:{args.workload}:{args.seed}" + (":trace" if args.trace else "")
    load(section, out, replace=False)  # refuse before the runs, which take minutes

    def run(i: int, side: str, root: Path) -> dict:
        metrics = run_bench(root, args.workload, args.seed, args.trace)
        print(args.workload, args.seed, i, side, metrics.get("op_p50_s", metrics.get("trace.untraced_op_p50_s")),
              file=sys.stderr)
        return metrics

    runs = alternate(parent, args.pairs, run)
    summary = {}
    for metric in runs[0]["parent"]:
        parent_runs = [r["parent"][metric] for r in runs]
        change_runs = [r["change"][metric] for r in runs]
        better = {"ops_per_s": 1, "ok_share": 1}.get(metric, -1)
        q = statistics.quantiles(parent_runs, n=4) if len(parent_runs) > 1 else [parent_runs[0]] * 3
        summary[metric] = {
            "parent_median": statistics.median(parent_runs),
            "change_median": statistics.median(change_runs),
            "parent_iqr": q[2] - q[0],
            "change_wins": sum(better * (c - p) > 0 for p, c in zip(parent_runs, change_runs)),
            "pairs": len(runs),
        }
    save(section, {"summary": summary, "runs": runs}, out)


# run in the root of a checkout, with this checkout's scripts directory as argv[1]: the least of 3
# in-process passes of verify over the census documents, in seconds
VERIFY_CHILD = """
import contextlib, io, json, sys, tempfile, time, warnings
from pathlib import Path
sys.path[:0] = ["src", "bench", sys.argv[1]]
import census, gen
from th_fredholm import cli
docs, fmatrix = census.documents(gen)
with tempfile.TemporaryDirectory() as tmp:
    paths = [Path(tmp) / f"doc{i}.json" for i in range(len(docs + fmatrix))]
    for path, doc in zip(paths, docs + fmatrix):
        path.write_text(gen.to_json(doc))
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        for path in paths:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    cli.main(["verify", str(path)])
        passes.append(time.perf_counter() - start)
print(json.dumps(min(passes)))
"""


def cmd_verify(args) -> None:
    parent, out, section = Path(args.parent).resolve(), Path(args.out), "verify:census"
    load(section, out, replace=False)  # refuse before the runs
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}

    def run(i: int, side: str, root: Path) -> float:
        clear_bytecode(root)
        seconds = json.loads(subprocess.run(
            [sys.executable, "-c", VERIFY_CHILD, str(ROOT / "scripts")],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        ).stdout)
        print("verify", i, side, f"{seconds:.3f} s", file=sys.stderr)
        return seconds

    runs = alternate(parent, args.pairs, run)
    parent_runs, change_runs = [r["parent"] for r in runs], [r["change"] for r in runs]
    q = statistics.quantiles(parent_runs, n=4) if len(runs) > 1 else [parent_runs[0]] * 3
    summary = {
        "parent_median_s": statistics.median(parent_runs),
        "change_median_s": statistics.median(change_runs),
        "parent_iqr_s": q[2] - q[0],
        "change_wins": sum(c < p for p, c in zip(parent_runs, change_runs)),
        "pairs": len(runs),
        "median_change_share": statistics.median(c / p for p, c in zip(parent_runs, change_runs)),
    }
    print(json.dumps(summary), file=sys.stderr)
    save(section, {"summary": summary, "runs": runs}, out)


def parent_rank(dm, sv) -> int | None:
    """The rank of dm by the rule rank_decision replaced, from its singular
    values sv, or None where that rule refused.

    It counted the singular values above 1e-8 sigma_max and refused only when
    2 eps sqrt(nm) reached the distance from the cut to the nearest one.
    """
    import numpy as np

    cut = 1e-8 * sv[0]
    moved = 2.0 * dm.rho.tail_bound * math.sqrt(dm.n * dm.m)
    if not moved < max(float(np.abs(sv - cut).min()), 1e-300):
        return None
    return int(np.sum(sv > cut))


def rank_cases():
    """(group, pair, p) for every F-matrix case the rank survey reads."""
    import random

    import numpy as np
    import gen
    from helpers import random_fredholm_pair
    from th_fredholm.cli import Job
    from th_fredholm.fredholm_engine import normalized_pair
    from th_fredholm.symbol_core import tilde, validate_pair

    for pair, p in jacobi_pairs():
        yield "jacobi", pair, p
    rng = random.Random(2026)
    for _ in range(RANK_FMATRIX_DOCS):
        job = Job(json.loads(gen.to_json(gen.fmatrix_doc(rng))))
        yield "fmatrix_doc", job.pair, job.p
    for pair, p in fmatrix_survey(RANK_SURVEY_TRIES):
        yield "survey", pair, p
    # criterion 6's 100 Fredholm draws, and the dual pair (a~, b) at q of its first 10
    rng = np.random.default_rng(2026)
    ps = (Fraction(2), Fraction(3, 2), Fraction(3))
    for i in range(100):
        p = ps[i % 3]
        pair = random_fredholm_pair(rng, p)
        draws = [(pair, p)] + [(validate_pair(tilde(pair.a), pair.b), p / (p - 1))] * (i < 10)
        for pair, p in draws:
            rep_c, rep_d = normalized_pair(pair, p)
            if rep_c.n > 0 and rep_d.n > 0:
                yield "criterion6", pair, p


def cmd_ranks(args) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    import numpy as np
    from th_fredholm import defect_solver
    from th_fredholm.defect_solver import RankUndecidable, defect_numbers

    # record the matrix defect_numbers hands to rank_decision, so both rules read the one it decides on
    seen = []
    decide = defect_solver.rank_decision

    def recording(dm):
        seen.append(dm)
        return decide(dm)

    defect_solver.rank_decision = recording
    groups: dict[str, dict] = {}
    for group, pair, p in rank_cases():
        seen.clear()
        try:
            report = defect_numbers(pair, p)
            sigma_min, delta, refused = report.sigma_min, report.perturbation_bound, False
        except RankUndecidable as e:
            sigma_min, delta, refused = e.sigma_min, e.perturbation_bound, True
        (dm,) = seen
        sv = np.linalg.svd(dm.matrix, compute_uv=False)
        old = parent_rank(dm, sv)
        g = groups.setdefault(group, {"cases": 0, "refusals": 0, "parent_refusals": 0,
                                      "count_differences": 0, "exit_code_differences": 0,
                                      "margin_min": math.inf, "sv_ratio_min": math.inf, "tail_bound_max": 0.0})
        g["cases"] += 1
        g["refusals"] += refused
        g["parent_refusals"] += old is None
        g["exit_code_differences"] += refused != (old is None)
        g["count_differences"] += not refused and old is not None and old != min(dm.n, dm.m)
        g["margin_min"] = min(g["margin_min"], sigma_min / delta)
        g["sv_ratio_min"] = min(g["sv_ratio_min"], float(sv[-1] / sv[0]))
        g["tail_bound_max"] = max(g["tail_bound_max"], dm.rho.tail_bound)
    defect_solver.rank_decision = decide
    for group, g in groups.items():
        print(f"{group}: {g['cases']} cases, smallest sigma_min/delta {g['margin_min']:.2e}, "
              f"smallest sigma_min/sigma_max {g['sv_ratio_min']:.2e}, {g['refusals']} refusals, "
              f"{g['count_differences']} count and {g['exit_code_differences']} exit-code differences "
              f"against the parent rule")
    save("ranks", {"fmatrix_docs": RANK_FMATRIX_DOCS, "survey_tries_per_setting": RANK_SURVEY_TRIES,
                   "groups": groups}, ROOT / "BENCH_rank_rule.json", replace=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("survey")
    faults = sub.add_parser("faults")
    faults.add_argument("--src", default=None)
    pairs = sub.add_parser("pairs")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--workload", required=True)
    pairs.add_argument("--seed", type=int, required=True)
    pairs.add_argument("--out", required=True)
    pairs.add_argument("--pairs", type=int, default=10)
    pairs.add_argument("--trace", type=int, choices=(0, 1), default=0)
    verify = sub.add_parser("verify")
    verify.add_argument("--parent", required=True)
    verify.add_argument("--out", required=True)
    verify.add_argument("--pairs", type=int, default=10)
    sub.add_parser("ranks")
    args = parser.parse_args()
    commands = {"survey": cmd_survey, "faults": cmd_faults, "pairs": cmd_pairs, "verify": cmd_verify, "ranks": cmd_ranks}
    commands[args.command](args)


if __name__ == "__main__":
    main()
