"""Exit codes, document schemas, and determinism of the command line."""

import cmath
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from th_fredholm import __version__, cli, defect_solver, fredholm_engine, quadrature, verification_oracle, wiener_hopf
from th_fredholm.cli import main
from th_fredholm.fredholm_engine import BoundaryCase
from th_fredholm.symbol_core import CanonicalSymbol, eval_many

import helpers
from helpers import family_lows, pair_from_c_and_b, random_generic_b, random_structural_c

EX_CURVE_SYMBOL = {
    "jumps": [
        {"theta_num": 0, "theta_den": 1, "beta": [-0.25, 0.0]},
        {"theta_num": 1, "theta_den": 2, "beta": [1.0, 0.0]},
        {"theta_num": 1, "theta_den": 4, "beta": [-0.125, 0.0]},
        {"theta_num": 3, "theta_den": 4, "beta": [-0.125, 0.0]},
    ]
}


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_defects_document_contract(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2})
    code, out, _ = run(capsys, ["defects", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 0 and doc["m"] == 1 and doc["index"] == 1
    assert doc["dimKer"] == 1 and doc["dimCoker"] == 0
    assert doc["caseTag"] == "F-count"
    assert doc["command"] == "defects"
    # the rank certificate exists only in the F-matrix case
    assert doc["sigmaMin"] is None and doc["perturbationBound"] is None
    assert "kernelTolerance" not in doc and "gapRatio" not in doc
    # a = b passes the structural check at any scale, though a*a~ underflows at this one
    tiny = {"kappa": -1, "scale": [1e-200, 0.0]}
    assert run(capsys, ["defects", write_doc(tmp_path, {"a": tiny, "b": tiny, "p": 2})])[:2] == (0, out)

    code, out, _ = run(capsys, ["defects", write_doc(tmp_path, JACOBI_FMATRIX)])
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["m"], doc["caseTag"], doc["dimKer"], doc["dimCoker"]) == (1, 1, "F-matrix", 0, 0)
    assert doc["sigmaMin"] > doc["perturbationBound"] > 0
    assert "kernelTolerance" not in doc and "gapRatio" not in doc


def test_check_flags_exact_failure(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": "4/3"})
    code, out, _ = run(capsys, ["check", path])
    assert code == 1
    doc = json.loads(out)
    assert doc["overall"] == "fail"
    failing = [s for s in doc["sites"] if s["verdict"] == "fail"]
    assert failing == [
        {
            "side": "c",
            "point": [0, 1],
            "tested": -0.125,
            "forbiddenOffset": 0.875,
            "distance": 0.0,
            "verdict": "fail",
        }
    ]


def test_check_passes_away_from_boundary(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2})
    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_check_boundary_exit_code(tmp_path, capsys):
    nudged = {
        "jumps": [{"theta_num": 0, "theta_den": 1, "beta": [-0.25 + 2e-10, 0.0]}]
    }
    path = write_doc(tmp_path, {"a": nudged, "b": {}, "p": "4/3"})
    code, out, _ = run(capsys, ["check", path])
    assert code == 2
    assert json.loads(out)["overall"] == "boundary"


def test_index_document(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2})
    code, out, _ = run(capsys, ["index", path])
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["m"], doc["index"]) == (1, 0, -1)


def test_index_gated_when_not_fredholm(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": "4/3"})
    code, out, _ = run(capsys, ["index", path])
    assert code == 1
    doc = json.loads(out)
    assert doc["command"] == "index" and doc["overall"] == "fail"


def test_curve_csv_and_winding(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2})
    code, out, _ = run(capsys, ["curve", path, "--samples", "512"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# winding=1"
    assert lines[1] == "tag,re,im"
    tag, re_part, im_part = lines[2].split(",")
    complex(float(re_part), float(im_part))
    assert tag.startswith("arc")
    # the printed winding is index's n, however coarse the drawn curve
    assert json.loads(run(capsys, ["index", path])[1])["n"] == 1
    code, out, _ = run(capsys, ["curve", path, "--samples", "1"])
    assert (code, out.splitlines()[0]) == (0, "# winding=1")


def test_curve_json_side_d(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2})
    code, out, _ = run(capsys, ["curve", path, "--side", "d", "--format", "json", "--samples", "512"])
    assert code == 0
    doc = json.loads(out)
    assert doc["side"] == "d"
    assert isinstance(doc["winding"], int)
    assert doc["segments"][0]["points"]
    # the printed winding is index's m, however coarse the drawn curve
    m = json.loads(run(capsys, ["index", path])[1])["m"]
    assert doc["winding"] == m
    code, out, _ = run(capsys, ["curve", path, "--side", "d", "--format", "json", "--samples", "1"])
    assert (code, json.loads(out)["winding"]) == (0, m)


VERDICT_EXIT = {"pass": 0, "fail": 1, "boundary": 2}


def side_report(check: dict, side: str) -> dict:
    """check's report cut to the sites of one side, with their worst verdict as overall."""
    sites = [s for s in check["sites"] if s["side"] == side]
    verdicts = {s["verdict"] for s in sites}
    return {**check, "sites": sites, "overall": next(v for v in ("fail", "boundary", "pass") if v in verdicts)}


@pytest.mark.parametrize(
    "p, code",
    [(Fraction(4, 3), 1), (Fraction(4, 3) + Fraction(1, 10**11), 2), (Fraction(8, 7), 1)],
    ids=["exact-failure", "boundary", "interior-jump"],
)
def test_curve_gates_its_side_like_check(tmp_path, capsys, p, code):
    # curve answers for the side it draws, from the exact conditions: check's exit code and
    # report cut to that side, in JSON though curve prints CSV by default
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": f"{p.numerator}/{p.denominator}"})
    check = json.loads(run(capsys, ["check", path])[1])
    assert VERDICT_EXIT[check["overall"]] == code
    for side in ("c", "d"):
        want = side_report(check, side)
        got, out, _ = run(capsys, ["curve", path, "--side", side])
        assert got == VERDICT_EXIT[want["overall"]], side
        if got:
            assert json.loads(out) == {**want, "command": "curve"}
        else:
            assert out.startswith("# winding=")
    assert side_report(check, "c")["overall"] == check["overall"]


# c = exp(v t - v/t) = exp(2i v sin x): v = 40i gives |c| = e^{-80 sin x}, v = -400i overflows, v = 400i underflows
FLOAT_RANGE_DOCS = {
    "tiny": {"a": {"log_smooth": [{"k": 1, "im": 40}, {"k": -1, "im": -40}]}, "b": {}, "p": 2},
    "overflow": {"a": {"log_smooth": [{"k": 1, "im": -400}, {"k": -1, "im": 400}]}, "b": {}, "p": 2},
    "underflow": {"a": {"log_smooth": [{"k": 1, "im": 400}, {"k": -1, "im": -400}]}, "b": {}, "p": 2},
}


@pytest.mark.parametrize("name", list(FLOAT_RANGE_DOCS))
def test_curve_at_the_edge_of_the_float_range(tmp_path, capsys, name):
    # a symbol's value is never 0, so |c| down to e^-80 draws a curve, and one
    # that leaves the normal floats on either side is refused, never printed
    path = write_doc(tmp_path, FLOAT_RANGE_DOCS[name])
    for command in ("check", "index"):
        assert run(capsys, [command, path])[0] == 0
    for side in ("c", "d"):
        code, out, _ = run(capsys, ["curve", path, "--side", side])
        if name == "tiny":
            lines = out.splitlines()
            assert (code, lines[0]) == (0, "# winding=0")
            points = [complex(float(re_part), float(im_part)) for _, re_part, im_part in (l.split(",") for l in lines[2:])]
            assert all(cmath.isfinite(z) and z != 0 for z in points)
            assert min(abs(z) for z in points) < 1e-30 if side == "c" else max(abs(z) for z in points) > 1e30
        else:
            doc = json.loads(out)
            assert (code, doc["errorKind"]) == (4, "numerical-confidence")
            assert "float" in doc["error"]


def test_curve_keeps_the_arc_of_a_small_symbol(tmp_path, capsys):
    # |c(i)| is about e^-80, so the two limits at i differ by far less than 1e-14
    jumps = [{"theta_num": 1, "theta_den": 4, "beta": [0.25, 0.0]}, {"theta_num": 3, "theta_den": 4, "beta": [0.25, 0.0]}]
    path = write_doc(tmp_path, {"a": {**FLOAT_RANGE_DOCS["tiny"]["a"], "jumps": jumps}, "b": {}, "p": 2})
    code, out, _ = run(capsys, ["curve", path])
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()].count("arc(1/4)") == 258


def test_special_family_and_general(tmp_path, capsys):
    a = {"jumps": [{"theta_num": 0, "theta_den": 1, "beta": [0.5, 0.0]}]}
    path = write_doc(tmp_path, {"a": a, "b": a, "p": 2})
    code, out, _ = run(capsys, ["special", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "APlusHA"
    assert doc["kappa"] == 1 and doc["dimCoker"] == 1

    mixed = write_doc(
        tmp_path,
        {"a": {"kappa": 1}, "b": {"kappa": -1}, "p": 2},
        name="general.json",
    )
    code, out, _ = run(capsys, ["special", mixed])
    assert code == 0
    assert json.loads(out)["family"] == "General"


def test_special_identity_plus_hankel(tmp_path, capsys):
    phi_inverse = {
        "kappa": -2,
        "jumps": [
            {"theta_num": 0, "theta_den": 1, "beta": [-0.5, 0.0]},
            {"theta_num": 1, "theta_den": 2, "beta": [0.5, 0.0]},
        ],
    }
    path = write_doc(tmp_path, {"a": {}, "b": phi_inverse, "p": 2})
    code, out, _ = run(capsys, ["special", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "IdPlusHankel"
    assert doc["n"] == 1 and doc["m"] == 1
    assert doc["dimKer"] == 0 and doc["dimCoker"] == 0


@pytest.mark.parametrize(
    "doc",
    [
        {
            "a": {},
            "b": {"kappa": -4, "jumps": [{"theta_num": 0, "theta_den": 1, "beta": [0.5 - 1e-12, 0.0]}]},
            "p": 2,
        },
        {
            "a": {"jumps": [{"theta_num": 0, "theta_den": 1, "beta": [0.25 + 1e-12, 0.0]}]},
            "b": {"jumps": [{"theta_num": 0, "theta_den": 1, "beta": [0.25 + 1e-12, 0.0]}]},
            "p": 2,
        },
    ],
)
def test_special_gated_on_boundary(tmp_path, capsys, doc):
    path = write_doc(tmp_path, doc)
    for command in ("check", "index", "defects", "special"):
        code, out, _ = run(capsys, [command, path])
        assert code == 2
        report = json.loads(out)
        assert report["command"] == command and report["overall"] == "boundary"


def test_unmapped_exception_exits_five(tmp_path, capsys, monkeypatch):
    # an exception no verdict or refusal names leaves with its own code, never a verdict's: its traceback
    # goes to stderr, and nothing to stdout or to --out
    path = write_doc(tmp_path, {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2})
    target = tmp_path / "report.json"

    def raises(job, ns):
        raise RuntimeError("an unexpected failure")

    monkeypatch.setitem(cli._COMMANDS, "index", (raises, "raises an unexpected error"))
    for argv in (["index", path], ["index", path, "--out", str(target)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (5, "")
        assert err.startswith("Traceback") and err.endswith("RuntimeError: an unexpected failure\n")
    assert not target.exists()


def test_boundary_raised_inside_command_exits_two(tmp_path, capsys, monkeypatch):
    nudged = {"jumps": [{"theta_num": 0, "theta_den": 1, "beta": [-0.25 + 2e-10, 0.0]}]}
    path = write_doc(tmp_path, {"a": nudged, "b": {}, "p": "4/3"})

    def raises(job, ns):
        raise BoundaryCase("on the boundary", fredholm_engine.fredholm_conditions(job.pair, job.p))

    monkeypatch.setitem(cli._COMMANDS, "index", (raises, "raises a boundary case"))
    check = json.loads(run(capsys, ["check", path])[1])
    assert check["overall"] == "boundary"
    code, out, _ = run(capsys, ["index", path])
    assert code == 2
    assert json.loads(out) == {**check, "command": "index"}


FAMILY_B = {
    "APlusHA": (0, 1.0),
    "AMinusHA": (0, -1.0),
    "AMinusHtInvA": (-1, -1.0),
    "APlusHtA": (1, 1.0),
}


def family_document(rng: random.Random, boundary: bool) -> dict:
    """A single-symbol family pair, with one exponent nudged onto a window edge if asked.

    The windows of Re beta at 1 and -1 start at the family's lower ends below,
    and the sum over the conjugate pair at 1/3, 2/3 has its window at -1/q.
    """
    tag = rng.choice(sorted(FAMILY_B))
    p = rng.choice([Fraction(2), Fraction(3, 2), Fraction(3), Fraction(4, 3)])
    h = (1 - 1 / p) / 2
    lows = {
        "APlusHA": (-Fraction(1, 2) - h, -h),
        "AMinusHA": (-h, -Fraction(1, 2) - h),
        "AMinusHtInvA": (-h, -h),
        "APlusHtA": (-Fraction(1, 2) - h, -Fraction(1, 2) - h),
    }[tag]
    betas = [Fraction(rng.randint(-12, 12), 16) for _ in range(2)]
    betas += [Fraction(rng.randint(-6, 6), 16) for _ in range(2)]
    nudges = [0.0] * 4
    if boundary:
        site = rng.randrange(3)
        edge = (lows + (-2 * h,))[site] + rng.randint(-1, 1)
        betas[site] = edge - betas[3] if site == 2 else edge
        nudges[site] = rng.choice([1e-12, -1e-12])
    points = [(0, 1), (1, 2), (1, 3), (2, 3)]
    jumps = [
        {"theta_num": num, "theta_den": den, "beta": [float(beta) + nudge, 0.0]}
        for (num, den), beta, nudge in zip(points, betas, nudges)
    ]
    kappa = rng.randint(-2, 2)
    shift, scale = FAMILY_B[tag]
    return {
        "a": {"kappa": kappa, "jumps": jumps},
        "b": {"kappa": kappa + shift, "scale": [scale, 0.0], "jumps": jumps},
        "p": f"{p.numerator}/{p.denominator}",
    }


def symbol_node(s: CanonicalSymbol) -> dict:
    """The JSON form of a symbol whose exponents are dyadic, so floats are exact."""
    return {
        "kappa": s.kappa,
        "scale": [s.scale.real, s.scale.imag],
        "log_smooth": [{"k": k, "re": v.real, "im": v.imag} for k, v in s.log_smooth.coeffs],
        "jumps": [
            {"theta_num": j.point.num, "theta_den": j.point.den, "beta": [float(j.beta.re), j.beta.im]}
            for j in s.jumps
        ],
    }


def gated_like_check(capsys, path, commands) -> int:
    """check's exit code; every command in commands must agree with it.

    A document that fails or sits on the boundary must get check's exit
    code and its overall verdict and sites from each command.  curve
    answers for side c alone, so it must get check's report cut to that
    side (side_report) and its exit code.  On a passing verdict every
    command exits 0, except that verify may refuse with 4.
    """
    code, out, _ = run(capsys, ["check", path])
    check = json.loads(out)
    for command in commands:
        want = side_report(check, "c") if command == "curve" else check
        want_code = VERDICT_EXIT[want["overall"]]
        got, out, _ = run(capsys, [command, path])
        if want_code == 0:
            assert got in ((0, 4) if command == "verify" else (0,)), (command, got)
            continue
        assert got == want_code, (command, got, want_code)
        doc = json.loads(out)
        assert doc["command"] == command
        assert (doc["overall"], doc["sites"]) == (want["overall"], want["sites"])
    return code


def test_exit_codes_agree_on_family_documents(tmp_path, capsys):
    rng = random.Random(2026)
    seen = set()
    for i in range(48):
        path = write_doc(tmp_path, family_document(rng, boundary=i % 2 == 0))
        seen.add(gated_like_check(capsys, path, ("index", "defects", "factor", "curve", "special", "verify")))
    assert seen == {0, 1, 2}


def test_exit_codes_agree_on_general_documents(tmp_path, capsys):
    # denominator-8 exponents put some sites exactly on the forbidden set
    rng = np.random.default_rng(2027)
    seen = []
    for i in range(24):
        pair = pair_from_c_and_b(random_structural_c(rng, denom=8), random_generic_b(rng, denom=8))
        doc = {"a": symbol_node(pair.a), "b": symbol_node(pair.b), "p": ("2", "4/3")[i % 2]}
        seen.append(gated_like_check(capsys, write_doc(tmp_path, doc), ("index", "defects", "factor", "curve", "verify")))
    assert {0, 1} <= set(seen)


def census_documents(tmp_path, monkeypatch):
    """bench/gen and bench/reference, and (document, path) for the 150 documents of scripts/census.py."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    gen = importlib.import_module("gen")
    docs = [doc for seed in (11, 12, 13) for _, doc, _ in gen.cli_documents(random.Random(seed), 40)]
    rng = random.Random(2026)
    docs += [gen.fmatrix_doc(rng) for _ in range(30)]
    for i, doc in enumerate(docs):
        (tmp_path / f"doc{i}.json").write_text(gen.to_json(doc))
    return gen, importlib.import_module("reference"), [(doc, str(tmp_path / f"doc{i}.json")) for i, doc in enumerate(docs)]


def test_exit_codes_agree_with_the_reference_on_the_census(tmp_path, capsys, monkeypatch):
    # every gated command against bench/reference.py's exact verdicts, which call no library code,
    # on the 150 documents of scripts/census.py; special on a General pair reads no (n, m) and is
    # not gated, so it exits 0 there; verify may refuse (exit 4) only where the gate passes
    gen, reference, docs = census_documents(tmp_path, monkeypatch)
    seen, refusals = set(), 0
    for i, (doc, path) in enumerate(docs):
        p = gen.doc_p(doc)
        ref = reference.expected(doc, p)
        _, d = reference.auxiliary(doc)
        sides = {"c": ref.c_verdict, "d": reference.side_verdict(d, p / (p - 1))}
        for command in ("check", "factor"):
            assert run(capsys, [command, path])[0] == ref.code, (i, command)
        code, out, _ = run(capsys, ["index", path])
        assert code == ref.code, (i, "index")
        if code == 0:
            assert (json.loads(out)["n"], json.loads(out)["m"]) == (ref.n, ref.m), (i, "index")
        code, out, _ = run(capsys, ["defects", path])
        assert code == ref.code, (i, "defects")
        if code == 0 and reference.counted_defects(ref.n, ref.m) is not None:
            counted = (json.loads(out)["dimKer"], json.loads(out)["dimCoker"])
            assert counted == reference.counted_defects(ref.n, ref.m), (i, "defects")
        for side, verdict in sides.items():
            assert run(capsys, ["curve", path, "--side", side])[0] == VERDICT_EXIT[verdict], (i, side)
        code, out, _ = run(capsys, ["special", path])
        if not (code == 0 and json.loads(out)["family"] == "General"):
            assert code == ref.code, (i, "special")
        code = run(capsys, ["verify", path])[0]
        assert code == ref.code or (code == 4 and ref.verdict == "pass"), (i, "verify", code)
        refusals += code == 4
        # a one-row sweep at the document's own p
        at_p = gen.p_text(p)
        code, out, _ = run(capsys, ["sweep", path, "--p-from", at_p, "--p-to", at_p, "--steps", "1"])
        (row,) = json.loads(out)["rows"]
        assert code == 0 and row["overall"] == ref.verdict, (i, "sweep")
        assert (row["n"], row["m"]) == ((ref.n, ref.m) if ref.verdict == "pass" else (None, None)), (i, "sweep")
        seen.add((ref.verdict, sides["c"], sides["d"]))
    # the census holds failures of each side alone, and verify's refusals on its kernel residual
    assert {("pass", "pass", "pass"), ("fail", "fail", "pass"), ("fail", "pass", "fail")} <= seen, seen
    assert refusals == 72


def test_verify_computes_each_series_once(tmp_path, capsys, monkeypatch):
    # per verify: fourier_coeffs for a and b where a kernel candidate runs the section, and never
    # otherwise; rho_coefficients for |k| <= ORACLE_K, again for the F-matrix defect matrix, and
    # again for the kernel check where m > 0 and some candidate reads it (not at F-matrix dim ker 0)
    calls = {"fourier": 0, "rho": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    rho = counted("rho", wiener_hopf.rho_coefficients)
    monkeypatch.setattr(wiener_hopf, "rho_coefficients", rho)
    monkeypatch.setattr(verification_oracle, "rho_coefficients", rho)
    monkeypatch.setattr(verification_oracle, "fourier_coeffs", counted("fourier", verification_oracle.fourier_coeffs))
    _, _, docs = census_documents(tmp_path, monkeypatch)
    totals = {"fourier": 0, "rho": 0}
    for i, (_, path) in enumerate(docs):
        code, out, _ = run(capsys, ["defects", path])
        report = json.loads(out)
        calls.update(fourier=0, rho=0)
        verified = run(capsys, ["verify", path])[0]
        if code:
            assert (verified, calls) == (code, {"fourier": 0, "rho": 0}), i
            continue
        assert verified in (0, 4), i
        want = {
            "fourier": 2 * (report["dimKer"] > 0),
            "rho": 1 + (report["caseTag"] == "F-matrix") + (report["m"] > 0 and report["dimKer"] > 0),
        }
        assert calls == want, (i, calls, want)
        for name in totals:
            totals[name] += calls[name]
    assert totals == {"fourier": 144, "rho": 232}


# a = e^{-0.3} exp(0.3) is the constant 1: the sign of c and d is read off scale * exp(log_0)
CONSTANT_IN_LOG_DOC = {"a": {"scale": [0.7408182206817179, 0], "log_smooth": [{"k": 0, "re": 0.3}]}, "b": {}, "p": 2}


def test_constant_in_log_passes_every_command(tmp_path, capsys):
    path = write_doc(tmp_path, CONSTANT_IN_LOG_DOC)
    one = write_doc(tmp_path, {"a": {}, "b": {}, "p": 2}, "one.json")
    extra = {"sweep": ["--p-from", "6/5", "--p-to", "3", "--steps", "5"]}
    for command in cli._COMMANDS:
        code, out, _ = run(capsys, [command, path, *extra.get(command, [])])
        assert code == 0, command
        if command in ("check", "index", "defects", "sweep", "pmap"):
            assert run(capsys, [command, one, *extra.get(command, [])])[:2] == (0, out), command


def placed(value: Fraction, lo: Fraction) -> Fraction | None:
    """value moved by an integer into (lo, lo + 1); None on an edge."""
    offset = value - lo
    return None if offset.denominator == 1 else value - math.floor(offset)


def test_special_prints_placed_exponents(tmp_path, capsys):
    # the printed exponents against a placement done here: the criterion-3
    # windows at 1 and -1 and (-1/q, 1/p) for the sum over the pair at 1/3
    rng = random.Random(909)
    covered = set()
    for i in range(192):
        tag = sorted(FAMILY_B)[i % 4]
        p = (Fraction(3, 2), Fraction(2), Fraction(3))[i // 4 % 3]
        scale = (1.0, -1.0)[i // 12 % 2]
        kappa = 2 * rng.randint(-1, 1) + i // 24 % 2
        shift, sign = FAMILY_B[tag]
        ones = [(Fraction(rng.randint(-24, 24), 16), rng.choice([0.0, rng.uniform(-0.3, 0.3)])) for _ in range(2)]
        up = (Fraction(rng.randint(-12, 12), 16), rng.uniform(-0.3, 0.3))
        down = (up[0] + Fraction(rng.randint(1, 8), 16), rng.uniform(-0.3, 0.3))
        points = [(0, 1), (1, 2), (1, 3), (2, 3)]
        jumps = [
            {"theta_num": num, "theta_den": den, "beta": [float(re), im]}
            for (num, den), (re, im) in zip(points, ones + [up, down])
        ]
        doc = {
            "a": {"kappa": kappa, "scale": [scale, 0.0], "jumps": jumps},
            "b": {"kappa": kappa + shift, "scale": [sign * scale, 0.0], "jumps": jumps},
            "p": f"{p.numerator}/{p.denominator}",
        }
        lo_plus, lo_minus = family_lows(tag, p)
        beta_plus, beta_minus = placed(ones[0][0], lo_plus), placed(ones[1][0], lo_minus)
        pair_sum = placed(up[0] + down[0], 1 / p - 1)  # -1/q = 1/p - 1
        code, out, _ = run(capsys, ["special", write_doc(tmp_path, doc)])
        if None in (beta_plus, beta_minus, pair_sum):
            assert code == 1, (doc, code)
            continue
        assert code == 0, (doc, code)
        report = json.loads(out)
        moved = (beta_plus - ones[0][0]) + (beta_minus - ones[1][0]) + (pair_sum - up[0] - down[0])
        assert report["family"] == tag
        assert report["kappa"] == kappa - moved
        assert report["betaPlus"] == {"re": [beta_plus.numerator, beta_plus.denominator], "im": ones[0][1]}
        assert report["betaMinus"] == {"re": [beta_minus.numerator, beta_minus.denominator], "im": ones[1][1]}
        upper = pair_sum - down[0]
        assert report["pairs"] == [
            {
                "point": [1, 3],
                "upper": {"re": [upper.numerator, upper.denominator], "im": up[1]},
                "lower": {"re": [down[0].numerator, down[0].denominator], "im": down[1]},
            }
        ]
        covered.add((tag, p, scale, kappa % 2))
    assert len(covered) == 4 * 3 * 2 * 2


def test_one_gate_per_command(tmp_path, capsys, monkeypatch):
    real = fredholm_engine.fredholm_conditions
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("th_fredholm") and getattr(module, "fredholm_conditions", None) is real:
            monkeypatch.setattr(module, "fredholm_conditions", counted)
    passing = {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2}
    failing = {"a": EX_CURVE_SYMBOL, "b": {}, "p": "4/3"}
    smooth = {"kappa": -1, "log_smooth": [{"k": 1, "re": 0.2}, {"k": -1, "re": -0.2}]}
    cases = [
        ("index", passing, 0),
        ("index", failing, 1),
        ("defects", passing, 0),
        ("defects", failing, 1),
        ("defects", JACOBI_FMATRIX, 0),
        ("factor", passing, 0),
        ("factor", failing, 1),
        ("special", README_DOC, 0),
        ("special", JACOBI_FMATRIX, 0),
        ("verify", {"a": smooth, "b": {}, "p": 2, "options": {"section_size": 128}}, 0),
        ("verify", failing, 1),
    ]
    for command, doc, want in cases:
        calls.clear()
        code, out, _ = run(capsys, [command, write_doc(tmp_path, doc)])
        assert (code, len(calls)) == (want, 1), (command, doc, code, len(calls))
    # sweep gates each row on or inside a band, and each interval once, at
    # its first row outside every band; steps of 1/84 hit 8/7 and 4/3
    calls.clear()
    sweep = ["sweep", write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}}), "--p-from", "8/7", "--p-to", "2"]
    code, out, _ = run(capsys, sweep + ["--steps", "73"])
    rows = json.loads(out)["rows"]
    pmap = fredholm_engine.p_map(cli.Job({"a": EX_CURVE_SYMBOL, "b": {}}, need_p=False).pair)
    located = [pmap.interval(1 / (Fraction(8, 7) + Fraction(k, 84))) for k in range(73)]
    implied = located.count(None) + len(set(located) - {None})
    assert code == 0 and len(rows) == 73
    assert len(calls) == implied == 4
    assert [row["p"] for row in rows if row["overall"] == "fail"] == [8 / 7, 4 / 3]


def test_verify_reports_oracles(tmp_path, capsys):
    doc = {
        "a": {"kappa": -1, "log_smooth": [{"k": 1, "re": 0.2}, {"k": -1, "re": -0.2}]},
        "b": {},
        "p": 2,
        "options": {"section_size": 128},
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    report = json.loads(out)
    assert report["kernel"]["count"] == report["kernel"]["dimKer"] == 1
    assert report["kernel"]["maxResidual"] < 1e-6
    assert report["rho"]["evenness"] < 1e-9
    assert report["rho"]["bound"] < 1e-12
    assert report["rho"]["oracleDeviation"] < 1e-12


def test_verify_on_fmatrix_documents(tmp_path, capsys):
    # defects keeps only the rho_k its matrix reads, rho_0 alone at n = m = 1; verify computes its
    # own |k| <= 16 for the evenness and oracle gates
    for doc in (JACOBI_FMATRIX, TWO_JUMP_DOC):
        code, out, _ = run(capsys, ["verify", write_doc(tmp_path, doc)])
        assert code == 0, out
        report = json.loads(out)
        assert report["defects"] == {"dimKer": 0, "dimCoker": 0}
        assert report["rho"]["bound"] < 1e-12 and report["rho"]["oracleDeviation"] < 1e-12


# a = t^-1 exp(t^6 - t^-6), b = 1: F-count with one kernel candidate, which verify certifies
DEGREE_SIX_DOC = {"a": {"kappa": -1, "log_smooth": [{"k": 6, "re": 1.0}, {"k": -6, "re": -1.0}]}, "b": {}, "p": 2}


def test_verify_confidence_failure_exits_four(tmp_path, capsys):
    # tolerance gates the kernel check's rho and section coefficients, so 1e-18 refuses where a candidate runs
    path = write_doc(tmp_path, {**DEGREE_SIX_DOC, "options": {"tolerance": 1e-18}})
    code, out, _ = run(capsys, ["verify", path])
    assert code == 4
    assert json.loads(out)["errorKind"] == "numerical-confidence"
    # a = b = u_{1,1/8}: G-count with dim ker 0, so no section runs, tolerance gates nothing and
    # fourierBound is null
    jump = {"jumps": [{"theta_num": 0, "theta_den": 1, "beta": [0.125, 0.0]}]}
    path = write_doc(tmp_path, {"a": jump, "b": jump, "p": 2, "options": {"tolerance": 1e-18}})
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    assert json.loads(out)["fourierBound"] == {"a": None, "b": None}


def test_verify_section_size_one_refuses_on_its_residual(tmp_path, capsys):
    # the kernel check asks rho for k = 0 alone, whose rule has top frequency 0 before its floor of 1
    path = write_doc(tmp_path, {**README_DOC, "options": {"section_size": 1}})
    code, out, _ = run(capsys, ["verify", path])
    doc = json.loads(out)
    assert code == 4 and doc["errorKind"] == "numerical-confidence"
    assert doc["error"].startswith("worst finite-section residual 2.04")
    assert doc["error"].endswith("exceeds 1.0e-06")


# A General, G-count pair at p = 2 whose rho has exponent -15/16 at turns 1/4 and 3/4 and 3/8 at -1:
# oracle nodes sized for the steep sites on every half-arc overflowed rho's exponent at -1 into NaN
NAN_ORACLE_DOC = {
    "a": {
        "kappa": 1,
        "scale": [-0.8125, -0.5625],
        "log_smooth": [
            {"k": -2, "re": -0.08203125, "im": -0.24609375},
            {"k": -1, "re": -0.2421875, "im": -0.0625},
            {"k": 1, "re": 0.46484375, "im": 0.06640625},
            {"k": 2, "re": -0.04296875, "im": 0.2890625},
        ],
        "jumps": [
            {"theta_num": 0, "theta_den": 1, "beta": [0.046875, -0.109375]},
            {"theta_num": 1, "theta_den": 4, "beta": [-0.515625, 0.0]},
            {"theta_num": 1, "theta_den": 3, "beta": [0.03125, 0.0]},
            {"theta_num": 1, "theta_den": 2, "beta": [-0.65625, 0.0]},
            {"theta_num": 2, "theta_den": 3, "beta": [0.03125, 0.0]},
            {"theta_num": 3, "theta_den": 4, "beta": [-0.453125, 0.0]},
        ],
    },
    "b": {
        "kappa": 2,
        "scale": [-0.8125, -0.5625],
        "log_smooth": [
            {"k": -2, "re": 0.1171875, "im": -0.17578125},
            {"k": 1, "re": 0.22265625, "im": 0.00390625},
            {"k": 2, "re": -0.2421875, "im": 0.21875},
        ],
        "jumps": [
            {"theta_num": 1, "theta_den": 4, "beta": [-0.0625, 0.0]},
            {"theta_num": 1, "theta_den": 2, "beta": [-0.1875, 0.0]},
        ],
    },
    "p": "2",
}


def test_verify_sizes_the_oracle_per_site(tmp_path, capsys):
    # each half-arc's nodes are sized for its own site, so no factor of rho leaves the float range
    with np.errstate(over="raise", invalid="raise"):
        code, out, _ = run(capsys, ["verify", write_doc(tmp_path, NAN_ORACLE_DOC)])
    assert code == 0
    assert json.loads(out)["rho"]["oracleDeviation"] < 1e-13


# how the patched rho_de changes its (coefficients, estimate), and what the refusal then says
NAN_ORACLE_CASES = {
    "coeffs": (
        lambda de, estimate: (verification_oracle.TwoSidedSeries(np.full(33, complex(math.nan))), estimate),
        "oracle differ by nan",
    ),
    "estimate": (lambda de, estimate: (de, math.nan), " > nan"),
}


def test_verify_refuses_a_nan_oracle(tmp_path, capsys, monkeypatch):
    # the gates fail closed: a NaN deviation or oracle estimate refuses instead of passing as valid-looking output
    rho_de = verification_oracle.rho_de
    path = write_doc(tmp_path, NAN_ORACLE_DOC)

    def refuse(name):
        raise ValueError(f"stdout holds the non-JSON constant {name}")

    for name, (change, message) in NAN_ORACLE_CASES.items():
        monkeypatch.setattr(verification_oracle, "rho_de", lambda *args: change(*rho_de(*args)))
        code, out, _ = run(capsys, ["verify", path])
        doc = json.loads(out, parse_constant=refuse)
        assert code == 4 and doc["errorKind"] == "numerical-confidence", name
        assert message in doc["error"], name


def test_verify_four_jump_example_passes_fourier_step(tmp_path, capsys):
    # G-zero at p = 2, so verify runs no section; the four-jump symbol's coefficients at the
    # section's orders for the default size 256 are within 1e-12
    doc = {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2}
    code, out, _ = run(capsys, ["verify", write_doc(tmp_path, doc)])
    assert code == 0
    assert json.loads(out)["fourierBound"] == {"a": None, "b": None}
    symbol = cli.Job(doc).pair.a
    for order in (255, 511):
        assert verification_oracle.fourier_coeffs(symbol, order).bound < 1e-12, order



def doubled_rule_reference(s, N: int, M: int) -> np.ndarray:
    """(1/2pi) sum w s(x) e^{-ikx}, |k| <= N, by 24-node Gauss-Legendre on 2M equal panels, every
    jump on a panel edge, summed directly: e^{-ikx} is the exact root of unity of x's panel start
    times e^{-ikd} for its offset d within the panel."""
    from numpy.polynomial.legendre import leggauss

    P = 2 * M
    assert all((pt.turns * P).denominator == 1 for pt in s.jump_points)
    x, w = leggauss(24)
    h = 2 * np.pi / P
    d = h / 2 * (1 + x)
    vals = eval_many(s, (np.arange(P)[:, None] * h + d).ravel()).reshape(P, 24)
    ks = np.arange(-N, N + 1)
    roots = np.exp(-2j * np.pi * np.arange(P) / P)[np.outer(ks, np.arange(P)) % P]
    return np.sum((roots @ vals) * (h / 2 * w) * np.exp(-1j * np.outer(ks, d)), axis=1) / (2 * np.pi)


@pytest.mark.parametrize(
    "doc", [DEGREE_SIX_DOC, {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2}], ids=["degree-six", "four-jump"]
)
def test_fourier_coeffs_within_bound_of_a_doubled_rule(doc):
    # at order 511 the fewest panels panel_count allows leave the coefficients within their
    # bound of the same rule on twice as many panels, summed without an FFT
    s = cli.Job(doc).pair.a
    series = verification_oracle.fourier_coeffs(s, 511)
    reference = doubled_rule_reference(s, 511, quadrature.panel_count(verification_oracle.symbol_parts(s), 511)[0])
    assert np.max(np.abs(series.coeffs - reference)) <= series.bound < 1e-12


@pytest.mark.parametrize(
    "a, b",
    [
        (DEGREE_SIX_DOC["a"], DEGREE_SIX_DOC["b"]),
        (
            {"kappa": -1, "log_smooth": [{"k": 0, "re": 0.3}, {"k": 1, "re": 0.2}, {"k": -1, "re": -0.2}]},
            {"log_smooth": [{"k": 0, "re": 0.3}]},
        ),
    ],
)
def test_verify_steep_and_constant_log_terms(tmp_path, capsys, a, b):
    # a degree-6 log term and a k = 0 log term: verify reports both, with finite bounds
    code, out, _ = run(capsys, ["verify", write_doc(tmp_path, {"a": a, "b": b, "p": 2})])
    assert code == 0
    report = json.loads(out)
    assert max(report["fourierBound"].values()) < 1e-12 and report["rho"]["bound"] < 1e-12


def test_factor_series_order(tmp_path, capsys):
    doc = {"a": {"kappa": -1}, "b": {}, "p": 2, "options": {"truncation": 8}}
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["factor", path])
    assert code == 0
    report = json.loads(out)
    for side in ("c", "d"):
        series = report["plusFactors"][side]["series"]
        assert len(series) == 9
        assert series[0] != [0.0, 0.0]


def test_sweep_rows_ordered(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}})
    code, out, _ = run(
        capsys, ["sweep", path, "--p-from", "1.05", "--p-to", "2", "--steps", "5"]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["p"] for row in rows] == sorted(row["p"] for row in rows)
    assert rows[-1]["n"] == 1 and rows[0]["n"] == -1


def test_sweep_csv_format(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}})
    code, out, _ = run(
        capsys,
        ["sweep", path, "--p-from", "4/3", "--p-to", "4/3", "--steps", "1", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,verdict,n,m,index"
    assert lines[1].split(",")[1] == "fail"


def grid(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
    return [lo] if steps == 1 else [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


TINY = Fraction(1, 10**12)
# denominator-8 exponents put the breakpoints at p = 8/k, k = 1..7
SWEEP_GRIDS = [
    (Fraction(8, 7), Fraction(8, 5), 13),  # hits 8/7, 4/3 and 8/5
    (Fraction(4), Fraction(4, 3), 5),  # descending; hits 4, 8/3, 2 and 4/3
    (Fraction(8), Fraction(2), 7),  # descending; hits 8, 4 and 2
    (Fraction(4, 3) - TINY, Fraction(4, 3) + TINY, 3),  # boundary rows beside 4/3
    (Fraction(8, 7) + TINY, Fraction(8, 7) - TINY, 3),
    # p = 10^12 and 1 + 10^-12 sit in the bands of u = 1/p = 0 and u = 1,
    # each after a row of the same interval outside every band
    (Fraction(3), Fraction(10**12), 2),
    (Fraction(3, 2), 1 + TINY, 2),
    (Fraction(4, 3), Fraction(2), 1),
]
E34 = 2.0**-34
# Sites 6e-11 beyond u = 1/p = 0 and beyond u = 1, with nothing else near
# either end; and a slope-1/2 breakpoint at u = 1/2 whose band reaches past
# a slope-1 one 9.3e-10 above it.
def jumps_doc(*jumps) -> dict:
    return {"a": {"jumps": [{"theta_num": n, "theta_den": d, "beta": [re, 0.0]} for n, d, re in jumps]}, "b": {}}


EDGE_SWEEP_DOCS = [
    jumps_doc((0, 1, 1 - E34), (1, 2, 0.5)),
    jumps_doc((0, 1, 1 + E34), (1, 2, 0.5)),
    jumps_doc((1, 4, 0.5 + 2.0**-30), (3, 4, 0.5 + 2.0**-30), (0, 1, 1.5)),
]


def frac_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def test_sweep_agrees_with_per_row_gate(tmp_path, capsys):
    rng = np.random.default_rng(2028)
    docs = [{"a": EX_CURVE_SYMBOL, "b": {}}] + EDGE_SWEEP_DOCS
    for _ in range(40):
        pair = pair_from_c_and_b(random_structural_c(rng, denom=8), random_generic_b(rng, denom=8))
        docs.append({"a": symbol_node(pair.a), "b": symbol_node(pair.b)})
    grids = {i: SWEEP_GRIDS for i in range(len(docs))}
    grids[0] = SWEEP_GRIDS + [(Fraction(85, 84), Fraction(3), 168)]
    grids[3] = SWEEP_GRIDS + [(2 + Fraction(4, 10**8), 2 - Fraction(16, 10**9), 200)]
    verdicts = set()
    for i, doc in enumerate(docs):
        path = write_doc(tmp_path, doc)
        pair = cli.Job(doc, need_p=False).pair
        for lo, hi, steps in grids[i]:
            want = helpers.gate_sweep_doc(pair, grid(lo, hi, steps))
            verdicts.update(row["overall"] for row in want["rows"])
            argv = ["sweep", path, "--p-from", frac_text(lo), "--p-to", frac_text(hi), "--steps", str(steps)]
            assert run(capsys, argv)[:2] == (0, json.dumps(want, sort_keys=True, indent=2) + "\n"), (i, lo, hi)
            assert run(capsys, argv + ["--format", "csv"])[:2] == (0, cli._sweep_csv(want)), (i, lo, hi)
    assert verdicts == {"pass", "fail", "boundary"}


def test_pmap_four_jump_example(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}})
    code, out, _ = run(capsys, ["pmap", path])
    assert code == 0
    doc = json.loads(out)
    assert [(e["p"], e["bandHalfWidth"]) for e in doc["excluded"]] == [([8, 7], 1e-9), ([4, 3], 2e-9)]
    assert doc["excluded"][0]["sites"] == [{"side": "c", "point": [1, 4]}, {"side": "d", "point": [1, 4]}]
    assert [e["u"] for e in doc["ends"]] == [[1, 1], [0, 1]]
    assert [(r["pFrom"], r["pTo"], r["n"], r["m"], r["index"]) for r in doc["intervals"]] == [
        ([1, 1], [8, 7], -1, 1, 2),
        ([8, 7], [4, 3], 0, 0, 0),
        ([4, 3], None, 1, 0, -1),
    ]
    assert run(capsys, ["pmap", path])[:2] == (0, out)
    code, out, err = run(capsys, ["pmap", write_doc(tmp_path, {"a": {"winding": 1}, "b": {}})])
    assert (code, out) == (3, "") and "error:" in err


def test_byte_determinism(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2})
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, ["defects", path])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_every_json_document_carries_the_envelope(tmp_path, capsys):
    failing = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": "4/3"}, "failing.json")
    # a kernel candidate, so the kernel check runs and tolerance 1e-18 refuses its bounds
    confidence = write_doc(tmp_path, {**DEGREE_SIX_DOC, "options": {"tolerance": 1e-18}}, "shaky.json")
    cases = [
        (["defects", write_doc(tmp_path, README_DOC)], 0, "dimKer"),
        (["index", failing], 1, "overall"),
        # curve prints CSV by default, but its gate's report is JSON
        (["curve", failing], 1, "overall"),
        (["verify", confidence], 4, "errorKind"),
    ]
    for argv, expected, key in cases:
        code, out, _ = run(capsys, argv)
        doc = json.loads(out)
        assert (code, doc["command"], doc["version"]) == (expected, argv[0], __version__), argv[0]
        assert key in doc, argv[0]


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-directory", "directory"])
@pytest.mark.parametrize(
    "command, doc",
    [
        ("index", {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2}),
        ("index", {"a": EX_CURVE_SYMBOL, "b": {}, "p": "4/3"}),
        ("curve", {"a": EX_CURVE_SYMBOL, "b": {}, "p": "4/3"}),
    ],
    ids=["result", "gate-refusal", "error-document"],
)
def test_unwritable_out_exits_three(tmp_path, capsys, target, command, doc):
    # exit 1 would read as "not Fredholm": an --out that cannot be written is an input error
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, [command, path, "--out", str(tmp_path / target)])
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_out_file_instead_of_stdout(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2})
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["defects", path, "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["dimKer"] == 1


def test_stdin_document(capsys, monkeypatch):
    doc = json.dumps({"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, ["index", "-"])
    assert code == 0
    assert json.loads(out)["index"] == 1


README_JUMP = {"kappa": -1, "jumps": [{"theta_num": 0, "theta_den": 1, "beta": [0.125, 0.0]}]}
README_DOC = {"a": README_JUMP, "b": README_JUMP, "p": 2}
# a = 1, b = t^-4 u(i,1/4) u(-i,1/4): F-matrix, dim ker 0 at p = 2
TWO_JUMP_DOC = {
    "a": {},
    "b": {
        "kappa": -4,
        "jumps": [
            {"theta_num": 1, "theta_den": 4, "beta": [0.25, 0.0]},
            {"theta_num": 3, "theta_den": 4, "beta": [0.25, 0.0]},
        ],
    },
    "p": 2,
}
# a = t^-1 exp(0.2 t - 0.2/t), b = 1: verify's rho bound grew like 1/scale and its Fourier bound like the scale
SCALED_DOC = {
    "a": {"kappa": -1, "log_smooth": [{"k": 1, "re": 0.2}, {"k": -1, "re": -0.2}]},
    "b": {},
    "p": 2,
    "options": {"section_size": 128},
}


# The Jacobi case alpha = beta = 0, kappa = 1 of acceptance criterion 4: n = m = 1.
JACOBI_FMATRIX = {
    "a": {},
    "b": {
        "kappa": -2,
        "jumps": [
            {"theta_num": 0, "theta_den": 1, "beta": [-0.5, 0.0]},
            {"theta_num": 1, "theta_den": 2, "beta": [0.5, 0.0]},
        ],
    },
    "p": 2,
}

# the scale-free documents: the README's two examples, F-count and F-matrix pairs, and census documents by their
# index in census_documents, among them an identity-plus-Hankel pair, a family pair, a p = 4/3 pair and an F-matrix one
SCALE_DOCS = {
    "exp": SCALED_DOC,
    "readme": README_DOC,
    "degree-six": DEGREE_SIX_DOC,
    "four-jump": {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2},
    "two-jump": TWO_JUMP_DOC,
    "jacobi": JACOBI_FMATRIX,
    "census-8": 8,
    "census-16": 16,
    "census-32": 32,
    "fmatrix-0": 120,
}
# every command, curve on both sides at few samples, and a three-row sweep
SCALE_RUNS = {
    "check": [],
    "index": [],
    "defects": [],
    "factor": [],
    "curve": ["--samples", "64"],
    "curve-d": ["--side", "d", "--samples", "64"],
    "special": [],
    "verify": [],
    "sweep": ["--p-from", "6/5", "--p-to", "3", "--steps", "3"],
    "pmap": [],
}


def common_constants(doc: dict) -> list[dict]:
    """doc with a and b times one constant l: l = 10^k in the scales, k in {-200, -20, 0, 20, 200}, and l = e^800
    and 10^(+-340), past the float range, as a log_0 term."""

    def scaled(node, k):
        z = complex(*node.get("scale", [1.0, 0.0])) * 10.0**k
        return {**node, "scale": [z.real, z.imag]}

    def logged(node, log_0):
        return {**node, "log_smooth": [*node.get("log_smooth", []), {"k": 0, "re": log_0}]}

    out = [{**doc, "a": scaled(doc["a"], k), "b": scaled(doc["b"], k)} for k in (-200, -20, 0, 20, 200)]
    logs = (800.0, 340 * math.log(10), -340 * math.log(10))
    return out + [{**doc, "a": logged(doc["a"], v), "b": logged(doc["b"], v)} for v in logs]


@pytest.mark.parametrize("name", list(SCALE_DOCS))
def test_verify_is_scale_free(tmp_path, capsys, monkeypatch, name):
    # T(l a) + H(l b) = l (T(a) + H(b)) for a common constant l: every command, verify among them, gives one exit
    # code per document and, where it prints them, one dimKer/dimCoker across l, and no exception escapes main;
    # special is held where its family tag stays, as the identity-plus-Hankel tag needs a = 1 exactly
    doc = SCALE_DOCS[name]
    if isinstance(doc, int):
        doc = json.loads(Path(census_documents(tmp_path, monkeypatch)[2][doc][1]).read_text())
    seen = {label: set() for label in SCALE_RUNS}
    families = set()
    for scaled_doc in common_constants(doc):
        path = write_doc(tmp_path, scaled_doc)
        for label, extra in SCALE_RUNS.items():
            code, out, _ = run(capsys, [label.split("-")[0], path, *extra])
            assert code != 5, (label, scaled_doc)
            report = json.loads(out) if out.startswith("{") else {}
            if label == "special":
                families.add(report.get("family"))
            dims = report.get("defects", {key: report[key] for key in ("dimKer", "dimCoker") if key in report})
            seen[label].add((code, json.dumps(dims, sort_keys=True)))
    if len(families) > 1:
        del seen["special"]
    assert all(len(runs) == 1 for runs in seen.values()), seen
    assert seen["verify"] != {(0, "{}")}
    assert doc is not SCALED_DOC or seen["verify"] == {(0, '{"dimCoker": 0, "dimKer": 1}')}


INPUT_ERRORS = [
    (doc, ["check"], "error:")
    for doc in [
        {"a": {"kappa": -1}, "b": {"kappa": -1}},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 0.5},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": "nonsense"},
        {"a": {"kappa": 1}, "b": {"jumps": [{"theta_num": 1, "theta_den": 3, "beta": [0.2, 0.0]}]}, "p": 2},
        {"a": {"winding": 1}, "b": {}, "p": 2},
        {"a": {"scale": [0.0, 0.0]}, "b": {}, "p": 2},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2, "options": {"truncation": -1}},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2, "options": {"truncation": None}},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2, "options": {"section_size": 0}},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": float("nan")},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": float("inf")},
        {"a": {"jumps": [{"theta_num": 0, "theta_den": 1, "beta": [float("nan"), 0.0]}]}, "b": {}, "p": 2},
        {**README_DOC, "options": {"tolerance": float("nan")}},
        {**README_DOC, "options": {"tolerance": 0.0}},
    ]
]
# rank_tolerance is no longer an option: a document that still sets it fails as any unknown key does
INPUT_ERRORS += [
    ({**TWO_JUMP_DOC, "options": {"rank_tolerance": v}}, ["defects"], "options: unknown keys ['rank_tolerance']")
    for v in (float("nan"), 2.0, 0.0)
]
INPUT_ERRORS += [
    ({**README_DOC, "options": {"curve_samples": 0}}, ["check"], "options: unknown keys ['curve_samples']"),
    (README_DOC, ["curve", "--samples", "0"], "error:"),
]
# residuals whose deviation bound overflows a float
INPUT_ERRORS += [
    ({"a": {"log_smooth": [{"k": 0, "re": 1000.0}]}, "b": {}, "p": 2}, ["check"], "error:"),
    ({"a": {"log_smooth": [{"k": 1, "re": 1e300}, {"k": -1, "re": 1e300}]}, "b": {}, "p": 2}, ["check"], "error:"),
]
# a misspelled option, keys the document does not know, and log terms that are not numbers: the error names each
INPUT_ERRORS += [
    ({**README_DOC, "options": {"section_szie": 8}}, ["verify"], "error: options: unknown keys ['section_szie']"),
    ({**README_DOC, "note": "x"}, ["check"], "error: input document: unknown keys ['note']"),
    ({**README_DOC, "P": 2}, ["sweep", "--p-from", "6/5", "--p-to", "3", "--steps", "3"], "unknown keys ['P']"),
    ({"a": {"log_smooth": [{"k": 1, "re": "0.2"}]}, "b": {}, "p": 2}, ["check"], "a.log_smooth[0].re must be a number"),
    ({"a": {}, "b": {"log_smooth": [{"k": 1}, {"k": 2, "im": None}]}, "p": 2}, ["check"], "b.log_smooth[1].im must be"),
]
# scales whose products leave the float range: c*c~ underflows, and 1/b overflows
INPUT_ERRORS += [
    ({"a": {"kappa": -1, "scale": [1e-200, 0.0]}, "b": {"kappa": -1}, "p": 2}, ["check"], "scale must be nonzero"),
    ({"a": {"scale": [1e-320, 0.0]}, "b": {"scale": [1e-320, 0.0]}, "p": 2}, ["defects"], "scale must be nonzero"),
]


@pytest.mark.parametrize(
    "doc,command,message", INPUT_ERRORS, ids=[f"doc{i}" for i in range(len(INPUT_ERRORS))]
)
def test_input_errors_exit_three(tmp_path, capsys, doc, command, message):
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, [command[0], path, *command[1:]])
    assert code == 3
    assert out == ""
    assert "error:" in err and message in err


# p beyond the float range, and p so near 1 that it rounds to 1.0 (as q does on the d side of the huge p)
HUGE_P_DOC = {"a": {"kappa": 1}, "b": {}, "p": "1e400"}
NEAR_ONE_P_DOC = {**HUGE_P_DOC, "p": f"{10**30 + 1}/{10**30}"}


@pytest.mark.parametrize(
    "doc, argv",
    [
        (HUGE_P_DOC, ["curve"]),
        (HUGE_P_DOC, ["curve", "--side", "d"]),
        (NEAR_ONE_P_DOC, ["curve"]),
        (HUGE_P_DOC, ["sweep", "--p-from", "1e400", "--p-to", "2", "--steps", "3"]),
        (HUGE_P_DOC, ["sweep", "--p-from", NEAR_ONE_P_DOC["p"], "--p-to", f"{10**30 + 3}/{10**30}", "--steps", "3"]),
        (HUGE_P_DOC, ["sweep", "--p-from", NEAR_ONE_P_DOC["p"], "--p-to", "2", "--steps", "2"]),
    ],
    ids=["curve-huge", "curve-d-huge", "curve-near-one", "sweep-huge", "sweep-near-one", "sweep-from-near-one"],
)
def test_p_without_a_float_exits_three(tmp_path, capsys, doc, argv):
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, [argv[0], path, *argv[1:]])
    assert (code, out) == (3, "")
    assert err.startswith("error: p: ")
    # the exact commands keep their verdict: both p sit on a boundary of a = t
    for command in ("check", "index", "defects", "verify"):
        assert run(capsys, [command, path])[0] == 2, command


def test_structural_mismatch_names_the_jump(tmp_path, capsys):
    # a = u(i, 1/4) against b = 1: the error prints the jump point's record repr
    doc = {"a": {"jumps": [{"theta_num": 1, "theta_den": 4, "beta": [0.25, 0.0]}]}, "b": {}, "p": 2}
    assert run(capsys, ["index", write_doc(tmp_path, doc)]) == (
        3,
        "",
        "error: pair fails the structural condition: a*a~ and b*b~ disagree at the jump UnitPoint(num=1, den=4):"
        " residual exponent (0.25+0j)\n",
    )


def test_invalid_json_exits_three(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["check", str(path)])
    assert code == 3
    assert "invalid JSON" in err


def test_csv_unsupported_for_defects(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2})
    code, _, err = run(capsys, ["defects", path, "--format", "csv"])
    assert code == 3
    assert "error: unrecognized arguments: --format csv" in err


@pytest.mark.parametrize("command, fmt", [("verify", "csv"), ("check", "json")])
def test_format_is_a_usage_error_without_a_csv(tmp_path, capsys, command, fmt):
    # only curve and sweep take --format; elsewhere it exits 3 before the command runs,
    # where verify --format csv used to run the oracle pass and print its refusal (exit 4)
    code, out, err = run(capsys, [command, write_doc(tmp_path, README_DOC), "--format", fmt])
    assert (code, out) == (3, "")
    assert f"unrecognized arguments: --format {fmt}" in err


def test_usage_error_exits_three(capsys):
    code, _, err = run(capsys, ["sweep", "-", "--steps", "3"])
    assert code == 3
    assert "error:" in err


def test_one_parser_serves_repeated_calls(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": {"kappa": -1}, "b": {}, "p": 2})
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, ["index", path])
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(["--version"])
        assert stop.value.code == 0 and capsys.readouterr().out == f"th-fredholm {cli.__version__}\n"
        assert run(capsys, ["index", path, "--steps", "3"])[0] == 3
        assert run(capsys, ["bogus"])[0] == 3
    assert run(capsys, ["index", path]) == first and first[0] == 0


COLD_START_PROBE = """
import contextlib, hashlib, io, json, sys

# scipy is blocked: importing it, or any submodule, raises ImportError
sys.modules["scipy"] = None

def scipy_modules():
    return sorted(n for n, m in sys.modules.items() if n.split(".")[0] == "scipy" and m is not None)

from th_fredholm import cli

fmatrix, monomial, readme = sys.argv[1:4]
seen = {"import": scipy_modules()}
runs = {"check": ["check", fmatrix], "defects": ["defects", fmatrix],
        "verify monomial": ["verify", monomial], "verify README": ["verify", readme]}
for label, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    doc = json.loads(out.getvalue())
    seen[label] = [code, doc.get("caseTag", doc.get("errorKind")), scipy_modules()]
commands = {}
for argv in json.loads(sys.argv[4]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    commands[" ".join(argv)] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), scipy_modules()]
seen["commands"] = commands
try:
    import scipy.special
except ImportError:
    seen["blocked"] = True
print(json.dumps(seen))
"""


def test_cold_commands_do_not_import_scipy(tmp_path, capsys):
    # verify builds its kernel candidates by convolution, with no scipy.linalg:
    # t^-1 has one particular candidate, and README_DOC fails on its residual.
    # With scipy blocked, all nine commands on the README and four-jump
    # documents print what they print with scipy importable
    monomial = {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2}
    docs = {
        "fmatrix.json": JACOBI_FMATRIX,
        "monomial.json": monomial,
        "readme.json": README_DOC,
        "four-jump.json": {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2},
        "four-jump-steep.json": {"a": EX_CURVE_SYMBOL, "b": {}, "p": "113/100"},
    }
    files = [write_doc(tmp_path, doc, name) for name, doc in docs.items()]
    extra = {"sweep": ["--p-from", "6/5", "--p-to", "3", "--steps", "25"]}
    argvs = [[command, path, *extra.get(command, [])] for path in files[2:] for command in cli._COMMANDS]
    unblocked = {}
    for argv in argvs:
        code, out, _ = run(capsys, argv)
        unblocked[" ".join(argv)] = [code, hashlib.sha256(out.encode()).hexdigest(), []]
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE, *files[:3], json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    seen = json.loads(result.stdout)
    assert seen["import"] == []
    assert seen["check"] == [0, None, []]
    assert seen["defects"] == [0, "F-matrix", []]
    assert seen["verify monomial"] == [0, None, []]
    assert seen["verify README"] == [4, "numerical-confidence", []]
    assert seen.get("blocked") and seen["commands"] == unblocked
    assert {code for code, _, _ in unblocked.values()} == {0, 4}


EXACT_TIER_PROBE = """
import contextlib, io, json, sys

def loaded():
    top = {name.split(".")[0] for name in sys.modules}
    return [module in top for module in ("numpy", "dataclasses", "inspect")]

import th_fredholm

seen = [["import th_fredholm", *loaded()]]
from th_fredholm import cli

seen.append(["import th_fredholm.cli", *loaded()])
family, general, hankel, failing = sys.argv[1:]
sweep = ["--p-from", "6/5", "--p-to", "3", "--steps", "25"]
runs = [["check", family], ["index", family], ["sweep", family] + sweep, ["pmap", family],
        ["special", family], ["special", general], ["defects", general], ["special", hankel],
        ["factor", general], ["factor", failing], ["curve", general], ["curve", general, "--side", "d"],
        ["verify", general]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([argv[0], code, *loaded()])
print(json.dumps(seen))
"""


def test_exact_commands_do_not_import_numpy(tmp_path):
    # README_DOC is the a-driven family T(a) + H(a); the four-jump symbol
    # against b = 1 is General and G-zero, and not Fredholm at p = 4/3;
    # a = 1, b = t^2 u(i,1/4) u(-i,1/4) is identity-plus-Hankel and G-count
    family = write_doc(tmp_path, README_DOC, "family.json")
    general = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2}, "general.json")
    hankel = write_doc(tmp_path, {**TWO_JUMP_DOC, "b": {**TWO_JUMP_DOC["b"], "kappa": 2}}, "hankel.json")
    failing = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": "4/3"}, "failing.json")
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", EXACT_TIER_PROBE, family, general, hankel, failing],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    # each entry: exit code, then whether numpy, dataclasses and inspect are loaded;
    # the package defines no dataclasses, so the exact tier loads neither of the last two
    assert json.loads(result.stdout) == [
        ["import th_fredholm", False, False, False],
        ["import th_fredholm.cli", False, False, False],
        ["check", 0, False, False, False],
        ["index", 0, False, False, False],
        ["sweep", 0, False, False, False],
        ["pmap", 0, False, False, False],
        ["special", 0, False, False, False],
        ["special", 0, False, False, False],
        # counted defects are integer arithmetic
        ["defects", 0, False, False, False],
        ["special", 0, False, False, False],
        # plus-factor series by their recurrence, curve points in scalar arithmetic
        ["factor", 0, False, False, False],
        ["factor", 1, False, False, False],
        ["curve", 0, False, False, False],
        ["curve", 0, False, False, False],
        # the probe is live: the oracle loads numpy, and inspect with it, but still no dataclasses
        ["verify", 0, True, False, True],
    ]


def test_public_names_resolve_to_their_defining_modules():
    import th_fredholm
    from th_fredholm import confidence, special_families, symbol_core, verification_oracle, wiener_hopf

    star = {}
    exec("from th_fredholm import *", star)
    for name in th_fredholm.__all__:
        obj = getattr(th_fredholm, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj is star[name], name
    assert defect_solver.RankUndecidable is confidence.RankUndecidable
    assert verification_oracle.MethodDisagreement is confidence.MethodDisagreement
    assert verification_oracle.ResidualTooLarge is confidence.ResidualTooLarge
    with pytest.raises(AttributeError):
        th_fredholm.eval_many
    # the test-only routes live in tests/helpers.py, and the package names none of them
    moved = {
        symbol_core: ["eval_symbol"],
        # the index and the invertibility verdict are read off normalized_pair and defect_numbers
        fredholm_engine: ["winding_from_curve", "fredholm_index"],
        defect_solver: ["invertibility"],
        verification_oracle: ["finite_section", "toeplitz_matrix", "hankel_matrix", "FiniteSection"],
        wiener_hopf: ["factor_reconstruction_defect", "rho_for_pair"],
        special_families: [
            "JacobiData",
            "_leading_coefficient_sq",
            "jacobi_determinant",
            "jacobi_symbol",
            # the I+H report's check that could not fire, and its split record
            "InternalDisagreement",
            "HankelSplit",
        ],
    }
    for module, names in moved.items():
        for name in names:
            assert not hasattr(module, name), name
            with pytest.raises(AttributeError):
                getattr(th_fredholm, name)
    # rho and a symbol's coefficients come from one rule and one bound in quadrature: the symbol-only
    # rule, bound and evaluator, and rho's own record and rule are gone
    gone = {
        quadrature: ["fourier_quadrature", "fourier_bound", "FOURIER_ELLIPSES", "FOURIER_NODES"],
        verification_oracle: ["panel_count", "LOG_SHARE", "_panel_sums", "eval_many"],
        wiener_hopf: ["RhoParts", "RHO_RULE", "_rho_rule", "_gauss_panels", "_rho_values"],
    }
    for module, names in gone.items():
        for name in names:
            assert not hasattr(module, name), name
    # every refusal comes from the exact conditions and carries their report
    for name in ("CurveThroughOrigin", "NotFredholmOnSide"):
        assert not hasattr(fredholm_engine, name), name
        with pytest.raises(AttributeError):
            getattr(th_fredholm, name)
    with pytest.raises(TypeError):
        fredholm_engine.NotFredholm("not Fredholm")
    # the plus factor's series come from its recurrence alone
    for name in ("binomial_coefficients", "eta_series", "_exp_of_monomial", "smooth_plus_factor"):
        assert not hasattr(wiener_hopf, name), name
    assert wiener_hopf.build_plus_factor is fredholm_engine.build_plus_factor
    # a symbol's value, at an angle or as a one-sided limit, comes from its one exponent
    assert not hasattr(symbol_core, "_jump_value_interior")
    methods = {
        symbol_core.FourierLogPoly: ["eval_at", "is_empty"],
        symbol_core.UnitPoint: ["value"],
        symbol_core.Exponent: ["half"],
        verification_oracle.KernelBasis: ["tags"],
        fredholm_engine.PlusFactor: ["eval_at", "eval_tilde_at"],
        wiener_hopf.RhoSeries: ["eval_at", "as_array"],
        verification_oracle.TwoSidedSeries: ["as_array"],
        fredholm_engine.NormalizedRep: ["reconstruct", "side"],
        fredholm_engine.ConditionReport: ["fredholm"],
        fredholm_engine.CurveData: ["tags", "points"],
        # a family's winding and defect numbers are its DefectReport's
        special_families.FamilyReport: ["tag", "p", "kappa", "dim_ker", "dim_coker", "index"],
    }
    for cls, names in methods.items():
        for name in names:
            assert not hasattr(cls, name) and name not in cls.__slots__, (cls.__name__, name)
    # validate_pair is the one structural check, and its tolerances are constants
    assert not hasattr(fredholm_engine, "ensure_unimodular")
    assert not hasattr(symbol_core.FourierLogPoly, "odd_defect")
    knobs = {
        symbol_core.validate_pair: "tol",
        symbol_core.symbols_equal: "tol",
        fredholm_engine.structural_sign: "tol",
        fredholm_engine.fredholm_conditions: "eps_boundary",
        fredholm_engine.side_condition_sites: "eps_boundary",
        fredholm_engine._site: "eps",
    }
    for fn, name in knobs.items():
        assert name not in inspect.signature(fn).parameters, (fn.__name__, name)
    # curve --samples is the one knob for curve samples
    doc = {**README_DOC, "options": {"curve_samples": 2048}}
    with pytest.raises(cli.InputError, match=r"options: unknown keys \['curve_samples'\]"):
        cli.Job(doc)
