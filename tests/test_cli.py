"""Exit codes, document schemas, and determinism of the command line."""

import dataclasses
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

from th_fredholm import cli, fredholm_engine, special_families
from th_fredholm.cli import main
from th_fredholm.fredholm_engine import BoundaryCase
from th_fredholm.symbol_core import CanonicalSymbol

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


def test_curve_json_side_d(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2})
    code, out, _ = run(capsys, ["curve", path, "--side", "d", "--format", "json", "--samples", "512"])
    assert code == 0
    doc = json.loads(out)
    assert doc["side"] == "d"
    assert isinstance(doc["winding"], int)
    assert doc["segments"][0]["points"]


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


def test_boundary_raised_inside_command_exits_two(tmp_path, capsys, monkeypatch):
    def raises(job, ns):
        raise BoundaryCase("on the boundary")

    monkeypatch.setitem(cli._COMMANDS, "index", raises)
    path = write_doc(tmp_path, {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2})
    code, out, _ = run(capsys, ["index", path])
    assert code == 2
    assert json.loads(out)["error"] == "on the boundary"


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
    code and its overall verdict and sites from each command.  On a passing
    document every command exits 0, except that verify may refuse with 4.
    """
    code, out, _ = run(capsys, ["check", path])
    check = json.loads(out)
    for command in commands:
        got, out, _ = run(capsys, [command, path])
        if code == 0:
            assert got in ((0, 4) if command == "verify" else (0,)), (command, got)
            continue
        assert got == code, (command, got, code)
        doc = json.loads(out)
        assert doc["command"] == command
        assert (doc["overall"], doc["sites"]) == (check["overall"], check["sites"])
    return code


def test_exit_codes_agree_on_family_documents(tmp_path, capsys):
    rng = random.Random(2026)
    seen = set()
    for i in range(48):
        path = write_doc(tmp_path, family_document(rng, boundary=i % 2 == 0))
        seen.add(gated_like_check(capsys, path, ("index", "defects", "factor", "special", "verify")))
    assert seen == {0, 1, 2}


def test_exit_codes_agree_on_general_documents(tmp_path, capsys):
    # denominator-8 exponents put some sites exactly on the forbidden set
    rng = np.random.default_rng(2027)
    seen = []
    for i in range(24):
        pair = pair_from_c_and_b(random_structural_c(rng, denom=8), random_generic_b(rng, denom=8))
        doc = {"a": symbol_node(pair.a), "b": symbol_node(pair.b), "p": ("2", "4/3")[i % 2]}
        seen.append(gated_like_check(capsys, write_doc(tmp_path, doc), ("index", "defects", "factor", "verify")))
    assert {0, 1} <= set(seen)


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
    assert report["rho"]["estimate"] < 1e-12
    assert report["rho"]["seriesDeviation"] < 1e-8


def test_verify_confidence_failure_exits_four(tmp_path, capsys):
    doc = {
        "a": {"jumps": [{"theta_num": 0, "theta_den": 1, "beta": [0.125, 0.0]}]},
        "b": {"jumps": [{"theta_num": 0, "theta_den": 1, "beta": [0.125, 0.0]}]},
        "p": 2,
        "options": {"tolerance": 1e-18},
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["verify", path])
    assert code == 4
    assert json.loads(out)["errorKind"] == "numerical-confidence"


def test_verify_four_jump_example_passes_fourier_step(tmp_path, capsys):
    path = write_doc(tmp_path, {"a": EX_CURVE_SYMBOL, "b": {}, "p": 2})
    code, out, _ = run(capsys, ["verify", path])
    assert code == 0
    deviation = json.loads(out)["fourierDeviation"]
    assert deviation["a"] < 1e-12 and deviation["b"] < 1e-12


def test_internal_disagreement_exits_four(tmp_path, capsys, monkeypatch):
    # skew the delta side by half a unit, so the Hankel split's gamma - delta
    # at 1 is not an integer
    real = special_families.defect_numbers

    def skewed(pair, p):
        report = real(pair, p)
        rep_d = dataclasses.replace(report.rep_d, gamma_plus=report.rep_d.gamma_plus + Fraction(1, 2))
        return dataclasses.replace(report, rep_d=rep_d)

    monkeypatch.setattr(special_families, "defect_numbers", skewed)
    code, out, _ = run(capsys, ["special", write_doc(tmp_path, JACOBI_FMATRIX)])
    assert code == 4
    assert json.loads(out)["errorKind"] == "internal-disagreement"


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


INPUT_ERRORS = [
    (doc, ["check"])
    for doc in [
        {"a": {"kappa": -1}, "b": {"kappa": -1}},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 0.5},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": "nonsense"},
        {"a": {"kappa": 1}, "b": {"jumps": [{"theta_num": 1, "theta_den": 3, "beta": [0.2, 0.0]}]}, "p": 2},
        {"a": {"winding": 1}, "b": {}, "p": 2},
        {"a": {"scale": [0.0, 0.0]}, "b": {}, "p": 2},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2, "options": {"truncation": -1}},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": 2, "options": {"section_size": 0}},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": float("nan")},
        {"a": {"kappa": -1}, "b": {"kappa": -1}, "p": float("inf")},
        {"a": {"jumps": [{"theta_num": 0, "theta_den": 1, "beta": [float("nan"), 0.0]}]}, "b": {}, "p": 2},
        {**README_DOC, "options": {"tolerance": float("nan")}},
        {**README_DOC, "options": {"tolerance": 0.0}},
        {**TWO_JUMP_DOC, "options": {"rank_tolerance": float("nan")}},
        {**TWO_JUMP_DOC, "options": {"rank_tolerance": 2.0}},
        {**TWO_JUMP_DOC, "options": {"rank_tolerance": 0.0}},
        {**README_DOC, "options": {"curve_samples": 0}},
    ]
] + [(README_DOC, ["curve", "--samples", "0"])]


@pytest.mark.parametrize(
    "doc,command", INPUT_ERRORS, ids=[f"doc{i}" for i in range(len(INPUT_ERRORS))]
)
def test_input_errors_exit_three(tmp_path, capsys, doc, command):
    path = write_doc(tmp_path, doc)
    code, out, err = run(capsys, [command[0], path, *command[1:]])
    assert code == 3
    assert out == ""
    assert "error:" in err


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
    assert "not supported" in err


def test_usage_error_exits_three(capsys):
    code, _, err = run(capsys, ["sweep", "-", "--steps", "3"])
    assert code == 3
    assert "error:" in err


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

COLD_START_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

from th_fredholm import cli

seen = {"import": scipy_modules()}
for command in ("check", "defects"):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([command, sys.argv[1]])
    seen[command] = [code, json.loads(out.getvalue()).get("caseTag"), scipy_modules()]
print(json.dumps(seen))
"""


def test_cold_commands_do_not_import_scipy(tmp_path):
    path = write_doc(tmp_path, JACOBI_FMATRIX)
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE, path],
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
