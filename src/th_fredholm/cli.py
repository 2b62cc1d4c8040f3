"""Command line surface: parse a symbol-pair document, run one pipeline.

Documents are JSON.  Reports are byte-deterministic: keys sorted, indent 2,
no timestamps, a fixed version string.  Curves and sweeps can also be
emitted as CSV.  Exit codes: 0 success, 1 not Fredholm or not invertible,
2 boundary case, 3 input error, 4 a numerical confidence audit failed or
two internal routes disagreed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .defect_solver import DefectReport, RankUndecidable, defect_numbers
from .fredholm_engine import (
    EPS_BOUNDARY,
    BoundaryCase,
    ConditionReport,
    CurveThroughOrigin,
    NotFredholm,
    PMap,
    build_hash_curve,
    exponent_pair,
    fredholm_conditions,
    normalized_pair,
    p_map,
    winding_from_curve,
)
from .special_families import (
    GENERAL,
    ID_PLUS_HANKEL,
    InternalDisagreement,
    classify_family,
    family_fredholm,
    hankel_identity_report,
)
from .symbol_core import (
    CanonicalSymbol,
    ConditionViolated,
    Exponent,
    JumpFactor,
    SymbolPair,
    UnitPoint,
    as_fraction,
    validate_pair,
)
from .verification_oracle import (
    SETTLE_TOL,
    MethodDisagreement,
    ResidualTooLarge,
    fourier_coeffs,
    kernel_residual_check,
    rho_series,
)
from .wiener_hopf import build_plus_factor, rho_coefficients

_CONFIDENCE_ERRORS = (RankUndecidable, MethodDisagreement, ResidualTooLarge)


class InputError(ValueError):
    """Malformed input document or command line."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _as_int(x, what: str) -> int:
    _require(isinstance(x, int) and not isinstance(x, bool), f"{what} must be an integer")
    return x


def _as_real(x, what: str) -> float:
    _require(
        isinstance(x, (int, float)) and not isinstance(x, bool), f"{what} must be a number"
    )
    # NaN fails this comparison too; JSON readers accept NaN and Infinity
    _require(abs(x) <= sys.float_info.max, f"{what} must be finite")
    return float(x)


def _as_complex(x, what: str) -> complex:
    _require(isinstance(x, list) and len(x) == 2, f"{what} must be a [re, im] array")
    return complex(_as_real(x[0], what), _as_real(x[1], what))


def parse_symbol(node, name: str) -> CanonicalSymbol:
    _require(isinstance(node, dict), f"symbol {name!r} must be an object")
    unknown = set(node) - {"kappa", "scale", "log_smooth", "jumps"}
    _require(not unknown, f"symbol {name!r}: unknown keys {sorted(unknown)}")
    kappa = _as_int(node.get("kappa", 0), f"{name}.kappa")
    scale = _as_complex(node.get("scale", [1.0, 0.0]), f"{name}.scale")
    log = {}
    for i, term in enumerate(node.get("log_smooth", [])):
        _require(isinstance(term, dict), f"{name}.log_smooth[{i}] must be an object")
        k = _as_int(term.get("k"), f"{name}.log_smooth[{i}].k")
        log[k] = log.get(k, 0j) + complex(
            _as_real(term.get("re", 0.0), "re"), _as_real(term.get("im", 0.0), "im")
        )
    jumps = []
    for i, jump in enumerate(node.get("jumps", [])):
        _require(isinstance(jump, dict), f"{name}.jumps[{i}] must be an object")
        num = _as_int(jump.get("theta_num"), f"{name}.jumps[{i}].theta_num")
        den = _as_int(jump.get("theta_den"), f"{name}.jumps[{i}].theta_den")
        _require(den > 0, f"{name}.jumps[{i}]: theta_den must be positive")
        beta = _as_complex(jump.get("beta"), f"{name}.jumps[{i}].beta")
        jumps.append(JumpFactor(UnitPoint(num, den), Exponent.of(beta)))
    try:
        return CanonicalSymbol(kappa=kappa, scale=scale, log_smooth=log, jumps=tuple(jumps))
    except ValueError as e:
        raise InputError(f"symbol {name!r}: {e}") from e


def parse_p(value) -> Fraction:
    if isinstance(value, str):
        try:
            pf = as_fraction(value)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"p: cannot parse {value!r}") from e
    else:
        pf = Fraction(_as_real(value, "p")).limit_denominator(10**12)
    try:
        exponent_pair(pf)
    except ValueError as e:
        raise InputError(str(e)) from e
    return pf


class Job:
    """Parsed input document: the pair, the exponent, and the options."""

    def __init__(self, doc, need_p: bool = True):
        _require(isinstance(doc, dict), "input document must be a JSON object")
        a = parse_symbol(doc.get("a"), "a")
        b = parse_symbol(doc.get("b"), "b")
        try:
            self.pair: SymbolPair = validate_pair(a, b)
        except ConditionViolated as e:
            raise InputError(f"pair fails the structural condition: {e}") from e
        self.p: Fraction | None = None
        if doc.get("p") is not None:
            self.p = parse_p(doc["p"])
        elif need_p:
            raise InputError("input document needs p")
        options = doc.get("options", {})
        _require(isinstance(options, dict), "options must be an object")
        self.truncation = options.get("truncation")
        if self.truncation is not None:
            self.truncation = _as_int(self.truncation, "options.truncation")
            _require(self.truncation >= 0, "options.truncation must be at least 0")
        self.section_size = _as_int(options.get("section_size", 256), "options.section_size")
        _require(self.section_size >= 1, "options.section_size must be at least 1")
        self.curve_samples = _as_int(options.get("curve_samples", 2048), "options.curve_samples")
        _require(self.curve_samples >= 1, "options.curve_samples must be at least 1")
        self.tolerance = _as_real(options.get("tolerance", 1e-6), "options.tolerance")
        _require(self.tolerance > 0, "options.tolerance must be positive")
        self.rank_tolerance = _as_real(
            options.get("rank_tolerance", 1e-8), "options.rank_tolerance"
        )
        _require(0 < self.rank_tolerance < 1, "options.rank_tolerance must lie in (0, 1)")


def _frac(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _cnum(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _finite(x) -> float | None:
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _condition_doc(command: str, report: ConditionReport) -> dict:
    return {
        "command": command,
        "version": __version__,
        "p": _frac(report.p),
        "q": _frac(report.q),
        "overall": report.overall,
        "sites": [
            {
                "side": s.side,
                "point": _frac(s.point.turns),
                "tested": float(s.tested),
                "forbiddenOffset": float(s.forbidden_offset),
                "distance": float(s.distance),
                "verdict": s.verdict,
            }
            for s in report.sites
        ],
    }


def _defect_doc(command: str, report: DefectReport, p: Fraction) -> dict:
    return {
        "command": command,
        "version": __version__,
        "p": _frac(p),
        "n": report.n,
        "m": report.m,
        "index": report.index,
        "dimKer": report.dim_ker,
        "dimCoker": report.dim_coker,
        "caseTag": report.case_tag,
        "kernelTolerance": _finite(report.kernel_tolerance),
        "gapRatio": _finite(report.gap_ratio),
    }


def _exponent_doc(e: Exponent) -> dict:
    return {"re": _frac(e.re), "im": e.im}


def cmd_check(job: Job, ns) -> tuple[dict, int]:
    report = fredholm_conditions(job.pair, job.p)
    codes = {"pass": 0, "boundary": 2, "fail": 1}
    return _condition_doc("check", report), codes[report.overall]


def cmd_index(job: Job, ns) -> tuple[dict, int]:
    rep_c, rep_d = normalized_pair(job.pair, job.p)
    doc = {
        "command": "index",
        "version": __version__,
        "p": _frac(job.p),
        "n": rep_c.n,
        "m": rep_d.n,
        "index": rep_d.n - rep_c.n,
    }
    return doc, 0


def cmd_defects(job: Job, ns) -> tuple[dict, int]:
    report = defect_numbers(job.pair, job.p, tol_rel=job.rank_tolerance)
    return _defect_doc("defects", report, job.p), 0


def cmd_factor(job: Job, ns) -> tuple[dict, int]:
    order = job.truncation if job.truncation is not None else 64
    rep_c, rep_d = normalized_pair(job.pair, job.p)
    sides = {}
    for key, rep in (("c", rep_c), ("d", rep_d)):
        factor = build_plus_factor(rep)
        sides[key] = {
            "n": rep.n,
            "constant": _cnum(factor.constant),
            "analyticLog": [
                {"k": k, "re": float(v.real), "im": float(v.imag)}
                for k, v in factor.analytic_log.coeffs
            ],
            "etaExponents": [
                {"point": _frac(pt.turns), **_exponent_doc(e)}
                for pt, e in factor.eta_exponents
            ],
            "series": [_cnum(z) for z in factor.realize(order).coeffs],
        }
    doc = {
        "command": "factor",
        "version": __version__,
        "p": _frac(job.p),
        "order": order,
        "plusFactors": sides,
    }
    return doc, 0


def cmd_curve(job: Job, ns) -> tuple[dict, int]:
    symbol = job.pair.c if ns.side == "c" else job.pair.d
    pf, qf = exponent_pair(job.p)
    big_p = pf if ns.side == "c" else qf
    samples = ns.samples if ns.samples is not None else job.curve_samples
    _require(samples >= 1, "--samples must be at least 1")
    curve = build_hash_curve(symbol, big_p, samples, max(64, samples // 8))
    try:
        winding = winding_from_curve(curve)
    except ValueError as e:
        raise MethodDisagreement(str(e)) from e
    doc = {
        "command": "curve",
        "version": __version__,
        "p": _frac(job.p),
        "side": ns.side,
        "winding": winding,
        "segments": [
            {"tag": tag, "points": [_cnum(z) for z in pts]} for tag, pts in curve.segments
        ],
    }
    return doc, 0


def cmd_special(job: Job, ns) -> tuple[dict, int]:
    tag = classify_family(job.pair)
    doc = {"command": "special", "version": __version__, "p": _frac(job.p), "family": tag}
    if tag == GENERAL:
        doc["note"] = "no structured fast path; use check/index/defects"
        return doc, 0
    if tag == ID_PLUS_HANKEL:
        report = hankel_identity_report(job.pair, job.p)
        doc.update(
            n=report.defect.n,
            m=report.defect.m,
            index=report.index,
            dimKer=report.dim_ker,
            dimCoker=report.dim_coker,
            caseTag=report.defect.case_tag,
            nPlus=report.split.n_plus,
            nMinus=report.split.n_minus,
            pairSigns=[
                {"point": _frac(pt.turns), "difference": n_r}
                for pt, n_r in report.split.pair_signs
            ],
        )
        return doc, 0
    report = family_fredholm(job.pair, tag, job.p)
    doc.update(
        kappa=report.kappa,
        index=report.index,
        dimKer=report.dim_ker,
        dimCoker=report.dim_coker,
        betaPlus=_exponent_doc(report.beta_plus),
        betaMinus=_exponent_doc(report.beta_minus),
        pairs=[
            {
                "point": _frac(pt.turns),
                "upper": _exponent_doc(up),
                "lower": _exponent_doc(down),
            }
            for pt, up, down in report.pairs
        ],
    )
    return doc, 0


def cmd_verify(job: Job, ns) -> tuple[dict, int]:
    report = defect_numbers(job.pair, job.p, tol_rel=job.rank_tolerance)
    order = job.truncation if job.truncation is not None else 64
    series_a = fourier_coeffs(job.pair.a, order, tol=job.tolerance)
    series_b = fourier_coeffs(job.pair.b, order, tol=job.tolerance)
    rho = report.rho
    if rho is None:
        c_plus, d_plus = build_plus_factor(report.rep_c), build_plus_factor(report.rep_d)
        rho = rho_coefficients(c_plus, d_plus, job.pair.b, report.n, report.m, 16)
    evenness = rho.evenness_defect()
    even_gate = max(1e-8, 10.0 * rho.tail_bound)
    if evenness > even_gate:
        raise MethodDisagreement(
            f"rho evenness defect {evenness:.3e} exceeds the estimate gate {even_gate:.3e}"
        )
    series = rho_series(rho.c_plus, rho.d_plus, rho.b_symbol, rho.n, rho.m, 16)
    series_dev = max(abs(rho.get(k) - series.get(k)) for k in range(-16, 17))
    series_gate = max(1e-8, 10.0 * (series.tail_bound + rho.tail_bound))
    if series.tail_bound < SETTLE_TOL and series_dev > series_gate:
        raise MethodDisagreement(f"rho quadrature and series differ by {series_dev:.3e} > {series_gate:.3e}")
    basis = kernel_residual_check(
        job.pair, job.p, report, N=job.section_size, tol=job.tolerance
    )
    worst = float(max(basis.residuals)) if basis.residuals.size else 0.0
    doc = {
        "command": "verify",
        "version": __version__,
        "p": _frac(job.p),
        "fourierDeviation": {
            "a": _finite(series_a.cross_deviation),
            "b": _finite(series_b.cross_deviation),
        },
        "rho": {
            "evenness": evenness,
            "estimate": _finite(rho.tail_bound),
            "seriesDeviation": series_dev,
        },
        "kernel": {
            "count": len(basis.vectors),
            "dimKer": report.dim_ker,
            "gramRank": basis.gram_rank,
            "maxResidual": worst,
            "sectionSize": job.section_size,
        },
        "defects": {"dimKer": report.dim_ker, "dimCoker": report.dim_coker},
    }
    return doc, 0


def _sweep_values(ns) -> list[Fraction]:
    lo = parse_p(ns.p_from)
    hi = parse_p(ns.p_to)
    steps = ns.steps
    _require(steps >= 1, "--steps must be at least 1")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _verdict_entry(pmap: PMap, p: Fraction, entry: dict) -> dict:
    """entry plus the gate's verdict at p and, on a pass, n, m and the index."""
    entry.update(overall="pass", n=None, m=None, index=None)
    try:
        n, m = pmap.windings(p)
    except NotFredholm as e:
        entry["overall"] = e.report.overall
    else:
        entry.update(n=n, m=m, index=m - n)
    return entry


def cmd_sweep(job: Job, ns) -> tuple[dict, int]:
    pmap = p_map(job.pair)
    rows = [_verdict_entry(pmap, p, {"p": float(p)}) for p in _sweep_values(ns)]
    doc = {"command": "sweep", "version": __version__, "rows": rows}
    return doc, 0


def cmd_pmap(job: Job, ns) -> tuple[dict, int]:
    pmap = p_map(job.pair)
    excluded, ends = [], []
    for b in reversed(pmap.breakpoints):
        entry = {
            "sites": [{"side": side, "point": _frac(pt.turns)} for side, pt in b.sites],
            "bandHalfWidth": float(Fraction(EPS_BOUNDARY) / b.slope),
        }
        if 0 < b.u < 1:
            excluded.append({"p": _frac(1 / b.u), **entry})
        else:
            ends.append({"u": _frac(b.u), **entry})
    # each interval's pair is read at its midpoint in u
    intervals = [
        _verdict_entry(pmap, 2 / (lo + hi), {"pFrom": _frac(1 / hi), "pTo": _frac(1 / lo) if lo else None})
        for lo, hi in reversed(list(zip(pmap.edges[:-1], pmap.edges[1:])))
    ]
    doc = {"command": "pmap", "version": __version__, "excluded": excluded, "ends": ends, "intervals": intervals}
    return doc, 0


def _curve_csv(doc: dict) -> str:
    lines = [f"# winding={doc['winding']}", "tag,re,im"]
    for seg in doc["segments"]:
        for re_part, im_part in seg["points"]:
            lines.append(f"{seg['tag']},{re_part!r},{im_part!r}")
    return "\n".join(lines) + "\n"


def _sweep_csv(doc: dict) -> str:
    lines = ["p,verdict,n,m,index"]
    for row in doc["rows"]:
        cells = [repr(row["p"]), row["overall"]] + [
            "" if row[k] is None else str(row[k]) for k in ("n", "m", "index")
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "check": cmd_check,
    "index": cmd_index,
    "defects": cmd_defects,
    "factor": cmd_factor,
    "curve": cmd_curve,
    "special": cmd_special,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "pmap": cmd_pmap,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors map to the input-error exit code, not argparse's 2."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="th-fredholm",
        description="Fredholm conditions, index, and defect numbers for T(a)+H(b) on H^p",
    )
    parser.add_argument("--version", action="version", version=f"th-fredholm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "check": "tri-state Fredholm conditions at every jump site",
        "index": "winding pair (n, m) and the index m - n",
        "defects": "defect numbers through the four-case dispatch",
        "factor": "plus factors of both auxiliary functions as series",
        "curve": "closed symbol curve for one side as points",
        "special": "structured-family fast path",
        "verify": "independent oracle suite for one instance",
        "sweep": "tabulate verdicts over a range of p",
        "pmap": "exact excluded points of p and the (n, m) between them",
    }
    parsers = {}
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input", nargs="?", default="-", help="JSON document path, - for stdin")
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        sp.add_argument("--format", choices=("json", "csv"), default=None)
        parsers[name] = sp
    parsers["curve"].add_argument("--side", choices=("c", "d"), default="c")
    parsers["curve"].add_argument("--samples", type=int, default=None)
    parsers["sweep"].add_argument("--p-from", dest="p_from", required=True)
    parsers["sweep"].add_argument("--p-to", dest="p_to", required=True)
    parsers["sweep"].add_argument("--steps", type=int, required=True)
    return parser


def _render(ns, doc: dict) -> str:
    fmt = ns.format or ("csv" if ns.command == "curve" else "json")
    if fmt == "csv":
        if ns.command == "curve":
            return _curve_csv(doc)
        if ns.command == "sweep":
            return _sweep_csv(doc)
        raise InputError(f"--format csv is not supported for {ns.command}")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path!r}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}") from e


def _write(ns, text: str) -> None:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(ns, message: str, code: int, kind: str | None = None) -> int:
    doc = {"command": ns.command, "version": __version__, "error": message}
    if kind:
        doc["errorKind"] = kind
    _write(ns, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return code


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    try:
        doc = _read_document(ns.input)
        job = Job(doc, need_p=ns.command not in ("sweep", "pmap"))
        try:
            result, code = _COMMANDS[ns.command](job, ns)
        except NotFredholm as e:
            if e.report is None:
                raise
            # the gate in normalized_pair refused: report it as check does
            result = _condition_doc(ns.command, e.report)
            code = 2 if isinstance(e, BoundaryCase) else 1
        _write(ns, _render(ns, result))
        return code
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except BoundaryCase as e:
        return _emit_error(ns, str(e), 2)
    except (NotFredholm, CurveThroughOrigin) as e:
        return _emit_error(ns, str(e), 1)
    except _CONFIDENCE_ERRORS as e:
        return _emit_error(ns, str(e), 4, kind="numerical-confidence")
    except InternalDisagreement as e:
        return _emit_error(ns, str(e), 4, kind="internal-disagreement")


if __name__ == "__main__":
    sys.exit(main())
