"""Command line surface: parse a symbol-pair document, run one pipeline.

Documents are JSON.  Reports are byte-deterministic: keys sorted, indent 2,
no timestamps, a fixed version string.  Curves and sweeps can also be
emitted as CSV.  main writes each JSON document's envelope (command and
version) and maps each verdict to the exit code.  Exit codes: 0 success,
1 not Fredholm, 2 boundary case, 3 input error or an unwritable --out, 4 a
numerical confidence audit failed, 5 any other exception, whose traceback
goes to stderr with nothing on stdout.  Every exit 1 or 2 comes from the exact
conditions, through fredholm_engine's gate: a command it refuses prints
check's report instead, in JSON whatever --format says, over both sides or,
for curve, over the side it draws.  special on a General pair reads no
(n, m) and is not gated.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .confidence import MethodDisagreement, OutsideFloatRange, RankUndecidable, ResidualTooLarge
from .fredholm_engine import (
    EPS_BOUNDARY,
    ConditionReport,
    NotFredholm,
    PMap,
    build_hash_curve,
    build_plus_factor,
    exponent_pair,
    fredholm_conditions,
    normalize,
    normalized_pair,
    p_map,
)
from .special_families import (
    GENERAL,
    ID_PLUS_HANKEL,
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
    validate_pair,
)

_CONFIDENCE_ERRORS = (RankUndecidable, MethodDisagreement, ResidualTooLarge, OutsideFloatRange)
_VERDICT_EXIT = {"pass": 0, "fail": 1, "boundary": 2}
ORACLE_K = 16  # verify's evenness and oracle gates read rho_k for |k| <= ORACLE_K


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
        where = f"{name}.log_smooth[{i}]"
        _require(isinstance(term, dict), f"{where} must be an object")
        k = _as_int(term.get("k"), f"{where}.k")
        log[k] = log.get(k, 0j) + complex(
            _as_real(term.get("re", 0.0), f"{where}.re"), _as_real(term.get("im", 0.0), f"{where}.im")
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
            pf = Fraction(value)
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
        unknown = set(doc) - {"a", "b", "p", "options"}
        _require(not unknown, f"input document: unknown keys {sorted(unknown)}")
        a = parse_symbol(doc.get("a"), "a")
        b = parse_symbol(doc.get("b"), "b")
        try:
            self.pair: SymbolPair = validate_pair(a, b)
        except ConditionViolated as e:
            raise InputError(f"pair fails the structural condition: {e}") from e
        except ValueError as e:  # a product of scales that under- or overflows
            raise InputError(f"pair cannot be validated: {e}") from e
        self.p: Fraction | None = None
        if doc.get("p") is not None:
            self.p = parse_p(doc["p"])
        elif need_p:
            raise InputError("input document needs p")
        options = doc.get("options", {})
        _require(isinstance(options, dict), "options must be an object")
        unknown = set(options) - {"truncation", "section_size", "tolerance"}
        _require(not unknown, f"options: unknown keys {sorted(unknown)}")
        self.truncation = _as_int(options.get("truncation", 64), "options.truncation")
        _require(self.truncation >= 0, "options.truncation must be at least 0")
        self.section_size = _as_int(options.get("section_size", 256), "options.section_size")
        _require(self.section_size >= 1, "options.section_size must be at least 1")
        self.tolerance = _as_real(options.get("tolerance", 1e-6), "options.tolerance")
        _require(self.tolerance > 0, "options.tolerance must be positive")


def _frac(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _cnum(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _finite(x) -> float | None:
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _verdict(report: ConditionReport) -> tuple[dict, int]:
    """check's report and the exit code of its overall verdict."""
    doc = {
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
    return doc, _VERDICT_EXIT[report.overall]


def _exponent_doc(e: Exponent) -> dict:
    return {"re": _frac(e.re), "im": e.im}


def _defect_doc(report) -> dict:
    """The keys a DefectReport gives defects and the I+H special alike."""
    return {
        "n": report.n,
        "m": report.m,
        "index": report.index,
        "dimKer": report.dim_ker,
        "dimCoker": report.dim_coker,
        "caseTag": report.case_tag,
    }


def cmd_check(job: Job, ns) -> tuple[dict, int]:
    return _verdict(fredholm_conditions(job.pair, job.p))


def cmd_index(job: Job, ns) -> tuple[dict, int]:
    rep_c, rep_d = normalized_pair(job.pair, job.p)
    doc = {
        "p": _frac(job.p),
        "n": rep_c.n,
        "m": rep_d.n,
        "index": rep_d.n - rep_c.n,
    }
    return doc, 0


def cmd_defects(job: Job, ns) -> tuple[dict, int]:
    from .defect_solver import defect_numbers

    report = defect_numbers(job.pair, job.p)
    doc = {
        "p": _frac(job.p),
        **_defect_doc(report),
        "sigmaMin": report.sigma_min,
        "perturbationBound": report.perturbation_bound,
    }
    return doc, 0


def cmd_factor(job: Job, ns) -> tuple[dict, int]:
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
            "series": [_cnum(z) for z in factor.realize(job.truncation)],
        }
    return {"p": _frac(job.p), "order": job.truncation, "plusFactors": sides}, 0


def cmd_curve(job: Job, ns) -> tuple[dict, int]:
    symbol = job.pair.c if ns.side == "c" else job.pair.d
    pf, qf = exponent_pair(job.p)
    big_p, name = (pf, "p") if ns.side == "c" else (qf, "q")
    _require(
        big_p <= sys.float_info.max and float(big_p) > 1,
        f"p: curve --side {ns.side} needs a finite float {name} above 1, and this p gives none",
    )
    _require(ns.samples >= 1, "--samples must be at least 1")
    # the side's gate decides whether the curve meets the origin; only a curve that misses it is drawn
    winding = normalize(symbol, job.p, ns.side).n
    curve = build_hash_curve(symbol, big_p, ns.samples, max(64, ns.samples // 8))
    doc = {
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
    doc = {"p": _frac(job.p), "family": tag}
    if tag == GENERAL:
        doc["note"] = "no structured fast path; use check/index/defects"
        return doc, 0
    if tag == ID_PLUS_HANKEL:
        report = hankel_identity_report(job.pair, job.p)
        doc.update(
            _defect_doc(report.defect),
            nPlus=report.n_plus,
            nMinus=report.n_minus,
            pairSigns=[{"point": _frac(pt.turns), "difference": n_r} for pt, n_r in report.pair_signs],
        )
        return doc, 0
    report = family_fredholm(job.pair, tag, job.p)
    doc.update(
        kappa=-report.defect.index,
        index=report.defect.index,
        dimKer=report.defect.dim_ker,
        dimCoker=report.defect.dim_coker,
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
    """rho on |k| <= ORACLE_K against its evenness and the tanh-sinh oracle, then the kernel check;
    fourierBound prints the bounds of the coefficients its section reads, null with no candidate."""
    from .defect_solver import defect_numbers
    from .verification_oracle import kernel_residual_check, rho_de
    from .wiener_hopf import rho_coefficients

    report = defect_numbers(job.pair, job.p)
    rho = rho_coefficients(report.rep_c, report.rep_d, job.pair.b, ORACLE_K)
    evenness = rho.evenness_defect()
    # rho is even and each rho_k lies within tail_bound, so the defect is at most twice it;
    # the gates fail closed: a NaN figure refuses
    even_gate = 2.0 * rho.tail_bound
    if not evenness <= even_gate:
        raise MethodDisagreement(
            f"rho evenness defect {evenness:.3e} exceeds the bound gate {even_gate:.3e}"
        )
    # the gate's windows put every site of rho above Re beta = -1; rho_parts refuses, naming the site, if one is not
    de, estimate = rho_de(rho.parts, ORACLE_K)
    # a NaN deviation counts as the largest, as under numpy's max, so the gate fails closed
    devs = (abs(rho.get(k) - de.get(k)) for k in range(-ORACLE_K, ORACLE_K + 1))
    oracle_dev = max(devs, key=lambda dev: dev if dev == dev else math.inf)
    # a tolerance, not a bound: the oracle's figure is an estimate
    tolerance = 10.0 * (estimate + rho.tail_bound)
    # the builtin max would drop a NaN, so a NaN tolerance stays NaN and refuses
    tolerance = tolerance if math.isnan(tolerance) else max(1e-8, tolerance)
    if not oracle_dev <= tolerance:
        raise MethodDisagreement(f"rho quadrature and oracle differ by {oracle_dev:.3e} > {tolerance:.3e}")
    basis = kernel_residual_check(job.pair, job.p, report, N=job.section_size, tol=job.tolerance)
    worst = float(max(basis.residuals)) if basis.residuals.size else 0.0
    bound_a, bound_b = basis.fourier_bounds or (None, None)
    doc = {
        "p": _frac(job.p),
        "fourierBound": {"a": _finite(bound_a), "b": _finite(bound_b)},
        "rho": {
            "bound": _finite(rho.tail_bound),
            "evenness": evenness,
            "oracleDeviation": oracle_dev,
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
    for option, text, value in (("--p-from", ns.p_from, lo), ("--p-to", ns.p_to, hi)):
        _require(value <= sys.float_info.max, f"p: {option} {text} exceeds the largest float, which sweep's rows print")
        _require(float(value) > 1, f"p: {option} {text} rounds to the float 1.0, which sweep's rows print")
    steps = ns.steps
    _require(steps >= 1, "--steps must be at least 1")
    step = (hi - lo) / max(steps - 1, 1)
    # an exact running sum: lo plus k steps is lo + (hi - lo) * k / (steps - 1)
    return list(itertools.accumulate(itertools.repeat(step, steps - 1), initial=lo))


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
    return {"rows": [_verdict_entry(pmap, p, {"p": float(p)}) for p in _sweep_values(ns)]}, 0


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
    return {"excluded": excluded, "ends": ends, "intervals": intervals}, 0


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


# each command's function and help line
_COMMANDS = {
    "check": (cmd_check, "tri-state Fredholm conditions at every jump site"),
    "index": (cmd_index, "winding pair (n, m) and the index m - n"),
    "defects": (cmd_defects, "defect numbers through the four-case dispatch"),
    "factor": (cmd_factor, "plus factors of both auxiliary functions as series"),
    "curve": (cmd_curve, "closed symbol curve for one side as points"),
    "special": (cmd_special, "structured-family fast path"),
    "verify": (cmd_verify, "independent oracle suite for one instance"),
    "sweep": (cmd_sweep, "tabulate verdicts over a range of p"),
    "pmap": (cmd_pmap, "exact excluded points of p and the (n, m) between them"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors map to the input-error exit code, not argparse's 2."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="th-fredholm",
        description="Fredholm conditions, index, and defect numbers for T(a)+H(b) on H^p",
    )
    parser.add_argument("--version", action="version", version=f"th-fredholm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input", nargs="?", default="-", help="JSON document path, - for stdin")
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")
        parsers[name] = sp
    parsers["curve"].add_argument("--format", choices=("json", "csv"), default="csv")
    parsers["curve"].add_argument("--side", choices=("c", "d"), default="c")
    parsers["curve"].add_argument("--samples", type=int, default=2048)
    parsers["sweep"].add_argument("--p-from", dest="p_from", required=True)
    parsers["sweep"].add_argument("--p-to", dest="p_to", required=True)
    parsers["sweep"].add_argument("--steps", type=int, required=True)
    parsers["sweep"].add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _render(ns, doc: dict) -> str:
    """doc as --format asks; only curve and sweep have that option, and a CSV rendering."""
    if getattr(ns, "format", "json") == "csv":
        return (_curve_csv if ns.command == "curve" else _sweep_csv)(doc)
    return _json(doc)


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


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    envelope = {"command": ns.command, "version": __version__}
    try:
        job = Job(_read_document(ns.input), need_p=ns.command not in ("sweep", "pmap"))
        result, code = _COMMANDS[ns.command][0](job, ns)
        text = _render(ns, {**result, **envelope})
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NotFredholm as e:
        # a gate refused: report it as check does, in JSON whatever the format, curve's CSV default included
        result, code = _verdict(e.report)
        text = _json({**result, **envelope})
    except _CONFIDENCE_ERRORS as e:
        text, code = _json({**envelope, "error": str(e), "errorKind": "numerical-confidence"}), 4
    except Exception:  # a crash: the traceback to stderr, and a code no verdict uses
        sys.excepthook(*sys.exc_info())
        return 5
    if not ns.out:
        sys.stdout.write(text)
        return code
    try:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: cannot write {ns.out!r}: {e}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
