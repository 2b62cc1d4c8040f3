"""Per-layer spans and counters, recorded from outside the library.

`Tracer.install` replaces each traced library function by a wrapper, in
every `th_fredholm` module that holds it: the defining module and every
module that imported the name (so `defect_solver.rho_coefficients` and
`cli.defect_numbers` are both covered).  A wrapper opens a span on a
per-thread parent stack; a span's self time is its duration minus the spans
it caused.  Counters are recorded at the same boundaries, from the
arguments, results and exceptions of the call.  `uninstall` restores the
original functions.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from collections import Counter, defaultdict

MODULES = (
    "symbol_core",
    "fredholm_engine",
    "wiener_hopf",
    "defect_solver",
    "special_families",
    "verification_oracle",
    "cli",
)

# (module, function, timing metrics reported for it)
LAYERS = (
    ("symbol_core", "validate_pair", ("calls", "busy_s")),
    ("symbol_core", "eval_many", ("busy_s",)),
    ("fredholm_engine", "fredholm_conditions", ("calls", "busy_s")),
    ("fredholm_engine", "normalized_pair", ("calls", "busy_s")),
    ("fredholm_engine", "build_hash_curve", ("busy_s",)),
    ("wiener_hopf", "rho_coefficients", ("calls", "busy_s", "self_s")),
    ("wiener_hopf", "build_plus_factor", ("calls", "busy_s")),
    ("defect_solver", "defect_numbers", ("calls", "busy_s", "self_s")),
    ("defect_solver", "rank_decision", ("busy_s",)),
    ("special_families", "classify_family", ("calls", "busy_s")),
    ("special_families", "family_fredholm", ("calls", "busy_s")),
    ("special_families", "hankel_identity_report", ("calls", "busy_s")),
    ("verification_oracle", "fourier_coeffs", ("calls", "busy_s", "self_s")),
    ("verification_oracle", "kernel_residual_check", ("calls", "busy_s", "self_s")),
)
MAIN = "cli.main"

# counters recorded at the layer boundaries, all reported (0 when unseen)
COUNTERS = (
    "cli.exit.0",
    "cli.exit.1",
    "cli.exit.2",
    "cli.exit.3",
    "cli.exit.4",
    "symbol_core.eval_many.points",
    "fredholm_engine.verdict.pass",
    "fredholm_engine.verdict.boundary",
    "fredholm_engine.verdict.fail",
    "wiener_hopf.rho_coefficients.settled",
    "wiener_hopf.rho_coefficients.inner_order_sum",
    "wiener_hopf.build_plus_factor.order_sum",
    "wiener_hopf.not_in_l1_warnings",
    "defect_solver.case.G-zero",
    "defect_solver.case.G-count",
    "defect_solver.case.F-count",
    "defect_solver.case.F-matrix",
    "defect_solver.rank_undecidable",
    "defect_solver.ill_conditioned_warnings",
    "verification_oracle.method_disagreement",
)
# extremes: name -> (True for a maximum, False for a minimum; unit)
EXTREMES = {
    "wiener_hopf.rho_coefficients.inner_order_max": (True, "count"),
    "wiener_hopf.rho_coefficients.tail_bound_max": (True, "abs"),
    "defect_solver.gap_ratio_min": (False, "ratio"),
    "defect_solver.det_rel_gap_max": (True, "ratio"),
    "verification_oracle.max_residual": (True, "ratio"),
}
WARNINGS = {
    "NotInL1Warning": "wiener_hopf.not_in_l1_warnings",
    "IllConditionedRankWarning": "defect_solver.ill_conditioned_warnings",
}


def _arg(args, kwargs, index: int, name: str, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe(tracer: "Tracer", name: str, args, kwargs, result, error) -> None:
    """Counters for one finished call (called with the tracer's lock held)."""
    kind = type(error).__name__ if error is not None else None
    if name == "symbol_core.eval_many":
        xs = _arg(args, kwargs, 1, "xs", ())
        tracer.counts["symbol_core.eval_many.points"] += int(getattr(xs, "size", len(xs)))
    elif name == "fredholm_engine.fredholm_conditions" and result is not None:
        tracer.counts[f"fredholm_engine.verdict.{result.overall}"] += 1
    elif name == "wiener_hopf.rho_coefficients" and result is not None:
        settle_tol = _arg(args, kwargs, 8, "settle_tol", 1e-9)
        tracer.counts["wiener_hopf.rho_coefficients.settled"] += int(result.tail_bound < settle_tol)
        tracer.counts["wiener_hopf.rho_coefficients.inner_order_sum"] += result.inner_N
        tracer.extreme("wiener_hopf.rho_coefficients.inner_order_max", result.inner_N)
        tracer.extreme("wiener_hopf.rho_coefficients.tail_bound_max", result.tail_bound)
    elif name == "wiener_hopf.build_plus_factor":
        tracer.counts["wiener_hopf.build_plus_factor.order_sum"] += _arg(args, kwargs, 1, "N", 4096)
    elif name == "defect_solver.defect_numbers":
        if result is not None:
            tracer.counts[f"defect_solver.case.{result.case_tag}"] += 1
            if result.gap_ratio is not None:
                tracer.extreme("defect_solver.gap_ratio_min", result.gap_ratio)
        elif kind == "RankUndecidable":
            tracer.counts["defect_solver.rank_undecidable"] += 1
    elif name.startswith("verification_oracle."):
        if kind == "MethodDisagreement":
            tracer.counts["verification_oracle.method_disagreement"] += 1
        if name.endswith("kernel_residual_check") and result is not None and result.residuals.size:
            tracer.extreme("verification_oracle.max_residual", float(result.residuals.max()))


class Tracer:
    """Spans on a per-thread parent stack, with totals per span name."""

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.extremes: dict = {}
        self._patched: list = []

    def extreme(self, name: str, value: float) -> None:
        if not math.isfinite(value):
            return
        best = self.extremes.get(name)
        pick = max if EXTREMES[name][0] else min
        self.extremes[name] = value if best is None else pick(best, value)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self.local.__dict__.setdefault("stack", [])
        outermost = all(frame[0] != name for frame in stack)
        frame = [name, 0.0]
        stack.append(frame)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self.lock:
                self.calls[name] += 1
                if outermost:
                    self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                _observe(self, name, args, kwargs, result, error)

    def install(self) -> None:
        mods = [importlib.import_module(f"th_fredholm.{m}") for m in MODULES]
        holders = mods + [sys.modules["th_fredholm"]]
        for module, fn_name, _ in LAYERS:
            original = getattr(sys.modules[f"th_fredholm.{module}"], fn_name)
            wrapper = self._wrap(f"{module}.{fn_name}", original)
            for holder in holders:
                if getattr(holder, fn_name, None) is original:
                    setattr(holder, fn_name, wrapper)
                    self._patched.append((holder, fn_name, original))

    def uninstall(self) -> None:
        for holder, fn_name, original in reversed(self._patched):
            setattr(holder, fn_name, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def count_warnings(self, caught) -> None:
        with self.lock:
            for w in caught:
                key = WARNINGS.get(w.category.__name__)
                if key:
                    self.counts[key] += 1

    def state(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "extremes": dict(self.extremes),
        }

    def merge(self, state: dict) -> None:
        """Add the totals of another tracer (a traced child process)."""
        with self.lock:
            self.calls.update(state["calls"])
            for name, v in state["busy"].items():
                self.busy[name] += v
            for name, v in state["self"].items():
                self.self_time[name] += v
            self.counts.update(state["counts"])
        for name, v in state["extremes"].items():
            self.extreme(name, v)

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure this tracer knows by name; 0 when never seen."""
        out: dict[str, float] = {}
        for module, fn_name, kinds in LAYERS + (("cli", "main", ("calls", "busy_s", "self_s")),):
            name = f"{module}.{fn_name}"
            table = {"calls": self.calls, "busy_s": self.busy, "self_s": self.self_time}
            for kind in kinds:
                out[f"{name}.{kind}"] = table[kind].get(name, 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        for name in EXTREMES:
            out[name] = self.extremes.get(name, 0.0)
        rho_calls = self.calls.get("wiener_hopf.rho_coefficients", 0)
        settled = out.pop("wiener_hopf.rho_coefficients.settled")
        out["wiener_hopf.rho_coefficients.settled_share"] = settled / rho_calls if rho_calls else 0.0
        return out


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name in EXTREMES:
        return EXTREMES[name][1]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    return "lines" if name == "src.lines" else "count"
