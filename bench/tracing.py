"""Span tracing from outside the program.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the
wrapper everywhere the original is bound by name: its defining module,
the package namespace, every ``padicfourier.*`` module that imported it
with ``from ... import``, and the class for methods.  A function that no
longer exists is reported as absent rather than failing the run.

Spans (id, parent, call id, name, start, end) are kept in memory and
written out once the traced pass ends.  The leaf helpers in ``qp``,
``jets`` and ``errors`` are called ~10^5 times per run at the Fraction
level; they are not wrapped, so their time lands in their callers' self
time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from checks import valuation

PACKAGE = "padicfourier"

#: module -> traced functions (methods as Class.method)
TRACED = {
    "cli": ["run"],
    "asymptotics": [
        "verify_stabilization",
        "erdelyi_check",
        "rhs_predict",
        "StabilizationReport.to_csv",
        "StabilizationReport.to_json",
    ],
    "singular": ["singular_fourier", "j0_closed_form", "brute_force_oracle"],
    "sums": ["sphere_cell_sum"],
    "gamma": ["gamma_p", "gamma_pi"],
    "characters": ["make_character", "sphere_char_chi_integral"],
    "testfn": ["fourier", "convolve", "dilate"],
    "distributions": ["apply", "homogeneity_defect"],
}

TRACED_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

CELLS_FN = "sums.sphere_cell_sum"
SWEEP_FNS = ("asymptotics.verify_stabilization", "asymptotics.erdelyi_check")
ROOT = "call"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._call_id = None
        self._undo: list = []
        self._cell_args: list = []
        self._cell_signature = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module, fns in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{module}")
            for qual in fns:
                name = f"{module}.{qual}"
                owner, attr = _resolve(home, qual)
                orig = None if owner is None else vars(owner).get(attr)
                if not inspect.isfunction(orig):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, orig)
                if name == CELLS_FN:
                    self._cell_signature = inspect.signature(orig)
                targets = [owner] if inspect.isclass(owner) else modules
                for target in targets:
                    for key, value in list(vars(target).items()):
                        if value is orig:
                            setattr(target, key, wrapper)
                            self._undo.append((target, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        record_cells = name == CELLS_FN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if record_cells:
                tracer._cell_args.append((args, kwargs))
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (sid, parent, tracer._call_id, name, start, end)

        return traced

    # -- recording --------------------------------------------------------

    @contextmanager
    def call(self, call_id: int):
        """One top-level call: the root span all its layer spans share."""
        self._call_id = call_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.active = True
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.active = False
            self._stack.pop()
            self.spans[sid] = (sid, None, call_id, ROOT, start, end)

    def write(self, path) -> None:
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "call", "name", "start_s", "end_s"],
                    "absent": self.absent,
                    "spans": [
                        [sid, parent, call, name, round(a - t0, 9), round(b - t0, 9)]
                        for sid, parent, call, name, a, b in self.spans
                    ],
                },
                fh,
            )

    # -- derived metrics --------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) per per-layer metric, for every traced name;
        absent functions read 0."""
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _, name, a, b in self.spans:
            if parent is not None:
                child_time[parent] += b - a
        wall = 0.0
        for sid, parent, _, name, a, b in self.spans:
            if name == ROOT:
                wall += b - a
                continue
            calls[name] += 1
            self_time[name] += (b - a) - child_time[sid]
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_time[name], "s")
            out[f"{name}.share"] = (self_time[name] / wall if wall else 0.0, "ratio")
        cells, zeros = self._cells()
        out[f"{CELLS_FN}.cells"] = (cells, "count")
        n = len(self._cell_args)
        out[f"{CELLS_FN}.zero_share"] = (zeros / n if n else 0.0, "ratio")
        sweeps = sum(calls[s] for s in SWEEP_FNS)
        out["gamma.gamma_pi.calls_per_sweep"] = (
            calls["gamma.gamma_pi"] / sweeps if sweeps else 0.0, "count"
        )
        return out

    def _cells(self) -> tuple[int, int]:
        """Cells enumerated and exact-zero shortcuts, from the recorded
        (phi, pi_1, gamma, t, subtract_phi0, extra_depth) arguments."""
        cells = zeros = 0
        try:
            for args, kwargs in self._cell_args:
                a = self._cell_signature.bind(*args, **kwargs)
                a.apply_defaults()
                n = sphere_cells(**a.arguments)
                cells += n
                zeros += n == 0
        except (TypeError, AttributeError):
            # the kernel's signature changed: the counts are unknown
            self.absent.append(f"{CELLS_FN}.cells")
            return 0, 0
        return cells, zeros


def sphere_cells(phi, chr_, gamma, t, subtract_phi0=False, extra_depth=0) -> int:
    """Cells S_gamma is cut into for one sphere sum: p^(gamma - lam) with
    lam = min(l, gamma - max(k0, 1)) - extra_depth; 0 when the sum is an
    exact zero (sphere outside the support, or |t|_p > p^-lam so every
    per-cell ball integral of chi_p vanishes)."""
    p = phi.prime.p
    lam = min(phi.l, gamma - max(chr_.k0, 1)) - extra_depth
    if gamma > phi.N and not subtract_phi0:
        return 0
    if t is not None and t != 0 and lam > valuation(Fraction(t), p):
        return 0
    return p ** (gamma - lam)


def _resolve(module, qual: str):
    """(object holding the last attribute, attribute name), or (None, None)."""
    if module is None:
        return None, None
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, attr
