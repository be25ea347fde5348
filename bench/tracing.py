"""Spans around tightbell's public functions, recorded from outside the library.

:class:`Tracer` replaces module attributes with wrappers, so calls made
through ``module.function`` and through names other modules imported
(``nlc.affine_dimension_exact``, ``classical.game_matrix``, ...) are both
seen.  A span's layer is the module that defines the wrapped function.
Spans stay in memory; a span's self time is its duration minus its
children's.  The self times inside one answer sum to the answer's span and
none is negative exactly when every child lies within its parent and no two
siblings overlap; :meth:`Tracer.nesting_errors` checks that.  Wrappers only
record while an answer is open, and only on the thread that opened it.

``qsdp.sweeps`` and the row updates derived from it count the sweeps of the
restart ``solve_quantum_bias`` returns; sweeps of restarts that failed to
certify are not reported by the library, though their time is in
``qsdp.busy_s``.  Solves that needed more than one restart are counted
(``qsdp.multi_restart``) so that a change in this shows.
"""

from __future__ import annotations

import io
import sys
import threading
from collections import Counter
from time import perf_counter

from checks import FEAS_TOL, GAP_TOL

ROOT = "answer"

# (module, attribute) pairs to wrap; an attribute a later version no longer has is
# skipped.  facegeom's calls to game.lift_strategy stay unwrapped, so lifting
# counts in face_report's self time.
WRAPPED = (
    ("classical", "classical_bias"), ("classical", "optimal_vertices"),
    ("classical", "game_matrix"), ("classical", "transpose_game"),
    ("qsdp", "solve_quantum_bias"), ("qsdp", "build_phi_tilde"), ("qsdp", "game_matrix"),
    ("facegeom", "face_report"), ("facegeom", "affine_dimension_exact"),
    ("facegeom", "embed_vertex"), ("facegeom", "reduce_exhaustive"),
    ("nlc", "hadamard_spectrum"), ("nlc", "nlc_bias_bound"), ("nlc", "g0_dimension"),
    ("nlc", "build_nlc"), ("nlc", "spec_from_game"), ("nlc", "nlc_spec_from_dict"),
    ("nlc", "affine_dimension_exact"), ("nlc", "build_game"),
    ("game", "game_matrix"), ("game", "load_game"), ("game", "game_from_dict"),
    ("game", "build_game"),
    ("cli", "main"),
)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _enumerated(g) -> int:
    return min(g.m_a, g.m_b)


def _count_classical_bias(args, kwargs, out, c: Counter) -> None:
    c["classical.calls"] += 1
    c["classical.patterns"] += 1 << _enumerated(_first(args, kwargs, "g"))
    c["classical.optimal_patterns"] += out.num_alpha_optimal


def _count_optimal_vertices(args, kwargs, out, c: Counter) -> None:
    g = _first(args, kwargs, "g")
    c["classical.calls"] += 1
    c["classical.patterns"] += 1 << _enumerated(g)
    c["classical.vertices"] += len(out.vertices)
    side = "alpha" if g.m_a <= g.m_b else "beta"
    c["classical.optimal_patterns"] += len({getattr(v, side) for v in out.vertices})


def _count_solve(args, kwargs, out, c: Counter) -> None:
    g = _first(args, kwargs, "g")
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    gap_tol = cfg.gap_tol if cfg is not None else GAP_TOL
    feas_tol = cfg.feas_tol if cfg is not None else FEAS_TOL
    c["qsdp.sweeps"] += out.sweeps
    c["qsdp.restarts"] += out.restarts_used
    c["qsdp.multi_restart"] += out.restarts_used > 1
    c["qsdp.row_updates"] += out.sweeps * (g.m_a + g.m_b)
    certified = out.gap <= gap_tol and out.cert.min_eig >= -feas_tol
    c["qsdp.certified" if certified else "qsdp.uncertified"] += 1


def _count_rank(args, kwargs, out, c: Counter) -> None:
    points = _first(args, kwargs, "points")
    c["facegeom.rank_calls"] += 1
    c["facegeom.rank_entries"] += (len(points) - 1) * len(points[0]) if len(points) else 0


def _count_cli(args, kwargs, out, c: Counter) -> None:
    if isinstance(sys.stdout, io.StringIO):
        c["cli.bytes_out"] += len(sys.stdout.getvalue().encode("utf-8"))


COUNTERS = {
    "classical.classical_bias": _count_classical_bias,
    "classical.optimal_vertices": _count_optimal_vertices,
    "qsdp.solve_quantum_bias": _count_solve,
    "facegeom.affine_dimension_exact": _count_rank,
    "facegeom.embed_vertex": lambda a, k, out, c: c.update(("facegeom.embed_calls",)),
    "game.game_matrix": lambda a, k, out, c: c.update(("game.game_matrix_calls",)),
    "nlc.hadamard_spectrum": lambda a, k, out, c: c.update(
        {"nlc.walsh_points": len(out.spectrum)}),
    "cli.main": _count_cli,
}


class Tracer:
    """Span recorder; install() patches the library, uninstall() restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.counts: Counter = Counter()
        self.wrapped: list[str] = []
        self._saved: list[tuple] = []
        self._stack: list[int] = []
        self._thread = None

    def install(self, modules: dict) -> None:
        self.wrapped.clear()
        for mod_name, attr in WRAPPED:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, f"{layer}.{fn.__name__}", layer))
            self.wrapped.append(f"{mod_name}.{attr}")

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if not stack or threading.current_thread() is not self._thread:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, layer, perf_counter(), 0.0, stack[-1]]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(args, kwargs, out, counts)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def answer(self, fn, *args):
        """Run one answer inside a root span; return (seconds, result)."""
        self._thread = threading.current_thread()
        idx = len(self.spans)
        rec = [ROOT, "bench", perf_counter(), 0.0, -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return_value = fn(*args)
        finally:
            rec[3] = perf_counter()
            self._stack.pop()
        return rec[3] - rec[2], return_value

    def nesting_errors(self) -> list[str]:
        """Spans that stick out of their parent or overlap an earlier sibling."""
        errors = []
        last_end: dict[int, float] = {}  # parent index -> end of its latest child
        for i, (name, _layer, t0, t1, parent) in enumerate(self.spans):
            if t1 < t0:
                errors.append(f"span {i} {name} ends before it starts")
            if parent < 0:
                continue
            p0, p1 = self.spans[parent][2], self.spans[parent][3]
            if t0 < p0 or t1 > p1:
                errors.append(f"span {i} {name} lies outside its parent {parent}")
            if t0 < last_end.get(parent, p0):
                errors.append(f"span {i} {name} overlaps an earlier sibling")
            last_end[parent] = t1
        return errors

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def write(self, path) -> None:
        """Dump spans as JSON lines: name, layer, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, t0, t1, parent in self.spans:
                fh.write(f'["{name}", "{layer}", {t0!r}, {t1!r}, {parent}]\n')


PER_LAYER = (
    ("classical.busy_s", "s"), ("classical.share", "ratio"),
    ("classical.patterns_per_s", "1/s"), ("classical.calls_per_answer", "count"),
    ("classical.vertices", "count"), ("classical.vertices_per_s", "1/s"),
    ("classical.optimal_fraction", "ratio"),
    ("qsdp.busy_s", "s"), ("qsdp.sweeps", "count"), ("qsdp.restarts", "count"),
    ("qsdp.row_updates_per_s", "1/s"), ("qsdp.certified_per_restart", "ratio"),
    ("qsdp.uncertified", "count"),
    ("facegeom.rank_s", "s"), ("facegeom.rank_entries", "count"),
    ("facegeom.rank_entries_per_s", "1/s"), ("facegeom.rank_calls_per_answer", "count"),
    ("facegeom.busy_s", "s"), ("facegeom.embed_calls", "count"),
    ("nlc.spectrum_s", "s"), ("nlc.walsh_points", "count"), ("nlc.bound_s", "s"),
    ("nlc.g0_s", "s"),
    ("game.busy_s", "s"), ("game.game_matrix_calls_per_answer", "count"),
    ("cli.busy_s", "s"), ("cli.bytes_out", "B"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer(tracer: Tracer, overhead_ratio: float) -> dict:
    """Per-layer metrics.

    Times are self times in seconds per answer; counts are totals over the
    traced answers, which are the same games on every run with one seed.
    """
    own = tracer.self_times()
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    for (name, layer, _t0, _t1, _parent), t in zip(tracer.spans, own):
        by_name[name] += t
        by_layer[layer] += t
    roots = [i for i, s in enumerate(tracer.spans) if s[4] < 0]
    n = max(len(roots), 1)
    total = sum(tracer.spans[i][3] - tracer.spans[i][2] for i in roots) or 1.0
    c = tracer.counts

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    classical_s = by_layer["classical"]
    rank_s = by_name["facegeom.affine_dimension_exact"]
    values = {
        "classical.busy_s": classical_s / n,
        "classical.share": classical_s / total,
        "classical.patterns_per_s": rate(c["classical.patterns"], classical_s),
        "classical.calls_per_answer": c["classical.calls"] / n,
        "classical.vertices": c["classical.vertices"],
        "classical.vertices_per_s": rate(c["classical.vertices"],
                                         by_name["classical.optimal_vertices"]),
        "classical.optimal_fraction": rate(c["classical.optimal_patterns"],
                                           c["classical.patterns"]),
        "qsdp.busy_s": by_layer["qsdp"] / n,
        "qsdp.sweeps": c["qsdp.sweeps"],
        "qsdp.restarts": c["qsdp.restarts"],
        "qsdp.row_updates_per_s": rate(c["qsdp.row_updates"], by_layer["qsdp"]),
        "qsdp.certified_per_restart": rate(c["qsdp.certified"], c["qsdp.restarts"]),
        "qsdp.uncertified": c["qsdp.uncertified"],
        "facegeom.rank_s": rank_s / n,
        "facegeom.rank_entries": c["facegeom.rank_entries"],
        "facegeom.rank_entries_per_s": rate(c["facegeom.rank_entries"], rank_s),
        "facegeom.rank_calls_per_answer": c["facegeom.rank_calls"] / n,
        "facegeom.busy_s": (by_layer["facegeom"] - rank_s) / n,
        "facegeom.embed_calls": c["facegeom.embed_calls"],
        "nlc.spectrum_s": by_name["nlc.hadamard_spectrum"] / n,
        "nlc.walsh_points": c["nlc.walsh_points"],
        "nlc.bound_s": by_name["nlc.nlc_bias_bound"] / n,
        "nlc.g0_s": by_name["nlc.g0_dimension"] / n,
        "game.busy_s": by_layer["game"] / n,
        "game.game_matrix_calls_per_answer": c["game.game_matrix_calls"] / n,
        "cli.busy_s": by_layer["cli"] / n,
        "cli.bytes_out": c["cli.bytes_out"],
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
