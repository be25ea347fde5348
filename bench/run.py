"""tightbell benchmark: end-to-end and per-layer metrics on two seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from any directory of a source checkout; tightbell is imported from its
``src/``.  Each workload is a closed loop: one caller answers one game at a
time, in this process, with the library's default settings.  A workload is
made of two parts, each with its own questions, answer and checks; the
questions form one pool (see inputs.py).  A run answers the whole pool once
per pass, in the same order, for a fixed number of passes: PASSES at S =
REFERENCE_SECONDS, scaled by S / REFERENCE_SECONDS otherwise, which takes
about S seconds of answers on a 2-vCPU Xeon.  A question's answer time is
the fastest of its answers, which lie a pass (3-4 s) apart: the host this
was tuned on slows stretches of seconds to minutes by 20-60%, and the
fastest of answers spread over the run reads the program more than the
host.  The sample count, one per question, never depends on the program's
speed.  Every answer is checked against the oracles in checks.py; an answer
that raises or fails a check counts as failed.  With ``--trace 0`` the last
line reports the end-to-end metrics.  With ``--trace 1`` every question of
TRACE_PASSES passes is answered untraced and traced, and the last line
reports the per-layer metrics of tracing.py.  The line before it holds the
environment, the sample count, the tail percentile and any failures.  A
directory without ``src/tightbell`` is an error (exit code 2).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# One BLAS thread unless the caller chose otherwise, set before numpy loads.  On
# a 2-core machine idle OpenBLAS workers spin after each call and slowed the
# single-threaded solver by 10-30% at random.  tightbell's own worker threads
# (TIGHTBELL_THREADS) keep their default.  The output records all of these.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_DEFAULTED = [v for v in BLAS_VARS if v not in os.environ]
for _var in BLAS_DEFAULTED:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed, expect  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7  # spread over the run: one before the first pass, the rest between passes
REFERENCE_SECONDS = 50.0  # --seconds at which a run plays PASSES passes
# About 45 s of answers each: a pass takes 2.5-4.5 s, by workload and host state.
PASSES = {"enum-cert": 13, "face-cli": 14}
# A safety stop only, more than twice a normal run's 50-60 s, so that a run
# ends within three minutes; a run that reaches it says so (stopped_early).
MAX_WALL_S = 140.0
# Passes answered with --trace 1, each question untraced and traced: about 20 s.
TRACE_PASSES = 2


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        lines = git.stdout.split()
        commit = lines[1] if git.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tightbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_VARS},
        "blas_threads_set_by_benchmark": BLAS_DEFAULTED,
        "TIGHTBELL_THREADS": os.environ.get("TIGHTBELL_THREADS", "unset"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def make_inputs(workload: str, seed: int, work: Path) -> float:
    """Build the inputs in a fresh interpreter; return its wall time."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    shutil.rmtree(work, ignore_errors=True)
    t0 = perf_counter()
    # no timeout: waiting with one polls every 50 ms and rounds the time up to that
    subprocess.run([sys.executable, str(BENCH / "inputs.py"), ",".join(WORKLOADS[workload]),
                    str(seed), str(work)], cwd=ROOT, env=env, check=True)
    return perf_counter() - t0


class Part:
    """One part's answer and check; ``prepare`` loads what the items name."""

    def __init__(self, tb, work: Path) -> None:
        self.tb = tb
        self.work = work
        self._truth: dict = {}

    def truth(self, key, q, f):
        if key not in self._truth:
            self._truth[key] = checks.classical_truth(q, f)
        return self._truth[key]

    def prepare(self, item: dict) -> None:
        item["g"] = self.tb.game.load_game(self.work / item["game"])


class ClassicalEnum(Part):
    def answer(self, item):
        classical = self.tb.classical
        return classical.classical_bias(item["g"]), classical.optimal_vertices(item["g"])

    def check(self, item, result) -> None:
        g = item["g"]
        cb, vs = result
        xi, patterns, vertices = self.truth(item["game"], g.q, g.f)
        expect(cb.xi_c == xi, f"xi_c {cb.xi_c} but enumeration gives {xi}")
        expect(cb.num_alpha_optimal == patterns,
               f"{cb.num_alpha_optimal} optimal patterns, expected {patterns}")
        w = cb.witness
        expect(checks.strategy_bias(g.q, g.f, w.alpha, w.beta) == xi, "witness is not optimal")
        expect(not vs.truncated, "vertex set truncated")
        expect(len(vs.vertices) == vertices and len(set(vs.vertices)) == vertices,
               f"{len(vs.vertices)} vertices ({len(set(vs.vertices))} distinct), "
               f"expected {vertices}")
        bias_of_strategy = self.tb.game.bias_of_strategy
        expect(all(bias_of_strategy(g, v) == xi for v in vs.vertices),
               "a returned vertex does not reach xi_c")


def check_quantum(tb, g, res, xi: Fraction) -> None:
    """Certificate, xi_c and classification of one solve, all recomputed."""
    expect(np.array_equal(tb.qsdp.build_phi_tilde(g).matrix, checks.phi_tilde(g.q, g.f)),
           "build_phi_tilde differs from the game")
    _dual, min_eig = checks.certificate(g.q, g.f, res.cert.t, res.xi_q, res.gap,
                                        res.gram.vectors)
    expect(abs(min_eig - res.cert.min_eig) <= 1e-9,
           f"reported min_eig {res.cert.min_eig:.3e}, recomputed {min_eig:.3e}")
    expect(res.xi_c == xi, f"xi_c {res.xi_c} but enumeration gives {xi}")
    expect(res.xi_q >= float(xi) - 1e-9, "quantum bias below the classical bias")
    advantage = res.xi_q - float(xi) > checks.ADV_TOL
    expect(res.classification == ("advantage" if advantage else "no_advantage"),
           f"classification {res.classification!r} for xi_q - xi_c = {res.xi_q - float(xi):.3e}")


class QuantumCert(Part):
    def answer(self, item):
        return self.tb.qsdp.solve_quantum_bias(item["g"])

    def check(self, item, res) -> None:
        g = item["g"]
        check_quantum(self.tb, g, res, self.truth(item["game"], g.q, g.f)[0])


class FaceTies(Part):
    def answer(self, item):
        return self.tb.facegeom.face_report(item["g"])

    def check(self, item, rep) -> None:
        g = item["g"]
        xi, _patterns, vertices = self.truth(item["game"], g.q, g.f)
        expect((rep.m_a, rep.m_b) == (g.m_a, g.m_b), "face report has the wrong shape")
        expect(rep.xi_c == xi, f"xi_c {rep.xi_c} but enumeration gives {xi}")
        expect(not rep.truncated, "vertex set truncated")
        expect(rep.num_vertices == vertices, f"{rep.num_vertices} vertices, expected {vertices}")
        rows = [x for x in range(g.m_a) if any(g.q[x])]
        cols = [y for y in range(g.m_b) if any(g.q[x][y] for x in range(g.m_a))]
        reduced = self.tb.game.build_game([[g.q[x][y] for y in cols] for x in rows],
                                          [[g.f[x][y] for y in cols] for x in rows])
        check_quantum(self.tb, reduced, rep.quantum, xi)
        family, params = item["family"], item["params"]
        if family == "chsh":
            expect(rep.is_facet_full is True, "CHSH face is not a facet")
            expect(abs(rep.xi_q - 2 ** -0.5) <= checks.GAP_TOL, f"CHSH xi_q {rep.xi_q}")
            return
        expect(rep.classification == "no_advantage", f"classification {rep.classification!r}")
        if family == "appendix_d":
            expect(rep.dim_full == 29, f"appendix_d n=3 dim_full {rep.dim_full}, expected 29")
        else:
            want = checks.identity_face_dim(g.m_a, g.m_b, params[0])
            expect(rep.dim_full == want, f"dim_full {rep.dim_full}, expected {want}")


def _read_game(path: Path):
    data = json.loads(path.read_text("utf-8"))
    return [[Fraction(v) for v in row] for row in data["q"]], data["f"]


class NlcCli(Part):
    def prepare(self, item: dict) -> None:
        file = {"spectrum": "spec", "g0": None}.get(item["command"], "game")
        argv = {
            "spectrum": ["nlc", "spectrum"], "bound": ["nlc", "bound"],
            "bias": ["bias", "quantum"], "face": ["face"], "g0": ["nlc", "g0", "--n", "3"],
        }[item["command"]]
        item["argv"] = argv + ([str(self.work / item[file])] if file else [])

    def answer(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tb.cli.main(item["argv"])
        return code, out.getvalue(), err.getvalue()

    def spectrum(self, spec_file: str) -> list[Fraction]:
        key = ("spectrum", spec_file)
        if key not in self._truth:
            data = json.loads((self.work / spec_file).read_text("utf-8"))
            self._truth[key] = checks.walsh_spectrum([Fraction(v) for v in data["q_tilde"]],
                                                     data["f_z"])
        return self._truth[key]

    def check(self, item, result) -> None:
        code, out, err = result
        expect(code == 0, f"exit code {code}: {err.strip()}")
        rep = json.loads(out)
        command = item["command"]
        if command == "g0":
            want = (1 << (item["n"] - 1)) * ((1 << item["n"]) - 3)
            expect(rep["verified"] == rep["formula"] == want,
                   f"g0 verified {rep['verified']}, formula {rep['formula']}, expected {want}")
            return
        spectrum = self.spectrum(item["spec"])
        lam = max(abs(v) for v in spectrum)
        if command == "spectrum":
            k, l = spectrum.count(lam), spectrum.count(-lam)
            expect([Fraction(v) for v in rep["spectrum"]] == spectrum, "spectrum differs")
            expect(Fraction(rep["lambda_norm"]) == lam == Fraction(rep["xi_star"]),
                   "lambda_norm or xi_star differs from max |spectrum|")
            expect((rep["k"], rep["l"]) == (k, l), f"multiplicities {rep['k']}, {rep['l']}")
            expect(rep["kl_dim_bound"] == k + l + k * (k + 1) // 2 + l * (l + 1) // 2 - 1,
                   "kl_dim_bound differs")
            return
        q, f = _read_game(self.work / item["game"])
        xi, _patterns, vertices = self.truth(item["game"], q, f)
        expect(xi == lam, f"enumeration gives {xi}, spectral bound {lam}")
        expect(Fraction(rep["xi_c"]) == xi, f"xi_c {rep['xi_c']}, expected {xi}")
        if command == "bound":
            expect(Fraction(rep["xi_star"]) == lam, "xi_star differs")
            expect(rep["matches_classical"] is True, "matches_classical is not true")
            return
        cert = rep if command == "bias" else rep["certificate"]
        expect(cert["classification"] == "no_advantage",
               f"classification {cert['classification']!r}")
        dual, min_eig = checks.certificate(q, f, cert["t"], cert["xi_q"], cert["gap"])
        expect(abs(min_eig - cert["min_eig"]) <= 1e-9, "reported min_eig differs")
        expect(abs(dual - float(xi)) <= checks.ADV_TOL, f"dual bound {dual} exceeds xi_c {xi}")
        if command == "face":
            expect(rep["truncated"] is False and rep["num_vertices"] == vertices,
                   f"{rep['num_vertices']} vertices, expected {vertices}")
            expect(rep["dim_full"] <= rep["bound_thm1_dim"], "dim_full exceeds Theorem 1")
            expect(rep["dim_full"] == rep["D"] - rep["codim_full"], "codim_full inconsistent")


PARTS = {"classical-enum": ClassicalEnum, "quantum-cert": QuantumCert,
         "face-ties": FaceTies, "nlc-cli": NlcCli}
# Each workload answers the pools of two parts, one after the other in a pass.
WORKLOADS = {"enum-cert": ("classical-enum", "quantum-cert"),
             "face-cli": ("face-ties", "nlc-cli")}


class Workload:
    """Prepares, answers and checks each item with the part it belongs to."""

    def __init__(self, tb, work: Path, parts) -> None:
        self.parts = {part: PARTS[part](tb, work) for part in parts}

    def prepare(self, item: dict) -> None:
        self.parts[item["part"]].prepare(item)

    def answer(self, item):
        return self.parts[item["part"]].answer(item)

    def check(self, item, result) -> None:
        self.parts[item["part"]].check(item, result)


class Loop:
    """Closed-loop player: answer, time, check, one question after another."""

    def __init__(self, workload: Workload, pool: list, deadline: float) -> None:
        self.workload = workload
        self.pool = pool
        self.deadline = deadline
        self.attempted = 0
        self.stopped_early = False
        self.failures: list[str] = []
        self.times: list[list[float]] = [[] for _ in pool]  # per question, returned answers
        self.pass_s: list[float] = []

    def one(self, item: dict, tracer=None) -> tuple[float, bool]:
        """Answer and check one item: (answer time, whether the answer returned)."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                result = self.workload.answer(item)
            else:
                result = tracer.answer(self.workload.answer, item)[1]
        except Exception as exc:  # a raised answer is a failed answer
            self.failures.append(f"{item['label']}: {type(exc).__name__}: {exc}")
            return perf_counter() - t0, False
        dt = perf_counter() - t0
        try:
            self.workload.check(item, result)
        except CheckFailed as exc:
            self.failures.append(f"{item['label']}: {exc}")
        except Exception as exc:  # an answer the checks cannot read is wrong
            self.failures.append(f"{item['label']}: {type(exc).__name__}: {exc}")
        return dt, True

    def play(self, n_passes: int, between=None) -> None:
        """Answer the pool ``n_passes`` times; call ``between(k)`` after pass k."""
        for k in range(n_passes):
            timed = 0.0
            for i, item in enumerate(self.pool):
                if perf_counter() >= self.deadline:
                    self.stopped_early = True
                    return
                dt, returned = self.one(item)
                timed += dt
                if returned:
                    self.times[i].append(dt)
            self.pass_s.append(timed)
            if between is not None:
                between(k)

    def best(self) -> list[tuple[float, str]]:
        """(fastest answer time, label) of every question answered at least once, sorted."""
        return sorted((min(ts), item["label"]) for ts, item in zip(self.times, self.pool) if ts)

    def play_pairs(self, n_passes: int, tracer, modules: dict) -> tuple[list[float], list[float]]:
        """Answer every question of ``n_passes`` passes untraced and traced, back to
        back in alternating order, so both see the machine in the same state;
        return (untraced times, traced times)."""
        plain: list[float] = []
        traced: list[float] = []
        k = 0
        for _ in range(n_passes):
            for i, item in enumerate(self.pool):
                if perf_counter() >= self.deadline:
                    self.stopped_early = True
                    return plain, traced
                for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                    if not with_trace:
                        dt, returned = self.one(item)
                        if returned:
                            plain.append(dt)
                            self.times[i].append(dt)
                        continue
                    tracer.install(modules)
                    try:
                        dt, returned = self.one(item, tracer)
                    finally:
                        tracer.uninstall()
                    if returned:
                        traced.append(dt)
                k += 1
        return plain, traced


def tail_rank(n: int) -> tuple[int, int]:
    """(p, rank): the highest percentile p with at least 10 of n samples beyond
    it, and the 1-based rank its nearest-rank value has."""
    p = max(0, math.floor(100 * (n - 10) / n))
    return p, max(math.ceil(p * n / 100), 1)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / REFERENCE_SECONDS))


def build_loop(tb, workload: str, seed: int, work: Path, part: str | None = None,
               items: int | None = None) -> tuple[float, Loop]:
    """Write the inputs, load the manifest, prepare its items; return (set-up
    time, a Loop over the pool).  ``part`` and ``items`` keep only the first
    ``items`` items of that part."""
    setup_time = make_inputs(workload, seed, work)
    pool = json.loads((work / "manifest.json").read_text("utf-8"))["pool"]
    if part is not None:
        pool = [item for item in pool if item["part"] == part][:items]
    player = Workload(tb, work, WORKLOADS[workload])
    for item in pool:
        player.prepare(item)
    return setup_time, Loop(player, pool, perf_counter() + MAX_WALL_S)


def modules(tb) -> dict:
    return {name: getattr(tb, name) for name in ("classical", "qsdp", "facegeom", "nlc", "game",
                                                 "cli")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="inject faults and confirm the checks count them")
    args = parser.parse_args(argv)
    if not (SRC / "tightbell" / "__init__.py").is_file():
        sys.stderr.write(f"error: no tightbell sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import tightbell.cli  # noqa: F401  (loads every layer the workloads touch)

    tb = sys.modules["tightbell"]
    if Path(tb.__file__).resolve().parent != SRC / "tightbell":
        sys.stderr.write(f"error: imported tightbell from {tb.__file__}, not {SRC}\n")
        return 2
    if args.self_test:
        import selftest

        return selftest.run_cases(tb)
    if args.workload is None:
        parser.error("--workload is required")

    start = perf_counter()
    work = BENCH / ".work" / f"{args.workload}-{args.seed}"
    setup_time, loop = build_loop(tb, args.workload, args.seed, work)
    setup_times = [setup_time]
    loop.deadline = start + MAX_WALL_S
    try:  # warm-up: first-call costs, not timed; a failure here is counted in the loop
        loop.workload.answer(loop.pool[0])
    except Exception:
        pass

    info = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "env": environment(args.seed)}
    correct = True
    if args.trace == 0:
        n_passes = passes_for(args.workload, args.seconds)
        # the other set-ups go between passes, spread over the run, into their own
        # directory: the CLI reads the loop's files while it runs
        at = {round(j * n_passes / (SETUP_REPEATS - 1)) - 1 for j in range(1, SETUP_REPEATS)}
        again = work.with_name(work.name + "-setup")

        def set_up_again(k: int) -> None:
            if k in at:
                setup_times.append(make_inputs(args.workload, args.seed, again))

        loop.play(n_passes, set_up_again)
        shutil.rmtree(again, ignore_errors=True)
        samples = loop.best()
        times = [dt for dt, _label in samples]
        n = len(times)
        p, rank = tail_rank(n) if n else (0, 1)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "answer_s.p50": (statistics.median(times) if times else 0.0, "s"),
            "answer_s.tail": (times[rank - 1] if times else 0.0, "s"),
            "answers_per_s": (n / sum(times) if times else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        # the game types whose samples the median and the tail read
        info.update(passes=n_passes, samples=n, tail_percentile=p, tail_rank=rank,
                    tail_label=samples[rank - 1][1] if n else None,
                    p50_labels=sorted({samples[(n - 1) // 2][1], samples[n // 2][1]}) if n else [],
                    beyond_tail_labels=sorted({label for _dt, label in samples[rank:]}),
                    pass_s=loop.pass_s)
    else:
        import tracing

        tracer = tracing.Tracer()
        plain, traced = loop.play_pairs(TRACE_PASSES, tracer, modules(tb))
        ratio = statistics.median(traced) / statistics.median(plain) if plain and traced else 0.0
        metrics = tracing.per_layer(tracer, ratio)
        tracer.write(work / "spans.jsonl")
        nesting = tracer.nesting_errors()
        correct = not nesting and len(traced) == len(plain)
        info.update(passes=TRACE_PASSES, samples=len(traced),
                    wrapped=tracer.wrapped, spans=len(tracer.spans), nesting_errors=nesting[:10],
                    multi_restart_solves=tracer.counts["qsdp.multi_restart"])
    by_label: dict[str, list[float]] = {}
    for ts, item in zip(loop.times, loop.pool):
        by_label.setdefault(item["label"], []).extend(ts)
    info.update(setup_runs_s=setup_times, attempted=loop.attempted,
                fail_ratio=len(loop.failures) / max(loop.attempted, 1),
                failures=loop.failures[:10], stopped_early=loop.stopped_early,
                wall_s=perf_counter() - start,
                label_min_s={k: min(v) for k, v in by_label.items() if v},
                label_p50_s={k: statistics.median(v) for k, v in by_label.items() if v})
    print(json.dumps(info))
    print(json.dumps({"correct": correct and not loop.failures, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
