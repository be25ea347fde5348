"""Self-test: the checks must count injected faults as failed answers.

    python3 bench/run.py --self-test

Each case answers the first items of one part of a workload's pool, seed 0,
with one library function replaced by a faulty version.  Clean runs must
have no failure and every faulty run at least one.  A last case feeds the
span nesting check of ``--trace 1`` overlapping spans.  Exit code 0 when all
cases behave, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import run

ITEMS = 4  # first items of the part per case


def tampered_certificate(real):
    def solve(*args, **kwargs):
        res = real(*args, **kwargs)
        t = res.cert.t.copy()
        t[0] += 1e-5
        return dataclasses.replace(res, cert=dataclasses.replace(res.cert, t=t))
    return solve


def wrong_xi_c(real):
    def classical_bias(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, xi_c=res.xi_c + Fraction(1, 1000))
    return classical_bias


def raises_too_large(tb):
    def patch(real):
        def too_large(*args, **kwargs):
            raise tb.errors.TooLarge("injected by the benchmark self-test")
        return too_large
    return patch


def fail_ratio(tb, workload: str, part: str, patch=None) -> float:
    work = run.BENCH / ".work" / f"selftest-{workload}"
    _setup_time, loop = run.build_loop(tb, workload, 0, work, part=part, items=ITEMS)
    saved = None
    if patch is not None:
        module, name, make = patch
        saved = getattr(module, name)
        setattr(module, name, make(saved))
    try:
        for item in loop.pool:
            loop.one(item)
    finally:
        if saved is not None:
            setattr(module, name, saved)
    return len(loop.failures) / loop.attempted


def overlapping_spans_caught() -> bool:
    """Two sibling spans that overlap, and a child outside its parent, are reported."""
    import tracing

    tracer = tracing.Tracer()
    tracer.spans += [["answer", "bench", 0.0, 10.0, -1], ["a", "x", 1.0, 5.0, 0],
                     ["b", "x", 4.0, 6.0, 0], ["c", "x", 5.5, 6.5, 2]]
    return len(tracer.nesting_errors()) == 2


def run_cases(tb) -> int:
    too_large = raises_too_large(tb)
    cases = [(f"clean {part}", w, part, None)
             for w, parts in run.WORKLOADS.items() for part in parts] + [
        ("tampered certificate", "enum-cert", "quantum-cert",
         (tb.qsdp, "solve_quantum_bias", tampered_certificate)),
        ("wrong xi_c", "enum-cert", "classical-enum",
         (tb.classical, "classical_bias", wrong_xi_c)),
        ("raised TooLarge", "face-cli", "face-ties", (tb.facegeom, "face_report", too_large)),
        ("TooLarge through the CLI", "face-cli", "nlc-cli",
         (tb.classical, "classical_bias", too_large)),
    ]
    ok = True
    for name, workload, part, patch in cases:
        ratio = fail_ratio(tb, workload, part, patch)
        good = ratio == 0 if patch is None else ratio > 0
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: fail_ratio {ratio:.3f} on {workload}")
    good = overlapping_spans_caught()
    ok &= good
    print(f"{'ok  ' if good else 'FAIL'} overlapping spans: reported by the nesting check")
    return 0 if ok else 1
