"""Command-line surface: reports, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tightbell import build_game, facegeom, load_game, make_named, nlc, save_game
from tightbell.cli import _solve_config, build_parser, main
from tightbell.errors import InvalidParameter, VerificationFailed
from tightbell.game import game_to_dict
from tightbell.nlc import NlcSpec, save_nlc_spec
from tightbell.qsdp import SolveConfig

from .generators import g0_spec, random_nlc_spec, tied_game


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, (json.loads(out) if out.strip() else None), err


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', text)


# ---------------------------------------------------------------------------
# make
# ---------------------------------------------------------------------------


def test_make_chsh(tmp_path, capsys):
    out = tmp_path / "chsh.json"
    code, _, _ = run(capsys, "make", "chsh", "-o", str(out))
    assert code == 0
    assert load_game(out) == make_named("chsh")


def test_make_appendixd(tmp_path, capsys):
    out = tmp_path / "ad2.json"
    code, _, _ = run(capsys, "make", "appendixd", "--n", "2", "-o", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["q"][0][0] == "1/16"  # lam = 1/8, entries lam/2


def test_make_nlc_and_stdout(capsys):
    code, payload, _ = run_json(capsys, "make", "nlc-and", "--n", "2")
    assert code == 0
    assert payload["format"] == "tightbell-game-v1"
    assert payload["m_a"] == 4


def test_make_invalid_n(capsys):
    for name, n in (("appendixd", "1"), ("chsh", "3"), ("single-entry", "3")):
        code, out, err = run(capsys, "make", name, "--n", n)
        assert code == 1
        assert out == "" and "error" in err


def test_make_warns_beyond_enumeration_cap(tmp_path, capsys):
    out = tmp_path / "big.json"
    code, _, err = run(capsys, "make", "identity", "--n", "5", "-o", str(out))
    assert code == 0
    assert "warning" in err


def test_make_nlc_and_warns_once(tmp_path):
    # the CLI's own warning line, and no library warning beside it
    out = tmp_path / "and6.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tightbell.cli", "make", "nlc-and", "--n", "6", "-o", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert (proc.returncode, proc.stdout) == (0, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:")


# ---------------------------------------------------------------------------
# bias
# ---------------------------------------------------------------------------


@pytest.fixture
def chsh_file(tmp_path):
    path = tmp_path / "chsh.json"
    save_game(make_named("chsh"), path)
    return str(path)


@pytest.fixture
def and2_file(tmp_path):
    path = tmp_path / "and2.json"
    save_game(make_named("nlc_and", 2), path)
    return str(path)


def test_bias_classical_chsh(capsys, chsh_file):
    code, payload, _ = run_json(capsys, "bias", "classical", chsh_file)
    assert code == 0
    assert payload["xi_c"] == "1/2"
    assert payload["winning_probability"] == "3/4"
    assert payload["provenance"]["xi_c"] == "exact-rational"


def test_bias_quantum_chsh(capsys, chsh_file):
    code, payload, _ = run_json(capsys, "bias", "quantum", chsh_file, "--seed", "42")
    assert code == 0
    assert abs(payload["xi_q"] - 0.7071068) <= 1e-6
    assert payload["gap"] <= 1e-7
    assert payload["min_eig"] >= -1e-8
    assert payload["classification"] == "advantage"
    assert len(payload["t"]) == 4


def test_bias_quantum_no_advantage(capsys, and2_file):
    code, payload, _ = run_json(capsys, "bias", "quantum", and2_file)
    assert code == 0
    assert payload["classification"] == "no_advantage"
    assert payload["xi_c"] == "1/2"


def test_bias_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "bias", "classical", str(bad))
    assert code == 1
    code, _, err = run(capsys, "bias", "classical", str(tmp_path / "missing.json"))
    assert code == 1


_ONE = game_to_dict(make_named("single_entry"))
_HALVES = {**_ONE, "m_b": 2, "q": [["1/2", "1/2"]]}
_SPEC = {"format": nlc.NLC_FORMAT, "n": 1, "q_tilde": ["1/2", "1/2"]}


@pytest.mark.parametrize(
    "command,content",
    [
        ("bias classical", b"\xff\xfe{}"),
        ("nlc spectrum", b"\xff\xfe{}"),
        ("bias classical", {**_ONE, "m_a": "x"}),
        ("bias classical", {**_ONE, "m_a": 1.9}),
        ("bias classical", {**_ONE, "f": [["a"]]}),
        ("bias classical", {**_ONE, "f": [[True]]}),
        ("bias classical", {**_HALVES, "f": [[0.7, True]]}),
        ("bias classical", {**_ONE, "q": "1"}),
        ("bias classical", {**_ONE, "q": [[True]]}),
        ("nlc spectrum", {**_SPEC, "f_z": [0.9, 1]}),
        ("nlc spectrum", {**_SPEC, "f_z": "01"}),
        ("nlc spectrum", {**_SPEC, "q_tilde": [True, 0], "f_z": [0, 1]}),
    ],
    ids=[
        "game-not-utf8", "spec-not-utf8", "m_a-string", "m_a-float", "f-string",
        "f-bool", "f-float", "q-string", "q-bool", "f_z-float", "f_z-string",
        "q_tilde-bool",
    ],
)
def test_malformed_input_files(tmp_path, capsys, command, content):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    code, out, err = run(capsys, *command.split(), str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_bias_cap_exceeded(capsys, chsh_file):
    code, _, err = run(capsys, "bias", "classical", chsh_file, "--enum-cap", "2")
    assert code == 2


@pytest.mark.parametrize("m_a,m_b", [(1, 3), (4, 6), (7, 5)])
def test_bias_enum_cap_counts_all_patterns(tmp_path, capsys, m_a, m_b):
    # 2^m patterns of the enumerated side, though only half of them are scanned
    path = tmp_path / "g.json"
    save_game(tied_game(np.random.default_rng(m_a + m_b), m_a, m_b), path)
    patterns = 1 << min(m_a, m_b)
    code, payload, _ = run_json(capsys, "bias", "classical", str(path), "--enum-cap", str(patterns))
    assert code == 0 and payload["xi_c"] is not None
    code, out, err = run(capsys, "bias", "classical", str(path), "--enum-cap", str(patterns - 1))
    assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize(
    "kind,flag",
    [("quantum", ["--enum-cap", "1"]), ("classical", ["--seed", "3"]),
     ("classical", ["--vertex-cap", "5"])],
    ids=["quantum-enum-cap", "classical-seed", "classical-vertex-cap"],
)
def test_bias_refuses_flags_its_kind_does_not_read(capsys, chsh_file, kind, flag):
    code, out, err = run(capsys, "bias", kind, chsh_file, *flag)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


def test_bias_quantum_uncertified_exit(monkeypatch, capsys, tmp_path):
    # a 3 x 2 game with a small advantage (xi_c = 5/6, xi_q about 0.8362):
    # the game has an advantage, so the solve starts at random
    path = tmp_path / "adv.json"
    q = [["11/36", "1/6"], ["1/18", "1/9"], ["1/36", "1/3"]]
    save_game(build_game(q, [[1, 1], [0, 1], [0, 1]]), path)
    # a huge change tolerance stops the restart after one sweep, far from
    # the optimum, so it cannot certify, and the primal value alone stays
    # below xi_c; the exact verdict is the advantage all the same, and the
    # exit code reads the certificate
    monkeypatch.setattr(SolveConfig, "change_tol", 1.0)
    code, payload, _ = run_json(capsys, "bias", "quantum", str(path))
    assert code == 3 and payload["restarts_used"] == 1
    assert payload["classification"] == "advantage"
    assert payload["xi_q"] < 5 / 6


def test_bias_quantum_certifies_no_advantage_at_the_witness(tmp_path, capsys):
    # identity(2): the enumeration's witness is certified before any restart,
    # so restarts_used is 0, and its certificate is exact
    path = tmp_path / "id2.json"
    save_game(make_named("identity", 2), path)
    code, payload, _ = run_json(capsys, "bias", "quantum", str(path))
    assert code == 0 and payload["classification"] == "no_advantage"
    assert (payload["restarts_used"], payload["xi_c"]) == (0, "1")
    assert (payload["xi_q"], payload["dual_value"], payload["gap"]) == (1.0, 1.0, 0.0)
    assert payload["t"] == [0.125] * 8


def test_bias_quantum_certified_past_the_enumeration_cap(tmp_path, capsys):
    # 25 x 25 identity-like game: 2^25 patterns pass the default enumeration
    # cap, so xi_c is unknown although the solve certifies; that is the cap
    # (exit 2), as for bias classical and face, not a failed certificate
    m = 25
    q = [[Fraction(1, m) if x == y else 0 for y in range(m)] for x in range(m)]
    path = tmp_path / "id25.json"
    save_game(build_game(q, [[0] * m] * m), path)
    code, payload, _ = run_json(capsys, "bias", "quantum", str(path))
    assert code == 2
    assert payload["xi_c"] is None and payload["classification"] == "undecided"
    assert payload["gap"] <= SolveConfig.gap_tol
    assert payload["min_eig"] >= -SolveConfig.feas_tol
    for argv in (["bias", "classical"], ["face"]):
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "") and err.startswith("error: ")


def test_bias_quantum_deterministic_output(capsys, chsh_file):
    _, out1, _ = run(capsys, "bias", "quantum", chsh_file, "--seed", "7")
    _, out2, _ = run(capsys, "bias", "quantum", chsh_file, "--seed", "7")
    assert strip_timestamp(out1) == strip_timestamp(out2)
    _, out3, _ = run(capsys, "bias", "quantum", chsh_file, "--seed", "8")
    assert strip_timestamp(out3) != strip_timestamp(out1) or out1  # may agree on value


# ---------------------------------------------------------------------------
# face
# ---------------------------------------------------------------------------


def test_face_chsh(capsys, chsh_file):
    code, payload, _ = run_json(capsys, "face", chsh_file)
    assert code == 0
    assert payload["is_facet_full"] is True
    assert payload["dim"] == payload["dim_full"] == 7
    assert payload["certificate"]["classification"] == "advantage"


def test_face_appendix_d_correlation_space(tmp_path, capsys):
    path = tmp_path / "ad2.json"
    save_game(make_named("appendix_d", 2), path)
    code, payload, _ = run_json(capsys, "face", str(path), "--space", "correlation")
    assert code == 0
    assert payload["dim"] == payload["dim_corr"] == 3
    assert payload["is_facet"] is False


def test_face_identity2(tmp_path, capsys):
    path = tmp_path / "id2.json"
    save_game(make_named("identity", 2), path)
    code, payload, _ = run_json(capsys, "face", str(path))
    assert code == 0
    assert payload["dim_full"] == 10
    assert payload["provenance"]["dim_full"] == "measured"


def test_face_deterministic(capsys, chsh_file):
    _, out1, _ = run(capsys, "face", chsh_file, "--seed", "3")
    _, out2, _ = run(capsys, "face", chsh_file, "--seed", "3")
    assert strip_timestamp(out1) == strip_timestamp(out2)


def test_face_truncated_exit(capsys, tmp_path):
    path = tmp_path / "id2.json"
    save_game(make_named("identity", 2), path)
    code, payload, _ = run_json(capsys, "face", str(path), "--vertex-cap", "3")
    assert code == 2
    assert payload["truncated"] is True
    assert payload["is_facet_full"] is None


def test_face_theorem_2_failure_exits_3(monkeypatch, capsys, tmp_path):
    # a codimension below Theorem 2's bound on a no-advantage game is a
    # failed verification: nothing on stdout, exit 3
    path = tmp_path / "id2.json"
    save_game(make_named("identity", 2), path)
    bound = facegeom.theorem2_codim_bound
    monkeypatch.setattr(facegeom, "theorem2_codim_bound",
                        lambda *dims: replace(bound(*dims), delta_full=bound(*dims).delta_full + 1))
    code, out, err = run(capsys, "face", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "Theorem 2" in err


@pytest.mark.parametrize(
    "argv",
    [["face", "GAME", "--enum-cap", "0"], ["face", "GAME", "--vertex-cap", "0"]],
    ids=lambda v: " ".join(v),
)
def test_face_caps_below_one_exit_invalid(capsys, chsh_file, argv):
    # a cap below 1 is invalid input (exit 1), not an exceeded cap (exit 2);
    # bias classical is covered by test_run_config_validation
    code, out, err = run(capsys, *(chsh_file if a == "GAME" else a for a in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# trivial-facet and nlc subcommands
# ---------------------------------------------------------------------------


def test_trivial_facet_cli(capsys):
    code, payload, _ = run_json(
        capsys, "trivial-facet", "--ma", "2", "--mb", "2", "--x0", "0", "--y0", "0",
        "--sign", "+",
    )
    assert code == 0
    assert payload == {
        **payload,
        "dim": 3,
        "is_facet": True,
    }


@pytest.mark.parametrize("ma,mb", [(11, 11), (12, 13)])
def test_trivial_facet_any_size(capsys, ma, mb):
    code, payload, err = run_json(
        capsys, "trivial-facet", "--ma", str(ma), "--mb", str(mb), "--x0", str(ma - 1),
        "--y0", str(mb - 1), "--sign", "-",
    )
    assert (code, err) == (0, "")
    assert (payload["dim"], payload["is_facet"]) == (ma * mb - 1, True)


def test_trivial_facet_bad_sign(capsys):
    code, _, _ = run(
        capsys, "trivial-facet", "--ma", "2", "--mb", "2", "--x0", "0", "--y0", "0",
        "--sign", "x",
    )
    assert code == 1


def test_nlc_spectrum_from_game_file(capsys, and2_file):
    code, payload, _ = run_json(capsys, "nlc", "spectrum", and2_file)
    assert code == 0
    assert sorted(payload["spectrum"]) == ["-1/2", "1/2", "1/2", "1/2"]
    assert (payload["k"], payload["l"]) == (3, 1)


def test_nlc_spectrum_from_spec_file(tmp_path, capsys):
    import numpy as np

    spec = random_nlc_spec(np.random.default_rng(5), 2)
    path = tmp_path / "spec.json"
    save_nlc_spec(spec, path)
    code, payload, _ = run_json(capsys, "nlc", "spectrum", str(path))
    assert code == 0
    assert payload["n"] == 2


def test_nlc_spectrum_rejects_non_circulant(capsys, tmp_path, chsh_file):
    code, _, err = run(capsys, "nlc", "spectrum", chsh_file)
    assert code == 1


def test_nlc_bound(capsys, and2_file):
    code, payload, _ = run_json(capsys, "nlc", "bound", and2_file)
    assert code == 0
    assert payload["xi_star"] == "1/2"
    assert payload["matches_classical"] is True


def test_nlc_bound_answers_past_the_family_limit(tmp_path, capsys, monkeypatch):
    # at n = 12, past make's family limit, the spec still answers: the Walsh
    # witness is scored on the spec, so no game is built at any n
    def built(*_args, **_kwargs):
        raise AssertionError("a game was built")

    monkeypatch.setattr(nlc, "circulant_game", built)
    monkeypatch.setattr(nlc, "build_nlc", built)
    size = 1 << 12
    spec = NlcSpec(n=12, q_tilde=(Fraction(1, size),) * size, f_z=(0,) * (size - 1) + (1,))
    path = tmp_path / "and12.json"
    save_nlc_spec(spec, path)
    code, payload, err = run_json(capsys, "nlc", "bound", str(path))
    assert (code, err) == (0, "")
    assert (payload["n"], payload["xi_star"], payload["xi_c"]) == (12, "2047/2048", "2047/2048")
    assert payload["matches_classical"] is True


def test_nlc_bound_answers_past_the_enumeration_cap(tmp_path, capsys, enumerations):
    # 2^5 inputs a side pass the enumeration cap; the Walsh witness needs no scan
    path = tmp_path / "and5.json"
    save_nlc_spec(nlc.spec_from_game(make_named("nlc_and", 5)), path)
    code, payload, err = run_json(capsys, "nlc", "bound", str(path))
    assert (code, err) == (0, "")
    assert (payload["xi_star"], payload["xi_c"]) == ("15/16", "15/16")
    assert payload["matches_classical"] is True
    assert enumerations == []


def test_nlc_bound_on_a_game_file_builds_no_second_game(capsys, and2_file, monkeypatch):
    def build(_spec):
        raise AssertionError("build_nlc called")

    monkeypatch.setattr(nlc, "build_nlc", build)
    code, payload, _ = run_json(capsys, "nlc", "bound", and2_file)
    assert code == 0
    assert (payload["xi_star"], payload["xi_c"]) == ("1/2", "1/2")


def test_nlc_bound_enumerates_once(capsys, and2_file, enumerations):
    # none at all: the Walsh witness proves xi_c without the scan
    code, payload, _ = run_json(capsys, "nlc", "bound", and2_file)
    assert code == 0
    assert payload["xi_c"] == "1/2"
    assert len(enumerations) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_nlc_bound_spec_file_matches_its_game_file(tmp_path, capsys, n):
    # both kinds of file give the same spec, and the same report
    g = make_named("nlc_and", n)
    spec_path, game_path = tmp_path / "spec.json", tmp_path / "game.json"
    save_nlc_spec(nlc.spec_from_game(g), spec_path)
    save_game(g, game_path)
    outs = []
    for path in (spec_path, game_path):
        code, out, err = run(capsys, "nlc", "bound", str(path))
        assert (code, err) == (0, "")
        outs.append(strip_timestamp(out))
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["matches_classical"] is True


def test_verification_failure_exit(capsys, and2_file, monkeypatch):
    def fail(*_args):
        raise VerificationFailed("Hadamard diagonalization is not exact")

    monkeypatch.setattr(nlc, "_verify_diagonalization", fail)
    code, out, err = run(capsys, "nlc", "spectrum", and2_file)
    assert code == 3
    assert out == "" and "not exact" in err


def test_nlc_bound_witness_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    # at n = 6 no diagonalization check runs, so a top Walsh coefficient
    # raised by one reaches the witness, which scores the spec's true bias
    transform = nlc._walsh_transform

    def tampered(values):
        out = transform(values)
        out[0] += 1
        return out

    monkeypatch.setattr(nlc, "_walsh_transform", tampered)
    path = tmp_path / "and6.json"
    save_nlc_spec(nlc.spec_from_game(make_named("nlc_and", 6)), path)
    code, out, err = run(capsys, "nlc", "bound", str(path))
    assert (code, out) == (3, "")
    assert "witness of Walsh index 0 scores 31/32, not 63/64" in err


def test_nlc_g0_mismatch_exits_3(capsys, monkeypatch):
    measure = nlc.affine_dimension_exact
    monkeypatch.setattr(nlc, "affine_dimension_exact", lambda points: measure(points) + 1)
    code, out, err = run(capsys, "nlc", "g0", "--n", "3")
    assert (code, out) == (3, "")
    assert "measured g0 dimension 21, formula 20" in err


def test_nlc_g0(capsys):
    code, payload, _ = run_json(capsys, "nlc", "g0", "--n", "2")
    assert code == 0
    assert payload["formula"] == 2 and payload["verified"] == 2


def test_nlc_g0_sweep_points(capsys):
    code, payload, _ = run_json(capsys, "nlc", "g0", "--n", "2", "--n-max", "5")
    assert code == 0
    pts = payload["points"]
    assert [p["n"] for p in pts] == [2, 3, 4, 5]
    assert pts[1]["verified"] == 20
    assert pts[2]["verified"] == 104 == pts[2]["formula"]
    assert pts[3]["verified"] is None  # beyond the exact-enumeration cap


def test_nlc_g0_refuses_past_the_cap_before_building(capsys, monkeypatch, enumerations):
    # past the enumeration cap no game is built: a sweep to n = 14, past the
    # family limit, builds and enumerates the games of n = 2, 3 and 4 only
    built = []
    build = nlc.build_nlc

    def recorded(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(nlc, "build_nlc", recorded)
    code, payload, _ = run_json(capsys, "nlc", "g0", "--n", "2", "--n-max", "14")
    assert code == 0
    assert built == [g0_spec(n) for n in (2, 3, 4)]
    assert [args[0].m_a for args in enumerations] == [4, 8, 16]
    assert [p["n"] for p in payload["points"]] == list(range(2, 15))
    assert [p["verified"] for p in payload["points"]] == [2, 20, 104] + [None] * 10


@pytest.mark.parametrize("n", [14, 40])
def test_nlc_g0_beyond_the_cap(capsys, n):
    # the cap is decided before the game of 2^n inputs a side is built
    code, payload, _ = run_json(capsys, "nlc", "g0", "--n", str(n))
    assert code == 0
    assert payload["formula"] == 2 ** (n - 1) * (2**n - 3)
    assert payload["verified"] is None


@pytest.mark.parametrize(
    "argv,code",
    [
        # 7200 passes Python's 4,300-digit integer-to-string limit; 7000 does not
        (["g0", "--n", "7200"], 2),
        (["g0", "--n", "2", "--n-max", "7200"], 2),
        (["corollary", "--n", "7200"], 2),
        (["corollary", "--n", "2", "--n-max", "7200"], 2),
        (["g0", "--n", "5", "--n-max", "3"], 1),
        (["corollary", "--n", "5", "--n-max", "3"], 1),
        (["g0", "--n", "2", "--n-max", "0"], 1),
        (["g0", "--n", "7000"], 0),
        (["corollary", "--n", "7000"], 0),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else f"exit{v}",
)
def test_nlc_sweep_range(capsys, argv, code):
    got, out, err = run(capsys, "nlc", *argv)
    assert got == code
    if code:
        assert out == "" and err.startswith("error:")
    else:
        assert json.loads(out)["n"] == 7000


def test_nlc_corollary_sweep(capsys):
    code, payload, _ = run_json(capsys, "nlc", "corollary", "--n", "1", "--n-max", "3")
    assert code == 0
    assert payload["points"][1] == {
        "n": 2,
        "dim_bound": 10,
        "codim_bound_full": 14,
        "codim_bound_corr": 10,
    }


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_in_1_gib(argv):
    """``tightbell argv`` in a child process with 1 GiB of address space."""
    return subprocess.run(
        [sys.executable, "-m", "tightbell.cli", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_memory,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )


@pytest.mark.parametrize(
    "argv",
    [["make", "identity", "--n", "40"], ["make", "appendixd", "--n", "12"],
     ["make", "nlc-and", "--n", "12"]],
    ids=lambda v: " ".join(v),
)
def test_families_past_n_11_exit_capped(argv):
    # refused before any of the 4^n entries is built; in a child process with
    # 1 GiB of address space, so a build that starts fails instead of growing
    proc = _run_in_1_gib(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "n = 11" in proc.stderr


def test_nlc_bound_answers_a_spec_past_n_11(tmp_path):
    # the 4^16 entries of the spec's game would not fit in the child's 1 GiB:
    # the witness is scored on the 2^16 entries of the spec
    spec = tmp_path / "spec16.json"
    save_nlc_spec(NlcSpec(n=16, q_tilde=(Fraction(1, 2**16),) * 2**16, f_z=(0,) * 2**16), spec)
    proc = _run_in_1_gib(["nlc", "bound", str(spec)])
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    assert (payload["n"], payload["xi_star"], payload["xi_c"]) == (16, "1", "1")


@pytest.mark.parametrize("n", [20000, 10**10])
def test_spec_with_a_huge_n_is_invalid(tmp_path, n):
    # 2^n is never formed: past 4,300 digits it cannot be printed, and at
    # n = 10^10 it does not fit in the child's 1 GiB of address space
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"format": "tightbell-nlc-v1", "n": n, "q_tilde": ["1"], "f_z": [0]}))
    for command in ("spectrum", "bound"):
        proc = _run_in_1_gib(["nlc", command, str(path)])
        assert (proc.returncode, proc.stdout) == (1, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["face"], ["bias", "quantum", "GAME", "--seed", "abc"],
     ["nlc", "g0", "--n", "2", "--n-max", "x"], ["frobnicate"],
     # the tolerances are fixed: a tolerance flag is an unknown flag
     ["face", "GAME", "--adv-tol", "1"], ["bias", "quantum", "GAME", "--change-tol", "1"]],
    ids=lambda v: " ".join(v),
)
def test_usage_errors_exit_invalid(capsys, chsh_file, argv):
    code, out, err = run(capsys, *(chsh_file if a == "GAME" else a for a in argv))
    assert (code, out) == (1, "")
    assert "error:" in err


def test_help_exits_ok(capsys):
    code, out, _ = run(capsys, "bias", "quantum", "--help")
    assert code == 0 and "--seed" in out and "--enum-cap" not in out


def test_parser_is_built_once_and_calls_share_no_state(tmp_path, capsys, chsh_file):
    assert build_parser() is build_parser()
    # a flag given in one call does not carry over to the next
    first, second = (run_json(capsys, "face", chsh_file, *extra)[1]
                     for extra in (["--space", "correlation"], []))
    assert (first["space"], second["space"]) == ("correlation", "full")
    first, second = (run_json(capsys, "bias", "quantum", chsh_file, *extra)[1]
                     for extra in (["--seed", "5"], []))
    assert (first["seed"], second["seed"]) == (5, 0)
    # a usage error and --help leave nothing behind for a valid call
    argv = ("face", chsh_file)
    code, out, err = run(capsys, *argv)
    assert run(capsys, "face")[0] == 1
    assert run(capsys, "--help")[0] == 0
    again = run(capsys, *argv)
    assert (again[0], strip_timestamp(again[1]), again[2]) == (code, strip_timestamp(out), err)
    # -o in one call, stdout in the next
    assert run(capsys, *argv, "-o", str(tmp_path / "report.json"))[1] == ""
    assert strip_timestamp(run(capsys, *argv)[1]) == strip_timestamp(out)
    # usage goes to the stderr of the call, not of the parser's first use
    usage = io.StringIO()
    with contextlib.redirect_stderr(usage):
        assert main(["frobnicate"]) == 1
    assert usage.getvalue().startswith("usage: tightbell")


def test_output_file_flag(tmp_path, capsys, chsh_file):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "bias", "classical", chsh_file, "-o", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["xi_c"] == "1/2"


@pytest.mark.parametrize(
    "command,args",
    [
        ("make", ["chsh"]),
        ("make", ["identity", "--n", "5"]),  # its warning stays on stderr
        ("bias classical", ["GAME"]),
        ("bias quantum", ["GAME"]),
        ("face", ["GAME"]),
        ("face", ["GAME", "--space", "correlation"]),
        ("trivial-facet", ["--ma", "2", "--mb", "3", "--x0", "1", "--y0", "2", "--sign", "-"]),
        ("nlc spectrum", ["GAME"]),
        ("nlc bound", ["GAME"]),
        ("nlc g0", ["--n", "2"]),
        ("nlc g0", ["--n", "2", "--n-max", "3"]),
        ("nlc corollary", ["--n", "2"]),
        ("nlc corollary", ["--n", "1", "--n-max", "3"]),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_every_command_writes_one_report(tmp_path, capsys, and2_file, command, args):
    argv = [*command.split(), *(and2_file if a == "GAME" else a for a in args)]
    code, out, err = run(capsys, *argv)
    out_file = tmp_path / "report.json"
    assert run(capsys, *argv, "-o", str(out_file)) == (code, "", err)
    assert strip_timestamp(out_file.read_bytes().decode("utf-8")) == strip_timestamp(out)
    keys = list(json.loads(out))
    if command == "make":
        assert "command" not in keys and "timestamp" not in keys
    else:
        assert keys[:2] == ["command", "timestamp"]
        assert json.loads(out)["command"] == command


def _option_strings(capsys, *command):
    """The long options listed by ``command``'s ``--help``, in order."""
    code, out, _ = run(capsys, *command, "--help")
    assert code == 0
    return re.findall(r"^  (?:-\w(?: \w+)?, )?(--[a-z-]+)", out, re.MULTILINE)


def test_solver_flags_are_the_config_fields(capsys, chsh_file):
    names = [f.name for f in fields(SolveConfig)]
    assert names == ["seed"]
    # the fixed constants stay readable from an instance, as bench/ reads them
    cfg = SolveConfig()
    assert (cfg.gap_tol, cfg.feas_tol, cfg.change_tol) == (1e-7, 1e-8, 1e-13)
    assert cfg.max_iters == 50_000
    solver = ["--" + name.replace("_", "-") for name in names]
    assert _option_strings(capsys, "bias", "quantum") == ["--help", *solver, "--output"]
    assert _option_strings(capsys, "face") == [
        "--help", "--space", *solver, "--enum-cap", "--vertex-cap", "--output"
    ]
    for command in (["bias", "quantum"], ["face"]):
        assert _solve_config(build_parser().parse_args([*command, chsh_file])) == SolveConfig()


def _commands(parser, path=()):
    """Every subcommand path of ``parser`` that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [path]
    return [c for name, p in subs[0].choices.items() for c in _commands(p, (*path, name))]


def test_readme_flag_list_matches_the_parser(capsys):
    # every flag the README's per-command list names is an option of some
    # command, and every option of every command is named there
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    section = readme.split("Flags, per command")[1].split("A flag the command does not read")[0]
    listed = set(re.findall(r"--[a-z][a-z-]*", section))
    commands = _commands(build_parser())
    assert len(commands) == 9
    options = {o for c in commands for o in _option_strings(capsys, *c)} - {"--help"}
    assert listed == options


def test_run_config_validation(capsys, chsh_file):
    args = build_parser().parse_args(["bias", "quantum", chsh_file, "--seed", "9"])
    assert _solve_config(args).seed == 9
    for bad in (dict(seed=-1), dict(seed=2**64)):
        with pytest.raises(InvalidParameter):
            SolveConfig(**bad)
    # constants, not settings; a restart count is no field
    for fixed in (dict(max_iters=3), dict(gap_tol=1e-9), dict(restarts=2)):
        with pytest.raises(TypeError):
            SolveConfig(**fixed)
    code, out, _ = run(capsys, "bias", "classical", chsh_file, "--enum-cap", "0")
    assert (code, out) == (1, "")
    # the solver runs one restart: a restart count is a usage error
    for command in (["bias", "quantum"], ["face"]):
        code, out, err = run(capsys, *command, chsh_file, "--restarts", "2")
        assert (code, out) == (1, "")
        assert err.startswith("usage: tightbell ")
        assert err.endswith("\ntightbell: error: unrecognized arguments: --restarts 2\n")


def test_dual_infeasible_exit(infeasible_dual, capsys, and2_file):
    # no restart certifies a no-advantage game: the report still prints, with
    # the exact verdict, and the exit code reads the certificate
    code, payload, _ = run_json(capsys, "bias", "quantum", and2_file)
    assert code == 3
    assert payload["classification"] == "no_advantage"
    assert payload["min_eig"] == -1.0


def test_uncertified_advantage_exits_3(infeasible_dual, capsys, chsh_file):
    # CHSH's primal value clears xi_c by far, which exited 0 while the
    # classification was read off the primal value; the exit code now reads
    # the certificate, and the classification is the exact verdict
    code, payload, _ = run_json(capsys, "bias", "quantum", chsh_file)
    assert (code, payload["classification"]) == (3, "advantage")
    assert payload["xi_q"] - 0.5 > 0.2
    code, payload, _ = run_json(capsys, "face", chsh_file)
    assert (code, payload["classification"]) == (3, "advantage")


def test_console_script_entry_point(tmp_path):
    path = tmp_path / "chsh.json"
    save_game(make_named("chsh"), path)
    proc = subprocess.run(
        [sys.executable, "-m", "tightbell.cli", "bias", "classical", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["xi_c"] == "1/2"
