"""Command-line surface: reports, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys

import pytest

from tightbell import load_game, make_named, nlc, save_game
from tightbell.cli import _solve_config, build_parser, main
from tightbell.errors import InvalidParameter, VerificationFailed
from tightbell.game import game_to_dict
from tightbell.nlc import save_nlc_spec
from tightbell.qsdp import SolveConfig

from .generators import random_nlc_spec


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
        ("nlc spectrum", {**_SPEC, "f_z": [0.9, 1]}),
        ("nlc spectrum", {**_SPEC, "f_z": "01"}),
    ],
    ids=[
        "game-not-utf8", "spec-not-utf8", "m_a-string", "m_a-float", "f-string",
        "f-bool", "f-float", "q-string", "f_z-float", "f_z-string",
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


def test_bias_quantum_uncertified_exit(capsys, tmp_path):
    path = tmp_path / "ad2.json"
    save_game(make_named("appendix_d", 2), path)
    # a huge change tolerance stops every restart after one sweep, far from
    # the optimum, so no restart can certify
    code, payload, _ = run_json(
        capsys, "bias", "quantum", str(path), "--change-tol", "1.0", "--restarts", "2"
    )
    assert code == 3
    assert payload["classification"] == "undecided"


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
def test_trivial_facet_over_memory_budget(capsys, ma, mb):
    code, out, err = run(
        capsys, "trivial-facet", "--ma", str(ma), "--mb", str(mb), "--x0", str(ma - 1),
        "--y0", str(mb - 1), "--sign", "-",
    )
    assert (code, out) == (2, "")
    assert "budget" in err


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


def test_nlc_bound_enumerates_once(capsys, and2_file, enumerations):
    code, payload, _ = run_json(capsys, "nlc", "bound", and2_file)
    assert code == 0
    assert payload["xi_c"] == "1/2"
    assert len(enumerations) == 1


def test_verification_failure_exit(capsys, and2_file, monkeypatch):
    def fail(*_args):
        raise VerificationFailed("Hadamard diagonalization is not exact")

    monkeypatch.setattr(nlc, "_verify_diagonalization", fail)
    code, out, err = run(capsys, "nlc", "spectrum", and2_file)
    assert code == 3
    assert out == "" and "not exact" in err


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


@pytest.mark.parametrize("n", [14, 40])
def test_nlc_g0_beyond_the_cap(capsys, n):
    # the cap is decided before the binomial C(2^n, 2^(n-1)) is formed
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


@pytest.mark.parametrize(
    "argv",
    [["face"], ["bias", "quantum", "GAME", "--seed", "abc"],
     ["nlc", "g0", "--n", "2", "--n-max", "x"], ["frobnicate"]],
    ids=lambda v: " ".join(v),
)
def test_usage_errors_exit_invalid(capsys, chsh_file, argv):
    code, out, err = run(capsys, *(chsh_file if a == "GAME" else a for a in argv))
    assert (code, out) == (1, "")
    assert "error:" in err


def test_help_exits_ok(capsys):
    code, out, _ = run(capsys, "bias", "quantum", "--help")
    assert code == 0 and "--gap-tol" in out and "--enum-cap" not in out


def test_output_file_flag(tmp_path, capsys, chsh_file):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "bias", "classical", chsh_file, "-o", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["xi_c"] == "1/2"


def test_run_config_validation(capsys, chsh_file):
    args = build_parser().parse_args(
        ["bias", "quantum", chsh_file, "--seed", "9", "--gap-tol", "1e-9"]
    )
    cfg = _solve_config(args)
    assert cfg.seed == 9 and cfg.gap_tol == 1e-9
    for bad in (
        dict(gap_tol=0.0),
        dict(feas_tol=-1e-6),
        dict(restarts=0),
        dict(max_iters=0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(gap_tol=math.nan),
        dict(change_tol=math.nan),
    ):
        with pytest.raises(InvalidParameter):
            SolveConfig(**bad)
    code, out, _ = run(capsys, "bias", "classical", chsh_file, "--enum-cap", "0")
    assert (code, out) == (1, "")
    code, out, _ = run(capsys, "bias", "quantum", chsh_file, "--gap-tol", "nan")
    assert (code, out) == (1, "")


def test_dual_infeasible_exit(infeasible_dual, capsys, and2_file):
    # no restart certifies a no-advantage game: the report still prints
    code, payload, _ = run_json(capsys, "bias", "quantum", and2_file)
    assert code == 3
    assert payload["classification"] == "undecided"
    assert payload["min_eig"] == -1.0


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
