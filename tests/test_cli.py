import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pframes.duality
from helpers import MERCEDES_BENZ, random_frame_measure, remark_instance, with_row_residual
from pframes import canonical_dual
from pframes.cli import main
from pframes.measures import DiscreteMeasure, measure_from_payload, measure_to_payload

SRC = Path(__file__).resolve().parents[1] / "src"


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_measure(path, measure):
    return write_json(path, measure_to_payload(measure))


def basis_measure_payload():
    return {"dim": 2, "atoms": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5]}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frame_report_basis(tmp_path, capsys):
    src = write_json(tmp_path / "m.json", basis_measure_payload())
    code, out, _ = run(capsys, ["frame-report", src])
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == 0.5
    assert payload["upper"] == 0.5
    assert payload["is_frame"] is True
    assert payload["config"]["command"] == "frame-report"


def test_frame_report_singular_measure_still_exits_zero(tmp_path, capsys):
    src = write_json(
        tmp_path / "m.json", {"dim": 2, "atoms": [[1.0, 0.0]], "weights": [1.0]}
    )
    code, out, _ = run(capsys, ["frame-report", src])
    assert code == 0
    assert json.loads(out)["is_frame"] is False


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["frame-report", str(bad)])
    assert code == 2
    assert "input error" in err


def test_missing_file_exits_two(capsys):
    code, _, _ = run(capsys, ["frame-report", "/nonexistent/measure.json"])
    assert code == 2


def test_canonical_dual_round_trips(tmp_path, capsys):
    src = write_json(tmp_path / "m.json", basis_measure_payload())
    out_path = tmp_path / "dual.json"
    code, _, _ = run(capsys, ["canonical-dual", src, "--out", str(out_path)])
    assert code == 0
    # The written measure (with its config echo) must be accepted back.
    payload = json.loads(out_path.read_text())
    dual = measure_from_payload(payload)
    assert np.allclose(dual.atoms, 2.0 * np.eye(2))
    code2, out2, _ = run(capsys, ["frame-report", str(out_path)])
    assert code2 == 0
    assert json.loads(out2)["is_frame"] is True


def test_transport_dual_remark_pair(tmp_path, capsys):
    mu, nu = remark_instance()
    mu_path = write_measure(tmp_path / "mu.json", mu)
    nu_path = write_measure(tmp_path / "nu.json", nu)
    code, out, _ = run(capsys, ["transport-dual", mu_path, nu_path])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "dual"
    coupling = np.array(payload["coupling"])
    rows, cols = np.array(payload["row_weights"]), np.array(payload["col_weights"])
    assert coupling.shape == (3, 2)
    assert np.abs(coupling.sum(axis=1) - rows).max() <= 1e-8
    assert np.abs(coupling.sum(axis=0) - cols).max() <= 1e-8


def test_transport_dual_invalid_solver_coupling_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        pframes.duality, "solve_lp", with_row_residual(pframes.duality.solve_lp, 1.5e-8)
    )
    mu, nu = remark_instance()
    mu_path = write_measure(tmp_path / "mu.json", mu)
    nu_path = write_measure(tmp_path / "nu.json", nu)
    code, out, err = run(capsys, ["transport-dual", mu_path, nu_path])
    assert code == 3
    assert out == ""
    assert "numeric error" in err


def test_transport_dual_obstructed_pair(tmp_path, capsys):
    mb = write_json(
        tmp_path / "mb.json",
        {"dim": 2, "atoms": MERCEDES_BENZ.tolist(), "weights": [1 / 3, 1 / 3, 1 / 3]},
    )
    cand = write_json(
        tmp_path / "cand.json",
        {"dim": 2, "atoms": [[0.3, 1.1], [-0.8, 0.2]], "weights": [0.5, 0.5]},
    )
    code, out, _ = run(capsys, ["transport-dual", mb, cand])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "not-dual"
    cert = payload["certificate"]
    assert np.asarray(cert["B"]).shape == (2, 2)
    assert len(cert["u"]) == 3 and len(cert["v"]) == 2


def test_transport_dual_self_dual_scaled_basis(tmp_path, capsys):
    d = 2
    payload = {
        "dim": d,
        "atoms": (np.sqrt(d) * np.eye(d)).tolist(),
        "weights": [1.0 / d] * d,
    }
    src = write_json(tmp_path / "m.json", payload)
    code, out, _ = run(capsys, ["transport-dual", src, src])
    assert code == 0
    assert json.loads(out)["status"] == "dual"


def test_wasserstein_self_distance(tmp_path, capsys):
    src = write_json(tmp_path / "m.json", basis_measure_payload())
    code, out, _ = run(capsys, ["wasserstein", src, src])
    assert code == 0
    payload = json.loads(out)
    assert payload["w2_squared"] <= 1e-10
    assert payload["permutation"] == [0, 1]


def test_monotone_canonical_dual_pairs(tmp_path, capsys):
    rng = np.random.default_rng(0)
    measure = random_frame_measure(rng, 2, 4, uniform=True)
    dual = canonical_dual(measure)
    pairs = write_json(
        tmp_path / "pairs.json",
        {"xs": measure.atoms.tolist(), "ys": dual.atoms.tolist()},
    )
    code, out, _ = run(capsys, ["monotone", pairs])
    assert code == 0
    payload = json.loads(out)
    assert payload["cyclically_monotone"] is True
    assert payload["witness"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e200], ids=["nan", "inf", "overflow"])
def test_monotone_non_finite_pairs_exit_two(tmp_path, capsys, bad):
    points = [[1.0, 0.0], [0.0, 1.0], [bad, 0.0]]
    pairs = write_json(tmp_path / "pairs.json", {"xs": points, "ys": points})
    code, out, err = run(capsys, ["monotone", pairs])
    assert code == 2
    assert out == ""
    assert "input error" in err and "non-finite" in err


def test_geodesic_profile_csv(tmp_path, capsys):
    rng = np.random.default_rng(1)
    measure = random_frame_measure(rng, 2, 4, uniform=True)
    dual = canonical_dual(measure)
    mu_path = write_measure(tmp_path / "mu.json", measure)
    nu_path = write_measure(tmp_path / "nu.json", dual)
    out_path = tmp_path / "profile.csv"
    code, _, _ = run(
        capsys, ["geodesic-profile", mu_path, nu_path, "--grid", "11", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,lambda_min,lambda_max,m2"
    assert len(lines) == 12
    for line in lines[1:]:
        assert float(line.split(",")[1]) > 0.0


def test_geodesic_profile_antipodal_dips(tmp_path, capsys):
    mu_path = write_json(tmp_path / "a.json", basis_measure_payload())
    nu_path = write_json(
        tmp_path / "b.json",
        {"dim": 2, "atoms": [[-1.0, 0.0], [0.0, -1.0]], "weights": [0.5, 0.5]},
    )
    code, out, _ = run(capsys, ["geodesic-profile", mu_path, nu_path, "--grid", "11"])
    assert code == 0
    lines = out.strip().split("\n")
    mins = [float(line.split(",")[1]) for line in lines[1:]]
    assert min(mins) <= 1e-12


def test_geodesic_profile_grid_two(tmp_path, capsys):
    src = write_json(tmp_path / "m.json", basis_measure_payload())
    code, out, _ = run(capsys, ["geodesic-profile", src, src, "--grid", "2"])
    assert code == 0
    assert len(out.strip().split("\n")) == 3  # header plus both endpoints


def test_gaussian_w2(tmp_path, capsys):
    g0 = write_json(tmp_path / "g0.json", {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]})
    g1 = write_json(tmp_path / "g1.json", {"mean": [0.0, 0.0], "cov": [[4.0, 0.0], [0.0, 1.0]]})
    code, out, _ = run(capsys, ["gaussian-w2", g0, g1])
    assert code == 0
    assert abs(json.loads(out)["w2_squared"] - 1.0) <= 1e-12


def test_gaussian_w2_accepted_negative_eigenvalue(tmp_path, capsys):
    cov = [[0.01, 0.0], [0.0, -5e-11]]  # accepted: within pd_threshold
    g0 = write_json(tmp_path / "g0.json", {"mean": [0.0, 0.0], "cov": cov})
    g1 = write_json(tmp_path / "g1.json", {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]})
    code, out, _ = run(capsys, ["gaussian-w2", g0, g1])
    assert code == 0
    assert abs(json.loads(out)["w2_squared"] - 1.81) <= 1e-12


def test_gaussian_path_csv(tmp_path, capsys):
    g0 = write_json(tmp_path / "g0.json", {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]})
    g1 = write_json(tmp_path / "g1.json", {"mean": [0.0, 0.0], "cov": [[4.0, 0.0], [0.0, 1.0]]})
    code, out, _ = run(capsys, ["gaussian-path", g0, g1, "--grid", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    mid = [float(v) for v in lines[2].split(",")]
    assert abs(mid[3] - 3.25) <= 1e-12  # trace of diag(2.25, 1)


def test_gaussian_type_mismatch_exits_two(tmp_path, capsys):
    g0 = write_json(tmp_path / "g0.json", basis_measure_payload())
    g1 = write_json(tmp_path / "g1.json", {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]})
    code, _, _ = run(capsys, ["gaussian-w2", g0, g1])
    assert code == 2


def sites_payload():
    return {
        "sites": [[1.0, 0.0], [-1.0, 0.0]],
        "targets": [0.75, 0.25],
        "reference": {"type": "gaussian", "dim": 2},
    }


def recon_payload():
    return {
        "sites": [[1.0, 0.0], [-0.3, 1.0], [-0.7, -1.0]],
        "targets": [0.4, 0.35, 0.25],
        "reference": {"type": "gaussian", "dim": 2},
    }


def test_semidiscrete_adapt_reproducible_bytes(tmp_path, capsys):
    spec = write_json(tmp_path / "sites.json", sites_payload())
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out_path in (out_a, out_b):
        code, _, _ = run(
            capsys,
            ["semidiscrete-adapt", spec, "--samples", "30000", "--seed", "9",
             "--out", str(out_path)],
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text())
    assert payload["samples"] == 30000
    assert payload["seed"] == 9
    assert abs(payload["achieved"][0] - 0.75) <= 1e-3


def test_semidiscrete_adapt_unreachable_tolerance_exits_three(tmp_path, capsys):
    spec = write_json(
        tmp_path / "sites.json",
        {
            "sites": [[1.0, 0.0], [-1.0, 0.0]],
            "targets": [1.0 / 3.0, 2.0 / 3.0],
            "reference": {"type": "gaussian", "dim": 2},
        },
    )
    code, _, err = run(
        capsys, ["semidiscrete-adapt", spec, "--samples", "1000", "--tol", "1e-12"]
    )
    assert code == 3
    assert "numeric error" in err


def test_reconstruct_command(tmp_path, capsys):
    spec = write_json(
        tmp_path / "recon.json", dict(recon_payload(), xs=[[1.0, 0.0], [0.0, 1.0]])
    )
    code, out, _ = run(capsys, ["reconstruct", spec, "--samples", "60000", "--seed", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_error"] <= 5e-2
    assert len(payload["reconstructions"]) == 2


SAMPLING = ["--samples", "2000", "--seed", "3", "--tol", "0.01"]


def json_command(tmp_path, name):
    """Argv and input paths that run ``name`` to a JSON result."""
    basis = write_json(tmp_path / "m.json", basis_measure_payload())
    scaled = write_json(
        tmp_path / "s.json",
        {"dim": 2, "atoms": (np.sqrt(2.0) * np.eye(2)).tolist(), "weights": [0.5, 0.5]},
    )
    g0 = write_json(tmp_path / "g0.json", {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]})
    g1 = write_json(tmp_path / "g1.json", {"mean": [0.0, 0.0], "cov": [[4.0, 0.0], [0.0, 1.0]]})
    inputs = {
        "frame-report": [basis],
        "canonical-dual": [basis],
        "transport-dual": [scaled, scaled],
        "wasserstein": [basis, scaled],
        "monotone": [write_json(tmp_path / "p.json", {"xs": [[1.0, 0.0]], "ys": [[0.0, 1.0]]})],
        "gaussian-w2": [g0, g1],
        "semidiscrete-adapt": [write_json(tmp_path / "sites.json", sites_payload())],
        "reconstruct": [write_json(tmp_path / "recon.json", recon_payload())],
    }[name]
    sampling = name in ("semidiscrete-adapt", "reconstruct")
    return [name, *inputs, *(SAMPLING if sampling else [])], inputs


@pytest.mark.parametrize(
    "name",
    ["frame-report", "canonical-dual", "transport-dual", "wasserstein", "monotone",
     "gaussian-w2", "semidiscrete-adapt", "reconstruct"],
)
def test_json_commands_echo_config_last(tmp_path, capsys, name):
    argv, inputs = json_command(tmp_path, name)
    code, out, err = run(capsys, argv)
    assert code == 0, err
    payload = json.loads(out)
    assert list(payload)[-1] == "config"
    config = payload["config"]
    assert config["command"] == name
    assert config["inputs"] == inputs
    if name in ("semidiscrete-adapt", "reconstruct"):
        assert list(config) == ["command", "inputs", "samples", "seed", "tol"]
        assert (config["samples"], config["seed"], config["tol"]) == (2000, 3, 0.01)
    else:
        assert list(config) == ["command", "inputs"]


@pytest.mark.parametrize("name", ["geodesic-profile", "gaussian-path"])
def test_csv_commands_write_no_config(tmp_path, capsys, name):
    if name == "geodesic-profile":
        inputs = [write_json(tmp_path / "m.json", basis_measure_payload())] * 2
    else:
        inputs = [write_json(tmp_path / f"g{k}.json", {"mean": [0.0], "cov": [[k + 1.0]]})
                  for k in range(2)]
    code, out, _ = run(capsys, [name, *inputs, "--grid", "3"])
    assert code == 0
    assert out.split("\n")[0] == "t,lambda_min,lambda_max,m2"
    assert "config" not in out and "{" not in out


@pytest.mark.parametrize("name", ["semidiscrete-adapt", "reconstruct"])
def test_spec_missing_targets_exits_two(tmp_path, capsys, name):
    spec = dict(recon_payload())
    del spec["targets"]
    path = write_json(tmp_path / "spec.json", spec)
    code, out, err = run(capsys, [name, path, "--samples", "500"])
    assert code == 2
    assert out == ""
    assert "missing 'targets'" in err


def test_reconstruct_rank_deficient_frame_exits_two(tmp_path, capsys):
    spec = dict(recon_payload(), frame=[[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
    path = write_json(tmp_path / "spec.json", spec)
    code, out, err = run(capsys, ["reconstruct", path, "--samples", "2000"])
    assert code == 2
    assert out == ""
    assert "input error: measure support does not span the space" in err


def test_reconstruct_failed_dual_identity_exits_three(tmp_path, capsys, monkeypatch):
    # A frame operator off by 1% makes the canonical dual fail its identity
    # check, which is a numeric failure rather than an input error.
    operator = pframes.duality.frame_operator
    monkeypatch.setattr(pframes.duality, "frame_operator", lambda m: 1.01 * operator(m))
    path = write_json(tmp_path / "spec.json", recon_payload())
    code, out, err = run(capsys, ["reconstruct", path, "--samples", "2000"])
    assert code == 3
    assert out == ""
    assert "numeric error: canonical dual identity check failed" in err


def test_reconstruct_empty_xs_exits_two(tmp_path, capsys):
    path = write_json(tmp_path / "spec.json", dict(recon_payload(), xs=[]))
    code, out, err = run(capsys, ["reconstruct", path, "--samples", "2000"])
    assert code == 2
    assert out == ""
    assert "input error: 'xs' must hold at least one vector" in err


def test_unknown_reference_type_exits_two(tmp_path, capsys):
    spec = write_json(
        tmp_path / "sites.json",
        {"sites": [[1.0, 0.0]], "targets": [1.0], "reference": {"type": "cauchy", "dim": 2}},
    )
    code, _, _ = run(capsys, ["semidiscrete-adapt", spec, "--samples", "100"])
    assert code == 2


@pytest.mark.parametrize(
    "reference, field",
    [
        ({"type": "gaussian"}, "dim"),
        ({"type": "box", "hi": [1.0, 1.0]}, "lo"),
        ({"type": "box", "lo": [-1.0, -1.0]}, "hi"),
    ],
)
def test_reference_missing_field_is_named(tmp_path, capsys, reference, field):
    spec = write_json(tmp_path / "sites.json", dict(sites_payload(), reference=reference))
    code, out, err = run(capsys, ["semidiscrete-adapt", spec, "--samples", "100"])
    assert code == 2
    assert out == ""
    assert f"input error: {reference['type']} reference missing '{field}'" in err


def test_floats_serialized_with_full_precision(tmp_path, capsys):
    value = 1.0 / 3.0
    src = write_json(
        tmp_path / "m.json",
        {"dim": 1, "atoms": [[value]], "weights": [1.0]},
    )
    code, out, _ = run(capsys, ["frame-report", src])
    assert code == 0
    assert json.loads(out)["upper"] == value**2


def run_child(code, *args):
    """Run ``code`` in a fresh interpreter with ``src`` on its path; return
    the JSON its last stdout line holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LOADED_SCIPY = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
)


@pytest.mark.parametrize("module", ["pframes", "pframes.cli"])
def test_import_loads_no_scipy(module):
    # The solvers import scipy on first use; a top-level scipy import
    # anywhere in the package would show up here.
    assert run_child(f"import {module}; {LOADED_SCIPY}") == []


def test_commands_that_never_solve_load_no_scipy_solver(tmp_path):
    m = write_json(tmp_path / "m.json", basis_measure_payload())
    g0 = write_json(tmp_path / "g0.json", {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]})
    g1 = write_json(tmp_path / "g1.json", {"mean": [0.0, 0.0], "cov": [[4.0, 0.0], [0.0, 1.0]]})
    sites = write_json(tmp_path / "sites.json", sites_payload())
    mb = write_json(
        tmp_path / "mb.json",
        {"dim": 2, "atoms": MERCEDES_BENZ.tolist(), "weights": [1 / 3, 1 / 3, 1 / 3]},
    )
    two = write_json(
        tmp_path / "two.json", {"dim": 2, "atoms": [[0.3, 1.1], [-0.8, 0.2]], "weights": [0.3, 0.7]}
    )
    skewed = write_json(
        tmp_path / "skewed.json",
        {"dim": 2, "atoms": [[1.0, 0.2], [-0.4, 1.0], [0.3, -0.9]], "weights": [0.2, 0.3, 0.5]},
    )
    skewed_dual = str(tmp_path / "skewed-dual.json")
    # x -> A x with A positive definite is the gradient of a convex function.
    xs = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 2.0]]
    monotone_pairs = write_json(
        tmp_path / "paired.json",
        {"xs": xs, "ys": [[2.0 * a + 0.5 * b, 0.5 * a + b] for a, b in xs]},
    )
    swapped_pairs = write_json(
        tmp_path / "swapped.json", {"xs": [[1.0, 0.0], [0.0, 1.0]], "ys": [[0.0, 1.0], [1.0, 0.0]]}
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    commands = [
        ["frame-report", m],
        ["canonical-dual", m, "--out", str(tmp_path / "dual.json")],
        # A frame and its canonical dual pair atom by atom: no LP is solved.
        ["transport-dual", m, str(tmp_path / "dual.json")],
        # A zero-centroid frame against 2 points: the first-moment
        # certificate decides it.
        ["transport-dual", mb, two],
        ["gaussian-w2", g0, g1],
        ["gaussian-path", g0, g1, "--grid", "3"],
        ["semidiscrete-adapt", sites, "--samples", "2000", "--seed", "1"],
        # 50k samples run the coarse level first.
        ["semidiscrete-adapt", sites, "--samples", "50000", "--seed", "1"],
        # The identity pairing is decided by its bound or by a transposition.
        ["monotone", monotone_pairs],
        ["monotone", swapped_pairs],
        # A uniform frame and its canonical dual: hungarian accepts the
        # identity before any assignment solve.
        ["wasserstein", m, str(tmp_path / "dual.json")],
        ["geodesic-profile", m, str(tmp_path / "dual.json"), "--grid", "5"],
        ["canonical-dual", skewed, "--out", skewed_dual],
        ["wasserstein", skewed, skewed_dual],
        ["geodesic-profile", skewed, skewed_dual, "--grid", "5"],
        ["frame-report", str(bad)],
    ]
    code = (
        "import json, sys; from pframes.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(json.dumps([codes, sorted(m for m in sys.modules "
        "if m.startswith(('scipy.optimize', 'scipy.sparse')))]))"
    )
    codes, loaded = run_child(code, json.dumps(commands))
    assert codes == [0] * (len(commands) - 1) + [2]
    assert loaded == []


SOLVER_EXTENSIONS = ("scipy.optimize._lsap", "scipy.optimize._highspy._core")


def test_commands_that_solve_load_only_the_two_scipy_solvers(tmp_path):
    rng = np.random.default_rng(31)

    def measure(name, atoms, weights):
        payload = {"dim": 2, "atoms": atoms.tolist(), "weights": weights.tolist()}
        return write_json(tmp_path / name, payload)

    # Dirichlet weights on 5 and 7 atoms: W2 and the profile solve the LP.
    mu = measure("mu.json", rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
    nu = measure("nu.json", rng.normal(size=(7, 2)), rng.dirichlet(np.ones(7)))
    # A uniform pair paired out of order: the assignment solver decides.
    atoms = rng.normal(size=(6, 2))
    left = measure("left.json", atoms, np.full(6, 1 / 6))
    right = measure("right.json", atoms[rng.permutation(6)] + 0.1, np.full(6, 1 / 6))
    # A zero-centroid frame against its canonical dual with one atom split:
    # feasible, but paired neither atom by atom nor by a first moment.
    frame_atoms = rng.normal(size=(5, 2))
    frame = DiscreteMeasure(frame_atoms - frame_atoms.mean(axis=0), np.full(5, 0.2))
    dual = canonical_dual(frame).atoms
    split = np.vstack([dual[:-1], dual[-1] + 0.3, dual[-1] - 0.3])
    framed = write_measure(tmp_path / "frame.json", frame)
    split_dual = measure("split.json", split, np.append(np.full(4, 0.2), [0.1, 0.1]))
    # No transposition beats the identity of this 4-point set, but a 4-cycle
    # does (tests/test_transport.py), so the assignment solver runs.
    cycle = write_json(
        tmp_path / "cycle.json",
        {
            "xs": [[-1.18, -0.85], [-0.05, -1.88], [1.43, 1.06], [1.25, -0.51]],
            "ys": [[0.24, -0.95], [1.55, -1.21], [-0.51, 1.42], [2.49, -0.09]],
        },
    )
    commands = [
        ["wasserstein", mu, nu],
        ["wasserstein", left, right],
        ["geodesic-profile", mu, nu, "--grid", "5"],
        ["transport-dual", framed, split_dual],
        ["monotone", cycle],
    ]
    code = (
        "import json, sys; from pframes.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))"
    )
    codes, loaded = run_child(code, json.dumps(commands))
    assert codes == [0] * len(commands)
    assert "scipy.optimize" not in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]
    assert set(SOLVER_EXTENSIONS) <= set(loaded)
    assert all(m.startswith(SOLVER_EXTENSIONS) for m in loaded)


SOLVE_BOTH = (
    "import numpy as np; "
    "from pframes.optim import hungarian, solve_lp; "
    "hungarian(np.array([[1.0, 0.0], [0.0, 1.0]])); "
    "solve_lp(np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 2.0])); "
)


def test_scipy_optimize_imported_after_pframes_reuses_its_solvers():
    code = (
        "import json, sys; "
        + SOLVE_BOTH
        + "ours = {m: sys.modules[m] for m in json.loads(sys.argv[1])}; "
        "from scipy.optimize import linear_sum_assignment, linprog; "
        "lp = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method='highs'); "
        "rows, cols = linear_sum_assignment(np.array([[1.0, 0.0], [0.0, 1.0]])); "
        "print(json.dumps([lp.status, lp.x.tolist(), cols.tolist(), "
        "all(sys.modules[m] is mod for m, mod in ours.items())]))"
    )
    assert run_child(code, json.dumps(SOLVER_EXTENSIONS)) == [0, [1.0, 0.0], [1, 0], True]


def test_pframes_reuses_the_solvers_of_an_imported_scipy_optimize():
    code = (
        "import json, sys; import scipy.optimize; "
        "theirs = {m: sys.modules[m] for m in json.loads(sys.argv[1])}; "
        "before = sorted(m for m in sys.modules if m.startswith('scipy')); "
        + SOLVE_BOTH
        + "from pframes.optim import _scipy_extension; "
        "print(json.dumps([before == sorted(m for m in sys.modules if m.startswith('scipy')), "
        "all(sys.modules[m] is mod is _scipy_extension(m.removeprefix('scipy.optimize.')) "
        "for m, mod in theirs.items())]))"
    )
    assert run_child(code, json.dumps(SOLVER_EXTENSIONS)) == [True, True]


def test_assignments_load_no_sparse_graph_solver():
    # The tie-break searches the dense tight matrix; no scipy.sparse graph
    # routine is needed for a tie-heavy grid assignment.
    code = (
        "import json, sys; import numpy as np; "
        "from pframes.transport import is_cyclically_monotone, optimal_permutation; "
        "rng = np.random.default_rng(3); "
        "xs, ys = (rng.integers(0, 4, size=(60, 2)).astype(float) for _ in range(2)); "
        "sigma = optimal_permutation(xs, ys); "
        "monotone, _ = is_cyclically_monotone(zip(xs, ys[sigma])); "
        "print(json.dumps([bool(monotone), sorted(m for m in sys.modules "
        "if m.startswith('scipy.sparse.csgraph'))]))"
    )
    assert run_child(code) == [True, []]
