import json

import numpy as np
import pytest

import pframes.duality
from helpers import MERCEDES_BENZ, random_frame_measure, remark_instance, with_row_residual
from pframes import canonical_dual
from pframes.cli import main
from pframes.duality import plan_arrays_from_payload
from pframes.measures import measure_from_payload, measure_to_payload


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
    coupling, rows, cols = plan_arrays_from_payload(payload)
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
        tmp_path / "recon.json",
        {
            "sites": [[1.0, 0.0], [-0.3, 1.0], [-0.7, -1.0]],
            "targets": [0.4, 0.35, 0.25],
            "reference": {"type": "gaussian", "dim": 2},
            "xs": [[1.0, 0.0], [0.0, 1.0]],
        },
    )
    code, out, _ = run(capsys, ["reconstruct", spec, "--samples", "60000", "--seed", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_error"] <= 5e-2
    assert len(payload["reconstructions"]) == 2


def test_unknown_reference_type_exits_two(tmp_path, capsys):
    spec = write_json(
        tmp_path / "sites.json",
        {"sites": [[1.0, 0.0]], "targets": [1.0], "reference": {"type": "cauchy", "dim": 2}},
    )
    code, _, _ = run(capsys, ["semidiscrete-adapt", spec, "--samples", "100"])
    assert code == 2


def test_floats_serialized_with_full_precision(tmp_path, capsys):
    value = 1.0 / 3.0
    src = write_json(
        tmp_path / "m.json",
        {"dim": 1, "atoms": [[value]], "weights": [1.0]},
    )
    code, out, _ = run(capsys, ["frame-report", src])
    assert code == 0
    assert json.loads(out)["upper"] == value**2
