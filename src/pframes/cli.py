"""Command-line front end.

Subcommands: frame-report, canonical-dual, transport-dual, wasserstein,
monotone, geodesic-profile, gaussian-w2, gaussian-path, semidiscrete-adapt,
reconstruct.  Each ``cmd_*`` function maps the parsed arguments to its
result and writes nothing: a payload dict for the JSON commands, CSV text
for the two profile commands.  ``main`` is the one place that writes.  It
appends the run configuration to a payload as its last key, ``"config"``
(the command, its input paths and, for the two sampling commands, the
sample count, seed and tolerance), prints the floats with 17 significant
digits so they round-trip exactly, and sends the text to stdout or
``--out``.  Every run is reproducible from its inputs plus the seed.
Exit codes: 0 ok, 2 input error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import duality, geodesics, measures, semidiscrete, transport
from .errors import NumericError


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    raise ValueError(f"cannot serialize {type(value).__name__}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load(path: str, kind: type = measures.DiscreteMeasure):
    """The measure stored at ``path``, which must be of type ``kind``."""
    m = measures.measure_from_payload(_load_json(path))
    if not isinstance(m, kind):
        name = "gaussian" if kind is measures.GaussianMeasure else "discrete"
        raise ValueError(f"{path}: expected a {name} measure")
    return m


def _reference_from_payload(payload) -> semidiscrete.Reference:
    if not isinstance(payload, dict) or "type" not in payload:
        raise ValueError("reference must be an object with a 'type' field")
    kind = payload["type"]
    fields = {"gaussian": ("dim",), "box": ("lo", "hi")}
    if kind not in fields:
        raise ValueError(f"unknown reference type '{kind}' (expected 'gaussian' or 'box')")
    for key in fields[kind]:
        if key not in payload:
            raise ValueError(f"{kind} reference missing '{key}'")
    if kind == "gaussian":
        return semidiscrete.GaussianReference(dim=int(payload["dim"]))
    return semidiscrete.BoxReference(lower=payload["lo"], upper=payload["hi"])


def _adapt(args, path: str):
    """The sites spec at ``path`` and the coupling adapted to its targets."""
    spec = _load_json(path)
    if not isinstance(spec, dict):
        raise ValueError("sites file must be a JSON object")
    for key in ("sites", "targets", "reference"):
        if key not in spec:
            raise ValueError(f"sites file missing '{key}'")
    coupling = semidiscrete.adapt_weights(
        spec["sites"],
        spec["targets"],
        _reference_from_payload(spec["reference"]),
        sample_count=args.samples,
        seed=args.seed,
        adapt_tol=args.tol,
    )
    return spec, coupling


def cmd_frame_report(args) -> dict:
    report = measures.frame_report(measures.load_measure(args.measure))
    return {
        "lower": report.lower_bound,
        "upper": report.upper_bound,
        "second_moment": report.second_moment,
        "is_frame": report.is_frame,
    }


def cmd_canonical_dual(args) -> dict:
    return measures.measure_to_payload(duality.canonical_dual(_load(args.measure)))


def cmd_transport_dual(args) -> dict:
    result = duality.find_transport_dual(_load(args.mu), _load(args.nu))
    if isinstance(result, duality.TransportPlan):
        return {"status": "dual", **duality.plan_to_payload(result)}
    return {"status": "not-dual", "certificate": duality.certificate_to_payload(result)}


def cmd_wasserstein(args) -> dict:
    solution = transport.wasserstein2(_load(args.mu), _load(args.nu))
    return {
        "w2_squared": solution.distance_squared,
        **duality.plan_to_payload(solution.plan),
        "permutation": solution.permutation,
    }


def cmd_monotone(args) -> dict:
    payload = _load_json(args.pairs)
    if not isinstance(payload, dict) or "xs" not in payload or "ys" not in payload:
        raise ValueError("pairs file must contain 'xs' and 'ys' arrays")
    xs = np.asarray(payload["xs"], dtype=float)
    ys = np.asarray(payload["ys"], dtype=float)
    if xs.shape != ys.shape or xs.ndim != 2:
        raise ValueError("'xs' and 'ys' must be equal-shape lists of vectors")
    monotone, witness = transport.is_cyclically_monotone(list(zip(xs, ys)))
    return {"cyclically_monotone": monotone, "witness": witness}


def cmd_geodesic_profile(args) -> str:
    profile = geodesics.geodesic_profile(_load(args.mu), _load(args.nu), grid_size=args.grid)
    return geodesics.profile_csv_text(profile)


def cmd_gaussian_w2(args) -> dict:
    g0, g1 = (_load(p, measures.GaussianMeasure) for p in (args.g0, args.g1))
    return {"w2_squared": geodesics.gaussian_w2(g0, g1)}


def cmd_gaussian_path(args) -> str:
    g0, g1 = (_load(p, measures.GaussianMeasure) for p in (args.g0, args.g1))
    return geodesics.profile_csv_text(geodesics.gaussian_path(g0, g1, grid_size=args.grid))


def cmd_semidiscrete_adapt(args) -> dict:
    return semidiscrete.coupling_to_payload(_adapt(args, args.sites)[1])


def cmd_reconstruct(args) -> dict:
    spec, coupling = _adapt(args, args.spec)
    frame = np.asarray(spec.get("frame", spec["sites"]), dtype=float)
    if "dual" in spec:
        dual = np.asarray(spec["dual"], dtype=float)
    else:
        measure = measures.DiscreteMeasure(frame, coupling.target_weights)
        dual = duality.canonical_dual(measure).atoms
    analysis_side = semidiscrete.with_site_map(coupling, frame)
    synthesis_side = semidiscrete.with_site_map(coupling, dual)
    xs = np.asarray(spec["xs"], dtype=float) if "xs" in spec else np.eye(frame.shape[1])
    if xs.size == 0:
        raise ValueError("'xs' must hold at least one vector")
    recons = [semidiscrete.reconstruct(x, analysis_side, synthesis_side) for x in xs]
    errors = [float(np.linalg.norm(rec - x)) for rec, x in zip(recons, xs)]
    return {"reconstructions": recons, "errors": errors, "max_error": max(errors)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pframes", description="Probabilistic frames in the 2-Wasserstein space"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *positionals, grid=False, sampling=False):
        p = sub.add_parser(name)
        for pos in positionals:
            p.add_argument(pos)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if grid:
            p.add_argument("--grid", type=int, default=geodesics.DEFAULT_GRID)
        if sampling:
            p.add_argument("--samples", type=int, default=semidiscrete.DEFAULT_SAMPLES)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--tol", type=float, default=semidiscrete.ADAPT_TOL)
        # Not options: what main echoes in the config of a JSON result.
        p.set_defaults(fn=fn, positionals=positionals, sampling=sampling)
        return p

    add("frame-report", cmd_frame_report, "measure")
    add("canonical-dual", cmd_canonical_dual, "measure")
    add("transport-dual", cmd_transport_dual, "mu", "nu")
    add("wasserstein", cmd_wasserstein, "mu", "nu")
    add("monotone", cmd_monotone, "pairs")
    add("geodesic-profile", cmd_geodesic_profile, "mu", "nu", grid=True)
    add("gaussian-w2", cmd_gaussian_w2, "g0", "g1")
    add("gaussian-path", cmd_gaussian_path, "g0", "g1", grid=True)
    add("semidiscrete-adapt", cmd_semidiscrete_adapt, "sites", sampling=True)
    add("reconstruct", cmd_reconstruct, "spec", sampling=True)
    return parser


def _config(args) -> dict:
    config = {"command": args.command, "inputs": [getattr(args, p) for p in args.positionals]}
    if args.sampling:
        config.update(samples=args.samples, seed=args.seed, tol=args.tol)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.fn(args)
        if isinstance(result, dict):
            result = _fmt({**result, "config": _config(args)}) + "\n"
        _emit(result, args.out)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (
        ValueError,
        KeyError,
        TypeError,
        OSError,
        json.JSONDecodeError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
