"""JSON experiment configs: strict schema validation and object construction.

Unknown keys are rejected everywhere; error messages point at the offending
key with a dotted path so CLI users can fix configs quickly.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from pathlib import Path

from .dynamics import DEFAULT_MAX_EVENTS, ModelParams, default_stopping
from .graph import KINDS, SocialGraph, generate, parse_edge_list
from .montecarlo import ExperimentSpec
from .space import Ball, Box, Norm, OpinionSpace, PointMasses, UniformShape, validate_distribution
from . import seeding


class ConfigError(ValueError):
    """Invalid config file or config contents; maps to CLI exit code 2."""


def _fail(pointer: str, message: str):
    raise ConfigError(f"{pointer}: {message}")


@contextmanager
def _at(pointer: str):
    """Re-raise a ValueError from the block as a ConfigError at pointer."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{pointer}: {exc}") from exc


def _expect_dict(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        _fail(pointer, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, pointer: str, required: set[str], optional: set[str] = frozenset()):
    for key in obj:
        if key not in required and key not in optional:
            _fail(f"{pointer}.{key}" if pointer else key, "unknown key")
    for key in required:
        if key not in obj:
            _fail(f"{pointer}.{key}" if pointer else key, "missing required key")


def _real(value, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        _fail(pointer, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond float64
        x = math.inf
    if not math.isfinite(x):
        _fail(pointer, f"expected a finite number, got {x!r}")
    return x


def _integer(value, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        _fail(pointer, f"expected an integer, got {value!r}")
    return int(value)


def _vector(value, pointer: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        _fail(pointer, "expected a non-empty array of numbers")
    return tuple(_real(v, f"{pointer}[{i}]") for i, v in enumerate(value))


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return _expect_dict(raw, "config")


def _build_graph(section: dict, master_seed: int) -> tuple[SocialGraph, dict]:
    section = _expect_dict(section, "graph")
    if "file" in section:
        _check_keys(section, "graph", required={"file"})
        path = section["file"]
        if not isinstance(path, str):
            _fail("graph.file", "expected a file path string")
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"graph.file: cannot read {path!r}: {exc}") from exc
        with _at("graph.file"):
            return parse_edge_list(text), {"file": path}
    if "kind" not in section:
        _fail("graph", "needs either 'kind' or 'file'")
    kind = section["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        _fail("graph.kind", f"unknown kind {kind!r}")
    names = KINDS[kind][1]
    _check_keys(section, "graph", required={"kind", *(name for name, _ in names)})
    params = {
        name: (_integer if typ is int else _real)(section[name], f"graph.{name}")
        for name, typ in names
    }
    with _at("graph"):
        g = generate(kind, rng=seeding.graph_rng(master_seed), **params)
    return g, {"kind": kind, **params}


def _build_space(section: dict) -> OpinionSpace:
    section = _expect_dict(section, "space")
    _check_keys(section, "space", required={"dim", "norm", "shape"})
    dim = _integer(section["dim"], "space.dim")
    norm_name = section["norm"]
    if not isinstance(norm_name, str):
        _fail("space.norm", "expected 'l1', 'l2', or 'linf'")
    with _at("space.norm"):
        norm = Norm.from_str(norm_name)
    shape_obj = _expect_dict(section["shape"], "space.shape")
    if set(shape_obj) == {"ball"}:
        ball = _expect_dict(shape_obj["ball"], "space.shape.ball")
        _check_keys(ball, "space.shape.ball", required={"center", "radius"})
        with _at("space.shape.ball"):
            shape = Ball(_vector(ball["center"], "space.shape.ball.center"),
                         _real(ball["radius"], "space.shape.ball.radius"))
    elif set(shape_obj) == {"box"}:
        box = _expect_dict(shape_obj["box"], "space.shape.box")
        _check_keys(box, "space.shape.box", required={"lo", "hi"})
        with _at("space.shape.box"):
            shape = Box(_vector(box["lo"], "space.shape.box.lo"),
                        _vector(box["hi"], "space.shape.box.hi"))
    else:
        _fail("space.shape", "expected exactly one of 'ball' or 'box'")
    with _at("space"):
        space = OpinionSpace(shape, norm)
    if space.dim != dim:
        _fail("space.dim", f"declared {dim} but the shape has dimension {space.dim}")
    return space


def _build_init(section, space: OpinionSpace):
    if section == "uniform":
        return UniformShape()
    section = _expect_dict(section, "init")
    _check_keys(section, "init", required={"point_masses"})
    atoms_raw = section["point_masses"]
    if not isinstance(atoms_raw, list) or not atoms_raw:
        _fail("init.point_masses", "expected a non-empty array of atoms")
    atoms = []
    for i, atom in enumerate(atoms_raw):
        atom = _expect_dict(atom, f"init.point_masses[{i}]")
        _check_keys(atom, f"init.point_masses[{i}]", required={"point", "prob"})
        atoms.append(
            (
                _vector(atom["point"], f"init.point_masses[{i}].point"),
                _real(atom["prob"], f"init.point_masses[{i}].prob"),
            )
        )
    with _at("init.point_masses"):
        dist = PointMasses(tuple(atoms))
        validate_distribution(dist, space)
    return dist


def build_experiment(raw: dict, seed_override: int | None = None) -> ExperimentSpec:
    """Validate a raw config dict and construct the experiment it describes."""
    _check_keys(
        raw,
        "",
        required={"graph", "space", "init", "tau", "trials", "seed"},
        optional={"alpha", "eps_prime", "max_events"},
    )
    seed = seed_override
    if seed is None:
        seed = _integer(raw["seed"], "seed")
        if not 0 <= seed < 2**64:
            _fail("seed", f"expected a 64-bit nonnegative integer, got {seed}")
    tau = _real(raw["tau"], "tau")
    with _at("tau"):
        params = ModelParams(tau=tau)
    if "alpha" in raw:
        alpha = _real(raw["alpha"], "alpha")
        with _at("alpha"):
            params = ModelParams(tau=tau, alpha=alpha)
    trials = _integer(raw["trials"], "trials")
    if trials < 1:
        _fail("trials", "must be >= 1")
    max_events = _integer(raw.get("max_events", DEFAULT_MAX_EVENTS), "max_events")
    if max_events < 1:
        _fail("max_events", "must be >= 1")
    graph, graph_info = _build_graph(raw["graph"], seed)
    space = _build_space(raw["space"])
    init = _build_init(raw["init"], space)
    eps_prime = None
    if "eps_prime" in raw:
        eps_prime = _real(raw["eps_prime"], "eps_prime")
    with _at("eps_prime"):
        stopping = default_stopping(graph, space, params, eps_prime=eps_prime, max_events=max_events)
    with _at("config"):
        return ExperimentSpec(
            graph=graph,
            space=space,
            init=init,
            params=params,
            stopping=stopping,
            trials=trials,
            master_seed=seed,
            graph_info=graph_info,
        )
