"""JSON experiment configs: strict schema validation and object construction.

Unknown keys are rejected everywhere; error messages point at the offending
key with a dotted path so CLI users can fix configs quickly.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Collection
from contextlib import contextmanager
from pathlib import Path

from .dynamics import DEFAULT_MAX_EVENTS, ModelParams, default_stopping
from .graph import KINDS, SocialGraph, generate, parse_edge_list
from .montecarlo import MAX_TRIALS, ExperimentSpec
from .space import SHAPES, Norm, OpinionSpace, PointMasses, UniformShape, validate_distribution
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


def _check_keys(obj: dict, pointer: str, required: Collection[str], optional: Collection[str] = ()):
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


_PARSERS = {int: _integer, float: _real, tuple: _vector}


def _fields(obj, pointer: str, types: dict[str, type], read: Collection[str] = ()) -> tuple:
    """The values of an object's fields, in the order of `types` (name to int, float or tuple for a
    vector); the object has exactly those keys and the `read` ones, which the caller has taken."""
    obj = _expect_dict(obj, pointer)
    _check_keys(obj, pointer, required=types.keys(), optional=read)
    return tuple(_PARSERS[typ](obj[name], f"{pointer}.{name}") for name, typ in types.items())


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object hook that rejects a key repeated within one object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, a duplicate key, or nesting too deep
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return _expect_dict(raw, "config")


def _build_graph(section: dict, master_seed: int) -> tuple[SocialGraph, dict]:
    section = _expect_dict(section, "graph")
    if "file" in section:
        _check_keys(section, "graph", required=("file",))
        path = section["file"]
        if not isinstance(path, str):
            _fail("graph.file", "expected a file path string")
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a null byte in the path
            raise ConfigError(f"graph.file: cannot read {path!r}: {exc}") from exc
        with _at("graph.file"):
            return parse_edge_list(text), {"file": path}
    if "kind" not in section:
        _fail("graph", "needs either 'kind' or 'file'")
    kind = section["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        _fail("graph.kind", f"unknown kind {kind!r}")
    types = KINDS[kind][1]
    params = dict(zip(types, _fields(section, "graph", types, read=("kind",))))
    with _at("graph"):
        g = generate(kind, rng=seeding.graph_rng(master_seed), **params)
    return g, {"kind": kind, **params}


def _build_space(section: dict) -> OpinionSpace:
    section = _expect_dict(section, "space")
    _check_keys(section, "space", required=("dim", "norm", "shape"))
    dim = _integer(section["dim"], "space.dim")
    name = section["norm"]
    names = [member.value for member in Norm]
    if not isinstance(name, str) or name.lower() not in names:
        _fail("space.norm", f"unknown norm {name!r}; expected one of {', '.join(names)}")
    norm = Norm(name.lower())
    shape_obj = _expect_dict(section["shape"], "space.shape")
    kinds = list(shape_obj)
    if len(kinds) != 1 or kinds[0] not in SHAPES:
        _fail("space.shape", f"expected exactly one of {' or '.join(map(repr, SHAPES))}")
    make, types = SHAPES[kinds[0]]
    pointer = f"space.shape.{kinds[0]}"
    with _at(pointer):
        shape = make(*_fields(shape_obj[kinds[0]], pointer, types))
    with _at("space"):
        space = OpinionSpace(shape, norm)
    if space.dim != dim:
        _fail("space.dim", f"declared {dim} but the shape has dimension {space.dim}")
    return space


def _build_init(section, space: OpinionSpace):
    if section == "uniform":
        return UniformShape()
    if not isinstance(section, dict):
        _fail("init", f'expected "uniform" or {{"point_masses": [...]}}, got {section!r}')
    _check_keys(section, "init", required=("point_masses",))
    atoms_raw = section["point_masses"]
    if not isinstance(atoms_raw, list) or not atoms_raw:
        _fail("init.point_masses", "expected a non-empty array of atoms")
    atoms = tuple(
        _fields(atom, f"init.point_masses[{i}]", {"point": tuple, "prob": float}) for i, atom in enumerate(atoms_raw)
    )
    with _at("init.point_masses"):
        dist = PointMasses(atoms)
        validate_distribution(dist, space)
    return dist


def build_experiment(raw: dict, seed_override: int | None = None) -> ExperimentSpec:
    """Validate a raw config dict and construct the experiment it describes."""
    _check_keys(
        raw,
        "",
        required=("graph", "space", "init", "tau", "trials", "seed"),
        optional=("alpha", "eps_prime", "max_events"),
    )
    origin = "seed" if seed_override is None else "HKC_SEED"
    seed = _integer(raw["seed"], "seed") if seed_override is None else seed_override
    if not 0 <= seed < 2**64:
        _fail(origin, f"expected a 64-bit nonnegative integer, got {seed}")
    tau = _real(raw["tau"], "tau")
    with _at("tau"):
        params = ModelParams(tau=tau)
    if "alpha" in raw:
        alpha = _real(raw["alpha"], "alpha")
        with _at("alpha"):
            params = ModelParams(tau=tau, alpha=alpha)
    trials = _integer(raw["trials"], "trials")
    if not 1 <= trials <= MAX_TRIALS:
        _fail("trials", f"must be in [1, {MAX_TRIALS}], got {trials}")
    max_events = _integer(raw.get("max_events", DEFAULT_MAX_EVENTS), "max_events")
    if max_events < 1:
        _fail("max_events", "must be >= 1")
    graph, graph_info = _build_graph(raw["graph"], seed)
    space = _build_space(raw["space"])
    init = _build_init(raw["init"], space)
    eps_prime = None
    if "eps_prime" in raw:
        eps_prime = _real(raw["eps_prime"], "eps_prime")
    with _at("tau" if eps_prime is None else "eps_prime"):  # the input that set eps
        stopping = default_stopping(graph, space, ModelParams(tau=tau), eps_prime=eps_prime, max_events=max_events)
    with _at("alpha"):  # the floor on (1 - alpha) * eps; at alpha = 0 the eps floor implies it
        stopping.validate_for(graph, space, params)
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
