"""Schema validation for config-solver dictionaries.

The paper points out a drawback of Ginkgo's configuration files: "no JSON
schema for validation is available", so mistakes surface late and
cryptically.  This module closes that gap with an explicit validator that
reports the offending path.
"""

from __future__ import annotations

from repro.ginkgo.accessor import VALUE_SUFFIX_ALIASES
from repro.ginkgo.config.registry import (
    PRECONDITIONER_ALIASES,
    PRECONDITIONER_REGISTRY,
    SOLVER_ALIASES,
    SOLVER_REGISTRY,
    STOP_REGISTRY,
)
from repro.ginkgo.solver import methods_on

#: Keys accepted at the top level besides solver-specific parameters.
COMMON_SOLVER_KEYS = (
    "type", "preconditioner", "criteria", "value_type", "strict_breakdown"
)
#: Accepted value-type spellings — the dispatch layer's alias table, so a
#: spelling validated here can never be rejected at binding resolution.
VALUE_TYPES = tuple(sorted(VALUE_SUFFIX_ALIASES))


class ConfigError(ValueError):
    """A configuration dictionary failed validation.

    Carries the path into the config (e.g. ``criteria[1].max_iters``) for
    precise error reporting.
    """

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"config error at {path or '<root>'}: {message}")
        self.path = path


def _canonical_solver_type(value: str) -> str:
    return SOLVER_ALIASES.get(str(value).lower(), value)


def _canonical_precond_type(value: str) -> str:
    return PRECONDITIONER_ALIASES.get(str(value).lower(), value)


def validate(config: dict, path: str = "") -> None:
    """Validate a solver configuration dictionary.

    Raises:
        ConfigError: On any unknown type, unknown parameter, or parameter
            of the wrong kind, with the path to the offending entry.
    """
    if not isinstance(config, dict):
        raise ConfigError(path, f"expected a dict, got {type(config).__name__}")
    if "type" not in config:
        raise ConfigError(path, "missing required key 'type'")
    solver_type = _canonical_solver_type(config["type"])
    if solver_type not in SOLVER_REGISTRY:
        name = str(config["type"]).lower()
        elsewhere = [
            f"pg.{instance}.{name}"
            for instance in ("batch", "distributed")
            if name in methods_on(instance)
        ]
        hint = f"available: {sorted(SOLVER_REGISTRY)}"
        if elsewhere:
            hint = (
                f"{name!r} has no scalar instance; use "
                f"{' or '.join(elsewhere)}"
            )
        raise ConfigError(
            f"{path}.type" if path else "type",
            f"unknown solver type {config['type']!r}; {hint}",
        )
    factory, solver_params = SOLVER_REGISTRY[solver_type]
    allowed = set(COMMON_SOLVER_KEYS) | set(solver_params)
    # Every iterative solver takes its recovery driver's period.
    if "checkpoint_every" in getattr(factory, "parameter_names", ()):
        allowed.add("checkpoint_every")
    for key in config:
        if key not in allowed:
            raise ConfigError(
                f"{path}.{key}" if path else key,
                f"unknown parameter for {solver_type}; "
                f"accepted: {sorted(allowed)}",
            )
    if "value_type" in config and config["value_type"] not in VALUE_TYPES:
        raise ConfigError(
            f"{path}.value_type" if path else "value_type",
            f"unknown value type {config['value_type']!r}; "
            f"available: {VALUE_TYPES}",
        )
    if "preconditioner" in config and config["preconditioner"] is not None:
        _validate_preconditioner(
            config["preconditioner"],
            f"{path}.preconditioner" if path else "preconditioner",
        )
    if "criteria" in config and config["criteria"] is not None:
        _validate_criteria(
            config["criteria"], f"{path}.criteria" if path else "criteria"
        )


def _validate_preconditioner(config, path: str) -> None:
    if not isinstance(config, dict):
        raise ConfigError(path, f"expected a dict, got {type(config).__name__}")
    if "type" not in config:
        raise ConfigError(path, "missing required key 'type'")
    ptype = _canonical_precond_type(config["type"])
    if ptype not in PRECONDITIONER_REGISTRY:
        raise ConfigError(
            f"{path}.type",
            f"unknown preconditioner type {config['type']!r}; "
            f"available: {sorted(PRECONDITIONER_REGISTRY)}",
        )
    _, params = PRECONDITIONER_REGISTRY[ptype]
    allowed = {"type"} | set(params)
    for key in config:
        if key not in allowed:
            raise ConfigError(
                f"{path}.{key}",
                f"unknown parameter for {ptype}; accepted: {sorted(allowed)}",
            )
    storage = config.get("storage_precision")
    allowed_storage = VALUE_TYPES + (
        ("adaptive",) if ptype == "preconditioner::Jacobi" else ()
    )
    if storage is not None and storage not in allowed_storage:
        raise ConfigError(
            f"{path}.storage_precision",
            f"unknown value type {storage!r}; available: {allowed_storage}",
        )


def _validate_criteria(config, path: str) -> None:
    if isinstance(config, dict):
        config = [config]
    if not isinstance(config, (list, tuple)):
        raise ConfigError(
            path, f"expected a list of criteria, got {type(config).__name__}"
        )
    if not config:
        raise ConfigError(path, "criteria list must not be empty")
    for index, item in enumerate(config):
        item_path = f"{path}[{index}]"
        if not isinstance(item, dict):
            raise ConfigError(
                item_path, f"expected a dict, got {type(item).__name__}"
            )
        if "type" not in item:
            raise ConfigError(item_path, "missing required key 'type'")
        if item["type"] not in STOP_REGISTRY:
            raise ConfigError(
                f"{item_path}.type",
                f"unknown criterion type {item['type']!r}; "
                f"available: {sorted(STOP_REGISTRY)}",
            )
        _, params = STOP_REGISTRY[item["type"]]
        allowed = {"type"} | set(params)
        for key in item:
            if key not in allowed:
                raise ConfigError(
                    f"{item_path}.{key}",
                    f"unknown parameter for {item['type']}; "
                    f"accepted: {sorted(allowed)}",
                )
