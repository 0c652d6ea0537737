"""Config-document parsing: one field table per document object.

A config document is a JSON object with three top-level keys:
``schema_version``, ``network``, and (optionally) ``output``. Each object in
it has one field table, ``name -> check``: a check turns the raw JSON value
into the parsed one or raises a ConfigurationError that names the field's
path. Parsing, unknown-field rejection, required-field checks and
``resolved_dict`` all iterate these tables, in table order.

Defaults live only on the dataclasses: a field the document leaves out
takes its dataclass default, and a field whose dataclass gives no default
is required. Unknown fields are rejected so typos do not silently fall back
to defaults, and a key given twice in one object of a config file is
rejected rather than keeping its last value. Numbers must be finite, and
``output.path`` and ``output.trace_path`` must be strings or null; a trace
may not be written to the summary's file.
``resolved_dict`` writes every field back with the defaults filled in,
which makes any run reproducible from its own output document.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Optional

from .errors import ConfigurationError
from .network import LinkSpec, NetworkConfig, Strategy
from .pair_algebra import LinkModel

SCHEMA_VERSION = "1"


@dataclass
class OutputSpec:
    """Where and how a command writes its results."""

    format: str = "json"
    path: Optional[str] = None
    trace: bool = False
    trace_path: Optional[str] = None


@dataclass
class ConfigDocument:
    schema_version: str
    network: NetworkConfig
    output: OutputSpec = field(default_factory=OutputSpec)


def _as_number(value: Any, path: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigurationError(f"{path}: expected a finite number, got {value!r}")


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{path}: expected a boolean, got {value!r}")
    return value


def _as_text(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{path}: expected a string, got {value!r}")
    return value


def _nullable(check):
    """``check`` that also accepts JSON null, as None."""
    return lambda value, path: None if value is None else check(value, path)


def _check_fields(raw: Any, table: dict, path: str, *classes: type) -> dict:
    """Check the object ``raw`` against ``table``; return the fields it gives.

    A table field is required when none of ``classes`` gives it a default.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: expected an object")
    for key in raw:
        if key not in table:
            raise ConfigurationError(f"{path}.{key}: unknown field")
    optional = {
        f.name
        for cls in classes
        for f in fields(cls)
        if f.default is not MISSING or f.default_factory is not MISSING
    }
    values = {}
    for name, check in table.items():
        if name in raw:
            values[name] = check(raw[name], f"{path}.{name}")
        elif name not in optional:
            raise ConfigurationError(f"{path}.{name}: required field is missing")
    return values


def _as_link(raw: Any, path: str) -> LinkSpec:
    values = _check_fields(raw, _LINK_FIELDS, path, LinkModel, LinkSpec)
    model_names = {f.name for f in fields(LinkModel)}
    try:
        model = LinkModel(**{k: v for k, v in values.items() if k in model_names})
    except ConfigurationError as exc:
        # LinkModel reports its own invariant violations without the path.
        raise ConfigurationError(f"{path}: {exc}") from None
    return LinkSpec(
        model=model, **{k: v for k, v in values.items() if k not in model_names}
    )


def _as_links(value: Any, path: str) -> list[LinkSpec]:
    if not isinstance(value, list):
        raise ConfigurationError(f"{path}: expected a list")
    return [_as_link(raw, f"{path}[{i}]") for i, raw in enumerate(value)]


def _as_nodes(value: Any, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise ConfigurationError(f"{path}: expected a list of node names")
    return list(value)


def _as_strategy(value: Any, path: str) -> Strategy:
    try:
        return Strategy(value)
    except ValueError:
        raise ConfigurationError(
            f"{path}: unknown strategy {value!r}; "
            f"choose one of {[s.value for s in Strategy]}"
        ) from None


def _as_format(value: Any, path: str) -> str:
    if value not in ("json", "csv"):
        raise ConfigurationError(f"{path}: expected 'json' or 'csv', got {value!r}")
    return value


def _as_network(raw: Any, path: str) -> NetworkConfig:
    return NetworkConfig(**_check_fields(raw, _NETWORK_FIELDS, path, NetworkConfig))


def _as_output(raw: Any, path: str) -> OutputSpec:
    output = OutputSpec(**_check_fields(raw, _OUTPUT_FIELDS, path, OutputSpec))
    if output.trace and output.trace_path is None:
        if output.path is None:
            raise ConfigurationError(
                f"{path}.trace: tracing needs trace_path (or path to derive it)"
            )
        output.trace_path = output.path + ".trace.jsonl"
    if (
        output.trace
        and output.path is not None
        and os.path.abspath(output.trace_path) == os.path.abspath(output.path)
    ):
        raise ConfigurationError(
            f"{path}.trace_path: {output.trace_path!r} names the summary file "
            f"{path}.path {output.path!r}"
        )
    return output


def _as_schema_version(value: Any, path: str) -> str:
    if value != SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported version {value!r}, "
            f"this build reads {SCHEMA_VERSION!r}"
        )
    return value


# Field tables, name -> check(raw value, field path), in check order. A link
# object's fields belong to its LinkModel and its LinkSpec.
_LINK_FIELDS = {
    "length_km": _as_number,
    "p_success": _as_number,
    "raw_fidelity": _as_number,
    "p0": _as_number,
    "L0_km": _as_number,
    "n_fusiliers": _as_int,
    "m_fusilands": _as_int,
}
_NETWORK_FIELDS = {
    "nodes": _as_nodes,
    "links": _as_links,
    "strategy": _as_strategy,
    "signal_speed_m_per_s": _as_number,
    "tau_slot_ns": _as_int,
    "proc_ns": _as_int,
    "seed": _as_int,
    "cycles": _as_int,
    "butterfly": _as_bool,
    "cycle_period_ns": _nullable(_as_int),
}
_OUTPUT_FIELDS = {
    "format": _as_format,
    "path": _nullable(_as_text),
    "trace": _as_bool,
    "trace_path": _nullable(_as_text),
}
_DOCUMENT_FIELDS = {
    "schema_version": _as_schema_version,
    "network": _as_network,
    "output": _as_output,
}
_TABLES = {
    ConfigDocument: _DOCUMENT_FIELDS,
    NetworkConfig: _NETWORK_FIELDS,
    OutputSpec: _OUTPUT_FIELDS,
}


def parse_config(doc: Any) -> ConfigDocument:
    """Parse and validate a raw JSON object into a ConfigDocument."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config: expected a JSON object at the top level")
    return ConfigDocument(**_check_fields(doc, _DOCUMENT_FIELDS, "config", ConfigDocument))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's members as a dict; a key given twice is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigurationError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_config(path: str) -> ConfigDocument:
    """Read and parse a config document from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, or no read permission
        raise ConfigurationError(f"{path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from None
    return parse_config(doc)


def _link_dict(link: LinkSpec) -> dict:
    """A link's fields; the parameterization it does not use is left out."""
    values = {**vars(link), **vars(link.model)}
    return {name: values[name] for name in _LINK_FIELDS if values[name] is not None}


def _plain(value: Any) -> Any:
    """A parsed value written back as the JSON a document holds for it."""
    table = _TABLES.get(type(value))
    if table is not None:
        return {name: _plain(getattr(value, name)) for name in table}
    if isinstance(value, LinkSpec):
        return _link_dict(value)
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, Strategy):
        return value.value
    return value


def resolved_dict(doc: ConfigDocument) -> dict:
    """Serialize a parsed document with every default filled in."""
    return _plain(doc)
