"""Command-line entry point: plan, simulate, and sweep workflows.

Commands raise; ``main`` alone reports, with one stderr line
``error: <category>: <detail>`` and an exit code, mapping each class once,
most specific first: ``desync`` (``DesynchronizationError``) 3,
``unsatisfiable`` (``UnsatisfiableError``) 2, ``config``
(``ConfigurationError``, usage errors included) 2, ``io`` (``OSError``: an
output, a file or standard output, could not be written) 4. Success exits
0, and every warning is one line ``warning: <message>``. Every output goes
through ``_emit``. The trace, already its JSON lines (see ``network``), is
joined into chunks of ``TRACE_CHUNK`` lines, one write per chunk. The
argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import copy
import csv
import errno
import functools
import io
import itertools
import json
import os
import sys
import warnings
from dataclasses import astuple, fields
from typing import Callable, Optional, Sequence, TextIO

from .config import (
    SCHEMA_VERSION,
    ConfigDocument,
    load_config,
    parse_config,
    resolved_dict,
)
from .errors import ConfigurationError, DesynchronizationError, UnsatisfiableError
from .metrics import PlanRow, SummaryStats, plan_table, summarize
from .network import run_network

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DESYNC = 3
EXIT_IO = 4

# sweep parameter -> the config-document field it sets (on every link, for
# link fields)
SWEEP_PARAMETERS = {
    "length_km": "length_km",
    "p": "p_success",
    "n": "n_fusiliers",
    "m": "m_fusilands",
    "F": "raw_fidelity",
    "strategy": "strategy",
}

# Trace lines joined per write: few writes, and a bounded string per write.
TRACE_CHUNK = 1024

_SUMMARY_FIELDS = tuple(f.name for f in fields(SummaryStats))
_PLAN_FIELDS = tuple(f.name for f in fields(PlanRow))


def _fail(category: str, exc: Exception, code: int) -> int:
    print(f"error: {category}: {exc}", file=sys.stderr)
    return code


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigurationError(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        raise ConfigurationError(f"{flag} expects at least one value")
    return values


def _plan_rows_text(rows: list[PlanRow]) -> str:
    header = ("m", "n_required", "exact_pf_at_n", "exact_pf_at_prev_n", "expected_successes")
    cells = [header]
    for row in rows:
        cells.append(
            (
                str(row.m),
                str(row.n_required),
                f"{row.exact_pf_at_n:.10g}",
                f"{row.exact_pf_at_prev_n:.10g}",
                f"{row.expected_successes:.10g}",
            )
        )
    widths = [max(len(line[col]) for line in cells) for col in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in cells
    ]
    return "\n".join(lines) + "\n"


def _csv_text(header: Sequence[str], rows) -> str:
    """``header`` then ``rows`` as CSV, every cell passed through ``_csv_cell``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in (header, *rows):
        writer.writerow([_csv_cell(cell) for cell in row])
    return buf.getvalue()


def cmd_plan(args: argparse.Namespace) -> None:
    rows = plan_table(_parse_int_list(args.m, "--m"), args.p, args.target)
    if args.format == "csv":
        text = _csv_text(_PLAN_FIELDS, [astuple(row) for row in rows])
    else:
        text = _plan_rows_text(rows)
    _emit([(None, lambda fh: fh.write(text))])


def _summary_document(doc: ConfigDocument, stats_dict: dict) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": resolved_dict(doc),
        "summary": stats_dict,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _create_temp(path: str) -> tuple[str, TextIO]:
    """Create and open a new temp file beside ``path``.

    The name is ``<path>.<pid>.tmp``, or ``<path>.<pid>.<k>.tmp`` with the
    first free k when a file left by an earlier run holds it; that file is
    left as it is. ``open(..., "x")`` gives the file, and so the output
    renamed from it, mode 0666 masked by the umask (``tempfile.mkstemp``
    would give 0600).
    """
    pid = os.getpid()
    for k in itertools.count():
        temp = f"{path}.{pid}.{k}.tmp" if k else f"{path}.{pid}.tmp"
        try:
            return temp, open(temp, "x", encoding="utf-8")
        except FileExistsError:
            continue


def _emit(outputs: list[tuple[Optional[str], Callable[[TextIO], object]]]) -> None:
    """Call each ``write`` on the file ``path``, or on stdout when it is None.

    A file is written to a temp file beside ``path``; the temp files are
    renamed into place only after every write succeeded, and removed if any
    write or rename fails. Stdout is written last and flushed, so that its
    failure raises here too. A closed stdout (``sys.stdout`` is None when
    the process starts without fd 1) raises ``OSError`` before any write.
    """
    to_stdout = [write for path, write in outputs if path is None]
    if to_stdout and sys.stdout is None:
        raise OSError(errno.EBADF, "standard output is closed")
    temps: list[tuple[str, str]] = []
    try:
        for path, write in outputs:
            if path is not None:
                temp, fh = _create_temp(path)
                with fh:
                    temps.append((temp, path))
                    write(fh)
        for temp, path in temps:
            os.replace(temp, path)
    finally:
        for temp, _path in temps:
            if os.path.exists(temp):
                os.remove(temp)
    if not to_stdout:
        return
    try:
        for write in to_stdout:
            write(sys.stdout)
        sys.stdout.flush()
    except OSError:
        # Point stdout at the null device, so that the flush at exit of what
        # its buffer still holds cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _write_trace(fh: TextIO, trace: Sequence[str]) -> None:
    """Write ``trace``, a run's JSON lines, joining every ``TRACE_CHUNK`` lines into one write."""
    for start in range(0, len(trace), TRACE_CHUNK):
        fh.write("".join(trace[start : start + TRACE_CHUNK]))


def cmd_simulate(args: argparse.Namespace) -> None:
    doc = load_config(args.config)
    result = run_network(doc.network, collect_trace=doc.output.trace)
    stats = summarize(result.records, doc.network)
    if doc.output.format == "csv":
        text = _csv_text(_SUMMARY_FIELDS, [astuple(stats)])
    else:
        text = _summary_document(doc, stats.to_dict())
    outputs = [(doc.output.path, lambda fh: fh.write(text))]
    if doc.output.trace:
        outputs.append((doc.output.trace_path, lambda fh: _write_trace(fh, result.trace)))
    _emit(outputs)


def _swept_document(base: dict, param: str, raw: str, index: int) -> dict:
    """The resolved document ``base`` with one sweep value set, seed + index.

    The caller parses the result again, so a swept value passes every check
    a config file does.
    """
    doc = copy.deepcopy(base)
    network = doc["network"]
    network["seed"] += index
    name = SWEEP_PARAMETERS[param]
    if param == "strategy":
        network[name] = raw
        return doc
    convert, kind = (int, "integers") if param in ("n", "m") else (float, "numbers")
    try:
        value = convert(raw)
    except ValueError:
        raise ConfigurationError(f"--values: {param} expects {kind}, got {raw!r}") from None
    for link in network["links"]:
        if param == "p":
            # an explicit probability replaces the attenuation form
            link.pop("p0", None)
            link.pop("L0_km", None)
        link[name] = value
    return doc


def cmd_sweep(args: argparse.Namespace) -> None:
    if args.param not in SWEEP_PARAMETERS:
        raise ConfigurationError(
            f"--param: unknown parameter {args.param!r}; "
            f"choose one of {tuple(SWEEP_PARAMETERS)}"
        )
    raw_values = [part for part in args.values.split(",") if part.strip() != ""]
    if not raw_values:
        raise ConfigurationError("--values: expected at least one value")
    doc = load_config(args.config)
    base = resolved_dict(doc)
    rows = []
    for index, raw in enumerate(raw_values):
        swept = _swept_document(base, args.param, raw, index)
        network = parse_config(swept).network
        result = run_network(network)
        stats = summarize(result.records, network)
        rows.append((args.param, raw, network.seed, *astuple(stats)))
    text = _csv_text(("param", "value", "seed", *_SUMMARY_FIELDS), rows)
    out = args.out if args.out is not None else doc.output.path
    _emit([(out, lambda fh: fh.write(text))])


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, its subparsers' too, as a ConfigurationError."""

    def error(self, message: str):
        raise ConfigurationError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fusenet`` argument parser, built on the first call and shared, unmodified, after."""
    parser = _Parser(
        prog="fusenet",
        description=(
            "Simulate and plan linear entanglement-distribution chains built "
            "from fusillade transmitters and fusiland receivers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="size fusillades for target failure rates")
    plan.add_argument("--m", required=True, help="comma-separated receiver counts")
    plan.add_argument("--p", type=float, required=True, help="per-signal success probability")
    plan.add_argument("--target", type=float, default=0.01, help="target failure probability")
    plan.add_argument("--format", choices=("text", "csv"), default="text")
    plan.set_defaults(func=cmd_plan)

    simulate = sub.add_parser("simulate", help="run one configured chain")
    simulate.add_argument("config", help="path to a JSON config document")
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="run a config across parameter values")
    sweep.add_argument("config", help="path to a JSON config document")
    sweep.add_argument("--param", required=True, help=f"one of {tuple(SWEEP_PARAMETERS)}")
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
        return EXIT_OK
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except DesynchronizationError as exc:
        return _fail("desync", exc, EXIT_DESYNC)
    except UnsatisfiableError as exc:
        return _fail("unsatisfiable", exc, EXIT_CONFIG)
    except ConfigurationError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except OSError as exc:
        return _fail("io", exc, EXIT_IO)
    finally:
        warnings.formatwarning = formatwarning


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
