"""Command-line workflows: plan, simulate, sweep, exit codes, determinism."""

import copy
import csv
import io
import json
import os
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusenet.cli import TRACE_CHUNK, _write_trace, main
from fusenet.config import load_config, parse_config, resolved_dict
from fusenet.network import MAX_TRAIN_DRAWS, _trace_line, run_network

from conftest import deadline, trace_records

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE_DOC = {
    "schema_version": "1",
    "network": {
        "nodes": ["west", "east"],
        "links": [
            {
                "length_km": 40.0,
                "p_success": 1.0,
                "raw_fidelity": 1.0,
                "n_fusiliers": 1,
                "m_fusilands": 1,
            }
        ],
        "signal_speed_m_per_s": 2.0e8,
        "tau_slot_ns": 0,
        "proc_ns": 0,
        "strategy": "raw",
        "seed": 7,
        "cycles": 200,
        "butterfly": False,
    },
    "output": {"format": "json", "path": None, "trace": False},
}


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def console_env():
    """The environment of a fresh interpreter, where warnings reach stderr."""
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_console(*argv):
    """Run the CLI in a fresh interpreter, where warnings reach stderr."""
    done = subprocess.run(
        [sys.executable, "-m", "fusenet.cli", *argv],
        env=console_env(), capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


DESYNC_WARNING = (
    "warning: cycle_period_ns=100000 is below the safe bound 400000; "
    "the run may abort with a desynchronization error\n"
)
DESYNC_ERROR = (
    "error: desync: herald for cycle 1 was due at 100000 ns but "
    "node 0 finished cycle 0 only at 400000 ns\n"
)


def desync_doc():
    """The bundled two-node example with a period a quarter of its round trip."""
    doc = json.loads((CONFIGS / "two_node_40km.json").read_text())
    doc["network"]["cycle_period_ns"] = 100_000
    return doc


class TestPlan:
    def test_table_reproduces_resource_sizes(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--m", "1,2,10,100", "--p", "0.25", "--target", "0.01"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # header + 4 rows
        sizes = [int(line.split()[1]) for line in lines[1:]]
        assert sizes == [17, 24, 70, 486]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--m", "1,2", "--p", "0.25", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["n_required"] for row in rows] == ["17", "24"]
        assert float(rows[0]["exact_pf_at_n"]) < 0.01 <= float(
            rows[0]["exact_pf_at_prev_n"]
        )

    def test_p_zero_unsatisfiable_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--m", "1", "--p", "0")
        assert code == 2
        assert err.startswith("error: unsatisfiable:")

    def test_certain_success_single_fusilier(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--m", "1", "--p", "1", "--target", "0.5"
        )
        assert code == 0
        assert out.strip().splitlines()[1].split()[1] == "1"

    def test_bad_m_list_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--m", "one", "--p", "0.5")
        assert code == 2
        assert "--m" in err

    def test_empty_m_list_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--m", ",", "--p", "0.5")
        assert code == 2
        assert out == ""
        assert err == "error: config: --m expects at least one value\n"

    def test_help_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "plan", "--help")
        assert code == 0
        assert out.startswith("usage: fusenet plan") and err == ""

    def test_float_tail_overflow_is_one_config_line(self, capsys):
        # comb(1100, k) overflows a float on the first tail evaluation
        code, out, err = run_cli(capsys, "plan", "--m", "2,1100", "--p", "0.5")
        assert code == 2
        assert out == ""
        assert err == (
            "error: config: m=1100, p=0.5: the float binomial tail overflows; "
            "the planner cannot size this query yet\n"
        )

    def test_overflow_after_a_sized_row_prints_no_row(self):
        # m=1 is sized before m=1100 overflows; the planner raises the line
        # itself, and nothing reaches stdout
        code, out, err = run_console("plan", "--m", "1,1100", "--p", "0.5")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: config: ")

    def test_overflowing_answer_is_one_config_line_at_once(self, capsys):
        # the float tail overflows before it falls below 1e-4 (n=1438 by scipy)
        with deadline(2.0):
            code, out, err = run_cli(
                capsys, "plan", "--m", "300", "--p", "0.25", "--target", "1e-4"
            )
        assert code == 2
        assert out == ""
        assert err == (
            "error: config: m=300, p=0.25: the float binomial tail overflows; "
            "the planner cannot size this query yet\n"
        )

    def test_tiny_p_is_one_row_at_once(self, capsys):
        with deadline(2.0):
            code, out, err = run_cli(capsys, "plan", "--m", "1", "--p", "1e-9")
        assert code == 0
        assert err == ""
        assert len(out.splitlines()) == 2  # header + 1 row

    def test_p_below_float_resolution_is_one_config_line(self, capsys):
        with deadline(2.0):
            code, out, err = run_cli(capsys, "plan", "--m", "1", "--p", "1e-17")
        assert code == 2
        assert out == ""
        assert err == (
            "error: config: p=1e-17 is at or below the float resolution 2**-54: "
            "1 - p rounds to 1, so the float binomial tail never falls below target\n"
        )


class TestSimulate:
    def test_bundled_example_rate(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", str(CONFIGS / "two_node_40km.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["pairs_per_second"] == 2500.0
        assert doc["summary"]["frame_latency_cycles"] == 1.0

    def test_summary_embeds_resolved_config(self, capsys, tmp_path):
        path = write_doc(tmp_path, BASE_DOC)
        code, out, _ = run_cli(capsys, "simulate", path)
        assert code == 0
        doc = json.loads(out)
        # defaults filled in: the output is reparseable as a config document
        reparsed = parse_config(
            {"schema_version": doc["schema_version"], "network": doc["config"]["network"],
             "output": doc["config"]["output"]}
        )
        assert resolved_dict(reparsed) == doc["config"]

    def test_identical_runs_are_byte_identical(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        out_path = tmp_path / "summary.json"
        trace_path = tmp_path / "run.trace.jsonl"
        doc["output"] = {
            "format": "json",
            "path": str(out_path),
            "trace": True,
            "trace_path": str(trace_path),
        }
        config_path = write_doc(tmp_path, doc)
        outputs = []
        for _ in range(2):
            code, _, _ = run_cli(capsys, "simulate", config_path)
            assert code == 0
            outputs.append((out_path.read_bytes(), trace_path.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert outputs[0][1].count(b"\n") > 0

    def test_stale_temp_file_is_left_alone(self, tmp_path, capsys, monkeypatch):
        # A run killed mid-write leaves <path>.<pid>.tmp; a later run that
        # gets the same pid must pick another name and leave that file be.
        monkeypatch.setattr(os, "getpid", lambda: 4242)
        out_path = tmp_path / "summary.json"
        trace_path = tmp_path / "run.trace.jsonl"
        stale = [
            tmp_path / "summary.json.4242.tmp",
            tmp_path / "summary.json.4242.1.tmp",
            tmp_path / "run.trace.jsonl.4242.tmp",
        ]
        for path in stale:
            path.write_text("stale\n")
        doc = copy.deepcopy(BASE_DOC)
        doc["output"] = {
            "format": "json",
            "path": str(out_path),
            "trace": True,
            "trace_path": str(trace_path),
        }
        code, _, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 0, err
        assert json.loads(out_path.read_text())["summary"]["pairs_total"] == 200
        assert trace_path.read_text().count("\n") > 0
        assert [path.read_text() for path in stale] == ["stale\n"] * 3
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["config.json", "summary.json", "run.trace.jsonl"] + [p.name for p in stale]
        )
        umask = os.umask(0)
        os.umask(umask)
        for path in (out_path, trace_path):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_purify_divisibility_exit_2(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["strategy"] = "purify3"
        doc["network"]["links"][0]["m_fusilands"] = 2
        doc["network"]["links"][0]["n_fusiliers"] = 4
        code, _, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 2
        assert "multiple of 3" in err

    def test_unknown_field_names_path(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["links"][0]["colour"] = "red"
        code, _, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 2
        assert "links[0].colour" in err

    def test_wrong_schema_version_exit_2(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["schema_version"] = "99"
        code, _, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 2
        assert "schema_version" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "/nonexistent/nowhere.json")
        assert code == 2
        assert err.startswith("error: config:")

    def test_desync_exit_3(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["nodes"] = ["a", "b", "c"]
        doc["network"]["links"] = [
            {"length_km": 10.0, "p_success": 1.0, "n_fusiliers": 1, "m_fusilands": 1},
            {"length_km": 40.0, "p_success": 1.0, "n_fusiliers": 1, "m_fusilands": 1},
        ]
        doc["network"]["cycle_period_ns"] = 150_000
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 3
        assert err.startswith("error: desync:")

    def test_node_0_desync_exit_3(self, tmp_path, capsys):
        # a period of a quarter of the hop's round trip: node 0 gets its
        # cycle-0 return after cycle 1 was due to start
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, out, err = run_cli(capsys, "simulate", write_doc(tmp_path, desync_doc()))
        assert code == 3
        assert out == ""
        assert err == DESYNC_ERROR

    def test_console_prints_warning_then_error(self, tmp_path):
        code, out, err = run_console("simulate", write_doc(tmp_path, desync_doc()))
        assert code == 3
        assert out == ""
        assert err == DESYNC_WARNING + DESYNC_ERROR

    def test_console_prints_low_fidelity_warning_in_one_line(self, tmp_path):
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["links"][0]["raw_fidelity"] = 0.4
        code, out, err = run_console("simulate", write_doc(tmp_path, doc))
        assert code == 0
        assert json.loads(out)["summary"]["pairs_total"] == 200
        assert err == "warning: raw_fidelity=0.4 is below 0.5; purification cannot improve it\n"

    def test_trace_without_path_exit_2(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["output"] = {"format": "json", "trace": True}
        code, _, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 2
        assert "trace" in err

    def test_below_bound_period_warns_once(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["links"][0]["n_fusiliers"] = 5
        doc["network"]["tau_slot_ns"] = 10
        doc["network"]["cycle_period_ns"] = 400_040  # the safe bound is 400_050
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 0
        assert [str(w.message) for w in caught] == [
            "cycle_period_ns=400040 is below the safe bound 400050; "
            "the run may abort with a desynchronization error"
        ]

    def test_csv_summary_format(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["output"]["format"] = "csv"
        code, out, _ = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["pairs_per_second"]) == 2500.0

    def test_csv_summary_of_no_pairs_leaves_cells_empty(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["links"][0]["p_success"] = 0
        doc["output"]["format"] = "csv"
        code, out, _ = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 0
        [row] = csv.DictReader(io.StringIO(out))
        assert row["pairs_total"] == "0"
        empty = ("empirical_end_fidelity", "empirical_end_fidelity_stderr", "frame_latency_cycles")
        assert [row[name] for name in empty] == ["", "", ""]


def _set(path, value):
    """Return a doc mutation that sets the field at ``path`` (keys and indices)."""

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


def _attenuated_link(doc):
    doc["network"]["links"][0] = {
        "length_km": 40.0, "p0": 0.5, "L0_km": float("nan"),
        "n_fusiliers": 1, "m_fusilands": 1,
    }


def _nearly_zero_hop(doc):
    doc["network"]["links"][0]["length_km"] = 1e-5
    doc["network"]["tau_slot_ns"] = 0


def _return_before_train(doc):
    # node 1's return from the 0.1 km hop comes back before its incoming
    # 400-signal train from the 10 km hop has ended
    net = doc["network"]
    net["nodes"] = ["west", "mid", "east"]
    net["links"] = [
        {"length_km": km, "p_success": 1.0, "n_fusiliers": n, "m_fusilands": 3}
        for km, n in ((10.0, 400), (0.1, 6))
    ]
    net["tau_slot_ns"] = 10


def _no_n_fusiliers(doc):
    del doc["network"]["links"][0]["n_fusiliers"]


def _trace_to_summary_file(doc):
    # two spellings of one file: the trace would overwrite the summary
    doc["output"].update(path="out.json", trace=True, trace_path="./out.json")


class TestRejectedInput:
    """Each input exits 2 with one ``error: config:`` line naming the field."""

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (_set(("network", "links", 0, "length_km"), float("nan")), "links[0].length_km"),
            (_set(("network", "links", 0, "length_km"), float("inf")), "links[0].length_km"),
            (_set(("network", "links", 0, "length_km"), float("-inf")), "links[0].length_km"),
            (_attenuated_link, "links[0].L0_km"),
            (_set(("network", "signal_speed_m_per_s"), float("nan")), "signal_speed_m_per_s"),
            (_set(("network", "nodes"), ["a", "a"]), "nodes"),
            # an integer path would be opened as a file descriptor
            (_set(("output", "path"), 987654), "output.path"),
            (_set(("output", "trace_path"), ["run.jsonl"]), "output.trace_path"),
            (_trace_to_summary_file, "output.trace_path"),
            (_nearly_zero_hop, "cycle period"),
            (_return_before_train, "nodes[1]"),
            (_set(("network", "cycles"), 2**32), "cycles must be < 4294967296"),
            # finite inputs whose fiber delay overflows to an infinite ns count
            (_set(("network", "links", 0, "length_km"), 1e300), "links[0]"),
            (_set(("network", "signal_speed_m_per_s"), 1e-300), "links[0]"),
            (_set(("network", "tau_slot_ns"), -1), "tau_slot_ns"),
            (_set(("network", "proc_ns"), -1), "proc_ns"),
            (_set(("network", "seed"), -1), "seed must be >= 0"),
            (_set(("network", "cycles"), 0), "cycles must be >= 1"),
            (_set(("network", "links", 0, "n_fusiliers"), 0), "links[0]: n_fusiliers"),
            (_set(("network", "links", 0, "m_fusilands"), 0), "links[0]: m_fusilands"),
            (_set(("network", "cycle_period_ns"), 0), "cycle_period_ns"),
            (_set(("network", "strategy"), "purify5"), "network.strategy"),
            (_set(("output", "format"), "xml"), "output.format"),
            (_set(("network", "cycles"), "ten"), "network.cycles"),
            (_set(("network", "butterfly"), "yes"), "network.butterfly"),
            (_set(("network",), []), "config.network:"),
            (_set(("network", "links"), {}), "network.links"),
            (_set(("network", "nodes"), [1, 2]), "network.nodes"),
            (_no_n_fusiliers, "links[0].n_fusiliers"),
            (_set(("network", "links", 0, "p_success"), 1.5), "links[0]: p_success"),
            # an integer beyond the float range
            (_set(("network", "links", 0, "length_km"), 10**400), "links[0].length_km"),
            (lambda doc: [], "top level"),
        ],
    )
    def test_simulate(self, tmp_path, capsys, mutate, field):
        doc = copy.deepcopy(BASE_DOC)
        # a mutation edits the document in place or returns its replacement
        replacement = mutate(doc)
        if replacement is not None:
            doc = replacement
        code, out, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert field in err

    def test_key_word_limits(self, tmp_path, capsys):
        # a cycle is one 32-bit word of a Philox counter and the seed the two
        # 32-bit words of its key: one line each past the limit, and the
        # largest seed runs
        for path, value, line in [
            (("network", "cycles"), 2**32, "error: config: cycles must be < 4294967296: "
             "a cycle is one 32-bit counter word of its keyed draws\n"),
            (("network", "seed"), 2**64, "error: config: seed must be < 18446744073709551616: "
             "the keyed draws' key holds it in two 32-bit words\n"),
        ]:
            doc = copy.deepcopy(BASE_DOC)
            _set(path, value)(doc)
            assert run_cli(capsys, "simulate", write_doc(tmp_path, doc)) == (2, "", line)
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["seed"] = 2**64 - 1
        doc["output"] = {"path": str(tmp_path / "largest_seed.json")}
        code, _, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("field", ["n_fusiliers", "m_fusilands"])
    def test_huge_train_rejected_at_once(self, tmp_path, capsys, field):
        # a train draws n + m values at once, so a hop of 10**12 fusiliers or
        # fusilands is refused before anything is drawn
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["links"][0][field] = 10**12
        path = write_doc(tmp_path, doc)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", path)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: config: links[0]: n_fusiliers + m_fusilands = ")
        assert err.count("\n") == 1
        assert f"exceeds {MAX_TRAIN_DRAWS}" in err

    @pytest.mark.parametrize("key, first, second", [("seed", 7, 8), ("p_success", 1.0, 0.5)])
    def test_duplicate_key(self, tmp_path, capsys, key, first, second):
        member = f'"{key}": {first}'
        text = json.dumps(BASE_DOC)
        assert member in text
        path = tmp_path / "config.json"
        path.write_text(text.replace(member, f'{member}, "{key}": {second}'))
        code, out, err = run_cli(capsys, "simulate", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: config:") and err.count("\n") == 1
        assert repr(key) in err

    def test_unreadable_config_file(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"schema_version": "\xff"}')
        for path in (tmp_path, not_utf8):
            code, out, err = run_cli(capsys, "simulate", str(path))
            assert code == 2
            assert err.startswith("error: config:") and err.count("\n") == 1
            assert str(path) in err

    def test_sweep_non_finite_value(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        # 1e300 km is finite, but its delay in ns is not
        for values, field in (("10,nan", "links[0].length_km"), ("10,1e300", "links[0]: ")):
            code, out, err = run_cli(
                capsys, "sweep", path, "--param", "length_km", "--values", values
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: config:") and err.count("\n") == 1
            assert field in err


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["plan", "--m", "1", "--p", "abc"], "argument --p: invalid float value: 'abc'"),
        (["plan", "--m", "1"], "the following arguments are required: --p"),
        (["plan", "--m", "1", "--p", "0.5", "--format", "xml"], "argument --format"),
        (["plan", "--m", "1", "--p", "0.5", "--bogus"], "unrecognized arguments: --bogus"),
        (["simulate"], "the following arguments are required: config"),
        (["warp"], "invalid choice: 'warp'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["bad_float", "missing_flag", "bad_choice", "unknown_flag",
         "missing_positional", "unknown_subcommand", "no_subcommand"],
)
def test_usage_error_is_one_config_line(capsys, argv, detail):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: config: ") and err.count("\n") == 1
    assert detail in err


# Any text: quotes, backslashes, control characters, non-ASCII and lone
# surrogates; ints that are negative or wider than 64 bits.
_ANY_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udfff'),
        st.characters(exclude_categories=()),
    )
)
_WIDE_INTS = st.integers(min_value=-(2**100), max_value=2**100)


_TRACE_FIELDS = ("t_ns", "seq", "kind", "node", "detail")


def _line(t_ns, seq, kind, node, detail):
    """``_trace_line`` of raw fields: it takes the kind already escaped."""
    return _trace_line(t_ns, seq, json.dumps(kind), node, detail)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(_WIDE_INTS, _WIDE_INTS, _ANY_TEXT, _WIDE_INTS, _ANY_TEXT),
        max_size=8,
    )
)
def test_trace_lines_equal_json_dumps(trace):
    buf = io.StringIO()
    _write_trace(buf, [_line(*fields) for fields in trace])
    assert buf.getvalue() == "".join(
        json.dumps(dict(zip(_TRACE_FIELDS, fields)), sort_keys=True) + "\n"
        for fields in trace
    )


def test_trace_chunks_equal_json_dumps(tmp_path):
    # A real trace several chunks long, with a line needing escapes put at
    # the first chunk boundary.
    doc = load_config(str(CONFIGS / "chain4_purify_butterfly.json"))
    trace = run_network(doc.network, collect_trace=True).trace
    fields = (-1, 2**70, 'Kind "q"', 3, 'a\\b\n\x00\u2028\ud800\xe9')
    escaped = _line(*fields)
    trace.insert(TRACE_CHUNK, escaped)
    assert len(trace) > 2 * TRACE_CHUNK
    path = tmp_path / "trace.jsonl"
    with open(path, "x", encoding="utf-8") as fh:
        _write_trace(fh, trace)
    assert path.read_bytes() == "".join(
        json.dumps(vars(rec), sort_keys=True) + "\n" for rec in trace_records(trace)
    ).encode("ascii")
    assert vars(trace_records([escaped])[0]) == dict(zip(_TRACE_FIELDS, fields))


def test_calls_in_one_process_match_first_calls(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; nothing may carry over from
    # one call to the next. Each call is compared with the same call made
    # first, in a fresh interpreter.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["plan", "--m", "1,2", "--p", "0.25"],
        ["plan", "--m", "1", "--p", "abc"],
        ["simulate", str(CONFIGS / "two_node_40km.json")],
        ["--help"],
    ]
    for argv in calls:
        assert run_cli(capsys, *argv) == run_console(*argv), argv


STDOUT_COMMANDS = [
    ["plan", "--m", "1", "--p", "0.5"],
    ["simulate", str(CONFIGS / "two_node_40km.json")],
    ["sweep", str(CONFIGS / "two_node_40km.json"), "--param", "m", "--values", "1"],
]


def run_without_stdout(*argv):
    """Run the CLI in a fresh interpreter started with fd 1 closed."""
    return subprocess.run(
        [sys.executable, "-m", "fusenet.cli", *argv],
        env=console_env(), stderr=subprocess.PIPE, text=True, timeout=120,
        preexec_fn=lambda: os.close(1),
    )


class TestWriteFailure:
    """An unwritable output exits 4 with one ``error: io:`` line."""

    def test_summary_path(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["output"]["path"] = str(tmp_path / "missing" / "summary.json")
        code, _, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 4
        assert err.startswith("error: io:") and err.count("\n") == 1

    def test_trace_path(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["output"].update(
            path=str(tmp_path / "summary.json"),
            trace=True,
            trace_path=str(tmp_path / "missing" / "run.jsonl"),
        )
        code, _, err = run_cli(capsys, "simulate", write_doc(tmp_path, doc))
        assert code == 4
        assert err.startswith("error: io:") and err.count("\n") == 1
        # the summary is renamed into place only once the trace is written too
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_sweep_out(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        out_csv = tmp_path / "missing" / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", path, "--param", "m", "--values", "1", "--out", str(out_csv)
        )
        assert code == 4
        assert err.startswith("error: io:") and err.count("\n") == 1

    def test_sweep_out_rename_failure_keeps_old_file(self, tmp_path, capsys, monkeypatch):
        path = write_doc(tmp_path, BASE_DOC)
        out_csv = tmp_path / "sweep.csv"
        out_csv.write_text("old\n")

        def fail(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", fail)
        code, _, err = run_cli(
            capsys, "sweep", path, "--param", "m", "--values", "1", "--out", str(out_csv)
        )
        assert code == 4
        assert err.startswith("error: io:") and err.count("\n") == 1
        assert out_csv.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "sweep.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=["plan", "simulate", "sweep"])
    def test_full_stdout(self, argv, unbuffered):
        # A buffered stdout fails only at its flush, an unbuffered one at
        # the write; neither may leave a traceback or a second failure at exit.
        env = console_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "fusenet.cli", *argv],
                env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        assert done.returncode == 4
        assert done.stderr.startswith("error: io: ") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=["plan", "simulate", "sweep"])
    def test_closed_stdout(self, argv):
        # Started with fd 1 closed, the interpreter sets sys.stdout to None.
        done = run_without_stdout(*argv)
        assert done.returncode == 4
        assert done.stderr == "error: io: [Errno 9] standard output is closed\n"

    def test_closed_stdout_unused(self, tmp_path):
        doc = copy.deepcopy(BASE_DOC)
        doc["output"]["path"] = str(tmp_path / "summary.json")
        done = run_without_stdout("simulate", write_doc(tmp_path, doc))
        assert done.returncode == 0
        assert done.stderr == ""
        assert "summary" in json.loads((tmp_path / "summary.json").read_text())


class TestSweep:
    def test_length_sweep_rates(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        code, out, _ = run_cli(
            capsys, "sweep", path, "--param", "length_km", "--values", "10,20,40"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["pairs_per_second"]) for r in rows] == [10000.0, 5000.0, 2500.0]
        assert [int(r["seed"]) for r in rows] == [7, 8, 9]

    def test_fidelity_sweep_echoes_inputs(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        code, out, _ = run_cli(
            capsys, "sweep", path, "--param", "F", "--values", "0.8,0.9,0.95"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["analytic_end_fidelity"]) for r in rows] == [0.8, 0.9, 0.95]

    def test_strategy_sweep(self, tmp_path, capsys):
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["links"][0].update({"n_fusiliers": 3, "m_fusilands": 3})
        path = write_doc(tmp_path, doc)
        code, out, _ = run_cli(
            capsys, "sweep", path, "--param", "strategy", "--values", "raw,purify3"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["links_per_cycle"]) for r in rows] == [3, 1]

    def test_empty_values_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        code, _, err = run_cli(capsys, "sweep", path, "--param", "p", "--values", ",")
        assert code == 2
        assert "--values" in err

    def test_non_integer_value_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        code, out, err = run_cli(capsys, "sweep", path, "--param", "n", "--values", "2,abc")
        assert code == 2
        assert out == ""
        assert err == "error: config: --values: n expects integers, got 'abc'\n"

    def test_desync_exit_3(self, tmp_path, capsys):
        path = write_doc(tmp_path, desync_doc())
        with pytest.warns(UserWarning, match="below the safe bound"):
            code, out, err = run_cli(capsys, "sweep", path, "--param", "n", "--values", "1")
        assert code == 3
        assert out == ""
        assert err == DESYNC_ERROR

    def test_unknown_parameter_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        code, _, err = run_cli(
            capsys, "sweep", path, "--param", "warp", "--values", "1"
        )
        assert code == 2
        assert "--param" in err

    def test_out_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, BASE_DOC)
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", path, "--param", "m", "--values", "1,2", "--out", str(out_csv),
        )
        assert code == 0
        assert out == ""
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert len(rows) == 2


class TestConfigRoundTrip:
    def test_parse_serialize_parse_is_stable(self, tmp_path):
        path = write_doc(tmp_path, BASE_DOC)
        doc = load_config(path)
        once = resolved_dict(doc)
        again = resolved_dict(parse_config(json.loads(json.dumps(once))))
        assert once == again

    def test_field_order_does_not_matter(self, tmp_path):
        shuffled = {
            "output": dict(reversed(list(BASE_DOC["output"].items()))),
            "network": dict(reversed(list(BASE_DOC["network"].items()))),
            "schema_version": "1",
        }
        a = resolved_dict(parse_config(copy.deepcopy(BASE_DOC)))
        b = resolved_dict(parse_config(shuffled))
        assert a == b

    def test_attenuated_link_round_trips(self, tmp_path):
        doc = copy.deepcopy(BASE_DOC)
        doc["network"]["links"][0] = {
            "length_km": 25.0,
            "p0": 0.5,
            "L0_km": 25.0,
            "n_fusiliers": 4,
            "m_fusilands": 1,
        }
        parsed = parse_config(doc)
        out = resolved_dict(parsed)
        link = out["network"]["links"][0]
        assert link["p0"] == 0.5 and link["L0_km"] == 25.0
        assert "p_success" not in link
