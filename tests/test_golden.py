"""Pinned digests of seeded runs: refactors must leave the output unchanged.

Each case runs ``fusenet simulate`` on a small config document and hashes
the end-to-end records, the per-cycle and per-hop counts, the butterfly
left-frame ledger and the trace JSONL exactly as the command writes it.
The expected hex strings were recorded before the per-bank node-state
refactor and must never be regenerated to make a change pass.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from fusenet import cli


def _link(length_km, n, m, **model):
    return {"length_km": length_km, "n_fusiliers": n, "m_fusilands": m, **model}


CASES = {
    "raw": {
        "links": [_link(km, 4, 2, p_success=0.6, raw_fidelity=0.9) for km in (15.0, 25.0, 35.0)],
        "seed": 11,
        "cycles": 40,
    },
    "raw_butterfly_tau_proc": {
        "links": [_link(km, 5, 2, p_success=0.7, raw_fidelity=0.9) for km in (20.0, 10.0, 30.0, 20.0)],
        "tau_slot_ns": 7,
        "proc_ns": 500,
        "butterfly": True,
        "seed": 12,
        "cycles": 40,
    },
    "purify3": {
        "links": [_link(km, 9, 6, p_success=0.8, raw_fidelity=0.92) for km in (30.0, 40.0)],
        "strategy": "purify3",
        "seed": 13,
        "cycles": 40,
    },
    "purify3_butterfly_proc": {
        "links": [_link(km, 8, 3, p_success=0.75, raw_fidelity=0.93) for km in (15.0, 15.0, 30.0)],
        "strategy": "purify3",
        "proc_ns": 300,
        "butterfly": True,
        "seed": 14,
        "cycles": 40,
    },
    "p0_L0_link_form": {
        "links": [_link(km, 6, 2, p0=0.9, L0_km=22.0, raw_fidelity=0.95) for km in (10.0, 30.0)],
        "seed": 15,
        "cycles": 40,
    },
}

EXPECTED = {
    "p0_L0_link_form": {
        "records": "f6599a3d0c5ab3ed6e5d70d8b3702e2c93198e27fef2db3fa4c43d8af42fa2f3",
        "per_cycle_delivered": "597fbd5ee93e166b7461a87e39e6026dd61208ded0fa6cf1e09f7f1c275d5ddc",
        "hop_success_counts": "d59a3b265d3537a2221cd59a925a1f34c425fa692050140568ef4457805c8370",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "a8989f850b3472628e4f3e828fe9bef532d89b28a82741fc913c00984ef10632",
    },
    "purify3": {
        "records": "097a190ad4c1f2a4acc95b0fa9a325f7849922a300bc7e4c3128ae459a497023",
        "per_cycle_delivered": "d74b2a86663a623f8e741a6308d5c8c22d0d6e3a4f825d77a79e83a3a9dea205",
        "hop_success_counts": "e22b2b172e3d649000c75264d65a2efaeb7183f86f9f944062e157b76b905fdf",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "2c2394c63f0def9d4a504e954a8feaeb7b239faee0362892cd35ca2d054e6dc9",
    },
    "purify3_butterfly_proc": {
        "records": "c69dcea88cf8b043ce0a2c73a097f105593f975653f5c353b07e5720f145e30d",
        "per_cycle_delivered": "4a231766f9599f26f8d123db6f85c27f33352e7e6ac801f3619996f7a3c4f56a",
        "hop_success_counts": "61d8f874a68adbc80dd9239d2a8caf4ccb58a4e966fb11187c5cc1d982f9425c",
        "left_frame_folds": "bf4759003abdfbe9f6ba137f845d1e389a7f4e89a59fae26b9094db921b478c8",
        "trace": "7cd2e789021027122ad60cd61bfc210fceb2ce872498f9f2c3629ec5794b28a5",
    },
    "raw": {
        "records": "a43ccb5b912eac92c266064edd10dbb80db68da93f5be7ec0527b244e3196868",
        "per_cycle_delivered": "192ca333904171119f3f62aa36a77e75f81f5d539cf03b7de4d0f47beb871e24",
        "hop_success_counts": "bf462685bfea328bd5f777c0391962ddf54ca728759bcfa17cc245f8e961d776",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "7e81ab83928a884079597f6ffeed94d21c29ed5cf9f498f81bfa1d2f65323dfb",
    },
    "raw_butterfly_tau_proc": {
        "records": "54db423fcd128ed78439e5a6ff39d72c14130b97e4dabca7a7fd8131b3d15044",
        "per_cycle_delivered": "9894bcb39c299cbf789f3621324af3169fcecf1b4c50ee2d58df4256e4e70e09",
        "hop_success_counts": "b49e1bd4ab5b0e9a94f36767bacf0c0f8f55c2679e877ff09c7c0c89b7ab1a36",
        "left_frame_folds": "fe8a4a765f7f7cae5a9c2f3019fd90e00080e54fd27a4202a49b89d36b849bfa",
        "trace": "36b2110bf3ee726c790aa1890580f85a97689ebb764c4fa609c833e4208d3353",
    },
}


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _simulate(tmp_path, monkeypatch, network: dict):
    links = network["links"]
    doc = {
        "schema_version": "1",
        "network": {"nodes": [f"n{i}" for i in range(len(links) + 1)], **network},
        "output": {"path": str(tmp_path / "summary.json"), "trace": True},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    captured = []

    def capture(*args, **kwargs):
        result = run_network(*args, **kwargs)
        captured.append(result)
        return result

    run_network = cli.run_network
    monkeypatch.setattr(cli, "run_network", capture)
    assert cli.main(["simulate", str(config_path)]) == 0
    trace_bytes = (tmp_path / "summary.json.trace.jsonl").read_bytes()
    return captured[0], trace_bytes


def _digests(result, trace_bytes) -> dict:
    return {
        "records": _sha([asdict(r) for r in result.records]),
        "per_cycle_delivered": _sha(result.per_cycle_delivered),
        "hop_success_counts": _sha(result.hop_success_counts),
        "left_frame_folds": _sha(
            [[list(k), asdict(v)] for k, v in sorted(result.left_frame_folds.items())]
        ),
        "trace": hashlib.sha256(trace_bytes).hexdigest(),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_output_digests(case, tmp_path, monkeypatch):
    result, trace_bytes = _simulate(tmp_path, monkeypatch, CASES[case])
    assert result.records, "the case delivers pairs"
    assert result.trace, "the case writes a trace"
    assert _digests(result, trace_bytes) == EXPECTED[case]
