"""Pinned digests of seeded runs: refactors must leave the output unchanged.

Each case runs ``fusenet simulate`` on a small config document and hashes
the end-to-end records, the per-cycle and per-hop counts, the butterfly
left-frame ledger, the trace JSONL and the summary file (JSON and CSV)
exactly as the command writes them; ``fusenet sweep`` CSVs are pinned for
every sweep parameter. Runs happen inside the test's temporary directory
with relative output paths, so the config echoed in the summary is the
same on every machine. The expected hex strings were recorded before the
refactors they guard and must never be regenerated to make a change pass.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

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
    # Hops of 10, 5 and 15 ns under a 54 ns signal train: each train
    # overlaps heralds, returns and the neighbouring hops' trains.
    "overlapping_trains": {
        "links": [_link(km, 6, 3, p_success=0.6, raw_fidelity=0.9) for km in (0.002, 0.001, 0.003)],
        "tau_slot_ns": 9,
        "proc_ns": 4,
        "butterfly": True,
        "seed": 16,
        "cycles": 30,
    },
    # The same chain with every signal of a train arriving at one instant.
    "overlapping_trains_tau0": {
        "links": [_link(km, 6, 3, p_success=0.6, raw_fidelity=0.9) for km in (0.002, 0.001, 0.003)],
        "tau_slot_ns": 0,
        "proc_ns": 4,
        "butterfly": True,
        "seed": 17,
        "cycles": 30,
    },
    # Ten 40 km hops keep five cycles in flight at once, and 150 cycles
    # cross several blocks of 64 cycles, the last one partial.
    "ten_hops_150_cycles": {
        "links": [_link(40.0, 6, 3, p_success=0.8, raw_fidelity=0.95) for _ in range(10)],
        "strategy": "purify3",
        "proc_ns": 200,
        "butterfly": True,
        "seed": 18,
        "cycles": 150,
    },
}

EXPECTED = {
    "overlapping_trains": {
        "records": "072997a06729be3bf0174d11b3401e6dc44951cb3a4f2156e5e898fd84c9ee0c",
        "per_cycle_delivered": "2f33271b4d9a736eb56ef0365da9a7f3bab585a313dd52676358933dd92e90f4",
        "hop_success_counts": "e41404828b07954db1e67cd07c9a80fdede8bc90b434996f2c55c0be4a6f8746",
        "left_frame_folds": "0dc008c4946b1f4d828ce5998127b9aa87a5dc508cf4cd79c2ab6386e20b0734",
        "trace": "c4d31d460f873c71c37d049982a31beb153c476923e4043d8047c9638b9a432c",
    },
    "overlapping_trains_tau0": {
        "records": "d3791b7d1c147416d3a8fb96f194f20f72487c79d96d71fa455b8c4a21b12593",
        "per_cycle_delivered": "98eaef7268d4033f18baf32ecc014dd1c62e5a0d641204317147b656e5bf7817",
        "hop_success_counts": "8fefea01b1dc4d6ff2af58567636b7756d4498a8b00783f87b27e2fb6d5fb589",
        "left_frame_folds": "961cc676f8d5c946e1a66f9964bf3e26024c752e83c35df7e87eb887d53e3a30",
        "trace": "6d70b4caaa3946e692c5a0b4172e7de9caef7c7a343081f684a5a5ffb783be7f",
    },
    "p0_L0_link_form": {
        "records": "7501f6065120302e3eb780205d5c04ae31308a58eb2b4c3183c15bcb6aeaf8e0",
        "per_cycle_delivered": "597fbd5ee93e166b7461a87e39e6026dd61208ded0fa6cf1e09f7f1c275d5ddc",
        "hop_success_counts": "d59a3b265d3537a2221cd59a925a1f34c425fa692050140568ef4457805c8370",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "2fa4ae449ac5f1b3f79a84e48e38e982898823e46a12fc326fde36ee81108252",
    },
    "purify3": {
        "records": "bc8ecd6f8e8041f07fb100a3a42ec559c22fdacdffb41a7b31b04285ee2d527a",
        "per_cycle_delivered": "d74b2a86663a623f8e741a6308d5c8c22d0d6e3a4f825d77a79e83a3a9dea205",
        "hop_success_counts": "e22b2b172e3d649000c75264d65a2efaeb7183f86f9f944062e157b76b905fdf",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "7e52e79c5b1a3d74bade95cf4ea853bfe6d14a51c23362d82b2b38d6f3e1bf04",
    },
    "purify3_butterfly_proc": {
        "records": "c69dcea88cf8b043ce0a2c73a097f105593f975653f5c353b07e5720f145e30d",
        "per_cycle_delivered": "4a231766f9599f26f8d123db6f85c27f33352e7e6ac801f3619996f7a3c4f56a",
        "hop_success_counts": "61d8f874a68adbc80dd9239d2a8caf4ccb58a4e966fb11187c5cc1d982f9425c",
        "left_frame_folds": "bf4759003abdfbe9f6ba137f845d1e389a7f4e89a59fae26b9094db921b478c8",
        "trace": "0937b806c61b5b8621c99552277eb46f54106bf3f0dee61eed3949f64adba2d7",
    },
    "raw": {
        "records": "c4135150b9c821516a28e7dcd04433e99e8a9f5e67a4a09849a67bff557b6682",
        "per_cycle_delivered": "192ca333904171119f3f62aa36a77e75f81f5d539cf03b7de4d0f47beb871e24",
        "hop_success_counts": "bf462685bfea328bd5f777c0391962ddf54ca728759bcfa17cc245f8e961d776",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "f6f62672981a404f12525690867df1aa974d22515acb40bf20dfbf099132610d",
    },
    "raw_butterfly_tau_proc": {
        "records": "54db423fcd128ed78439e5a6ff39d72c14130b97e4dabca7a7fd8131b3d15044",
        "per_cycle_delivered": "9894bcb39c299cbf789f3621324af3169fcecf1b4c50ee2d58df4256e4e70e09",
        "hop_success_counts": "b49e1bd4ab5b0e9a94f36767bacf0c0f8f55c2679e877ff09c7c0c89b7ab1a36",
        "left_frame_folds": "fe8a4a765f7f7cae5a9c2f3019fd90e00080e54fd27a4202a49b89d36b849bfa",
        "trace": "b43c8fd1bcf26393e85ec1e08399ecb589c5b02db0b7c237a786dede0e41a597",
    },
    "ten_hops_150_cycles": {
        "records": "84772a6970d08943ca7ddd3d6589278621dd9548a378e8777a8fe5f394712205",
        "per_cycle_delivered": "dc8ec5c36699c4157ad97e72a161574ace42cedf2ba4c1de3d6ba4064bf7271b",
        "hop_success_counts": "197ff8ea8625bf2bfd43297df55f2376d69c8e98d5c7cce0c7c456c801f16743",
        "left_frame_folds": "ef45bf5cefa391312765d46a5d831a70feb7aa83092695d8f5fba70b724d86e5",
        "trace": "4255a242bc99881109ca287d2eeca00aebc9a513d33aef73fd621a9a5e45a470",
    },
}


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _write_config(tmp_path, monkeypatch, network: dict, output: dict) -> str:
    monkeypatch.chdir(tmp_path)
    links = network["links"]
    doc = {
        "schema_version": "1",
        "network": {"nodes": [f"n{i}" for i in range(len(links) + 1)], **network},
        "output": output,
    }
    (tmp_path / "config.json").write_text(json.dumps(doc))
    return "config.json"


def _simulate(tmp_path, monkeypatch, network: dict):
    config_path = _write_config(
        tmp_path, monkeypatch, network, {"path": "summary.json", "trace": True}
    )
    captured = []

    def capture(*args, **kwargs):
        result = run_network(*args, **kwargs)
        captured.append(result)
        return result

    run_network = cli.run_network
    monkeypatch.setattr(cli, "run_network", capture)
    assert cli.main(["simulate", config_path]) == 0
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


SUMMARY_EXPECTED = {
    "overlapping_trains": {
        "json": "ad768a70863082c9fd05bc696d9c9510701e6341157dfd4d9abec859a2adc33f",
        "csv": "7cbd7c5fc0440d36ab09f5f5b456243f8055ec65e628f672c69ce3d83ea9f320",
    },
    "overlapping_trains_tau0": {
        "json": "05b47fa4bc57f66b42e520ba93c86e4d71f926d96345f4472fe93ab281d2982b",
        "csv": "934696c15dc3ab4ea5436b7cfbe1ba3477b340ab1cb5342a08b2ac2fdf9c22d3",
    },
    "p0_L0_link_form": {
        "json": "6e5d29b0ca6d04ca7ce2aad79a5559687a4c9e41a4b3925ba29b301b4ff36ed6",
        "csv": "43dc5ca71f4b8aee1053e67854fec7a2eb0bc490ad95d267877287e96c4c6013",
    },
    "purify3": {
        "json": "fe8c0213ebedfe7eff90cbcba3d59d31eef1b0dc75fde6c8163a65edc744e939",
        "csv": "2405a2759de5061b7f5d0bac9a78f92ff7630703619d526bb116406fa267328a",
    },
    "purify3_butterfly_proc": {
        "json": "6fdc0f9436dcdb41b9879470a92a838beaaf793b764533b0fb366983108f6fc1",
        "csv": "e9ee4977ae6eecc722bb8aa75d27c364b134debaf3390f6f205ecd8e8c9ea3f8",
    },
    "raw": {
        "json": "d325155b5172f200e3575bfacb4ab7b944f02f6f724f8f0d385108c8e0955bac",
        "csv": "f63779f4b4416ef51430a29f3afa98857a64d82b8f0aa09e4e7c55dd8b278c40",
    },
    "raw_butterfly_tau_proc": {
        "json": "a96bcf53769e37b2f228ecdf42e74b1bad502aa31f2901bb88665d81cad4150c",
        "csv": "b7f0c91246a6411f6422f0e779bda88b300ed8fb2517038bf2472d5cdd8e3e28",
    },
    "ten_hops_150_cycles": {
        "json": "f3a6f1271f9b680b2078e3d19201c39fbd43c0b692ba2ee162076e3e3a75506a",
        "csv": "5460eef561b587310fb4ffa50f071994dc8cac0bf9b7c0c0b8dcf696956fc3f5",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_summary_file_digests(case, tmp_path, monkeypatch):
    digests = {}
    for fmt in ("json", "csv"):
        config_path = _write_config(
            tmp_path, monkeypatch, CASES[case], {"format": fmt, "path": f"summary.{fmt}"}
        )
        assert cli.main(["simulate", config_path]) == 0
        digests[fmt] = hashlib.sha256((tmp_path / f"summary.{fmt}").read_bytes()).hexdigest()
    assert digests == SUMMARY_EXPECTED[case]


# param -> (case, --values)
SWEEPS = {
    "length_km": ("raw", "10,20.5,40"),
    "p": ("p0_L0_link_form", "0.3,0.6,0.9"),
    "n": ("raw", "2,5,8"),
    "m": ("raw", "1,2,3"),
    "F": ("purify3", "0.8,0.9,0.99"),
    "strategy": ("purify3", "raw,purify3"),
}

SWEEP_EXPECTED = {
    "F": "822acd6f6a4a6734e0957a0488fe1f6b400202b8e0fe99dc2ef1d70251315513",
    "length_km": "a60fe277d96a4e5210fe4df37de7731d57fb0417e6a6a86cbd9850b088d5d8cb",
    "m": "f67dd332428fed7ca8159ff2045dce32a4a72ef7623e9eccd03e26e360173e5b",
    "n": "d10ae47b0d9ed23ed4c2f5c71360431d7a58e3db969540056866b169b3c99ed7",
    "p": "6be83c1ee863a0fb6ace830e116dac8390c2473cde8ef6e74bdd50858c940be6",
    "strategy": "cfecfa0ba1c17035dc58ee95d9cdb80616474fe3845ad7956c8f99c3502f3830",
}


@pytest.mark.parametrize("param", sorted(SWEEPS))
def test_sweep_csv_digests(param, tmp_path, monkeypatch):
    case, values = SWEEPS[param]
    config_path = _write_config(tmp_path, monkeypatch, CASES[case], {})
    argv = ["sweep", config_path, "--param", param, "--values", values, "--out", "sweep.csv"]
    assert cli.main(argv) == 0
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == SWEEP_EXPECTED[param]


# Purify3 chains wider than the cases above, which keep at most two trios a
# hop: one hop, so the first hop is also the last and nothing swaps; and
# three hops of twelve fusilands, four trios a hop, so the kept pairs'
# right-endpoint slots 3t reach t = 3. Pinned with their summary files.
WIDER_CASES = {
    "purify3_single_hop": {
        "links": [_link(30.0, 14, 9, p_success=0.8, raw_fidelity=0.92)],
        "strategy": "purify3",
        "seed": 19,
        "cycles": 40,
    },
    "purify3_butterfly_m12": {
        "links": [_link(km, 16, 12, p_success=0.85, raw_fidelity=0.93) for km in (20.0, 15.0, 25.0)],
        "strategy": "purify3",
        "proc_ns": 300,
        "butterfly": True,
        "seed": 20,
        "cycles": 40,
    },
}

WIDER_EXPECTED = {
    "purify3_butterfly_m12": {
        "records": "c71f039717c7590bc1ccded0e8ef1016e58186192e94ad807ffafa977197131d",
        "per_cycle_delivered": "6f67cab35e7ffea0e034b62b2d32454b7a17a262916d862d07e341d94e5dbfe1",
        "hop_success_counts": "b91acf2e6e72eb9ea38daba87079f00a46735f4f9d53f013f6a47927f41796c7",
        "left_frame_folds": "9cd78d2fdf6a797fd0745c0032c839669c093c64bf9cc8225143fb83b2fa2bad",
        "trace": "9d888f874b802616e06dd7202a77497cb999adb18495b3919bedc82c624df816",
        "summary_json": "88b17fe78598cf1be98552e159e1ede02bdc19a3adf7274221c870a297164392",
        "summary_csv": "1e4a207f9c53503f7121af4a291bb47e07d2dcaca0f8b406302726340f2d5697",
    },
    "purify3_single_hop": {
        "records": "774f87598fe5ed224417fc9147b64f8093274c04d1c796742dc0c2f811f04840",
        "per_cycle_delivered": "defd0f8137a06048871dc3412875a94d1eca0c3b452efa687a41f1592743c7a7",
        "hop_success_counts": "e0026469c0b8f355c30fa55c7c2d6d7970329eeec3366231711d24c832eb963a",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "fbf2affc4635b87f0d42a56d95f63689bf11d04a4866d37ef31f6e2e3f6a016c",
        "summary_json": "7b21c2ccfd5ec00c43b90a9f6f430b79d8eebf1d02d5b4fdb7c1ded4052de208",
        "summary_csv": "9399a3fa15d7acb70c880d61499e76c6aea6aef14e9cc757dffad5e614af3116",
    },
}


@pytest.mark.parametrize("case", sorted(WIDER_CASES))
def test_wider_purify3_digests(case, tmp_path, monkeypatch):
    result, trace_bytes = _simulate(tmp_path, monkeypatch, WIDER_CASES[case])
    assert result.records, "the case delivers pairs"
    digests = _digests(result, trace_bytes)
    for fmt in ("json", "csv"):
        config_path = _write_config(
            tmp_path, monkeypatch, WIDER_CASES[case], {"format": fmt, "path": f"summary.{fmt}"}
        )
        assert cli.main(["simulate", config_path]) == 0
        digests[f"summary_{fmt}"] = hashlib.sha256((tmp_path / f"summary.{fmt}").read_bytes()).hexdigest()
    assert digests == WIDER_EXPECTED[case]


# The paper's chain, ``configs/paper_1000km.json``: 100 hops of 10 km with
# n=544 and m=100, far past the cases above in train length and hop count.
# Its trace, about 544k signal lines, is left out.
PAPER_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_1000km.json"

PAPER_EXPECTED = {
    "records": "9a3a5dc046d79331a6388f6590ee0f5417000b070eb12a0ac1fac9ca9cd3d3fe",
    "per_cycle_delivered": "965b5c1560f33e9bb56477eb1abfe1f93245ea6fbf3a25eede50aacc273c4ec6",
    "hop_success_counts": "644889c301abea62479f0c45cdfc5d7a64cbc49d991ace4ba3cae651d3cca863",
    "summary_json": "12641a26227d8b327f092664e1ae58dd3a12d6017d9dd98ee322d474c3783395",
}


def test_paper_chain_digests(tmp_path, monkeypatch):
    network = json.loads(PAPER_CONFIG.read_text())["network"]
    config_path = _write_config(tmp_path, monkeypatch, network, {"path": "summary.json"})
    captured = []

    def capture(*args, **kwargs):
        result = run_network(*args, **kwargs)
        captured.append(result)
        return result

    run_network = cli.run_network
    monkeypatch.setattr(cli, "run_network", capture)
    assert cli.main(["simulate", config_path]) == 0
    result = captured[0]
    assert len(result.records) == 1000, "every cycle delivers a full bank"
    assert {
        "records": _sha([asdict(r) for r in result.records]),
        "per_cycle_delivered": _sha(result.per_cycle_delivered),
        "hop_success_counts": _sha(result.hop_success_counts),
        "summary_json": hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest(),
    } == PAPER_EXPECTED
