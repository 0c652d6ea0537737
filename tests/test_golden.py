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
        "records": "dc142c6b82fc6f8d7e28482c92f603fa96ed7996f08d09b62ae5d313bd2e7d42",
        "per_cycle_delivered": "1d7e173aa92cb5546f538b552896e5fefabbf8beee1d6acaa9745c3cd2a68143",
        "hop_success_counts": "c1cdb523075e1da99aceb4bdd9ddd1fff395116a7d7568229941ea88b4b0fe4d",
        "left_frame_folds": "639e989ad5ad6b064a164da21e73fdcb862bcd572b984a09d3d27d0a91ca7d0e",
        "trace": "f9b8e886d3f64e93e961f7f6588b9b094ab8cee76e56380f2807ce5294274ee9",
    },
    "overlapping_trains_tau0": {
        "records": "2ea0911afcf32c625ffbd6f75c273de9f5126ff5c6af6a2f884fca38194f9c85",
        "per_cycle_delivered": "57050a220583e6eabead898ecd6739ef2fc58334c4c4261d39161e892e021def",
        "hop_success_counts": "3a71621368840859ba1a237684ee6fc72a09b491131bfb929400f633ab57e674",
        "left_frame_folds": "83a56dd241c7a9c386f4a6f4464045560ee9f123dead6dc68811f5cf2c336161",
        "trace": "3fe392ff4a708380a53e4d26c4374830b7323ac161dc73af6d3f09ca1841d78f",
    },
    "p0_L0_link_form": {
        "records": "e15c7b97113aef8cb8b534cb2c9856f1525ad5e0316599a68c9348c7f21f42f8",
        "per_cycle_delivered": "30a617689fb9f6d5194f1650edd58176aa8e28773bc7ced046de685a746b7f7c",
        "hop_success_counts": "75add8c38e2b0944f3b318997d1a4429cfbfc85e37ac64640275c19570a52aca",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "a0961e71f198a9170c0f142be32288ae7c3f6c2e4e5862f361d1cf3db3d764dd",
    },
    "purify3": {
        "records": "75b129700bd7d08966aa8f7e3425882e1c52f9ff391d79853ef431a69f3258a0",
        "per_cycle_delivered": "038538c2ac7379c9b0f45a5d0ea6537a6e029ed82ced3ffb3eeee3bd55f32af7",
        "hop_success_counts": "c5b34686713c0d106664f0b92506f2eea52c05744b1ec93218a308951d529e5c",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "d378cbe968ddd6f95a7fa239cd012b1f8bd75a8d69d256580230f02c02f8f94e",
    },
    "purify3_butterfly_proc": {
        "records": "8a2c3e2a82fa0518ab898ea96c5d9c41d97447a656891cc1cd1ba5af539eb29d",
        "per_cycle_delivered": "f7d4845536c83c2ce56cf4990c204bd2eeeaa3e86dc261df51cfcdd431431a35",
        "hop_success_counts": "1ff0fb6694c1880c53a8858af31a3ef5676cf90295f0191fede773d1202debd2",
        "left_frame_folds": "b47ce060034093a9f2b3cffc2e8f37e65f56dd3416a8f0a0f07b0854ad255c18",
        "trace": "3d0b374b4423cb470355311b40195cf12e324dbb13a995d669ad1688398b0e2d",
    },
    "raw": {
        "records": "4dd2f07bd83cc90d9559c193f5971d43863808b286dcf6f1e6aad068b2786342",
        "per_cycle_delivered": "41fb99de707d69ea2a19aaff8109697bf8528d8aa1c89807b37a10262cbef27a",
        "hop_success_counts": "f696b2e772b41af0917e03c84a9cb8b0189ff4b5a5a625435c8d7b0546a59416",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "246da1f8cf0fdfd0f09e3acc0f9a475a726d9d421e0589bc123344f35edcf3cf",
    },
    "raw_butterfly_tau_proc": {
        "records": "8d2dcca7106560e7c25b891e27d34118374aa11bd33e87d20d9e665cc1a9ec2b",
        "per_cycle_delivered": "332640810d4927eb59b9a9088ad9f8876fd7ee53c7128c1913098d5edb0fb48a",
        "hop_success_counts": "d3e13042b48d7c374a0ee66a635055628d265f9bc6bce865a4f5d49a94426e8c",
        "left_frame_folds": "3385fe8ebe9690484982ed799695f025347f7a0b2d5633f5edb89b42496b616a",
        "trace": "6d026bb560d312b04a694fdebf3342712b6a1454c66a2806014261166aea3e6f",
    },
    "ten_hops_150_cycles": {
        "records": "0cfc17ae17fc79c68e8484ffcf6a002607a705bc8a325d5ccf5fc8fc2a9d9a8c",
        "per_cycle_delivered": "1f20f4f86b105ea8011231f233fcff432e0f5d07d25eaf64b9a82ece452f57fe",
        "hop_success_counts": "586e6c091aa2d74c36888c3d516d938882dfe7fc65304058acb3585afced934f",
        "left_frame_folds": "74308200574b032d1ebf9eb32fac4c2ea25bbcc767371e87e4c0ff4261bf8b54",
        "trace": "2182b5408d72002fb48a61a9a6b87b51b61f521dad89b39d1c0aa5d2273f693a",
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
        "json": "0c64c12249d9b01d838c4544d0c5805ef01aa4b2c3d559d3d5dea2dc0830c11a",
        "csv": "6e5e8c123c9dc26520c205e65b689844e5810d81cf1b45232801ccbf37895d6b",
    },
    "overlapping_trains_tau0": {
        "json": "add2e669f691e9d3b7b36ab7ee13f0056cd775ccb3fc8663ea513b52e78da44c",
        "csv": "0fa0cacf14849437d18aa3d534200d5e1cfa491f45de1545f9d300c63655ae07",
    },
    "p0_L0_link_form": {
        "json": "e762b626e30b64a7320ecea08e6d30c0782c168de3de7ca4e17915cbc8159b42",
        "csv": "10592190c5fb5a1d186cb2258d4f8116ff0303ce7b4b2dfa4efbc8868aa454f3",
    },
    "purify3": {
        "json": "9ee3cdb9c3ea16f252f2a376a458d8f1db1509e04ff22a456938a84fce56fcbe",
        "csv": "ebae7d082a479675453476d9e75e74c7b8ca1041c4e7b741fdc4dca957022720",
    },
    "purify3_butterfly_proc": {
        "json": "b1b3836f49473da71b9367b9f624aa0f19f50ff867fe13d484ba4b4f78cbc5ae",
        "csv": "62fc730f8b722aa7e9c17bc26328b20e2f493325b6910ac07f463f88eb0e60f0",
    },
    "raw": {
        "json": "5da58b2857f613b61f925e58caf686f9d15a52aaee4bd8e22c30a3ecadd7bc29",
        "csv": "118ed83153880e6b3dea5689706beb128fca3d4ff979227f842332c5eb8ab437",
    },
    "raw_butterfly_tau_proc": {
        "json": "4965b1a3449ef953f0bfb019f1452a89768a07ccd882ba94985decace0674e7c",
        "csv": "24ae93a726e272682ce902b6c3910e741e8c096f44919fc0588c3cecf4f8a916",
    },
    "ten_hops_150_cycles": {
        "json": "6fbcb853b988ad60b035171b432377ec0cb87b886670123ba5373c5653128cd0",
        "csv": "b7f291c7cebed70fc9766c0668ca67cc371b25a596f7a20e039343709ca4d90a",
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
    "F": "1da3150e90c0f2db7320aa01757f2d1fd294b4d3c5a5cc3b5fe80c31f5530701",
    "length_km": "da1d3efe64a773b552db7ddcf4f1b0c4e96587157f7155d676837e3f389906fc",
    "m": "a41bd5eefa400b44758f712393ed846458dbe3385887e47a4d6418b2a968fa92",
    "n": "d262c6f9a43899a7cd1d6afbf0a600e7fb6886a428077a2df0155243f51b8653",
    "p": "509de6c2ffb0878bce92b2395e59c720a5cbf32c9c9e32bcc09c48cbba478b29",
    "strategy": "3da94de66eb36c6cdf1c1dad47fe43763cfc1d6c58f01d91b2339f8e874b6229",
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
        "records": "aff46405919b796e05dcf70271e40e5cb8396e909959c042a80532d81f309cdc",
        "per_cycle_delivered": "66a2d5f7325a33fff084c5e53622635d8351d68b0755ea578a149a70d8e2505e",
        "hop_success_counts": "a2ada45189e6ba8e33a002bb654d14eab99665067b320c0c100e564c1f903182",
        "left_frame_folds": "c71bb85b8863dde0e814e5a97a01957ce69db0ee08a736cea6f05c96f3052e71",
        "trace": "96f1cd86f331748be3135da521871ca3a64ce156bec17c1d062a1769e0aef58b",
        "summary_json": "5e1fca52ed9b100d2be6367abc3e08821b66fb828faea03cf2a648d92b7bc186",
        "summary_csv": "4249bc9f4c3e552a3383331511893df24794bd5d9cf7a8798f007a85a258f249",
    },
    "purify3_single_hop": {
        "records": "55ce97f5015e67fb92fa11243eb476b9fb08b5154da29307173424b6947ef053",
        "per_cycle_delivered": "6ad83dac2395c269e76750d20b30a2f5dfbe80c8daa0a7d72e208b8d2967eccc",
        "hop_success_counts": "3f4419577424677637ff8201af03c7ee910f7be64651bdc68fd84b278139d124",
        "left_frame_folds": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "trace": "283ec30de2f2e9dde2b2c37bba0979830cb62bfdd5703314a185cb894a043043",
        "summary_json": "e980496a16f3f31969dd375e5c8d0b28275fdd301487cacad441139f10555942",
        "summary_csv": "6ac096a97d755b6230123cfea9ea47057ec001fbb3c1d118d98525911608a239",
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
    "records": "eec43461a3653959da4f3b3b43c380b189202321ab8e0fb40ca49099d99f9148",
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
