"""Golden digests of every builtin scenario's artifacts in both modes.

A refactor that claims "byte-identical artifacts" is checked here instead of
by hand: each builtin runs in-process, in its own directory per mode, and the
sha256 of ``rounds.csv``, ``rounds.jsonl``, ``cohorts.json`` and
``run_summary.json`` (with its ``wall_time_s`` removed) must equal the digest
pinned below. A change that moves an artifact on purpose must say so and
re-pin it; print the current digests with

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from communityfl import runner
from communityfl.scenarios import builtin_scenarios

ARTIFACTS = ("rounds.csv", "rounds.jsonl", "cohorts.json", "run_summary.json")

GOLDEN = {
    ("drift", "cohort"): {
        "rounds.csv": "448f6bf1b92fa9b601a8bb884e6cc29066d8a02739301d42a36029c92c72e84c",
        "rounds.jsonl": "2f6a8cc6525331bce671a950ba4b5e84efea522303704442c3a724067e052e75",
        "cohorts.json": "f2f48a9d36a59525629860ef1e8a5889013e5485942da3e9b8748631eb48cdb7",
        "run_summary.json": "32b21ee77a8a6d5ca2f0dbcf2035ef7f2c1221de22b3e73517f80b116cd9eb16",
    },
    ("drift", "global"): {
        "rounds.csv": "581449589ace80364dac0d41ad2d7c5c72c9bc81e68e1d310e119275db2dba1d",
        "rounds.jsonl": "f655a8dddb18cf28d4adfc114ec86258142babac4aecc0caf30585587b97e7ac",
        "cohorts.json": "59194e219271bf5d5eb6ac0d5036c2dc3f7db982ae95051e993e834b1a50c033",
        "run_summary.json": "2496718aa5269bea33f81bb5a17cd9c3c4e3eeb8dca621530e097a71f34dc311",
    },
    ("dropout", "cohort"): {
        "rounds.csv": "3f684d49b980bdbb0c7e84c788dbec23cc4c1c84b1ebace756c77d0af9b83107",
        "rounds.jsonl": "4c387b96e6743318631cabd577248b9f927021cbed9fecc99608b9733b16ff1f",
        "cohorts.json": "aa8d75c27a0a855d8cc492354f160c54215bf390953362481dc0984dc05dab6c",
        "run_summary.json": "dec2d08af27fa81ebfee3af9c12516a31669e4c61c02459823907eac3edaf581",
    },
    ("dropout", "global"): {
        "rounds.csv": "3f684d49b980bdbb0c7e84c788dbec23cc4c1c84b1ebace756c77d0af9b83107",
        "rounds.jsonl": "4c387b96e6743318631cabd577248b9f927021cbed9fecc99608b9733b16ff1f",
        "cohorts.json": "23fdfffe5b96b5eed23be26ecf10233cea7776af24d0cd0465905ab872deb339",
        "run_summary.json": "f025af11f1b2d42644e4c7310c223298907db56c38b9fec5194686fff6937d0e",
    },
    ("heartrate", "cohort"): {
        "rounds.csv": "cd069b850fa6306faef661772abab2f6249e06b2641d2e421cc562541d6b6bb0",
        "rounds.jsonl": "d49940068cd99831aadb5d78c7b8641e866e682ec68973ed638800103e3b3457",
        "cohorts.json": "6ddfde5adbeed00e3ddc1f6ed77f2714343a4fe11b0e3f8577c79d1604e1a97c",
        "run_summary.json": "c7ab83a7c0b813c0a716571ba35eede3fc05d98a09e312d8bef5b9439a93b922",
    },
    ("heartrate", "global"): {
        "rounds.csv": "2ff3c555abbc9a018976d3bb361bd67db5a979515416eea779e3f89b3d4d8823",
        "rounds.jsonl": "d02f3df1b8dda4bd48f4854b994bd05afa4a2e3431ea3d2ea8062909981c8726",
        "cohorts.json": "b35b009db5cd3e7ddc742cd23805e5abcc7eb1343b2742fdad0478228fea3375",
        "run_summary.json": "e366e27064038bc3455f5e516fde01fc8093a64420123c3efa1dcc5554bb8675",
    },
    ("poison", "cohort"): {
        "rounds.csv": "b10a932387f21b2fc1611da58dfee2189d204e85aad38a6c93306029bdb1f9b0",
        "rounds.jsonl": "ec700cecaac0a1c55f9c54cc2c326c8c1c62e2c0dbb79e899a6900a2dc30c2db",
        "cohorts.json": "4f5bb25e3495616a39fe910d1a663089a358982569d7659a29676279bbafa305",
        "run_summary.json": "bc20a5936f0ed9e5d65830ab78e20c577b2b4beaa87e89ba1c6ae35d769bf3cd",
    },
    ("poison", "global"): {
        "rounds.csv": "b10a932387f21b2fc1611da58dfee2189d204e85aad38a6c93306029bdb1f9b0",
        "rounds.jsonl": "ec700cecaac0a1c55f9c54cc2c326c8c1c62e2c0dbb79e899a6900a2dc30c2db",
        "cohorts.json": "873ce490070dc208548f95212e220b07e41629444727eea5917f48e76d97bba2",
        "run_summary.json": "6c3687573d6680cce2a8c14dd346aea3b5e18a8716d3dfc0ced99dc4c155b695",
    },
    ("uniform", "cohort"): {
        "rounds.csv": "043a55ff972181be5b7d7f29be1f288abfe0319a42459902c593e3ed5aca1918",
        "rounds.jsonl": "330f4edaa18a6a1e33b7c9f43f154ded737ae0a1bd1e61d9c6da4a3c6ea9614b",
        "cohorts.json": "53221d14402873db3b509750a840477b763740260a4e7f24c9a0970ac52e343d",
        "run_summary.json": "9ecd33b6c2a2f2c912e01c9abd8117efae6b03b1b02f2a48a443b6f1686098fb",
    },
    ("uniform", "global"): {
        "rounds.csv": "043a55ff972181be5b7d7f29be1f288abfe0319a42459902c593e3ed5aca1918",
        "rounds.jsonl": "330f4edaa18a6a1e33b7c9f43f154ded737ae0a1bd1e61d9c6da4a3c6ea9614b",
        "cohorts.json": "9ce87d0edf6cba5d3ca9968ec73544b1acd7ecf16766cae2459d097c7c9366bb",
        "run_summary.json": "5372bab56810b49b9f60ebfff11988e1aa051ecd2ed66146f739e151cfed19b8",
    },
}


def artifact_digests(scenario: str, mode: str, out_dir: Path) -> dict[str, str]:
    runner.run_simulation(builtin_scenarios()[scenario], mode=mode, out_dir=out_dir)
    digests = {}
    for name in ARTIFACTS:
        data = (out_dir / name).read_bytes()
        if name == "run_summary.json":
            doc = json.loads(data)
            del doc["wall_time_s"]
            data = json.dumps(doc, indent=2, sort_keys=True).encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("scenario, mode", sorted(GOLDEN))
def test_builtin_artifacts_match_golden_digests(scenario, mode, tmp_path):
    assert artifact_digests(scenario, mode, tmp_path) == GOLDEN[scenario, mode]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(builtin_scenarios()):
            for run_mode in (runner.MODE_COHORT, runner.MODE_GLOBAL):
                found = artifact_digests(name, run_mode, Path(tmp) / name / run_mode)
                print(f'    ("{name}", "{run_mode}"): {{')
                for artifact, digest in found.items():
                    print(f'        "{artifact}": "{digest}",')
                print("    },")
