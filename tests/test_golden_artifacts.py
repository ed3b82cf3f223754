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
        "run_summary.json": "10068b5cc4048dbbf8f5ea16e647f7dd9d8acd504356496b59ddf9a2c1a546c1",
    },
    ("drift", "global"): {
        "rounds.csv": "581449589ace80364dac0d41ad2d7c5c72c9bc81e68e1d310e119275db2dba1d",
        "rounds.jsonl": "f655a8dddb18cf28d4adfc114ec86258142babac4aecc0caf30585587b97e7ac",
        "cohorts.json": "59194e219271bf5d5eb6ac0d5036c2dc3f7db982ae95051e993e834b1a50c033",
        "run_summary.json": "0f8d9e4fdac26f451cd9db9dfe0a58349f4a1540c772763a90b4a7cb5bf41e90",
    },
    ("dropout", "cohort"): {
        "rounds.csv": "3f684d49b980bdbb0c7e84c788dbec23cc4c1c84b1ebace756c77d0af9b83107",
        "rounds.jsonl": "4c387b96e6743318631cabd577248b9f927021cbed9fecc99608b9733b16ff1f",
        "cohorts.json": "aa8d75c27a0a855d8cc492354f160c54215bf390953362481dc0984dc05dab6c",
        "run_summary.json": "3d5350e11b5e196b54f59fa9476d93a000fcb4a7259ff4965bbd68d29e2f4239",
    },
    ("dropout", "global"): {
        "rounds.csv": "3f684d49b980bdbb0c7e84c788dbec23cc4c1c84b1ebace756c77d0af9b83107",
        "rounds.jsonl": "4c387b96e6743318631cabd577248b9f927021cbed9fecc99608b9733b16ff1f",
        "cohorts.json": "23fdfffe5b96b5eed23be26ecf10233cea7776af24d0cd0465905ab872deb339",
        "run_summary.json": "c5deb049108ae5691cbc91e717a09e054d901f7b3348ac36495098ca3bc6c237",
    },
    ("heartrate", "cohort"): {
        "rounds.csv": "cd069b850fa6306faef661772abab2f6249e06b2641d2e421cc562541d6b6bb0",
        "rounds.jsonl": "d49940068cd99831aadb5d78c7b8641e866e682ec68973ed638800103e3b3457",
        "cohorts.json": "6ddfde5adbeed00e3ddc1f6ed77f2714343a4fe11b0e3f8577c79d1604e1a97c",
        "run_summary.json": "8a7786e02ae9c266fddc21eef9d8b2f39b35e7858a48022d5e48892cb549286e",
    },
    ("heartrate", "global"): {
        "rounds.csv": "2ff3c555abbc9a018976d3bb361bd67db5a979515416eea779e3f89b3d4d8823",
        "rounds.jsonl": "d02f3df1b8dda4bd48f4854b994bd05afa4a2e3431ea3d2ea8062909981c8726",
        "cohorts.json": "b35b009db5cd3e7ddc742cd23805e5abcc7eb1343b2742fdad0478228fea3375",
        "run_summary.json": "5254e6e0a84ac392db616b105079776a7cde7b9f4b91e4ca6fe19b95766895a6",
    },
    ("poison", "cohort"): {
        "rounds.csv": "b10a932387f21b2fc1611da58dfee2189d204e85aad38a6c93306029bdb1f9b0",
        "rounds.jsonl": "ec700cecaac0a1c55f9c54cc2c326c8c1c62e2c0dbb79e899a6900a2dc30c2db",
        "cohorts.json": "4f5bb25e3495616a39fe910d1a663089a358982569d7659a29676279bbafa305",
        "run_summary.json": "6733335c89e676c6947510520e8ee8fc3dca11036ec08c6bb8c16ffc8afe200a",
    },
    ("poison", "global"): {
        "rounds.csv": "b10a932387f21b2fc1611da58dfee2189d204e85aad38a6c93306029bdb1f9b0",
        "rounds.jsonl": "ec700cecaac0a1c55f9c54cc2c326c8c1c62e2c0dbb79e899a6900a2dc30c2db",
        "cohorts.json": "873ce490070dc208548f95212e220b07e41629444727eea5917f48e76d97bba2",
        "run_summary.json": "1463743801e68cdcc759daeec28e19a9148e5aeba26c67be93f4954d2ac467d3",
    },
    ("uniform", "cohort"): {
        "rounds.csv": "043a55ff972181be5b7d7f29be1f288abfe0319a42459902c593e3ed5aca1918",
        "rounds.jsonl": "330f4edaa18a6a1e33b7c9f43f154ded737ae0a1bd1e61d9c6da4a3c6ea9614b",
        "cohorts.json": "53221d14402873db3b509750a840477b763740260a4e7f24c9a0970ac52e343d",
        "run_summary.json": "76e16c3284cc4cd126d578b94521dc876de8e1876f1437fd0018fa1d98897279",
    },
    ("uniform", "global"): {
        "rounds.csv": "043a55ff972181be5b7d7f29be1f288abfe0319a42459902c593e3ed5aca1918",
        "rounds.jsonl": "330f4edaa18a6a1e33b7c9f43f154ded737ae0a1bd1e61d9c6da4a3c6ea9614b",
        "cohorts.json": "9ce87d0edf6cba5d3ca9968ec73544b1acd7ecf16766cae2459d097c7c9366bb",
        "run_summary.json": "d3d6158c268be75abfa745aebc03b60a3cee27ab0978ede020cf8c3dfe0687c7",
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
