"""Socket-mode demo: the same rounds over real TCP connections.

Exports the uniform scenario to per-client data/metadata/task files, starts a
coordinator on a loopback port, runs each client in a thread speaking the
length-prefixed wire protocol, and checks that the final cohort weights and
``rounds.jsonl`` match the in-process simulation bit for bit. It exits
non-zero when either differs.

The exported bundle is exactly what the CLI consumes:

    communityfl serve  --listen 127.0.0.1:7070 --config out/bundle/server_config.json --out out/socket
    communityfl client --connect 127.0.0.1:7070 --data out/bundle/u-01.data.json \
        --metadata out/bundle/u-01.metadata.json --task out/bundle/u-01.task.json
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np

from communityfl import netproto
from communityfl.client import FlClient
from communityfl.community import Community, ParticipantMetadata
from communityfl.flcore import FlTask
from communityfl.orchestrator import Coordinator, SchedulerConfig
from communityfl.runner import run_simulation, run_socket_rounds
from communityfl.scenarios import builtin_scenarios, export_socket_bundle
from communityfl.tinylearn import Dataset
from communityfl.transport import SocketCoordinatorServer, run_socket_client

out = Path("out")
spec = builtin_scenarios()["uniform"]

sim = run_simulation(spec, mode="cohort", out_dir=out / "sim")
sim_digests = {c: v["weights_digest"] for c, v in sim.summary.per_cohort.items()}
print("simulation digests:", sim_digests)

bundle = out / "bundle"
export_socket_bundle(spec, bundle)
config = json.loads((bundle / "server_config.json").read_text())
coordinator = Coordinator(
    SchedulerConfig(**config["scheduler"]),
    [netproto.from_file_doc(Community, c) for c in config["communities"]],
)
server = SocketCoordinatorServer(coordinator, "127.0.0.1", 0, config["expected_tasks"])
host, port = server.address
print(f"coordinator listening on {host}:{port}")


def client_main(client_id: str):
    data_doc = json.loads((bundle / f"{client_id}.data.json").read_text())
    dataset = Dataset(
        features=np.array(data_doc["features"]),
        labels=np.array(data_doc["labels"]),
        n_classes=data_doc["n_classes"],
    )
    metadata = netproto.from_file_doc(
        ParticipantMetadata, json.loads((bundle / f"{client_id}.metadata.json").read_text())
    )
    task = netproto.from_file_doc(
        FlTask, json.loads((bundle / f"{client_id}.task.json").read_text())
    )
    rounds = run_socket_client(FlClient(client_id, dataset, metadata), host, port, task)
    print(f"    client {client_id} served {rounds} rounds")


threads = [threading.Thread(target=client_main, args=(cid,)) for cid in spec.clients]
for thread in threads:
    thread.start()
run_socket_rounds(server, spec.scheduler.rounds, out / "socket", scenario_name=spec.name)
server.close()
for thread in threads:
    thread.join()

doc = json.loads((out / "socket" / "cohorts.json").read_text())
socket_digests = {
    c["cohort_id"]: c["weights_digest"]
    for population in doc["populations"]
    for c in population["cohorts"]
}
weights_match = socket_digests == sim_digests
jsonl_match = (out / "socket" / "rounds.jsonl").read_bytes() == (
    out / "sim" / "rounds.jsonl"
).read_bytes()
print("socket digests:    ", socket_digests)
print("bit-exact weights: ", weights_match)
print("same rounds.jsonl: ", jsonl_match)
sys.exit(0 if weights_match and jsonl_match else 1)
