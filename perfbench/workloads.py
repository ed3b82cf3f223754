"""Seeded scenario documents for the three benchmark workloads.

Each builder returns a plain JSON-ready dict in the ``scenarios.spec_from_doc``
schema (see ``docs/SCENARIOS.md``), so the program only ever receives
generated, validated inputs, and the saved document replays the run with
``communityfl simulate --scenario <file> --mode <mode>``.

The workload seed becomes the scenario seed (data, sample counts, splits) and
the scheduler seed (cohort member selection); the shapes below stay fixed so
runs with different seeds do comparable work.
"""

from __future__ import annotations

# the heartrate builtin's second and third planted clusters: one unshifted,
# one shifted by 5 sigma per feature with flipped labels
_HEARTRATE_CLUSTERS = [
    {"weight": 0.5, "feature_shift": None, "label_map": None},
    {"weight": 0.5, "feature_shift": [5.0, 5.0], "label_map": {"0": 1, "1": 0}},
]


def _community(community_id: str, objective: str, device_type: str, tag: str, **plan) -> dict:
    doc = {
        "community_id": community_id,
        "objective": objective,
        "device_type": device_type,
        "required_tags": [tag],
        "min_samples": 50,
        "epochs": 2,
        "batch_size": 32,
        "learning_rate": 0.3,
        "eval_holdout_fraction": 0.25,
    }
    doc.update(plan)
    return doc


def _doc(name, seed, clients, community, scheduler, **fields) -> dict:
    doc = {
        "name": name,
        "seed": seed,
        "clients": clients,
        "communities": [community],
        "tasks": [
            {"task_id": f"{cid}-t0", "client_id": cid, "community_id": community["community_id"]}
            for cid in clients
        ],
        "scheduler": {
            "guard_epsilon": 0.5,
            "seed": seed,
            "weighted_aggregation": True,
            **scheduler,
        },
        "class_sep": 4.0,
    }
    doc.update(fields)
    return doc


def crowd_cohort(seed: int) -> dict:
    """Cross-device: many small single-task clients, partial participation."""
    clients = [f"dev-{i:04d}" for i in range(1600)]
    return _doc(
        "crowd-cohort",
        seed,
        clients,
        _community(
            "C2", "heartrate-anomaly-detection", "smartwatch", "heartrate", shuffle_seed=202
        ),
        {"clients_per_round": 8, "rounds": 20, "cohort_threshold": 0.88, "min_updates_quorum": 0.5},
        clusters=_HEARTRATE_CLUSTERS,
        n_features=2,
        n_classes=2,
        samples_per_client=[60, 80],
    )


def silo_global(seed: int) -> dict:
    """Cross-silo: few data-rich clients, one global MLP, full participation."""
    clients = [f"silo-{i:02d}" for i in range(16)]
    return _doc(
        "silo-global",
        seed,
        clients,
        _community(
            "S1", "ward-deterioration-scoring", "bedside-monitor", "clinical",
            hidden_units=32, shuffle_seed=707,
        ),
        {"clients_per_round": "all", "rounds": 120, "cohort_threshold": 0.0, "min_updates_quorum": 1.0},
        clusters=[{"weight": 1.0, "feature_shift": None, "label_map": None}],
        n_features=16,
        n_classes=2,
        samples_per_client=[240, 320],
    )


def socket_loopback(seed: int) -> dict:
    """Two clients on one cluster; run over TCP connections on 127.0.0.1."""
    clients = ["tcp-01", "tcp-02"]
    return _doc(
        "socket-loopback",
        seed,
        clients,
        _community("L1", "activity-recognition", "tracker", "fitness", shuffle_seed=303),
        {"clients_per_round": "all", "rounds": 150, "cohort_threshold": 0.8, "min_updates_quorum": 1.0},
        clusters=[{"weight": 1.0, "feature_shift": None, "label_map": None}],
        n_features=2,
        n_classes=2,
        samples_per_client=[240, 320],
        # two clients give a small holdout; well-separated classes keep the
        # accuracy guard from swinging by whole samples between seeds
        class_sep=6.0,
    )


# name -> (document builder, transport, runner mode)
WORKLOADS = {
    "crowd-cohort": (crowd_cohort, "sim", "cohort"),
    "silo-global": (silo_global, "sim", "global"),
    "socket-loopback": (socket_loopback, "socket", "cohort"),
}
