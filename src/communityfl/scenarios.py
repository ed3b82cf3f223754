"""Synthetic scenario generation: planted clusters, drift, poisoning, faults.

Client data is drawn from seeded Gaussian class blobs. A cluster transforms
its clients' data by an additive per-feature shift and/or a label relabeling
map; combining a shift with a label flip produces an XOR-like pooled problem
that no single linear model can fit, while each cluster alone stays easy.
That construction is what makes the cohort-versus-global comparison sharp.

Everything is deterministic per scenario seed: per-client sample counts,
features, labels, poisoning masks, and drift regeneration all derive their
RNG streams from stable hashes of (seed, purpose, client).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import netproto
from .community import (
    CollaborationCriteria,
    Community,
    DataSignature,
    DeviceDescriptor,
    ParticipantMetadata,
    signature_from_dataset,
)
from .errors import ConfigError
from .flcore import ConfigSignature, FlPlan, FlTask
from .hashing import stable_u64
from .orchestrator import SchedulerConfig
from .tinylearn import Dataset, make_arch

FL_ALGORITHM = "fedavg"


@dataclass
class ClusterSpec:
    """One planted data distribution; ``weight`` is the fraction of clients."""

    weight: float
    feature_shift: list[float] | None = None
    label_map: dict[int, int] | None = None


@dataclass
class DriftEvent:
    round: int  # 1-based scheduler round; applied before that round runs
    client_id: str
    new_cluster: int


@dataclass
class PoisonSpec:
    client_id: str
    label_flip_rate: float


@dataclass
class FaultSpec:
    round: int  # 1-based scheduler round
    client_id: str
    kind: str  # drop | delay


@dataclass
class ResourceSpec:
    battery: float = 1.0
    neighbors: list[str] = field(default_factory=list)
    trusted: list[str] = field(default_factory=list)


@dataclass
class CommunitySpec:
    community_id: str
    objective: str
    device_type: str
    purpose: str = ""
    creator_id: str = "creator"
    required_tags: list[str] = field(default_factory=list)
    forbidden_tags: list[str] = field(default_factory=list)
    min_data_quality: float = 0.0
    min_samples: int = 0
    hidden_units: int = 0
    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 0.3
    shuffle_seed: int = 1
    eval_holdout_fraction: float = 0.25
    rounds_target: int = 10


@dataclass
class TaskSpec:
    task_id: str
    client_id: str
    community_id: str
    targeted_device: str | None = None
    plan_overrides: dict[str, float | int] = field(default_factory=dict)


@dataclass
class ScenarioSpec:
    name: str
    seed: int
    clients: list[str]
    clusters: list[ClusterSpec]
    n_features: int
    n_classes: int
    samples_per_client: tuple[int, int]
    scheduler: SchedulerConfig
    communities: list[CommunitySpec]
    tasks: list[TaskSpec]
    class_sep: float = 4.0
    feature_std: float = 1.0
    label_prior: list[float] | None = None
    samples_override: dict[str, int] = field(default_factory=dict)
    drift_events: list[DriftEvent] = field(default_factory=list)
    poison: list[PoisonSpec] = field(default_factory=list)
    faults: list[FaultSpec] = field(default_factory=list)
    resources: dict[str, ResourceSpec] = field(default_factory=dict)

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def validate(self):
        if not self.name:
            raise ConfigError("scenario name must be non-empty")
        if not self.clients:
            raise ConfigError("scenario defines no clients")
        if len(set(self.clients)) != len(self.clients):
            raise ConfigError("client ids must be unique")
        if not self.clusters:
            raise ConfigError("scenario defines no clusters")
        total = sum(c.weight for c in self.clusters)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"cluster weights must sum to 1, got {total}")
        if self.n_features < 1 or self.n_classes < 2:
            raise ConfigError("need n_features >= 1 and n_classes >= 2")
        lo, hi = self.samples_per_client
        if not 1 <= lo <= hi:
            raise ConfigError(f"invalid samples_per_client range ({lo}, {hi})")
        if self.label_prior is not None:
            if len(self.label_prior) != self.n_classes:
                raise ConfigError("label_prior length must equal n_classes")
            if abs(sum(self.label_prior) - 1.0) > 1e-9 or min(self.label_prior) < 0:
                raise ConfigError("label_prior must be a probability vector")
        for cluster in self.clusters:
            if cluster.feature_shift is not None and len(cluster.feature_shift) != self.n_features:
                raise ConfigError("feature_shift length must equal n_features")
            if cluster.label_map is not None:
                keys = set(cluster.label_map)
                values = set(cluster.label_map.values())
                valid = set(range(self.n_classes))
                if not (keys <= valid and values <= valid):
                    raise ConfigError("label_map refers to labels outside [0, n_classes)")
        known = set(self.clients)
        community_ids = {c.community_id for c in self.communities}
        if len(community_ids) != len(self.communities):
            raise ConfigError("community ids must be unique")
        task_ids = [t.task_id for t in self.tasks]
        if len(set(task_ids)) != len(task_ids):
            raise ConfigError("task ids must be unique")
        for task in self.tasks:
            if task.client_id not in known:
                raise ConfigError(f"task {task.task_id} references unknown client")
            if task.community_id not in community_ids:
                raise ConfigError(f"task {task.task_id} references unknown community")
        for event in self.drift_events:
            if event.client_id not in known:
                raise ConfigError("drift event references unknown client")
            if not 0 <= event.new_cluster < len(self.clusters):
                raise ConfigError("drift event references unknown cluster")
            if event.round < 1:
                raise ConfigError("drift round is 1-based")
        for p in self.poison:
            if p.client_id not in known:
                raise ConfigError("poison spec references unknown client")
            if not 0.0 <= p.label_flip_rate <= 1.0:
                raise ConfigError("label_flip_rate must be in [0,1]")
        for fault in self.faults:
            if fault.client_id not in known:
                raise ConfigError("fault references unknown client")
            if fault.kind not in ("drop", "delay"):
                raise ConfigError(f"unknown fault kind {fault.kind!r}")
            if fault.round < 1:
                raise ConfigError("fault round is 1-based")
        for client_id in self.samples_override:
            if client_id not in known:
                raise ConfigError("samples_override references unknown client")
        for client_id in self.resources:
            if client_id not in known:
                raise ConfigError("resources entry references unknown client")


# -- cluster assignment -------------------------------------------------------


def cluster_assignment(spec: ScenarioSpec) -> dict[str, int]:
    """Largest-remainder apportionment of clients to clusters, in client order."""
    n = spec.n_clients
    raw = [c.weight * n for c in spec.clusters]
    counts = [int(x) for x in raw]
    remainders = sorted(
        range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True
    )
    shortfall = n - sum(counts)
    for i in remainders[:shortfall]:
        counts[i] += 1
    assignment = {}
    cursor = 0
    for cluster_index, count in enumerate(counts):
        for client_id in spec.clients[cursor : cursor + count]:
            assignment[client_id] = cluster_index
        cursor += count
    return assignment


# -- data generation ----------------------------------------------------------


def _class_centers(spec: ScenarioSpec) -> np.ndarray:
    centers = np.zeros((spec.n_classes, spec.n_features), dtype=np.float64)
    centers[:, 0] = np.arange(spec.n_classes) * spec.class_sep
    return centers


def _flip_rate(spec: ScenarioSpec, client_id: str) -> float:
    for p in spec.poison:
        if p.client_id == client_id:
            return p.label_flip_rate
    return 0.0


def generate_client_dataset(
    spec: ScenarioSpec, client_id: str, cluster_index: int, n_samples: int, stream: str
) -> Dataset:
    """Draw one client's dataset from its cluster's transformed blob mixture."""
    rng = np.random.default_rng(stable_u64(spec.seed, stream, client_id))
    prior = (
        np.asarray(spec.label_prior, dtype=np.float64)
        if spec.label_prior is not None
        else np.full(spec.n_classes, 1.0 / spec.n_classes)
    )
    labels = rng.choice(spec.n_classes, size=n_samples, p=prior)
    centers = _class_centers(spec)
    features = centers[labels] + spec.feature_std * rng.standard_normal(
        (n_samples, spec.n_features)
    )
    cluster = spec.clusters[cluster_index]
    if cluster.feature_shift is not None:
        features = features + np.asarray(cluster.feature_shift, dtype=np.float64)
    if cluster.label_map is not None:
        lut = np.arange(spec.n_classes)
        lut[list(cluster.label_map)] = list(cluster.label_map.values())
        labels = lut[labels]
    flip_rate = _flip_rate(spec, client_id)
    if flip_rate > 0.0:
        poison_rng = np.random.default_rng(stable_u64(spec.seed, "poison", client_id))
        mask = poison_rng.random(n_samples) < flip_rate
        labels = np.where(mask, (labels + 1) % spec.n_classes, labels)
    return Dataset(features=features, labels=labels, n_classes=spec.n_classes)


def _client_sample_count(spec: ScenarioSpec, client_id: str) -> int:
    if client_id in spec.samples_override:
        return int(spec.samples_override[client_id])
    rng = np.random.default_rng(stable_u64(spec.seed, "count", client_id))
    lo, hi = spec.samples_per_client
    return int(rng.integers(lo, hi + 1))


@dataclass(eq=False)
class GeneratedClient:
    client_id: str
    cluster_index: int
    n_samples: int
    dataset: Dataset
    metadata: ParticipantMetadata
    resources: ResourceSpec


@dataclass(eq=False)
class ScenarioData:
    spec: ScenarioSpec
    clients: list[GeneratedClient]
    communities: list[Community]
    tasks: list[FlTask]

    def client(self, client_id: str) -> GeneratedClient:
        for c in self.clients:
            if c.client_id == client_id:
                return c
        raise KeyError(client_id)


def build_community(spec: CommunitySpec, n_features: int, n_classes: int) -> Community:
    return Community(
        community_id=spec.community_id,
        creator_id=spec.creator_id,
        purpose=spec.purpose or spec.objective,
        objective=spec.objective,
        criteria=CollaborationCriteria(
            required_tags=frozenset(spec.required_tags),
            forbidden_tags=frozenset(spec.forbidden_tags),
            min_data_quality=spec.min_data_quality,
            min_samples=spec.min_samples,
        ),
        base_model=make_arch(n_features, n_classes, spec.hidden_units),
        default_plan=FlPlan(
            epochs=spec.epochs,
            batch_size=spec.batch_size,
            learning_rate=spec.learning_rate,
            shuffle_seed=spec.shuffle_seed,
            eval_holdout_fraction=spec.eval_holdout_fraction,
            rounds_target=spec.rounds_target,
        ),
    )


def build_task(
    task_spec: TaskSpec, community: Community, device_type: str, signature: DataSignature
) -> FlTask:
    return FlTask(
        task_id=task_spec.task_id,
        client_id=task_spec.client_id,
        community_id=task_spec.community_id,
        config=ConfigSignature(
            device_type=device_type,
            fl_algorithm=FL_ALGORITHM,
            model_arch=community.base_model,
            objective=community.objective,
        ),
        data_signature=signature,
        targeted_device=task_spec.targeted_device or task_spec.client_id,
        plan_overrides=dict(task_spec.plan_overrides),
    )


def generate(spec: ScenarioSpec) -> ScenarioData:
    """Materialize a scenario: datasets, metadata, communities, and tasks."""
    spec.validate()
    assignment = cluster_assignment(spec)
    community_specs = {c.community_id: c for c in spec.communities}
    communities = [
        build_community(c, spec.n_features, spec.n_classes) for c in spec.communities
    ]
    community_by_id = {c.community_id: c for c in communities}

    community_of_client: dict[str, str] = {}
    for task in spec.tasks:
        community_of_client.setdefault(task.client_id, task.community_id)

    clients: list[GeneratedClient] = []
    for client_id in spec.clients:
        cluster_index = assignment[client_id]
        n = _client_sample_count(spec, client_id)
        dataset = generate_client_dataset(spec, client_id, cluster_index, n, "data")
        community_id = community_of_client.get(client_id)
        cspec = community_specs.get(community_id) if community_id else None
        tags = frozenset(cspec.required_tags) if cspec else frozenset()
        device_type = cspec.device_type if cspec else "device"
        metadata = ParticipantMetadata(
            participant_id=client_id,
            device=DeviceDescriptor(
                manufacturer="acme",
                model=f"{device_type}-mk{cluster_index + 1}",
                device_type=device_type,
                firmware="1.0.0",
            ),
            interests=tags,
            expertise=frozenset(),
            data_signature=signature_from_dataset(dataset),
            criteria=CollaborationCriteria(),
        )
        clients.append(
            GeneratedClient(
                client_id=client_id,
                cluster_index=cluster_index,
                n_samples=n,
                dataset=dataset,
                metadata=metadata,
                resources=spec.resources.get(client_id, ResourceSpec()),
            )
        )

    by_id = {c.client_id: c for c in clients}
    tasks = []
    for task_spec in spec.tasks:
        community = community_by_id[task_spec.community_id]
        device_type = community_specs[task_spec.community_id].device_type
        signature = by_id[task_spec.client_id].metadata.data_signature
        tasks.append(build_task(task_spec, community, device_type, signature))
    tasks.sort(key=lambda t: t.task_id)
    return ScenarioData(spec=spec, clients=clients, communities=communities, tasks=tasks)


def apply_drift(data: ScenarioData, event: DriftEvent) -> Dataset:
    """Regenerate the drifted client's data from its new cluster distribution.

    The sample count is preserved; the RNG stream is keyed by (seed, client,
    round) so repeated runs drift identically.
    """
    client = data.client(event.client_id)
    dataset = generate_client_dataset(
        data.spec,
        event.client_id,
        event.new_cluster,
        client.n_samples,
        f"drift:{event.round}",
    )
    client.cluster_index = event.new_cluster
    client.dataset = dataset
    new_signature = signature_from_dataset(dataset)
    client.metadata = ParticipantMetadata(
        participant_id=client.metadata.participant_id,
        device=client.metadata.device,
        interests=client.metadata.interests,
        expertise=client.metadata.expertise,
        data_signature=new_signature,
        criteria=client.metadata.criteria,
    )
    return dataset


# -- JSON serialization ---------------------------------------------------------


def spec_to_doc(spec: ScenarioSpec) -> dict:
    doc = asdict(spec)
    doc["samples_per_client"] = list(spec.samples_per_client)
    for cluster in doc["clusters"]:
        if cluster["label_map"] is not None:
            cluster["label_map"] = {str(k): v for k, v in cluster["label_map"].items()}
    return doc


_SPEC_KEYS = {f.name for f in fields(ScenarioSpec)}


def spec_from_doc(doc: dict) -> ScenarioSpec:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    try:
        clusters = [
            ClusterSpec(
                weight=c["weight"],
                feature_shift=c.get("feature_shift"),
                label_map=(
                    {int(k): int(v) for k, v in c["label_map"].items()}
                    if c.get("label_map")
                    else None
                ),
            )
            for c in doc["clusters"]
        ]
        scheduler = SchedulerConfig(**doc["scheduler"])
        spec = ScenarioSpec(
            name=doc["name"],
            seed=doc["seed"],
            clients=list(doc["clients"]),
            clusters=clusters,
            n_features=doc["n_features"],
            n_classes=doc["n_classes"],
            samples_per_client=tuple(doc["samples_per_client"]),
            scheduler=scheduler,
            communities=[CommunitySpec(**c) for c in doc["communities"]],
            tasks=[TaskSpec(**t) for t in doc["tasks"]],
            class_sep=doc.get("class_sep", 4.0),
            feature_std=doc.get("feature_std", 1.0),
            label_prior=doc.get("label_prior"),
            samples_override=dict(doc.get("samples_override", {})),
            drift_events=[DriftEvent(**d) for d in doc.get("drift_events", [])],
            poison=[PoisonSpec(**p) for p in doc.get("poison", [])],
            faults=[FaultSpec(**f) for f in doc.get("faults", [])],
            resources={k: ResourceSpec(**v) for k, v in doc.get("resources", {}).items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario document: {exc}") from exc
    spec.validate()
    return spec


def load_spec(path: str | Path) -> ScenarioSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return spec_from_doc(doc)


def dump_spec(spec: ScenarioSpec, path: str | Path):
    Path(path).write_text(json.dumps(spec_to_doc(spec), indent=2, sort_keys=True) + "\n")


# -- builtin scenarios -----------------------------------------------------------


def _heartrate() -> ScenarioSpec:
    """Fig-3-style layout: a small wellness community plus a smartwatch
    community whose population splits into two planted cohorts."""
    bands = ["band-01", "band-02"]
    watches = [f"watch-{i:02d}" for i in range(1, 7)]
    communities = [
        CommunitySpec(
            community_id="C1",
            objective="sleep-quality-scoring",
            device_type="fitness-band",
            purpose="wellness coaching",
            required_tags=["wellness"],
            min_samples=50,
            epochs=2,
            batch_size=32,
            learning_rate=0.3,
            shuffle_seed=101,
            eval_holdout_fraction=0.25,
            rounds_target=20,
        ),
        CommunitySpec(
            community_id="C2",
            objective="heartrate-anomaly-detection",
            device_type="smartwatch",
            purpose="heart-rate monitoring",
            required_tags=["heartrate"],
            min_samples=50,
            epochs=2,
            batch_size=32,
            learning_rate=0.3,
            shuffle_seed=202,
            eval_holdout_fraction=0.25,
            rounds_target=20,
        ),
    ]
    tasks = [
        TaskSpec(task_id="M1.1a", client_id="band-01", community_id="C1"),
        TaskSpec(task_id="M1.1b", client_id="band-02", community_id="C1"),
        TaskSpec(task_id="M2.1a", client_id="watch-01", community_id="C2"),
        TaskSpec(task_id="M2.1b", client_id="watch-02", community_id="C2"),
        TaskSpec(task_id="M2.1c", client_id="watch-03", community_id="C2"),
        TaskSpec(task_id="M2.2a", client_id="watch-04", community_id="C2"),
        TaskSpec(task_id="M2.2b", client_id="watch-05", community_id="C2"),
        TaskSpec(task_id="M2.2c", client_id="watch-06", community_id="C2"),
    ]
    return ScenarioSpec(
        name="heartrate",
        seed=42,
        clients=bands + watches,
        clusters=[
            ClusterSpec(weight=0.25, feature_shift=[-9.0, -9.0]),
            ClusterSpec(weight=0.375),
            # 5 sigma shift per feature plus a label flip: the pooled problem
            # is XOR-like and provably not linearly separable
            ClusterSpec(weight=0.375, feature_shift=[5.0, 5.0], label_map={0: 1, 1: 0}),
        ],
        n_features=2,
        n_classes=2,
        samples_per_client=(240, 320),
        scheduler=SchedulerConfig(
            clients_per_round="all",
            rounds=20,
            cohort_threshold=0.88,
            min_updates_quorum=1.0,
            guard_epsilon=0.5,
            seed=42,
        ),
        communities=communities,
        tasks=tasks,
        class_sep=4.0,
    )


def _uniform() -> ScenarioSpec:
    clients = [f"u-{i:02d}" for i in range(1, 5)]
    return ScenarioSpec(
        name="uniform",
        seed=7,
        clients=clients,
        clusters=[ClusterSpec(weight=1.0)],
        n_features=2,
        n_classes=2,
        samples_per_client=(240, 320),
        scheduler=SchedulerConfig(
            clients_per_round="all",
            rounds=10,
            cohort_threshold=0.8,
            min_updates_quorum=1.0,
            guard_epsilon=0.5,
            seed=7,
        ),
        communities=[
            CommunitySpec(
                community_id="U1",
                objective="activity-recognition",
                device_type="tracker",
                required_tags=["fitness"],
                min_samples=50,
                rounds_target=10,
                shuffle_seed=303,
            )
        ],
        tasks=[
            TaskSpec(task_id=f"{cid}-t0", client_id=cid, community_id="U1") for cid in clients
        ],
        class_sep=4.0,
    )


def _drift() -> ScenarioSpec:
    """A data-rich client drifts to the other cluster; the guard starves its
    old cohort, the flag-rate rule marks it, and reclustering resolves it."""
    clients = ["d-a1", "d-a2", "d-big", "d-b1", "d-b2"]
    return ScenarioSpec(
        name="drift",
        seed=13,
        clients=clients,
        clusters=[
            ClusterSpec(weight=0.6),
            ClusterSpec(weight=0.4, feature_shift=[5.0, 5.0], label_map={0: 1, 1: 0}),
        ],
        n_features=2,
        n_classes=2,
        samples_per_client=(180, 220),
        samples_override={"d-big": 620},
        scheduler=SchedulerConfig(
            clients_per_round="all",
            rounds=14,
            cohort_threshold=0.88,
            min_updates_quorum=0.5,
            guard_epsilon=0.5,
            seed=13,
        ),
        communities=[
            CommunitySpec(
                community_id="D1",
                objective="gait-analysis",
                device_type="insole",
                required_tags=["mobility"],
                min_samples=50,
                rounds_target=14,
                shuffle_seed=404,
            )
        ],
        tasks=[
            TaskSpec(task_id=f"{cid}-t0", client_id=cid, community_id="D1") for cid in clients
        ],
        drift_events=[DriftEvent(round=4, client_id="d-big", new_cluster=1)],
        class_sep=4.0,
    )


def _poison() -> ScenarioSpec:
    """One of four clients flips every label; the guard must isolate it.

    The flipped client is data-rich (samples_override), so under sample-count
    weighting its updates measurably hurt the unguarded cohort model, and the
    class prior is imbalanced so label flipping actually moves the decision
    boundary (symmetric balanced blobs would make flip poisoning
    accuracy-neutral for a linear model).
    """
    clients = [f"p-{i:02d}" for i in range(1, 5)]
    return ScenarioSpec(
        name="poison",
        seed=11,
        clients=clients,
        clusters=[ClusterSpec(weight=1.0)],
        n_features=2,
        n_classes=2,
        samples_per_client=(200, 260),
        samples_override={"p-04": 320},
        scheduler=SchedulerConfig(
            clients_per_round="all",
            rounds=12,
            cohort_threshold=0.6,
            min_updates_quorum=0.75,
            guard_epsilon=0.5,
            seed=11,
        ),
        communities=[
            CommunitySpec(
                community_id="P1",
                objective="arrhythmia-screening",
                device_type="patch",
                required_tags=["cardio"],
                min_samples=50,
                rounds_target=12,
                shuffle_seed=505,
            )
        ],
        tasks=[
            TaskSpec(task_id=f"{cid}-t0", client_id=cid, community_id="P1") for cid in clients
        ],
        poison=[PoisonSpec(client_id="p-04", label_flip_rate=1.0)],
        class_sep=2.5,
        label_prior=[0.7, 0.3],
    )


def _dropout() -> ScenarioSpec:
    clients = [f"n-{i:02d}" for i in range(1, 5)]
    return ScenarioSpec(
        name="dropout",
        seed=5,
        clients=clients,
        clusters=[ClusterSpec(weight=1.0)],
        n_features=2,
        n_classes=2,
        samples_per_client=(200, 260),
        scheduler=SchedulerConfig(
            clients_per_round="all",
            rounds=8,
            cohort_threshold=0.8,
            min_updates_quorum=0.5,
            guard_epsilon=0.5,
            seed=5,
        ),
        communities=[
            CommunitySpec(
                community_id="N1",
                objective="fall-detection",
                device_type="pendant",
                required_tags=["safety"],
                min_samples=50,
                rounds_target=8,
                shuffle_seed=606,
            )
        ],
        tasks=[
            TaskSpec(task_id=f"{cid}-t0", client_id=cid, community_id="N1") for cid in clients
        ],
        faults=[
            FaultSpec(round=2, client_id="n-03", kind="drop"),
            FaultSpec(round=3, client_id="n-02", kind="delay"),
            FaultSpec(round=5, client_id="n-01", kind="drop"),
            FaultSpec(round=5, client_id="n-02", kind="drop"),
            FaultSpec(round=5, client_id="n-03", kind="drop"),
        ],
        class_sep=4.0,
    )


def builtin_scenarios() -> dict[str, ScenarioSpec]:
    """Named, validated scenario specs shipped with the package."""
    specs = {}
    for build in (_heartrate, _uniform, _drift, _poison, _dropout):
        spec = build()
        spec.validate()
        specs[spec.name] = spec
    return specs


# -- socket-mode export -----------------------------------------------------------


def export_socket_bundle(spec: ScenarioSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write server config plus per-client data/metadata/task files so the same
    scenario can run over TCP with ``communityfl serve`` / ``communityfl client``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = generate(spec)
    paths: dict[str, Path] = {}

    server_config = {
        "scheduler": spec_to_doc(spec)["scheduler"],
        "communities": [netproto.to_doc(c) for c in data.communities],
        "expected_tasks": len(data.tasks),
        "recv_timeout_s": 30.0,
    }
    paths["server"] = out / "server_config.json"
    paths["server"].write_text(json.dumps(server_config, indent=2, sort_keys=True) + "\n")

    tasks_by_client: dict[str, list] = {}
    for task in data.tasks:
        tasks_by_client.setdefault(task.client_id, []).append(task)
    for client in data.clients:
        base = out / client.client_id
        data_doc = {
            "features": client.dataset.features.tolist(),
            "labels": client.dataset.labels.tolist(),
            "n_classes": client.dataset.n_classes,
        }
        (base.parent / f"{client.client_id}.data.json").write_text(
            json.dumps(data_doc, sort_keys=True) + "\n"
        )
        (base.parent / f"{client.client_id}.metadata.json").write_text(
            json.dumps(netproto.to_doc(client.metadata), indent=2, sort_keys=True) + "\n"
        )
        tasks = tasks_by_client.get(client.client_id, [])
        if tasks:
            (base.parent / f"{client.client_id}.task.json").write_text(
                json.dumps(netproto.to_doc(tasks[0]), indent=2, sort_keys=True) + "\n"
            )
    return paths
