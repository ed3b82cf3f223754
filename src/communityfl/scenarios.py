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
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import netproto
from .community import (
    CollaborationCriteria,
    Community,
    DataSignature,
    ParticipantMetadata,
    block_signatures,
)
from .errors import ConfigError, PlanError
from .flcore import ConfigSignature, FlPlan, FlTask
from .hashing import stable_u64, streams
from .orchestrator import Coordinator, SchedulerConfig, _is_finite_real, _is_int
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

    def check(self, client_id: str, known: set[str] | None = None):
        """Raise ``ConfigError`` unless the battery is a finite number in
        [0, 1] and the neighbors and trusted ids are lists of client ids (of
        ``known`` ones, when given)."""
        battery = self.battery
        if not (_is_finite_real(battery) and 0 <= battery <= 1):
            raise ConfigError(
                f"battery of {client_id} must be a finite number in [0, 1], got {battery!r}"
            )
        for name in ("neighbors", "trusted"):
            ids = getattr(self, name)
            if not (
                isinstance(ids, (list, tuple))
                and all(isinstance(i, str) and (known is None or i in known) for i in ids)
            ):
                what = "client ids" if known is None else "known client ids"
                raise ConfigError(
                    f"{name} of {client_id} must be a list of {what}, got {ids!r}"
                )


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


@dataclass
class TaskSpec:
    task_id: str
    client_id: str
    community_id: str
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
        for client_id in self.clients:
            if not isinstance(client_id, str):
                raise ConfigError(f"client ids must be strings, got {client_id!r}")
        if len(set(self.clients)) != len(self.clients):
            raise ConfigError("client ids must be unique")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an int, got {self.seed!r}")
        if not self.clusters:
            raise ConfigError("scenario defines no clusters")
        for cluster in self.clusters:
            weight = cluster.weight
            if not (_is_finite_real(weight) and weight >= 0):
                raise ConfigError(f"cluster weight must be a finite number >= 0, got {weight!r}")
        total = sum(c.weight for c in self.clusters)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"cluster weights must sum to 1, got {total}")
        for value in (self.n_features, self.n_classes):
            if not _is_int(value):
                raise ConfigError(f"n_features and n_classes must be ints, got {value!r}")
        if self.n_features < 1 or self.n_classes < 2:
            raise ConfigError("need n_features >= 1 and n_classes >= 2")
        counts = self.samples_per_client
        if not (
            isinstance(counts, (list, tuple))
            and len(counts) == 2
            and all(map(_is_int, counts))
            and 1 <= counts[0] <= counts[1]
        ):
            raise ConfigError(
                f"samples_per_client must be ints (lo, hi) with 1 <= lo <= hi, got {counts!r}"
            )
        if not _is_scale(self.class_sep):
            raise ConfigError(
                f"class_sep must be a finite number of magnitude <= {_MAX_SCALE:g}, "
                f"got {self.class_sep!r}"
            )
        if not (_is_scale(self.feature_std) and self.feature_std >= 0):
            raise ConfigError(
                f"feature_std must be a finite number >= 0 and <= {_MAX_SCALE:g}, "
                f"got {self.feature_std!r}"
            )
        if self.label_prior is not None:
            prior = self.label_prior
            if not isinstance(prior, (list, tuple)) or len(prior) != self.n_classes:
                raise ConfigError("label_prior must be a list of n_classes numbers")
            # a NaN fails every comparison, so finiteness is checked first
            if not all(_is_finite_real(p) and p >= 0 for p in prior) or abs(sum(prior) - 1) > 1e-9:
                raise ConfigError(f"label_prior must be a probability vector, got {prior!r}")
        for cluster in self.clusters:
            shift = cluster.feature_shift
            if shift is not None:
                if not isinstance(shift, (list, tuple)) or len(shift) != self.n_features:
                    raise ConfigError("feature_shift length must equal n_features")
                if not all(map(_is_scale, shift)):
                    raise ConfigError(
                        f"feature_shift must hold finite numbers of magnitude <= {_MAX_SCALE:g}, "
                        f"got {shift!r}"
                    )
            if cluster.label_map is not None:
                if not all(map(_is_int, [*cluster.label_map, *cluster.label_map.values()])):
                    raise ConfigError(
                        f"label_map must map int labels to int labels, got {cluster.label_map!r}"
                    )
                keys = set(cluster.label_map)
                values = set(cluster.label_map.values())
                valid = set(range(self.n_classes))
                if not (keys <= valid and values <= valid):
                    raise ConfigError("label_map refers to labels outside [0, n_classes)")
        # a community is built, and so checked, as the run builds it
        built = {}
        for cspec in self.communities:
            owner = f"community {cspec.community_id!r}"
            _check_types(owner, vars(cspec), CommunitySpec)
            try:
                community = build_community(cspec, self.n_features, self.n_classes)
            except (ConfigError, PlanError) as exc:
                raise ConfigError(f"{owner}: {exc}") from None
            built[cspec.community_id] = (cspec, community)
        for task in self.tasks:
            _check_types(f"task {task.task_id!r}", vars(task), TaskSpec)
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
        # a client id is looked up in a set and a round compared with ints,
        # so a value of another type would raise or never match
        for event in self.drift_events:
            _check_entry("drift event", event, ("round", "new_cluster"))
            if event.client_id not in known:
                raise ConfigError("drift event references unknown client")
            if not 0 <= event.new_cluster < len(self.clusters):
                raise ConfigError("drift event references unknown cluster")
            if event.round < 1:
                raise ConfigError("drift round is 1-based")
        for p in self.poison:
            _check_entry("poison spec", p, ())
            if p.client_id not in known:
                raise ConfigError("poison spec references unknown client")
            if not (_is_finite_real(p.label_flip_rate) and 0.0 <= p.label_flip_rate <= 1.0):
                raise ConfigError(
                    f"label_flip_rate must be a number in [0,1], got {p.label_flip_rate!r}"
                )
        for fault in self.faults:
            _check_entry("fault", fault, ("round",))
            if fault.client_id not in known:
                raise ConfigError("fault references unknown client")
            if fault.kind not in ("drop", "delay"):
                raise ConfigError(f"unknown fault kind {fault.kind!r}")
            if fault.round < 1:
                raise ConfigError("fault round is 1-based")
        for client_id, count in self.samples_override.items():
            if client_id not in known:
                raise ConfigError("samples_override references unknown client")
            if not _is_int(count) or count < 1:
                raise ConfigError(
                    f"samples_override for {client_id} must be an int >= 1, got {count!r}"
                )
        for client_id, resource in self.resources.items():
            if client_id not in known:
                raise ConfigError("resources entry references unknown client")
            resource.check(client_id, known)
        # each task's plan, as the coordinator builds it at submission; tasks
        # without overrides share their community's default plan
        plain = set()
        for task in self.tasks:
            if not task.plan_overrides and task.community_id in plain:
                continue
            owner = f"task {task.task_id!r}"
            # merge_plan refuses an override that names no plan field
            overrides = {k: v for k, v in task.plan_overrides.items() if k in _FIELD_TYPES[FlPlan]}
            _check_types(f"{owner} plan override", overrides, FlPlan)
            cspec, community = built[task.community_id]
            try:
                Coordinator.build_plan(build_task(task, community, cspec.device_type), community)
            except PlanError as exc:
                raise ConfigError(f"{owner}: {exc}") from None
            if not task.plan_overrides:
                plain.add(task.community_id)


def _check_entry(owner: str, entry, int_fields: tuple[str, ...]):
    """Refuse a drift, poison or fault entry whose client id is not a string
    or whose ``int_fields`` are not ints."""
    if not isinstance(entry.client_id, str):
        raise ConfigError(f"{owner}: client_id must be a string, got {entry.client_id!r}")
    for name in int_fields:
        value = getattr(entry, name)
        if not _is_int(value):
            raise ConfigError(f"{owner}: {name} must be an int, got {value!r}")


# the check and its description for each field annotation of CommunitySpec,
# TaskSpec and FlPlan (a plan override sets a FlPlan field)
_TYPE_CHECKS = {
    "str": (lambda value: isinstance(value, str), "a string"),
    "int": (_is_int, "an int"),
    "float": (_is_finite_real, "a finite number"),
    # a string is a sequence too, but it would become a set of characters
    "list[str]": (
        lambda value: isinstance(value, (list, tuple)) and all(isinstance(t, str) for t in value),
        "a list of strings",
    ),
    "dict[str, float | int]": (lambda value: isinstance(value, dict), "an object"),
}
_FIELD_TYPES = {
    cls: {f.name: f.type for f in fields(cls)} for cls in (CommunitySpec, TaskSpec, FlPlan)
}


def _check_types(owner: str, values: dict, record: type):
    """Refuse a value of a type the run cannot use: the wire would cast or
    refuse it, or a comparison with it would raise or pass by accident
    (``True`` is no epoch count)."""
    for name, value in values.items():
        check, description = _TYPE_CHECKS[_FIELD_TYPES[record][name]]
        if not check(value):
            raise ConfigError(f"{owner}: {name} must be {description}, got {value!r}")


# The largest class_sep, feature_std or feature_shift entry. A data signature
# sums each feature over a client's samples and squares its deviations from
# the mean; at 1e155 those squares overflow to inf. Below 1e100 a feature
# stays under 1e110 for any class count that fits in memory, so its square
# and any sum of them stay far inside the float range.
_MAX_SCALE = 1e100


def _is_scale(value) -> bool:
    return _is_finite_real(value) and abs(value) <= _MAX_SCALE


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


@dataclass(frozen=True)
class _Mixture:
    """The constants of a scenario's blob mixture, computed once per scenario
    and shared by every client drawn from it: the cumulative label prior, the
    class centres, and each cluster's feature shift and label lookup table."""

    cdf: np.ndarray
    centers: np.ndarray
    shifts: list[np.ndarray | None]
    luts: list[np.ndarray | None]


def _mixture(spec: ScenarioSpec) -> _Mixture:
    prior = (
        np.asarray(spec.label_prior, dtype=np.float64)
        if spec.label_prior is not None
        else np.full(spec.n_classes, 1.0 / spec.n_classes)
    )
    # Generator.choice(n, p=prior) builds this CDF on every call
    cdf = prior.cumsum()
    cdf /= cdf[-1]
    centers = np.zeros((spec.n_classes, spec.n_features), dtype=np.float64)
    centers[:, 0] = np.arange(spec.n_classes) * spec.class_sep
    shifts, luts = [], []
    for cluster in spec.clusters:
        shift = cluster.feature_shift
        shifts.append(None if shift is None else np.asarray(shift, dtype=np.float64))
        lut = None
        if cluster.label_map is not None:
            lut = np.arange(spec.n_classes)
            lut[list(cluster.label_map)] = list(cluster.label_map.values())
        luts.append(lut)
    return _Mixture(cdf, centers, shifts, luts)


# features per chunk of clients that generate draws together (256 KB)
_CHUNK_VALUES = 1 << 15


def generate_client_dataset(
    spec: ScenarioSpec, client_id: str, cluster_index: int, n_samples: int, stream: str
) -> Dataset:
    """Draw one client's dataset from its cluster's transformed blob mixture."""
    return _draw(spec, _mixture(spec), [(client_id, cluster_index)], [n_samples], stream)


def _draw(
    spec: ScenarioSpec,
    mixture: _Mixture,
    clients: list[tuple[str, int]],
    counts: list[int],
    stream: str,
) -> Dataset:
    """The rows of every (client id, cluster index) in ``clients`` as one
    checked dataset: client i's ``counts[i]`` rows follow client i-1's.

    Each client draws from its own seeded streams, as it would alone, into
    its block of buffers shared by all of them; the streams of many clients
    are seeded together (``hashing.streams``), in the states their own
    ``default_rng`` would start from. Everything after the draws is
    elementwise and runs once over all rows, so each row holds the bits a
    lone draw gives it."""
    total = sum(counts)
    uniforms = np.empty(total)
    features = np.empty((total, spec.n_features))
    flip_rates: dict[str, float] = {}
    for p in spec.poison:
        flip_rates.setdefault(p.client_id, p.label_flip_rate)
    runs: list[list[int]] = []  # [cluster index, start, stop] of consecutive clients
    poisoned: list[tuple[str, float, int, int]] = []
    start = 0
    rngs = streams([stable_u64(spec.seed, stream, client_id) for client_id, _ in clients])
    for (client_id, cluster_index), n, rng in zip(clients, counts, rngs):
        stop = start + n
        # the uniforms of rng.choice(n_classes, size=n, p=prior), then the noise
        rng.random(out=uniforms[start:stop])
        rng.standard_normal(out=features[start:stop])
        if runs and runs[-1][0] == cluster_index:
            runs[-1][2] = stop
        else:
            runs.append([cluster_index, start, stop])
        flip_rate = flip_rates.get(client_id, 0.0)
        if flip_rate > 0.0:
            poisoned.append((client_id, flip_rate, start, stop))
        start = stop
    labels = mixture.cdf.searchsorted(uniforms, side="right")
    # centers[labels] + feature_std * noise, in place: both operations commute
    features *= spec.feature_std
    features += mixture.centers[labels]
    for cluster_index, start, stop in runs:
        shift = mixture.shifts[cluster_index]
        if shift is not None:
            features[start:stop] += shift
        lut = mixture.luts[cluster_index]
        if lut is not None:
            labels[start:stop] = lut[labels[start:stop]]
    poison_rngs = streams([stable_u64(spec.seed, "poison", c) for c, _, _, _ in poisoned])
    for (_, flip_rate, start, stop), poison_rng in zip(poisoned, poison_rngs):
        mask = poison_rng.random(stop - start) < flip_rate
        block = labels[start:stop]
        np.copyto(block, (block + 1) % spec.n_classes, where=mask)
    return Dataset(features=features, labels=labels, n_classes=spec.n_classes)


def _sample_counts(spec: ScenarioSpec) -> list[int]:
    """Each client's sample count, in client order: its override, or a draw
    from its own seeded stream."""
    drawn = [c for c in spec.clients if c not in spec.samples_override]
    rngs = streams([stable_u64(spec.seed, "count", client_id) for client_id in drawn])
    lo, hi = spec.samples_per_client
    counts = {client_id: int(rng.integers(lo, hi + 1)) for client_id, rng in zip(drawn, rngs)}
    for client_id, n in spec.samples_override.items():
        counts[client_id] = int(n)
    return [counts[client_id] for client_id in spec.clients]


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
        ),
    )


def build_task(task_spec: TaskSpec, community: Community, device_type: str) -> FlTask:
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

    mixture = _mixture(spec)
    counts = _sample_counts(spec)
    datasets: list[Dataset] = []
    signatures: list[DataSignature] = []
    # the clients are drawn a chunk at a time, each chunk's buffers holding
    # about _CHUNK_VALUES features: buffers the size of the population would
    # not fit in the heap memory that earlier work freed, and would add their
    # size to the peak resident memory
    step = max(1, _CHUNK_VALUES // (spec.samples_per_client[1] * spec.n_features))
    for first in range(0, spec.n_clients, step):
        ids, chunk_counts = spec.clients[first : first + step], counts[first : first + step]
        chunk = _draw(spec, mixture, [(c, assignment[c]) for c in ids], chunk_counts, "data")
        signatures += block_signatures(chunk, chunk_counts)
        start = 0
        for n in chunk_counts:
            # the client's own read-only copy of its rows
            datasets.append(chunk.rows(slice(start, start + n)))
            start += n
    clients: list[GeneratedClient] = []
    for client_id, n, dataset, signature in zip(spec.clients, counts, datasets, signatures):
        community_id = community_of_client.get(client_id)
        cspec = community_specs.get(community_id) if community_id else None
        tags = frozenset(cspec.required_tags) if cspec else frozenset()
        metadata = ParticipantMetadata(
            participant_id=client_id,
            device_type=cspec.device_type if cspec else "device",
            interests=tags,
            expertise=frozenset(),
            data_signature=signature,
        )
        clients.append(
            GeneratedClient(
                client_id=client_id,
                cluster_index=assignment[client_id],
                n_samples=n,
                dataset=dataset,
                metadata=metadata,
                resources=spec.resources.get(client_id, ResourceSpec()),
            )
        )

    tasks = []
    for task_spec in spec.tasks:
        community = community_by_id[task_spec.community_id]
        device_type = community_specs[task_spec.community_id].device_type
        tasks.append(build_task(task_spec, community, device_type))
    tasks.sort(key=lambda t: t.task_id)
    return ScenarioData(spec=spec, clients=clients, communities=communities, tasks=tasks)


def apply_drift(data: ScenarioData, event: DriftEvent) -> Dataset:
    """The drifted client's data, regenerated from its new cluster distribution.

    The sample count is preserved; the RNG stream is keyed by (seed, client,
    round) so repeated runs drift identically. ``data`` stays as
    :func:`generate` made it: the client that receives the dataset owns it.
    """
    return generate_client_dataset(
        data.spec,
        event.client_id,
        event.new_cluster,
        data.client(event.client_id).n_samples,
        f"drift:{event.round}",
    )


# -- JSON serialization ---------------------------------------------------------


def spec_to_doc(spec: ScenarioSpec) -> dict:
    doc = asdict(spec)
    doc["samples_per_client"] = list(spec.samples_per_client)
    for cluster in doc["clusters"]:
        if cluster["label_map"] is not None:
            cluster["label_map"] = {str(k): v for k, v in cluster["label_map"].items()}
    return doc


_SPEC_KEYS = {f.name for f in fields(ScenarioSpec)}


def _label_map(cluster_doc: dict) -> dict[int, int] | None:
    """A cluster's label map with each JSON key read as the label it writes;
    ``validate`` checks the values."""
    label_map = cluster_doc.get("label_map")
    if not label_map:
        return None
    if not isinstance(label_map, dict):
        raise ConfigError(f"label_map must be an object, got {label_map!r}")
    for key in label_map:
        # int() also reads " 1", "+1", "01" and "1_0": two keys could name one label
        if not (isinstance(key, str) and key.isascii() and key.isdigit() and str(int(key)) == key):
            raise ConfigError(f"label_map keys must be labels written in decimal, got {key!r}")
    return {int(k): v for k, v in label_map.items()}


def spec_from_doc(doc: dict) -> ScenarioSpec:
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
    try:
        clusters = [ClusterSpec(**{**c, "label_map": _label_map(c)}) for c in doc["clusters"]]
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
    """Write server config plus per-client data/metadata/resources/task files
    so the same scenario can run over TCP with ``communityfl serve`` /
    ``communityfl client``."""
    # a client session submits one task, and serve waits for every task in
    # expected_tasks: a client with two would keep it waiting to its timeout
    for client_id, count in Counter(task.client_id for task in spec.tasks).items():
        if count > 1:
            raise ConfigError(
                f"client {client_id!r} has {count} tasks; a socket session carries one"
            )
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

    tasks_by_client = {task.client_id: task for task in data.tasks}
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
        # what a device knows of its own battery and neighbors
        (base.parent / f"{client.client_id}.resources.json").write_text(
            json.dumps(asdict(client.resources), indent=2, sort_keys=True) + "\n"
        )
        task = tasks_by_client.get(client.client_id)
        if task is not None:
            (base.parent / f"{client.client_id}.task.json").write_text(
                json.dumps(netproto.to_doc(task), indent=2, sort_keys=True) + "\n"
            )
    return paths
