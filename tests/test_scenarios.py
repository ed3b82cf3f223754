import itertools
import json

import numpy as np
import pytest

from communityfl import scenarios
from communityfl.community import form_cohorts, similarity
from communityfl.errors import ConfigError
from communityfl.flcore import FlPopulation
from communityfl.orchestrator import SchedulerConfig
from communityfl.scenarios import (
    ClusterSpec,
    CommunitySpec,
    DriftEvent,
    ScenarioSpec,
    TaskSpec,
    apply_drift,
    builtin_scenarios,
    cluster_assignment,
    generate,
)


def _basic_spec(**kwargs) -> ScenarioSpec:
    clients = kwargs.pop("clients", [f"c-{i}" for i in range(4)])
    defaults = dict(
        name="basic",
        seed=1,
        clients=clients,
        clusters=[ClusterSpec(weight=1.0)],
        n_features=2,
        n_classes=2,
        samples_per_client=(600, 700),
        scheduler=SchedulerConfig(seed=1),
        communities=[CommunitySpec(community_id="X", objective="obj", device_type="dev")],
        tasks=[TaskSpec(task_id=f"{c}-t", client_id=c, community_id="X") for c in clients],
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def test_builtins_validate_and_have_expected_names():
    specs = builtin_scenarios()
    assert set(specs) == {"heartrate", "uniform", "drift", "poison", "dropout"}
    for spec in specs.values():
        spec.validate()


def test_heartrate_structure():
    spec = builtin_scenarios()["heartrate"]
    assert len(spec.communities) == 2
    assignment = cluster_assignment(spec)
    # population 2's two planted clusters: watch-01..03 vs watch-04..06
    assert {assignment[f"watch-{i:02d}"] for i in (1, 2, 3)} == {1}
    assert {assignment[f"watch-{i:02d}"] for i in (4, 5, 6)} == {2}
    assert {assignment[c] for c in ("band-01", "band-02")} == {0}
    data = generate(spec)
    configs = {t.config.key() for t in data.tasks}
    assert len(configs) == 2  # one config per community -> two populations


def test_single_cluster_zero_shift_high_similarity():
    # enough samples that sampling noise stays well below the 0.95 line
    spec = _basic_spec(class_sep=2.0, samples_per_client=(1500, 1600))
    data = generate(spec)
    sigs = [c.metadata.data_signature for c in data.clients]
    for a, b in itertools.combinations(sigs, 2):
        assert similarity(a, b) > 0.95


def test_two_clusters_five_sigma_margin():
    spec = _basic_spec(
        name="margin",
        seed=3,
        clients=[f"m-{i}" for i in range(6)],
        clusters=[
            ClusterSpec(weight=0.5),
            ClusterSpec(weight=0.5, feature_shift=[5.0, 5.0], label_map={0: 1, 1: 0}),
        ],
        samples_per_client=(800, 900),
        label_prior=[0.6, 0.4],
        class_sep=2.0,
        tasks=[
            TaskSpec(task_id=f"m-{i}-t", client_id=f"m-{i}", community_id="X") for i in range(6)
        ],
    )
    data = generate(spec)
    by_cluster: dict[int, list] = {}
    for client in data.clients:
        by_cluster.setdefault(client.cluster_index, []).append(client.metadata.data_signature)
    intra = [
        similarity(a, b)
        for group in by_cluster.values()
        for a, b in itertools.combinations(group, 2)
    ]
    inter = [similarity(a, b) for a in by_cluster[0] for b in by_cluster[1]]
    assert max(inter) < min(intra)
    assert min(intra) - max(inter) > 0.2


def test_generation_deterministic_bit_identical():
    spec = builtin_scenarios()["heartrate"]
    a = generate(spec)
    b = generate(spec)
    for ca, cb in zip(a.clients, b.clients):
        assert np.array_equal(ca.dataset.features, cb.dataset.features)
        assert np.array_equal(ca.dataset.labels, cb.dataset.labels)
        assert ca.n_samples == cb.n_samples


def test_separation_monotone_in_shift_magnitude():
    def mean_inter(shift):
        spec = _basic_spec(
            name=f"shift-{shift}",
            clients=[f"s-{i}" for i in range(6)],
            clusters=[
                ClusterSpec(weight=0.5),
                ClusterSpec(weight=0.5, feature_shift=[shift, shift]),
            ],
            tasks=[
                TaskSpec(task_id=f"s-{i}-t", client_id=f"s-{i}", community_id="X")
                for i in range(6)
            ],
        )
        data = generate(spec)
        by_cluster: dict[int, list] = {}
        for client in data.clients:
            by_cluster.setdefault(client.cluster_index, []).append(
                client.metadata.data_signature
            )
        sims = [similarity(a, b) for a in by_cluster[0] for b in by_cluster[1]]
        return sum(sims) / len(sims)

    levels = [mean_inter(s) for s in (1.0, 3.0, 5.0)]
    assert levels[0] > levels[1] > levels[2]


def test_drift_changes_only_the_target_client():
    spec = _basic_spec(
        clusters=[ClusterSpec(weight=0.5), ClusterSpec(weight=0.5, feature_shift=[6.0, 6.0])],
        drift_events=[DriftEvent(round=2, client_id="c-0", new_cluster=1)],
    )
    before = generate(spec)
    untouched_before = {
        c.client_id: c.dataset.features.copy() for c in before.clients if c.client_id != "c-0"
    }
    target_before = before.client("c-0").dataset.features.copy()
    apply_drift(before, spec.drift_events[0])
    target_after = before.client("c-0").dataset.features
    assert target_after.shape == target_before.shape  # sample count preserved
    assert np.any(target_after != target_before)
    for client in before.clients:
        if client.client_id != "c-0":
            assert np.array_equal(client.dataset.features, untouched_before[client.client_id])


def test_drift_regeneration_deterministic():
    spec = _basic_spec(
        clusters=[ClusterSpec(weight=0.5), ClusterSpec(weight=0.5, feature_shift=[6.0, 6.0])],
        drift_events=[DriftEvent(round=2, client_id="c-0", new_cluster=1)],
    )
    a = generate(spec)
    b = generate(spec)
    da = apply_drift(a, spec.drift_events[0])
    db = apply_drift(b, spec.drift_events[0])
    assert np.array_equal(da.features, db.features)
    assert np.array_equal(da.labels, db.labels)


def test_poison_flips_labels_at_full_rate():
    clean = _basic_spec(name="pp")
    flipped = _basic_spec(
        name="pp", poison=[scenarios.PoisonSpec(client_id="c-0", label_flip_rate=1.0)]
    )
    a = generate(clean).client("c-0").dataset
    b = generate(flipped).client("c-0").dataset
    assert np.array_equal(a.features, b.features)
    assert np.all(a.labels != b.labels)  # every label moved to the next class


def test_label_map_relabels_like_dict_lookup():
    label_map = {0: 2, 2: 0}  # label 1 stays unmapped
    raw_spec = _basic_spec(n_classes=3)
    mapped_spec = _basic_spec(n_classes=3, clusters=[ClusterSpec(weight=1.0, label_map=label_map)])
    raw = scenarios.generate_client_dataset(raw_spec, "c-0", 0, 500, "data").labels
    mapped = scenarios.generate_client_dataset(mapped_spec, "c-0", 0, 500, "data").labels
    reference = np.array([label_map.get(int(y), int(y)) for y in raw])
    assert set(raw.tolist()) == {0, 1, 2}
    assert mapped.dtype == reference.dtype == np.int64
    assert np.array_equal(mapped, reference)


def test_uniform_builtin_single_cohort_up_to_090():
    spec = builtin_scenarios()["uniform"]
    data = generate(spec)
    population = FlPopulation(
        population_id="pop-u",
        config=data.tasks[0].config,
        member_task_ids={t.task_id for t in data.tasks},
    )
    signatures = {t.task_id: t.data_signature for t in data.tasks}
    for tau in (0.3, 0.8, 0.9):
        assert len(form_cohorts(population, signatures, tau, seed=1)) == 1


def test_cluster_assignment_largest_remainder():
    spec = builtin_scenarios()["heartrate"]
    counts: dict[int, int] = {}
    for cluster in cluster_assignment(spec).values():
        counts[cluster] = counts.get(cluster, 0) + 1
    assert counts == {0: 2, 1: 3, 2: 3}


def test_spec_json_roundtrip(tmp_path):
    spec = builtin_scenarios()["drift"]
    path = tmp_path / "drift.json"
    scenarios.dump_spec(spec, path)
    loaded = scenarios.load_spec(path)
    assert loaded == spec


def test_spec_validation_errors():
    with pytest.raises(ConfigError):
        _basic_spec(clusters=[ClusterSpec(weight=0.5)]).validate()  # weights << 1
    with pytest.raises(ConfigError):
        _basic_spec(
            drift_events=[DriftEvent(round=1, client_id="ghost", new_cluster=0)]
        ).validate()
    with pytest.raises(ConfigError):
        _basic_spec(
            clusters=[ClusterSpec(weight=1.0, label_map={0: 5})],
        ).validate()
    with pytest.raises(ConfigError):
        _basic_spec(
            faults=[scenarios.FaultSpec(round=1, client_id="c-0", kind="explode")]
        ).validate()


def test_spec_unknown_field_rejected():
    doc = scenarios.spec_to_doc(builtin_scenarios()["uniform"])
    doc["gpu_budget"] = 9
    with pytest.raises(ConfigError):
        scenarios.spec_from_doc(doc)


def test_load_spec_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        scenarios.load_spec(path)
    path2 = tmp_path / "incomplete.json"
    path2.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ConfigError):
        scenarios.load_spec(path2)


def test_export_socket_bundle(tmp_path):
    spec = builtin_scenarios()["uniform"]
    scenarios.export_socket_bundle(spec, tmp_path)
    config = json.loads((tmp_path / "server_config.json").read_text())
    assert config["expected_tasks"] == len(spec.tasks)
    for client_id in spec.clients:
        data_doc = json.loads((tmp_path / f"{client_id}.data.json").read_text())
        assert data_doc["n_classes"] == spec.n_classes
        assert len(data_doc["features"]) == len(data_doc["labels"])
        assert (tmp_path / f"{client_id}.metadata.json").exists()
        assert (tmp_path / f"{client_id}.task.json").exists()
