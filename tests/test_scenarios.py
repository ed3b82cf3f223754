import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from communityfl import scenarios
from communityfl.community import form_cohorts, signature_from_dataset, similarity
from communityfl.errors import ConfigError
from communityfl.flcore import FlPopulation
from communityfl.hashing import stable_u64
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
    features_before = {c.client_id: c.dataset.features.copy() for c in before.clients}
    target_after = apply_drift(before, spec.drift_events[0]).features
    target_before = features_before["c-0"]
    assert target_after.shape == target_before.shape  # sample count preserved
    assert np.any(target_after != target_before)
    # the drifted dataset goes to its client; the generated scenario is unchanged
    for client in before.clients:
        assert np.array_equal(client.dataset.features, features_before[client.client_id])


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
    signatures = {t.task_id: data.client(t.client_id).metadata.data_signature for t in data.tasks}
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
    # each of these passed validation, then failed in generation or ran
    nan, inf = float("nan"), float("inf")
    for fields in (
        {"label_prior": [nan, 0.3]},
        {"label_prior": [0.7, nan]},
        {"label_prior": ["a", "b"]},
        {"label_prior": [True, False]},
        {"seed": 1.5},
        {"seed": True},
        {"class_sep": "x"},
        {"class_sep": inf},
        {"class_sep": nan},
        {"feature_std": nan},
        {"feature_std": inf},
        {"feature_std": -1.0},
        {"samples_per_client": (20.5, 30)},
        {"samples_per_client": (20, 30, 40)},
        {"samples_per_client": (True, 30)},
        {"clusters": [ClusterSpec(weight=nan)]},
        {"clusters": [ClusterSpec(weight=1.0, feature_shift=[nan, 0.0])]},
        {"clusters": [ClusterSpec(weight=1.0, label_map={0: True})]},
        {"clusters": [ClusterSpec(weight=1.0, label_map={0: 1.0})]},
        {"clusters": [ClusterSpec(weight=1.0, label_map={0.0: 1})]},
    ):
        with pytest.raises(ConfigError):
            _basic_spec(**fields).validate()
    # each of these community or task fields of the uniform builtin was
    # checked only when the run used it: it ended in a TypeError, ran with
    # a value the wire casts or the run misreads, or failed in generation,
    # at registration or on the wire
    for section, fields, message in (
        ("communities", {"epochs": "2"}, "'U1': epochs must be an int, got '2'"),
        ("communities", {"min_samples": "50"}, "'U1': min_samples must be an int"),
        ("communities", {"epochs": True}, "'U1': epochs must be an int, got True"),
        ("communities", {"required_tags": "fitness"}, "required_tags must be a list of strings"),
        ("communities", {"shuffle_seed": 1.5}, "'U1': shuffle_seed must be an int, got 1.5"),
        ("communities", {"learning_rate": nan}, "learning_rate must be a finite number"),
        ("communities", {"eval_holdout_fraction": 1.0}, "eval_holdout_fraction must be in (0,1)"),
        ("communities", {"batch_size": 64}, "batch_size 64 exceeds the community's minimum"),
        ("tasks", {"plan_overrides": {"epochs": "3"}}, "plan override: epochs must be an int"),
    ):
        doc = scenarios.spec_to_doc(builtin_scenarios()["uniform"])
        doc[section][0].update(fields)
        with pytest.raises(ConfigError) as err:
            scenarios.spec_from_doc(doc)
        assert message in str(err.value)
    # each of these client ids or drift, poison and fault entries ended in a
    # TypeError traceback, or (the fractional fault round) ran and never fired
    drift = {"round": 2, "client_id": "u-01", "new_cluster": 0}
    poison = {"client_id": "u-01", "label_flip_rate": 0.5}
    for name, path, value, message in (
        ("uniform", ("clients", 0), ["u-01"], "client ids must be strings, got ['u-01']"),
        ("uniform", ("drift_events",), [{**drift, "round": "2"}], "round must be an int, got '2'"),
        ("uniform", ("drift_events",), [{**drift, "client_id": ["x"]}], "client_id must be a str"),
        ("uniform", ("drift_events",), [{**drift, "new_cluster": 0.0}], "new_cluster must be an"),
        (
            "uniform",
            ("poison",),
            [{**poison, "label_flip_rate": "0.5"}],
            "label_flip_rate must be a number in [0,1], got '0.5'",
        ),
        ("uniform", ("poison",), [{**poison, "client_id": ["u-01"]}], "poison spec: client_id"),
        ("dropout", ("faults", 0, "round"), 1.5, "fault: round must be an int, got 1.5"),
        ("dropout", ("faults", 0, "client_id"), 7, "fault: client_id must be a string, got 7"),
    ):
        doc = scenarios.spec_to_doc(builtin_scenarios()[name])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            scenarios.spec_from_doc(doc)
        assert message in str(err.value)


def test_spec_unknown_field_rejected():
    doc = scenarios.spec_to_doc(builtin_scenarios()["uniform"])
    doc["gpu_budget"] = 9
    with pytest.raises(ConfigError):
        scenarios.spec_from_doc(doc)


def test_spec_unknown_cluster_field_rejected():
    # a misspelt feature_shift would otherwise load as an unshifted cluster
    doc = scenarios.spec_to_doc(builtin_scenarios()["uniform"])
    doc["clusters"][0]["featureshift"] = [9.0, 9.0]
    with pytest.raises(ConfigError) as err:
        scenarios.spec_from_doc(doc)
    assert "featureshift" in str(err.value)


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


def test_export_socket_bundle_refuses_a_client_with_two_tasks(tmp_path):
    # a session submits one task, so serve would wait for the second one
    # until its ready timeout
    spec = builtin_scenarios()["uniform"]
    spec.tasks.append(TaskSpec(task_id="u-01-t1", client_id="u-01", community_id="U1"))
    with pytest.raises(ConfigError) as exc:
        scenarios.export_socket_bundle(spec, tmp_path)
    assert str(exc.value) == "client 'u-01' has 2 tasks; a socket session carries one"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_generate_draws_each_client_as_generate_client_dataset_does(name):
    # generate draws and transforms its clients a chunk at a time; every client
    # must still get the dataset, and the signature, that drawing it alone gives
    spec = builtin_scenarios()[name]
    assignment = cluster_assignment(spec)
    for client in generate(spec).clients:
        alone = scenarios.generate_client_dataset(
            spec, client.client_id, assignment[client.client_id], client.n_samples, "data"
        )
        assert client.dataset.features.tobytes() == alone.features.tobytes()
        assert client.dataset.labels.tobytes() == alone.labels.tobytes()
        signature, expected = client.metadata.data_signature, signature_from_dataset(alone)
        for field in ("per_feature_mean", "per_feature_std", "label_histogram"):
            assert getattr(signature, field).tobytes() == getattr(expected, field).tobytes()
        assert signature.n_samples == expected.n_samples == client.n_samples


def test_population_generation_is_pinned():
    # 1,600 clients in two clusters, the second shifted and relabelled, with
    # one poisoned client and one sample-count override; pinned on the
    # generator that drew and checked each client on its own
    clients = [f"p-{i:04d}" for i in range(1600)]
    spec = _basic_spec(
        name="population",
        seed=2024,
        clients=clients,
        clusters=[
            ClusterSpec(weight=0.4),
            ClusterSpec(weight=0.6, feature_shift=[5.0, -3.5], label_map={0: 2, 2: 0}),
        ],
        n_classes=3,
        label_prior=[0.5, 0.3, 0.2],
        samples_per_client=(20, 90),
        samples_override={"p-0007": 333},
        poison=[scenarios.PoisonSpec(client_id="p-1000", label_flip_rate=0.5)],
        tasks=[TaskSpec(task_id=f"{c}-t", client_id=c, community_id="X") for c in clients],
    )
    data = generate(spec)
    digest = hashlib.sha256()
    spans = []
    for client in data.clients:
        signature = client.metadata.data_signature
        arrays = (
            client.dataset.features,
            client.dataset.labels,
            signature.per_feature_mean,
            signature.per_feature_std,
            signature.label_histogram,
        )
        for array in arrays:
            digest.update(array.tobytes())
            assert not array.flags.writeable
            start = array.__array_interface__["data"][0]
            spans.append((start, start + array.nbytes))
    assert data.client("p-0007").n_samples == 333
    assert digest.hexdigest() == "35efeeed8a4160f67caacc0dbaef8b740f96574ae30be69de35f9793f7949fe5"
    # no two clients' arrays share memory: their byte ranges are disjoint
    spans.sort()
    assert all(end <= next_start for (_, end), (next_start, _) in zip(spans, spans[1:]))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(2, 5),
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5).filter(lambda p: sum(p) > 0),
    ),
    st.integers(1, 120),
    st.integers(0, 2**63),
)
@example([0.7, 0.3], 240, 11)
@example([0.0, 1.0, 0.0], 1, 0)
def test_label_draw_equals_generator_choice(prior, n_samples, seed):
    # a drawn int is a class count with the uniform prior
    if isinstance(prior, int):
        n_classes, label_prior, p = prior, None, np.full(prior, 1.0 / prior)
    else:
        n_classes, label_prior = len(prior), [x / sum(prior) for x in prior]
        p = np.asarray(label_prior)
    spec = _basic_spec(seed=seed, n_classes=n_classes, label_prior=label_prior)
    spec.validate()
    dataset = scenarios.generate_client_dataset(spec, "c-0", 0, n_samples, "data")
    # the labels and the features after them, drawn as they were drawn with
    # Generator.choice: the same labels leave the stream at the same place
    rng = np.random.default_rng(stable_u64(seed, "data", "c-0"))
    labels = rng.choice(n_classes, size=n_samples, p=p)
    centers = np.zeros((n_classes, spec.n_features))
    centers[:, 0] = np.arange(n_classes) * spec.class_sep
    features = centers[labels] + spec.feature_std * rng.standard_normal(
        (n_samples, spec.n_features)
    )
    assert dataset.labels.tobytes() == labels.tobytes()
    assert dataset.features.tobytes() == features.tobytes()
