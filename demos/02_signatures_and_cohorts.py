"""Population and cohort demo: from data signatures to cohort structure.

Two groups of smartwatch tasks share one configuration (same device type,
algorithm, model, and objective), so they land in one population. Their data
distributions differ, so similarity-based cohort formation splits the
population in two - and when one task's data drifts across the gap,
reclustering migrates exactly that task.
"""

from communityfl import (
    DataSignature,
    PopulationRegistry,
    form_cohorts,
    recluster,
    similarity,
)
from communityfl.scenarios import builtin_scenarios, generate

spec = builtin_scenarios()["heartrate"]
data = generate(spec)

registry = PopulationRegistry()
for task in data.tasks:
    registry.assign_population(task)
print(f"{len(data.tasks)} tasks -> {len(registry.populations)} populations")

# population 2 holds all six smartwatch tasks (shared config signature)
population = registry.population_of("M2.1a")
print(f"population {population.population_id}: {sorted(population.member_task_ids)}")

# a task's data signature is its participant's, the one the client registers
registered = {client.client_id: client.metadata.data_signature for client in data.clients}
signatures = {t: registered[registry.tasks[t].client_id] for t in population.member_task_ids}
print("pairwise similarity, same planted cluster:",
      round(similarity(signatures["M2.1a"], signatures["M2.1b"]), 3))
print("pairwise similarity, across clusters:    ",
      round(similarity(signatures["M2.1a"], signatures["M2.2a"]), 3))

cohorts = form_cohorts(population, signatures, threshold=0.88, seed=42)
population.cohorts = cohorts
for cohort in cohorts:
    print(f"cohort {cohort.cohort_id}: {sorted(cohort.member_task_ids)}")

# drift: make M2.2a's distribution look like the first cluster and recluster
drifted = dict(signatures)
src = signatures["M2.1a"]
drifted["M2.2a"] = DataSignature(
    per_feature_mean=src.per_feature_mean.copy(),
    per_feature_std=src.per_feature_std.copy(),
    label_histogram=src.label_histogram.copy(),
    n_samples=signatures["M2.2a"].n_samples,
    quality_score=1.0,
)
new_cohorts, report = recluster(population, drifted, threshold=0.88, seed=42)
print("migrations after drift:", report.migrated)
