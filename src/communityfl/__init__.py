"""Community-based federated learning at desk scale.

Tasks are grouped into populations by configuration signature, populations
split into cohorts by data-distribution similarity, and each cohort runs
guarded federated-averaging rounds over a deterministic in-process network
or plain TCP sockets.
"""

from .community import (
    AdmitDecision,
    CollaborationCriteria,
    Community,
    DataSignature,
    ParticipantMetadata,
    admit,
    form_cohorts,
    recluster,
    signature_from_dataset,
    similarity,
)
from .flcore import (
    ConfigSignature,
    FlCohort,
    FlPlan,
    FlPopulation,
    FlTask,
    ModelUpdate,
    PopulationRegistry,
    aggregate,
    single_member_aggregate,
)
from .orchestrator import Coordinator, GuardVerdict, RoundReport, SchedulerConfig, guard_update
from .tinylearn import (
    Dataset,
    EvalMetrics,
    HyperParams,
    ModelArch,
    WeightVector,
    arch_from_id,
    evaluate,
    init_weights,
    make_arch,
    train_local,
)

__version__ = "0.1.0"

__all__ = [
    "AdmitDecision",
    "CollaborationCriteria",
    "Community",
    "ConfigSignature",
    "Coordinator",
    "DataSignature",
    "Dataset",
    "EvalMetrics",
    "FlCohort",
    "FlPlan",
    "FlPopulation",
    "FlTask",
    "GuardVerdict",
    "HyperParams",
    "ModelArch",
    "ModelUpdate",
    "ParticipantMetadata",
    "PopulationRegistry",
    "RoundReport",
    "SchedulerConfig",
    "WeightVector",
    "admit",
    "aggregate",
    "arch_from_id",
    "evaluate",
    "form_cohorts",
    "guard_update",
    "init_weights",
    "make_arch",
    "recluster",
    "signature_from_dataset",
    "similarity",
    "single_member_aggregate",
    "train_local",
]
