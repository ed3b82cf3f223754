"""Client-side runtime: plan execution, metric reporting, and delegation.

A round is answered in one place on both transports: :meth:`FlClient.answer`
turns the coordinator's ``TrainRequest`` envelope into the ``ModelUpdateMsg``
that echoes its correlation id (or into an ``Error`` when the round's work
raises), and :meth:`FlClient.report_metrics` delivers it with bounded retry
and checks that the ``MetricsAck`` echoes it in turn. A client's metadata,
data, battery and neighbors are plain attributes of :class:`FlClient`, and the
client is their only writer: a drift swaps data and signature together
(:meth:`FlClient.set_dataset`) and reaches the coordinator as a re-Register.

The metric pair attached to every update drives the server-side
negative-transfer guard:

* ``pre_metrics``  - the client's own previous local model evaluated on its
  holdout; the first round a task runs in a cohort falls back to the weights
  received in the request, so the delta starts at zero and the one
  evaluation of those weights serves as both metrics;
* ``post_metrics`` - the incoming aggregated global weights evaluated on the
  same holdout.

``post.loss - pre.loss > epsilon`` therefore means "the shared model made
things worse for me", which is exactly the degradation signal the guard
inspects. Raw features and labels never leave the client; only weights,
counts, and metric scalars are serialized.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Iterable, Protocol

import numpy as np

from . import netproto
from .community import Community, ParticipantMetadata, signature_from_dataset
from .errors import DelegationError, DeliveryError, ProtocolError, ShapeError
from .flcore import FlTask, ModelUpdate, TrainRequest
from .hashing import stable_u64
from .netproto import Envelope, MsgType
from .tinylearn import Dataset, HyperParams, WeightVector, evaluate, train_local

logger = logging.getLogger(__name__)

REPORT_ATTEMPTS = 3
LOW_BATTERY_THRESHOLD = 0.2


class RequestChannel(Protocol):
    """One request/response exchange with the coordinator."""

    def request(self, frame: bytes) -> bytes: ...


class FlClient:
    """A simulated or socket-attached federated client.

    ``battery``, ``neighbors`` and ``trusted_neighbors`` decide delegation
    (see :meth:`handle_train_request`)."""

    def __init__(
        self,
        client_id: str,
        dataset: Dataset,
        metadata: ParticipantMetadata,
        battery: float = 1.0,
        neighbors: Iterable[str] = (),
        trusted_neighbors: Iterable[str] = (),
    ):
        self.client_id = client_id
        self.metadata = metadata
        self.local_data = dataset
        self.battery = battery
        self.neighbors = list(neighbors)
        self.trusted_neighbors = frozenset(trusted_neighbors)
        self.session_token: str | None = None
        self._correlation = 0
        self._split_cache: dict[float, tuple[Dataset, Dataset]] = {}
        # task_id -> (cohort_id, last locally trained weights); the pre/post
        # degradation baseline only makes sense within one cohort's trajectory
        self._prev_local: dict[str, tuple[str, WeightVector]] = {}
        # (task_id, cohort_id) -> the update for the latest round asked
        self._update_cache: dict[tuple[str, str], ModelUpdate] = {}

    def set_dataset(self, dataset: Dataset):
        """Replace local data (drift) and the signature in ``metadata``, which
        keeps its quality score; a :meth:`register` afterwards tells the
        coordinator. Invalidates the cached holdout split and the cached
        updates, which were trained and measured on the old data. The previous
        local weights stay: they are the guard's baseline."""
        self.local_data = dataset
        quality = self.metadata.data_signature.quality_score
        self.metadata = replace(
            self.metadata, data_signature=signature_from_dataset(dataset, quality)
        )
        self._split_cache.clear()
        self._update_cache.clear()

    def split(self, holdout_fraction: float) -> tuple[Dataset, Dataset]:
        """Deterministic train/holdout split, stable for a fixed client seed.

        The pair is built once per fraction; repeat calls return the same
        (read-only) datasets until :meth:`set_dataset` replaces the data. Each
        half keeps its rows in their original order and is taken with
        :meth:`Dataset.rows`, so the checked local data is not checked again.
        A client with one sample has no row to hold out: its empty holdout
        raises ``ShapeError``.
        """
        key = float(holdout_fraction)
        cached = self._split_cache.get(key)
        if cached is not None:
            return cached
        data = self.local_data
        n = data.n_samples
        rng = np.random.default_rng(stable_u64("split", self.client_id))
        perm = rng.permutation(n)
        n_holdout = min(n - 1, max(1, int(round(key * n))))
        train_idx, holdout_idx = perm[n_holdout:], perm[:n_holdout]
        # the two halves are views of perm, which nothing else holds
        train_idx.sort()
        holdout_idx.sort()
        train, holdout = data.rows(train_idx), data.rows(holdout_idx)
        self._split_cache[key] = (train, holdout)
        return train, holdout

    # -- coordinator dialogue -----------------------------------------------

    def _next_correlation(self) -> int:
        self._correlation += 1
        return stable_u64(self.client_id, self._correlation) % 2**64

    def _exchange(self, channel: RequestChannel, env: Envelope) -> Envelope:
        response = netproto.decode(channel.request(netproto.encode(env)))
        if response.correlation_id != env.correlation_id:
            raise ProtocolError("correlation_mismatch", "response does not echo request id")
        if response.msg_type == MsgType.ERROR:
            raise ProtocolError(response.payload["code"], response.payload["message"])
        expected = netproto.RESPONSE_OF.get(env.msg_type)
        if response.msg_type != expected:
            raise ProtocolError(
                "protocol_state", f"expected {expected}, got {response.msg_type}"
            )
        return response

    def register(self, channel: RequestChannel) -> str:
        """Send metadata to the coordinator; idempotent re-register replaces it."""
        env = Envelope(
            msg_type=MsgType.REGISTER,
            correlation_id=self._next_correlation(),
            payload={"metadata": netproto.to_doc(self.metadata)},
        )
        ack = self._exchange(channel, env)
        self.session_token = ack.payload["session_token"]
        return self.session_token

    def list_communities(self, channel: RequestChannel):
        env = Envelope(
            msg_type=MsgType.LIST_COMMUNITIES,
            correlation_id=self._next_correlation(),
            payload={},
        )
        response = self._exchange(channel, env)
        return [netproto.from_doc(Community, doc) for doc in response.payload["communities"]]

    def submit_task(self, channel: RequestChannel, task: FlTask) -> str:
        if self.session_token is None:
            raise ProtocolError("unregistered_client", "register before submitting tasks")
        env = Envelope(
            msg_type=MsgType.SUBMIT_TASK,
            correlation_id=self._next_correlation(),
            payload={
                "task": netproto.to_doc(task),
                "session_token": self.session_token,
            },
        )
        ack = self._exchange(channel, env)
        return ack.payload["population_id"]

    # -- plan execution -------------------------------------------------------

    def execute_train_request(self, req: TrainRequest, executor_id: str | None = None) -> ModelUpdate:
        """Run one local round; deterministic, and idempotent for the latest
        round each (task, cohort) was asked."""
        cache_key = (req.task_id, req.cohort_id)
        cached = self._update_cache.get(cache_key)
        if cached is not None and cached.round == req.round:
            return cached
        data = self.local_data
        if req.weights.arch.n_features != data.n_features or (
            req.weights.arch.n_classes != data.n_classes
        ):
            raise ShapeError(
                f"request weights {req.weights.arch_id} do not match local data of "
                f"{data.n_features} features / {data.n_classes} classes"
            )
        train, holdout = self.split(req.plan.eval_holdout_fraction)
        post_metrics = evaluate(req.weights, holdout)
        stored = self._prev_local.get(req.task_id)
        if stored is not None and stored[0] == req.cohort_id:
            pre_metrics = evaluate(stored[1], holdout)
        else:
            # first round for this task in this cohort: the incoming model is
            # the baseline, so the guard sees a zero delta
            pre_metrics = post_metrics
        hp = HyperParams(
            epochs=req.plan.epochs,
            batch_size=req.plan.batch_size,
            learning_rate=req.plan.learning_rate,
            shuffle_seed=stable_u64(req.plan.shuffle_seed, req.task_id, req.round) % 2**63,
        )
        trained = train_local(req.weights, train, hp)
        self._prev_local[req.task_id] = (req.cohort_id, trained)
        update = ModelUpdate(
            task_id=req.task_id,
            cohort_id=req.cohort_id,
            round=req.round,
            weights=trained,
            n_samples=train.n_samples,
            pre_metrics=pre_metrics,
            post_metrics=post_metrics,
            executor_id=executor_id or self.client_id,
        )
        self._update_cache[cache_key] = update
        return update

    def delegate(self, req: TrainRequest, neighbor_id: str) -> ModelUpdate:
        """Offload a training request to a trusted nearby device.

        The neighbor computes on this client's data shard with the task's own
        seeds, so the result is bit-identical to local execution; only the
        recorded executor changes.
        """
        if neighbor_id not in self.neighbors or neighbor_id not in self.trusted_neighbors:
            raise DelegationError(
                f"{neighbor_id!r} is not a trusted neighbor of {self.client_id!r}"
            )
        return self.execute_train_request(req, executor_id=neighbor_id)

    def handle_train_request(self, req: TrainRequest) -> ModelUpdate:
        """Execute a request; when the battery is low, delegate it to the
        first trusted neighbor in id order."""
        if self.battery < LOW_BATTERY_THRESHOLD:
            trusted = sorted(self.trusted_neighbors.intersection(self.neighbors))
            if trusted:
                logger.debug(
                    "client %s delegating round %s to %s", self.client_id, req.round, trusted[0]
                )
                return self.delegate(req, trusted[0])
        return self.execute_train_request(req)

    # -- round replies --------------------------------------------------------

    def answer(self, env: Envelope) -> Envelope:
        """Turn a ``TrainRequest`` envelope into its ``ModelUpdateMsg`` reply.

        Both transports answer a round here: the reply echoes the request's
        correlation id, and a low-battery client delegates alike on both
        (see :meth:`handle_train_request`). When the round's work
        raises, the reply is an ``Error`` with code ``train_failed``, which the
        coordinator acks ``refused``: the client sits out that round only.
        """
        if env.msg_type != MsgType.TRAIN_REQUEST:
            raise ProtocolError("protocol_state", f"expected TrainRequest, got {env.msg_type}")
        req = netproto.from_doc(TrainRequest, env.payload)
        try:
            update = self.handle_train_request(req)
        except Exception as exc:
            logger.warning("client %s failed round %s: %r", self.client_id, req.round, exc)
            return netproto.error_envelope(env.correlation_id, "train_failed", repr(exc))
        return Envelope(
            msg_type=MsgType.MODEL_UPDATE,
            correlation_id=env.correlation_id,
            payload={"update": netproto.to_doc(update)},
        )

    def report_metrics(
        self, reply: Envelope, channel: RequestChannel
    ) -> tuple[Envelope | None, int]:
        """Deliver one :meth:`answer` reply with bounded retry.

        Returns (MetricsAck envelope, attempts); an ``Error`` reply is acked
        too. ``None`` after ``REPORT_ATTEMPTS`` failed deliveries means the
        client drops out of this round.
        """
        for attempts in range(1, REPORT_ATTEMPTS + 1):
            try:
                return self._exchange(channel, reply), attempts
            except DeliveryError:
                logger.debug(
                    "client %s delivery attempt %d/%d failed",
                    self.client_id,
                    attempts,
                    REPORT_ATTEMPTS,
                )
        return None, REPORT_ATTEMPTS
