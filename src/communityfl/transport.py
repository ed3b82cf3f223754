"""Transports: a deterministic in-process network and a TCP socket pair.

Both carry the same length-prefixed frames and drive the same coordinator
logic, so a zero-fault socket run reproduces the simulated run bit-exactly.
Each decodes a received update frame once and hands it to
``Coordinator.receive_update``, so a round's arrivals come back as decoded,
recorded ``ModelUpdate``s. The simulated network executes on a single thread
in a fixed order (requests dispatched in ascending task id, delayed deliveries
appended last) and applies scenario-scripted drop/delay faults to update
delivery.
"""

from __future__ import annotations

import logging
import socket
import threading
from dataclasses import dataclass, field

from . import netproto
from .client import FlClient
from .community import admit
from .errors import DeliveryError, ProtocolError
from .flcore import ConfigSignature, FlTask, ModelUpdate, TrainRequest
from .netproto import Envelope, MsgType
from .orchestrator import Coordinator

logger = logging.getLogger(__name__)


# -- deterministic in-process transport -----------------------------------------


@dataclass
class _FaultScript:
    # (1-based round, client_id) -> "drop" | "delay"
    by_round_client: dict[tuple[int, str], str] = field(default_factory=dict)

    @classmethod
    def from_specs(cls, faults) -> "_FaultScript":
        script = cls()
        for fault in faults or ():
            script.by_round_client[(fault.round, fault.client_id)] = fault.kind
        return script


class _ControlChannel:
    """Client-to-coordinator request channel used outside rounds."""

    def __init__(self, network: "SimNetwork"):
        self._network = network

    def request(self, frame: bytes) -> bytes:
        self._network.bytes_transferred += len(frame)
        response = self._network.coordinator.handle_frame(frame)
        self._network.bytes_transferred += len(response)
        return response


class _RoundChannel:
    """Update-delivery channel for one client in one round; applies faults."""

    def __init__(self, network: "SimNetwork", sched_round: int, client_id: str):
        self._network = network
        self._sched_round = sched_round
        self._client_id = client_id
        self.delivered: ModelUpdate | None = None
        self.delayed = False

    def request(self, frame: bytes) -> bytes:
        network = self._network
        key = (self._sched_round, self._client_id)
        network.delivery_attempts[key] = network.delivery_attempts.get(key, 0) + 1
        fault = network.faults.by_round_client.get(key)
        network.bytes_transferred += len(frame)
        if fault == "drop":
            raise DeliveryError(f"scripted drop of {self._client_id} in round {self._sched_round}")
        if fault == "delay":
            self.delayed = True
        self.delivered, ack = network.coordinator.receive_update(netproto.decode(frame))
        response = netproto.encode(ack)
        network.bytes_transferred += len(response)
        return response


class SimNetwork:
    """Single-threaded deterministic message fabric for simulation mode."""

    def __init__(self, coordinator: Coordinator, faults=None):
        self.coordinator = coordinator
        self.clients: dict[str, FlClient] = {}
        self.task_owner: dict[str, str] = {}
        self.faults = _FaultScript.from_specs(faults)
        self.bytes_transferred = 0
        self.delivery_attempts: dict[tuple[int, str], int] = {}

    def add_client(self, client: FlClient):
        self.clients[client.client_id] = client

    def bind_task(self, task_id: str, client_id: str):
        self.task_owner[task_id] = client_id

    def control_channel(self) -> _ControlChannel:
        return _ControlChannel(self)

    def resolve_neighbor(self, client_id: str) -> FlClient | None:
        return self.clients.get(client_id)

    def exchange_round(
        self, items: list[tuple[str, Envelope]], sched_round: int
    ) -> tuple[list[tuple[str, ModelUpdate | None]], int]:
        """Deliver train requests in order; collect updates, delayed ones last."""
        bytes_before = self.bytes_transferred
        prompt: list[tuple[str, ModelUpdate | None]] = []
        delayed: list[tuple[str, ModelUpdate | None]] = []
        for task_id, env in items:
            frame = netproto.encode(env)
            self.bytes_transferred += len(frame)
            client = self.clients[self.task_owner[task_id]]
            request = netproto.from_doc(TrainRequest, netproto.decode(frame).payload)
            try:
                update = client.handle_train_request(request, self.resolve_neighbor)
            except Exception as exc:  # client-side task error -> round dropout
                logger.warning("client %s failed round %s: %s", client.client_id, sched_round, exc)
                prompt.append((task_id, None))
                continue
            channel = _RoundChannel(self, sched_round, client.client_id)
            ack, _attempts = client.report_metrics(update, channel)
            if ack is None:
                prompt.append((task_id, None))
            elif channel.delayed:
                delayed.append((task_id, channel.delivered))
            else:
                prompt.append((task_id, channel.delivered))
        arrivals = prompt + delayed
        return arrivals, self.bytes_transferred - bytes_before


# -- TCP socket transport ----------------------------------------------------------


def _set_nodelay(sock: socket.socket):
    """Send small frames at once instead of coalescing them (Nagle's algorithm).

    In rounds the coordinator writes a MetricsAck and, a round later, the next
    TrainRequest with no frame from the client in between. The client delays
    its ACK of the MetricsAck (about 40 ms on Linux), and Nagle holds the
    TrainRequest until that ACK arrives, so every round would wait out the
    delayed-ACK timer.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class SocketChannel:
    """Blocking request/response channel over one TCP connection."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._file = sock.makefile("rb")

    def request(self, frame: bytes) -> bytes:
        try:
            self._sock.sendall(frame)
            reply = netproto.read_frame(self._file)
        except OSError as exc:
            raise DeliveryError(str(exc)) from exc
        if reply is None:
            raise DeliveryError("connection closed")
        return reply

    @property
    def file(self):
        return self._file

    @property
    def sock(self) -> socket.socket:
        return self._sock

    def close(self):
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


@dataclass(eq=False)
class ClientSession:
    """Server-side state for one connected client."""

    sock: socket.socket
    file: object
    dead: bool = False

    def send(self, frame: bytes):
        self.sock.sendall(frame)

    def close(self):
        self.dead = True
        # shutdown before close: the makefile() handle keeps the fd alive, so
        # close() alone would never send FIN and peers would block forever
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.file.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class SocketRoundTransport:
    """Round transport over live client connections (one task per session)."""

    def __init__(self, server: "SocketCoordinatorServer"):
        self._server = server

    def exchange_round(
        self, items: list[tuple[str, Envelope]], sched_round: int
    ) -> tuple[list[tuple[str, ModelUpdate | None]], int]:
        coordinator = self._server.coordinator
        arrivals: list[tuple[str, ModelUpdate | None]] = []
        bytes_transferred = 0
        for task_id, env in items:
            session = self._server.session_for_task(task_id)
            if session is None or session.dead:
                arrivals.append((task_id, None))
                continue
            try:
                frame = netproto.encode(env)
                session.send(frame)
                bytes_transferred += len(frame)
                reply = netproto.read_frame(session.file)
                if reply is None:
                    raise ProtocolError("truncated", "client closed connection")
                bytes_transferred += len(reply)
                update, ack = coordinator.receive_update(netproto.decode(reply))
                ack_frame = netproto.encode(ack)
                session.send(ack_frame)
                bytes_transferred += len(ack_frame)
                arrivals.append((task_id, update))
            except (OSError, ProtocolError) as exc:
                logger.warning("round %s: client for %s dropped (%s)", sched_round, task_id, exc)
                session.close()
                arrivals.append((task_id, None))
        return arrivals, bytes_transferred


class SocketCoordinatorServer:
    """Accepts registrations, then drives rounds over the open connections.

    Registration-phase messages (Register, ListCommunities, SubmitTask) are
    handled per-connection; once a session has submitted a task its socket is
    handed to the round driver, which runs one request/response exchange at a
    time per connection.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        host: str,
        port: int,
        expected_tasks: int,
        recv_timeout_s: float = 30.0,
    ):
        self.coordinator = coordinator
        self.expected_tasks = expected_tasks
        self.recv_timeout_s = recv_timeout_s
        self._sessions: dict[str, ClientSession] = {}
        self._sessions_lock = threading.Lock()
        self._ready = threading.Event()
        self._stopping = threading.Event()
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.getsockname()[:2]
        return host, port

    def session_for_task(self, task_id: str) -> ClientSession | None:
        with self._sessions_lock:
            return self._sessions.get(task_id)

    def wait_ready(self, timeout: float | None = None) -> bool:
        return self._ready.wait(timeout)

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn.settimeout(self.recv_timeout_s)
            _set_nodelay(conn)
            thread = threading.Thread(
                target=self._serve_registration, args=(conn, f"{addr[0]}:{addr[1]}"), daemon=True
            )
            thread.start()

    def _serve_registration(self, conn: socket.socket, peer: str):
        session = ClientSession(sock=conn, file=conn.makefile("rb"))
        handed_over = False
        try:
            while not self._stopping.is_set():
                frame = netproto.read_frame(session.file)
                if frame is None:
                    return
                try:
                    env = netproto.decode(frame)
                except ProtocolError as exc:
                    # e.g. mismatched protocol version: refuse cleanly
                    logger.info("refusing %s: %s", peer, exc)
                    error = Envelope(
                        msg_type=MsgType.ERROR,
                        correlation_id=0,
                        payload={"code": exc.code, "message": exc.message},
                    )
                    session.send(netproto.encode(error))
                    return
                response = self.coordinator.handle_envelope(env)
                session.send(netproto.encode(response))
                if env.msg_type == MsgType.SUBMIT_TASK and response.msg_type == MsgType.TASK_ACK:
                    task_id = response.payload["task_id"]
                    with self._sessions_lock:
                        self._sessions[task_id] = session
                        total = len(self._sessions)
                    handed_over = True  # the round driver owns the connection now
                    logger.info("task %s submitted by %s (%d total)", task_id, peer, total)
                    if total >= self.expected_tasks:
                        self._ready.set()
                    return
        except (OSError, ProtocolError) as exc:
            logger.info("registration connection %s closed: %s", peer, exc)
        finally:
            if not handed_over:
                session.close()

    def round_transport(self) -> SocketRoundTransport:
        return SocketRoundTransport(self)

    def close(self):
        self._stopping.set()
        # shutdown wakes the accept thread out of its blocking accept() at once;
        # close() alone would leave it waiting out the poll timeout
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._sessions_lock:
            for session in self._sessions.values():
                session.close()
        self._accept_thread.join(timeout=2.0)


# -- socket-mode client loop ----------------------------------------------------------


def run_socket_client(
    client: FlClient,
    host: str,
    port: int,
    task=None,
    connect_timeout_s: float = 10.0,
) -> int:
    """Full client lifecycle against a socket coordinator.

    Registers, submits a task (auto-derived from the first admitting community
    when none is given), then serves train requests until the server closes
    the connection. Returns the number of rounds executed.
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout_s)
    sock.settimeout(None)
    _set_nodelay(sock)
    channel = SocketChannel(sock)
    rounds = 0
    try:
        client.register(channel)
        if task is None:
            communities = client.list_communities(channel)
            chosen = None
            for community in communities:
                if admit(client.state.metadata, community).admitted:
                    chosen = community
                    break
            if chosen is None:
                raise ProtocolError("admission_rejected", "no community admits this client")
            task = FlTask(
                task_id=f"{client.client_id}-t0",
                client_id=client.client_id,
                community_id=chosen.community_id,
                config=ConfigSignature(
                    device_type=client.state.metadata.device.device_type,
                    fl_algorithm="fedavg",
                    model_arch=chosen.base_model,
                    objective=chosen.objective,
                ),
                data_signature=client.state.metadata.data_signature,
                targeted_device=client.client_id,
            )
        client.submit_task(channel, task)
        while True:
            frame = netproto.read_frame(channel.file)
            if frame is None:
                break  # coordinator finished and closed the connection
            env = netproto.decode(frame)
            if env.msg_type == MsgType.ERROR:
                raise ProtocolError(env.payload["code"], env.payload["message"])
            if env.msg_type != MsgType.TRAIN_REQUEST:
                raise ProtocolError("protocol_state", f"unexpected {env.msg_type}")
            request = netproto.from_doc(TrainRequest, env.payload)
            update = client.execute_train_request(request)
            reply = client.update_to_env(update, env.correlation_id)
            channel.sock.sendall(netproto.encode(reply))
            ack_frame = netproto.read_frame(channel.file)
            if ack_frame is None:
                break
            netproto.decode(ack_frame)  # MetricsAck; content informational
            rounds += 1
    finally:
        channel.close()
    return rounds
