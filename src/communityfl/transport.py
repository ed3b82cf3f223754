"""Transports: a deterministic in-process network and a TCP socket pair.

Both carry the same length-prefixed frames and drive the same coordinator
logic, and on both a client answers each ``TrainRequest`` through
``FlClient.answer`` and ``FlClient.report_metrics``, so for a scenario without
scripted faults or drift a socket run gives the simulation's ``rounds.jsonl``
and final weights bit-exactly, delegations included.
Each hands a round's reply frame, undecoded, to ``Coordinator.receive_update``
with the ``TrainRequest`` it answers and sends back the ``MetricsAck`` it
returns, so both decide alike what a refused reply means: its client is out
of that round only. A client whose work for the round raises answers with an
``Error`` that is refused the same way. The socket transport closes a session
only when its connection fails or carries a bad frame length. The simulated
network executes on a single thread in a fixed order (requests dispatched in
ascending task id, delayed deliveries appended last) and applies
scenario-scripted drop/delay faults to update delivery; the fault script is
the only state it keeps.
"""

from __future__ import annotations

import logging
import socket
import threading

from . import netproto
from .client import FlClient
from .community import admit
from .errors import ConfigError, DeliveryError, ProtocolError
from .flcore import ModelUpdate
from .netproto import Envelope, MsgType
from .orchestrator import Coordinator, _is_finite_real, _is_int
from .scenarios import TaskSpec, build_task

logger = logging.getLogger(__name__)


# -- deterministic in-process transport -----------------------------------------


class _RoundChannel:
    """Delivers one client's reply to ``request`` in one round; applies faults
    and counts the bytes of every delivery attempt and its ack."""

    def __init__(self, network: "SimNetwork", sched_round: int, client_id: str, request: Envelope):
        self._coordinator = network.coordinator
        self._fault = network.faults.get((sched_round, client_id))
        self._request = request
        self.delivered: ModelUpdate | None = None
        self.delayed = False
        self.bytes_transferred = 0

    def request(self, frame: bytes) -> bytes:
        self.bytes_transferred += len(frame)
        if self._fault == "drop":
            raise DeliveryError("scripted drop")
        self.delayed = self._fault == "delay"
        self.delivered, response = self._coordinator.receive_update(frame, self._request)
        self.bytes_transferred += len(response)
        return response


class SimNetwork:
    """Single-threaded deterministic message fabric for simulation mode.

    It owns only the scenario's fault script: ``clients`` is the runner's
    dict, and each task goes to the client the coordinator's registry names
    as its owner. Clients register and submit tasks through :meth:`request`.
    """

    def __init__(self, coordinator: Coordinator, clients: dict[str, FlClient], faults=None):
        self.coordinator = coordinator
        self.clients = clients
        # (1-based round, client_id) -> "drop" | "delay"
        self.faults = {(f.round, f.client_id): f.kind for f in faults or ()}

    def request(self, frame: bytes) -> bytes:
        """Serve one registration frame (Register, ListCommunities, SubmitTask)."""
        return self.coordinator.handle_frame(frame)

    def exchange_round(
        self, items: list[tuple[str, Envelope]], sched_round: int
    ) -> tuple[list[tuple[str, ModelUpdate | None]], int]:
        """Deliver train requests in order; collect updates, delayed ones last."""
        tasks = self.coordinator.registry.tasks
        transferred = 0
        prompt: list[tuple[str, ModelUpdate | None]] = []
        delayed: list[tuple[str, ModelUpdate | None]] = []
        for task_id, env in items:
            frame = netproto.encode(env)
            client = self.clients[tasks[task_id].client_id]
            channel = _RoundChannel(self, sched_round, client.client_id, env)
            reply = client.answer(netproto.decode(frame))
            ack, _attempts = client.report_metrics(reply, channel)
            transferred += len(frame) + channel.bytes_transferred
            if ack is None:
                prompt.append((task_id, None))
            elif channel.delayed:
                delayed.append((task_id, channel.delivered))
            else:
                prompt.append((task_id, channel.delivered))
        return prompt + delayed, transferred


# -- TCP socket transport ----------------------------------------------------------


def check_timeout(name: str, value: float) -> float:
    """Refuse a timeout that socket and thread waits mishandle: below 0 or
    above ``threading.TIMEOUT_MAX`` they raise, NaN kills the accept thread or
    waits 0 s, and 0 reads every registration as EOF. Anything but a finite
    int or float is refused too, bools included: a cast would read ``"1"``
    and ``true`` as 1 s."""
    if not (_is_finite_real(value) and 0.0 < value <= threading.TIMEOUT_MAX):
        raise ConfigError(
            f"{name} must be a finite number > 0 and at most {threading.TIMEOUT_MAX:g} s, "
            f"got {value!r}"
        )
    return value


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
    """One TCP connection and its buffered reader, on either end.

    The client sends requests through :meth:`request`; the server keeps one
    per connected client and marks it ``dead`` once closed.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.file = sock.makefile("rb")
        self.dead = False

    def send(self, frame: bytes):
        self.sock.sendall(frame)

    def request(self, frame: bytes) -> bytes:
        try:
            self.send(frame)
            reply = netproto.read_frame(self.file)
        except OSError as exc:
            raise DeliveryError(str(exc)) from exc
        if reply is None:
            raise DeliveryError("connection closed")
        return reply

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
                update, ack = coordinator.receive_update(reply, env)
                session.send(ack)
                bytes_transferred += len(ack)
                arrivals.append((task_id, update))
            except (OSError, ProtocolError) as exc:  # the connection or its framing failed
                logger.warning("round %s: client for %s dropped (%s)", sched_round, task_id, exc)
                session.close()
                arrivals.append((task_id, None))
        return arrivals, bytes_transferred


class SocketCoordinatorServer:
    """Accepts registrations, then drives rounds over the open connections.

    Registration-phase messages (Register, ListCommunities, SubmitTask) are
    handled per-connection, and anything else is refused; once a session has
    submitted a task its socket is handed to the round driver, which runs one
    request/response exchange at a time per connection.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        host: str,
        port: int,
        expected_tasks: int,
        recv_timeout_s: float = 30.0,
    ):
        if not (_is_int(expected_tasks) and expected_tasks >= 1):
            # 0 would start the rounds before any task arrived
            raise ConfigError(f"expected_tasks must be an integer >= 1, got {expected_tasks!r}")
        self.coordinator = coordinator
        self.expected_tasks = expected_tasks
        self.recv_timeout_s = check_timeout("recv_timeout_s", recv_timeout_s)
        self._sessions: dict[str, SocketChannel] = {}
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

    def session_for_task(self, task_id: str) -> SocketChannel | None:
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
        session = SocketChannel(conn)
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
                    session.send(netproto.encode(netproto.error_envelope(0, exc.code, exc.message)))
                    return
                response = self.coordinator.handle_envelope(env)
                session.send(netproto.encode(response))
                if env.msg_type == MsgType.SUBMIT_TASK and response.msg_type == MsgType.TASK_ACK:
                    task_id = response.payload["task_id"]
                    with self._sessions_lock:
                        replaced = self._sessions.get(task_id)
                        if replaced is not None:
                            # a resubmission takes the task over; nothing would
                            # ever close the connection it replaces. Closed
                            # before the new session is visible, so no reader
                            # sees the new one while the old one is still open
                            replaced.close()
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
                if admit(client.metadata, community).admitted:
                    chosen = community
                    break
            if chosen is None:
                raise ProtocolError("admission_rejected", "no community admits this client")
            task = build_task(
                TaskSpec(f"{client.client_id}-t0", client.client_id, chosen.community_id),
                chosen,
                client.metadata.device_type,
            )
        client.submit_task(channel, task)
        while True:
            frame = netproto.read_frame(channel.file)
            if frame is None:
                break  # coordinator finished and closed the connection
            env = netproto.decode(frame)
            if env.msg_type == MsgType.ERROR:
                raise ProtocolError(env.payload["code"], env.payload["message"])
            ack, _attempts = client.report_metrics(client.answer(env), channel)
            if ack is None:
                break  # the coordinator dropped this client
            rounds += 1
    finally:
        channel.close()
    return rounds
