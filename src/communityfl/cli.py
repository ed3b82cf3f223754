"""Operator entry points.

Subcommands:

* ``simulate`` - run a scenario on the deterministic in-process network and
  write rounds.csv / rounds.jsonl / cohorts.json / run_summary.json.
* ``serve`` / ``client`` - the same round protocol over TCP sockets.
* ``inspect`` - print the community -> population -> cohort -> task tree from
  a run's artifacts.

Exit codes: 0 success, 2 configuration error (bad scenario file, bad flags,
missing or unreadable artifacts), 3 aborted run (some cohort never committed
a round). Log verbosity comes from the COMMUNITYFL_LOG environment variable
(off | info | debug).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import signal
import sys
from pathlib import Path

import numpy as np

from . import netproto, runner, scenarios, transport
from .client import FlClient
from .community import Community, ParticipantMetadata
from .errors import CommunityFlError, ConfigError, ProtocolError
from .flcore import FlTask
from .orchestrator import Coordinator, SchedulerConfig
from .tinylearn import Dataset

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORTED = 3


def _setup_logging():
    level_name = os.environ.get("COMMUNITYFL_LOG", "off").lower()
    if level_name == "off":
        logging.disable(logging.CRITICAL)
        return
    level = {"info": logging.INFO, "debug": logging.DEBUG}.get(level_name, logging.INFO)
    logging.basicConfig(
        level=level, format="%(asctime)s %(levelname)s %(name)s: %(message)s"
    )


def _load_scenario(value: str) -> scenarios.ScenarioSpec:
    builtins = scenarios.builtin_scenarios()
    if value in builtins:
        return builtins[value]
    return scenarios.load_spec(value)


def cmd_simulate(args) -> int:
    spec = _load_scenario(args.scenario)
    logger.info(
        "simulating scenario %s (mode=%s, seed=%s, out=%s)",
        spec.name,
        args.mode,
        args.seed if args.seed is not None else spec.scheduler.seed,
        args.out,
    )
    run = runner.run_simulation(spec, mode=args.mode, out_dir=args.out, seed=args.seed)
    summary = run.summary
    print(
        f"scenario={summary.scenario} mode={summary.mode} seed={summary.seed} "
        f"rounds_committed={summary.rounds_committed} "
        f"mean_holdout_accuracy={summary.mean_holdout_accuracy:.4f}"
    )
    if summary.aborted_cohorts:
        print(f"aborted cohorts: {', '.join(summary.aborted_cohorts)}", file=sys.stderr)
        return EXIT_ABORTED
    return EXIT_OK


def _parse_addr(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ConfigError(f"address must be HOST:PORT with a port in 0-65535, got {value!r}")
    return host, int(port)


def cmd_serve(args) -> int:
    host, port = _parse_addr(args.listen)
    try:
        config_doc = json.loads(Path(args.config).read_text())
        scheduler = SchedulerConfig(**config_doc["scheduler"])
        communities = [netproto.from_file_doc(Community, doc) for doc in config_doc["communities"]]
        expected_tasks = config_doc["expected_tasks"]
        recv_timeout = float(config_doc.get("recv_timeout_s", 30.0))
        ready_timeout = float(config_doc.get("ready_timeout_s", 120.0))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read server config {args.config}: {exc}") from exc
    transport.check_timeout("ready_timeout_s", ready_timeout)
    coordinator = Coordinator(scheduler, communities)
    try:
        server = transport.SocketCoordinatorServer(
            coordinator, host, port, expected_tasks, recv_timeout
        )
    except OSError as exc:
        print(f"cannot bind {args.listen}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out) if args.out else None

    def _graceful(_signum, _frame):
        # final report flush happens in the finally block below
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, _graceful)
    signal.signal(signal.SIGTERM, _graceful)
    print(f"listening on {server.address[0]}:{server.address[1]}")
    try:
        runner.run_socket_rounds(
            server,
            scheduler.rounds,
            out_dir,
            scenario_name=config_doc.get("scenario", "socket"),
            mode=runner.MODE_GLOBAL if scheduler.cohort_threshold == 0 else runner.MODE_COHORT,
            ready_timeout_s=ready_timeout,
        )
    except KeyboardInterrupt:
        print("shutting down, flushing reports", file=sys.stderr)
    finally:
        server.close()
    return EXIT_OK


def _load_dataset(path: str) -> Dataset:
    try:
        doc = json.loads(Path(path).read_text())
        return Dataset(
            features=np.asarray(doc["features"], dtype=np.float64),
            labels=np.asarray(doc["labels"], dtype=np.int64),
            n_classes=int(doc["n_classes"]),
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc


def cmd_client(args) -> int:
    host, port = _parse_addr(args.connect)
    dataset = _load_dataset(args.data)
    try:
        metadata = netproto.from_file_doc(
            ParticipantMetadata, json.loads(Path(args.metadata).read_text())
        )
    except (OSError, ValueError, KeyError, TypeError, CommunityFlError) as exc:
        raise ConfigError(f"cannot read metadata file {args.metadata}: {exc}") from exc
    task = None
    if args.task:
        try:
            task = netproto.from_file_doc(FlTask, json.loads(Path(args.task).read_text()))
        except (OSError, ValueError, KeyError, TypeError, CommunityFlError) as exc:
            raise ConfigError(f"cannot read task file {args.task}: {exc}") from exc
    client = FlClient(metadata.participant_id, dataset, metadata)
    try:
        rounds = transport.run_socket_client(client, host, port, task)
    except ConnectionRefusedError as exc:
        print(f"cannot connect to {args.connect}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 1
    print(f"client {client.client_id} completed {rounds} rounds")
    return EXIT_OK


def cmd_inspect(args) -> int:
    out = Path(args.out)
    cohorts_path = out / "cohorts.json"
    rounds_path = out / "rounds.csv"
    if not cohorts_path.exists() or not rounds_path.exists():
        print(f"no run artifacts found in {out}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        lines = _inspect_tree(json.loads(cohorts_path.read_text()), rounds_path)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        raise ConfigError(f"cannot read the run artifacts in {out}: {exc!r}") from exc
    print("\n".join(lines))
    return EXIT_OK


def _inspect_tree(cohorts_doc: dict, rounds_path: Path) -> list[str]:
    """The lines of the community -> population -> cohort -> task tree."""
    flag_rates: dict[str, list[float]] = {}
    with rounds_path.open() as fh:
        for row in csv.DictReader(fh):
            if row["flag_rate"]:
                flag_rates.setdefault(row["cohort_id"], []).append(float(row["flag_rate"]))

    lines = [f"scenario: {cohorts_doc['scenario']}  mode: {cohorts_doc['mode']}"]
    by_community: dict[str, list[dict]] = {}
    for population in cohorts_doc["populations"]:
        for community_id in population["community_ids"]:
            by_community.setdefault(community_id, []).append(population)
    for community_id in sorted(by_community):
        lines.append(f"community {community_id}")
        for population in by_community[community_id]:
            n_tasks = sum(len(c["members"]) for c in population["cohorts"])
            lines.append(
                f"  {population['display_name']}  [{population['population_id']}]  "
                f"tasks={n_tasks}"
            )
            for cohort in population["cohorts"]:
                rates = flag_rates.get(cohort["cohort_id"], [])
                mean_rate = sum(rates) / len(rates) if rates else 0.0
                lines.append(
                    f"    {cohort['display_name']}  [{cohort['cohort_id']}]  "
                    f"members={len(cohort['members'])}  rounds={cohort['round']}  "
                    f"flag_rate={mean_rate:.3f}"
                )
                for member in cohort["members"]:
                    if member["community_id"] == community_id:
                        lines.append(f"      {member['task_id']}  (client {member['client_id']})")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="communityfl",
        description="Community-based federated learning simulator and socket harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a scenario deterministically")
    simulate.add_argument("--scenario", required=True, help="builtin name or JSON file")
    simulate.add_argument("--mode", choices=["cohort", "global"], default="cohort")
    simulate.add_argument(
        "--seed",
        type=int,
        default=None,
        help="replace the scheduler seed, which picks cohort members and initial "
        "cohort weights; the data keep the scenario's seed",
    )
    simulate.add_argument("--out", required=True, help="artifact output directory")
    simulate.set_defaults(func=cmd_simulate)

    serve = sub.add_parser("serve", help="start a socket-mode coordinator")
    serve.add_argument("--listen", required=True, help="HOST:PORT to bind")
    serve.add_argument("--config", required=True, help="server config JSON")
    serve.add_argument("--out", default=None, help="artifact output directory")
    serve.set_defaults(func=cmd_serve)

    client = sub.add_parser("client", help="start a socket-mode client")
    client.add_argument("--connect", required=True, help="HOST:PORT of the coordinator")
    client.add_argument("--data", required=True, help="local dataset JSON")
    client.add_argument("--metadata", required=True, help="participant metadata JSON")
    client.add_argument("--task", default=None, help="optional task JSON")
    client.set_defaults(func=cmd_client)

    inspect = sub.add_parser("inspect", help="print the population/cohort tree of a run")
    inspect.add_argument("--out", required=True, help="artifact directory of a previous run")
    inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CommunityFlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
