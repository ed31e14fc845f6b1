"""Command-line interface: ``python -m repro <command>``.

Commands
--------
flow       run one (benchmark, selector) flow and print the metric row
table      regenerate a paper table (1, 3, 4, 5, 6)
timing     run a flow and print the signoff-style timing report
congestion run a flow and print routing utilization + a heatmap
export     generate a benchmark netlist and write structural Verilog
service    flow-as-a-service daemon: start | stop | status | submit
trace      analyze trace files: report | diff | gate
list       list benchmark keys and selectors

``flow``/``timing``/``congestion`` accept ``--store PATH`` to read
through (and write back) the persistent content-addressed artifact
store — warm invocations skip generate/partition/place/buffer, or
replay the whole stored report bit-identically.  ``service start``
puts an async daemon in front of the same store on a unix socket.

Every command also takes the observability flags (see
:mod:`repro.obs`): ``--trace PATH`` records hierarchical spans to
JSONL plus a ``chrome://tracing``-loadable sibling, ``--metrics PATH``
dumps the run's counters/gauges/stats, and ``--log-level`` adjusts the
structured ``repro`` logger (default ``info`` output is byte-identical
to the historical prints).  ``--trace-max-mb N`` switches tracing to a
size-capped **rotating** stream (``PATH`` → ``PATH.1`` → ...) for
long runs; ``service start`` always streams its trace this way.  The
``trace`` group analyzes what the tracer wrote: ``trace report`` for
self/cumulative-time profiles and critical paths, ``trace diff`` to
localize where wall-clock moved between two runs, and ``trace gate``
to check the perf-trend ledger against ``benchmarks/budgets.json``.

Examples
--------
python -m repro flow --benchmark maeri16_hetero --selector gnn
python -m repro flow --benchmark maeri16_hetero --verilog maeri16.v
python -m repro table --table 4
python -m repro timing --benchmark a7_hetero --selector none --paths 3
python -m repro export --benchmark maeri16_hetero --out maeri16.v
python -m repro flow --selector none --trace run.jsonl --metrics run.json
python -m repro flow --benchmark maeri16_hetero --store .repro/store
python -m repro service start --detach
python -m repro service submit --benchmark maeri16_hetero --selector none
python -m repro service status --json
python -m repro service status --metrics
python -m repro trace report run.jsonl --top 15
python -m repro trace diff none.jsonl sota.jsonl
python -m repro trace gate --update-budgets
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
from pathlib import Path

from repro.core.flow import SELECTORS
from repro.harness.designs import BENCHMARKS, DEFAULT_EXPERIMENT_SEED, \
    get_benchmark
from repro.harness.tables import run_benchmark_flow
from repro.obs import (LEVELS, chrome_trace_path, get_logger, metrics,
                       set_log_level, trace)

log = get_logger("repro.cli")

#: Default daemon endpoints, overridable via the environment.
DEFAULT_SOCKET = os.environ.get("REPRO_SERVICE_SOCKET",
                                ".repro/service.sock")
DEFAULT_STORE = os.environ.get("REPRO_STORE", ".repro/store")


def _add_design(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", default="maeri16_hetero",
                        choices=sorted(BENCHMARKS))
    parser.add_argument("--seed", type=int,
                        default=DEFAULT_EXPERIMENT_SEED)


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_design(parser)
    parser.add_argument("--selector", default="gnn",
                        choices=list(SELECTORS))
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="persistent content-addressed artifact "
                             "store to read through / write back "
                             "(warm runs skip prepare or replay the "
                             "stored report)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_obs(parser: argparse.ArgumentParser,
             metrics_flag: bool = True) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", metavar="PATH", default=None,
                       help="record hierarchical spans to PATH (JSONL) "
                            "plus a chrome://tracing sibling "
                            "(PATH with a .chrome.json suffix)")
    group.add_argument("--trace-max-mb", type=_positive_int,
                       default=None, metavar="MB",
                       help="stream spans to --trace with size-based "
                            "rotation (PATH -> PATH.1 -> ...) instead "
                            "of buffering; no chrome sibling in this "
                            "mode")
    if metrics_flag:
        group.add_argument("--metrics", metavar="PATH", default=None,
                           help="write the run's counters/gauges/stats"
                                "/histograms to PATH as JSON")
    group.add_argument("--log-level", default="info", choices=LEVELS,
                       help="repro logger threshold (default: info)")


def _cmd_list(_args) -> int:
    log.info("benchmarks:")
    for key, spec in sorted(BENCHMARKS.items()):
        log.info(f"  {key:<18} {spec.paper_name:<28} "
                 f"@{spec.target_freq_mhz:.0f} MHz "
                 f"(paper {spec.paper_target_mhz:.0f})")
    log.info(f"selectors: {', '.join(SELECTORS)}")
    return 0


def _verilog_source(path: str) -> tuple[str, str, str]:
    """``--verilog``'s type: read FILE once, as (path, text, SHA-256 of
    its bytes); an unreadable file is a usage error."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot read {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise argparse.ArgumentTypeError(
            f"{path} is not UTF-8 text") from None
    return path, text, hashlib.sha256(data).hexdigest()


def _verilog_spec(spec, source: tuple[str, str, str]):
    """A copy of *spec* whose factory parses the ``--verilog`` *source*
    instead of generating — the tech/freq/activity context stays the
    benchmark's.  Its content token is the file's SHA-256, so the
    store's keys follow the file's bytes, not its path.
    """
    import dataclasses

    from repro.netlist.verilog import loads

    path, text, digest = source

    def factory(libraries, seed):
        del seed                        # import is seed-independent
        return loads(text, libraries)

    factory.__content_token__ = digest
    return dataclasses.replace(
        spec, key=f"{spec.key}+verilog",
        paper_name=f"{spec.paper_name} [import {path}]", factory=factory)


def _run_flow(args, spec=None):
    """Run the command's flow on *spec* (default: ``--benchmark``),
    reading through and writing back ``--store`` when given.

    The command exits soon after, so what the flow left is frozen out
    of the cyclic collector's reach: neither the pass the flow's
    collector pause deferred nor the interpreter's last collection at
    exit walks it (0.77 s of a MAERI-128 ``repro flow`` run)."""
    spec = spec or get_benchmark(args.benchmark)
    store = None
    if args.store:
        from repro.service.store import ArtifactStore
        store = ArtifactStore(args.store)
    report = run_benchmark_flow(spec, args.selector, seed=args.seed,
                                store=store)
    gc.freeze()
    return report


def _cmd_flow(args) -> int:
    spec = get_benchmark(args.benchmark)
    if args.verilog:
        spec = _verilog_spec(spec, args.verilog)
    report = _run_flow(args, spec)
    log.info(f"{spec.paper_name} — selector {args.selector}")
    for key, value in report.row().items():
        log.info(f"  {key:<18} {value:>12.3f}" if isinstance(value, float)
                 else f"  {key:<18} {value:>12}")
    for stage, seconds in report.stage_runtime_s.items():
        log.debug(f"  {stage:<22} {seconds:>10.3f} s")
    return 0


def _cmd_table(args) -> int:
    from repro.harness import (format_table, table1_single_net,
                               table3_dft_comparison, table4_heterogeneous,
                               table5_homogeneous, table6_testable)
    from repro.harness.tables import _PPA_METRICS
    if args.table == 1:
        for row in table1_single_net(args.seed):
            log.info("%s", row)
    elif args.table == 3:
        for strategy, row in table3_dft_comparison(args.seed).items():
            log.info("%s %s", strategy, row)
    elif args.table in (4, 5, 6):
        builder = {4: table4_heterogeneous, 5: table5_homogeneous,
                   6: table6_testable}[args.table]
        columns = ["none", "gnn"] if args.table == 6 \
            else ["none", "sota", "gnn"]
        for bench, rows in builder(args.seed).items():
            log.info(format_table(f"Table {args.table} ({bench})",
                                  columns, rows, _PPA_METRICS))
            log.info("")
    else:
        log.error(f"unknown table {args.table}")
        return 2
    return 0


def _cmd_timing(args) -> int:
    from repro.timing.report import render_summary
    report = _run_flow(args)
    log.info(render_summary(report.final_sta, num_paths=args.paths))
    return 0


def _cmd_congestion(args) -> int:
    from repro.route.report import render_heatmap, render_utilization
    routing = _run_flow(args).design.require_routing()
    log.info(render_utilization(routing))
    log.info("")
    top = routing.grid.top_pair(0)
    log.info(render_heatmap(routing, tier=0, pair=top))
    return 0


def _service_start(args) -> int:
    from repro.service.daemon import (FlowService, ServiceConfig,
                                      ServiceError)
    config = ServiceConfig(
        socket_path=args.socket,
        store_root=args.store or DEFAULT_STORE,
        budget_bytes=args.budget_mb * (1 << 20),
    )
    if args.detach:
        import subprocess
        from repro.service.client import wait_for_service
        argv = [sys.executable, "-m", "repro", "service", "start",
                "--socket", config.socket_path,
                "--store", config.store_root,
                "--budget-mb", str(args.budget_mb),
                "--log-level", args.log_level]
        # The daemon child owns the trace and metrics files; the
        # parent must not clobber them with its own (empty) buffers.
        if args.trace:
            argv += ["--trace", args.trace]
            if args.trace_max_mb:
                argv += ["--trace-max-mb", str(args.trace_max_mb)]
            args.trace = None
        if args.metrics:
            argv += ["--metrics", args.metrics]
            args.metrics = None
        log_dir = Path(config.store_root)
        log_dir.mkdir(parents=True, exist_ok=True)
        # The child inherits its own copy of the log descriptor.
        with open(log_dir / "daemon.log", "ab") as log_file:
            proc = subprocess.Popen(argv, stdout=log_file,
                                    stderr=log_file,
                                    start_new_session=True)
        wait_for_service(config.socket_path, timeout=120.0)
        log.info(f"service started: pid {proc.pid}, "
                 f"socket {config.socket_path}, "
                 f"store {config.store_root} "
                 f"(log: {log_dir / 'daemon.log'})")
        return 0
    import asyncio
    try:
        asyncio.run(FlowService(config).serve())
    except ServiceError as exc:
        log.error(str(exc))
        return 1
    except KeyboardInterrupt:           # pragma: no cover - interactive
        log.info("interrupted; service stopped")
    return 0


def _service_client(args):
    from repro.service.client import ServiceClient
    return ServiceClient(args.socket,
                         timeout=getattr(args, "timeout", 900.0))


def _service_stop(args) -> int:
    response = _service_client(args).shutdown()
    log.info(f"service on {args.socket}: "
             f"{'stopped' if response.get('ok') else response}")
    return 0 if response.get("ok") else 1


def _service_status(args) -> int:
    client = _service_client(args)
    if args.metrics:
        # Scrape the daemon's Prometheus exposition verbatim — pipe
        # this into a node_exporter textfile or promtool check.
        print(client.metrics_prometheus(), end="")
        return 0
    response = client.status()
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 1
    log.info(f"service pid {response['pid']} on {response['socket']} "
             f"(uptime {response['uptime_s']:.0f}s)")
    log.info(f"  queue depth {response['queue_depth']}, "
             f"inflight {response['inflight']}")
    for req in response.get("inflight_requests", []):
        log.info(f"  inflight {req['id']}: {req['benchmark']}/"
                 f"{req['selector']} (age {req['age_s']:.1f}s, "
                 f"{req['waiters']} waiter"
                 f"{'s' if req['waiters'] != 1 else ''})")
    flight_info = response.get("flight")
    if flight_info:
        log.info(f"  flight recorder "
                 f"{'armed' if flight_info['armed'] else 'disarmed'}: "
                 f"{flight_info['dumps']} dumps -> "
                 f"{flight_info['dir']}")
    store = response["store"]
    log.info(f"  store {store['root']}: {store['entries']} artifacts, "
             f"{store['bytes'] / 1e6:.1f} MB "
             f"of {store['budget_bytes'] / 1e6:.0f} MB")
    counters = response["metrics"]["counters"]
    for name in sorted(counters):
        if name.startswith(("service.", "store.")):
            log.info(f"  {name:<32} {counters[name]:>10.0f}")
    return 0 if response.get("ok") else 1


def _service_submit(args) -> int:
    response = _service_client(args).submit_flow(
        benchmark=args.benchmark, selector=args.selector,
        seed=args.seed, with_scan=args.with_scan,
        dft_strategy=args.dft_strategy, freq_mhz=args.freq_mhz,
        save_report=args.save_report)
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 1
    if not response.get("ok"):
        log.error(f"flow request failed: {response.get('error')}")
        return 1
    source = "artifact replay" if response["cached"] else "cold compute"
    log.info(f"{response['benchmark']} — selector "
             f"{response['selector']} ({source}, "
             f"{response['serve_s']:.3f}s served"
             f"{', deduped' if response.get('deduped') else ''})")
    for key, value in response["row"].items():
        log.info(f"  {key:<18} {value:>12.3f}" if isinstance(value, float)
                 else f"  {key:<18} {value:>12}")
    if response.get("artifacts"):
        for kind, path in response["artifacts"].items():
            log.info(f"  artifact[{kind}] {path}")
    return 0


def _cmd_service(args) -> int:
    handler = {"start": _service_start, "stop": _service_stop,
               "status": _service_status, "submit": _service_submit}
    return handler[args.service_command](args)


def _trace_report(args) -> int:
    from repro.obs.analyze import report_file
    print(report_file(args.file, top=args.top, by=args.by))
    return 0


def _trace_diff(args) -> int:
    from repro.obs.analyze import diff_files
    print(diff_files(args.a, args.b, top=args.top))
    return 0


def _trace_gate(args) -> int:
    from repro.obs import trend
    latest = trend.latest_legs(trend.load_trend(args.trend))
    if args.update_budgets:
        legs = args.leg or None
        payload = trend.write_budgets(args.budgets, latest, legs=legs,
                                      tolerance=args.tolerance,
                                      headroom=args.headroom)
        log.info(f"wrote {len(payload['budgets'])} leg budgets to "
                 f"{args.budgets} (headroom x{payload['headroom']:g}, "
                 f"tolerance {payload['tolerance']:.0%})")
        return 0
    budgets = trend.load_budgets(args.budgets)
    failures, lines = trend.check_gate(latest, budgets)
    for line in lines:
        log.info(line)
    if failures:
        for failure in failures:
            log.error(f"perf gate: {failure}")
        return 1
    log.info(f"perf gate ok: {len(budgets['budgets'])} legs within "
             f"budget")
    return 0


def _cmd_trace(args) -> int:
    handler = {"report": _trace_report, "diff": _trace_diff,
               "gate": _trace_gate}
    try:
        return handler[args.trace_command](args)
    except (OSError, ValueError) as exc:
        log.error(str(exc))
        return 2


def _cmd_export(args) -> int:
    from repro.netlist.verilog import write_verilog
    spec = get_benchmark(args.benchmark)
    netlist = spec.factory(spec.tech().libraries, args.seed)
    write_verilog(netlist, args.out)
    stats = netlist.stats()
    log.info(f"wrote {args.out}: {stats['instances']} instances, "
             f"{stats['nets']} nets")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="GNN-MLS reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list", help="list benchmarks and selectors")

    flow = sub.add_parser("flow", help="run one flow, print its row")
    _add_common(flow)
    flow.add_argument("--verilog", metavar="FILE", default=None,
                      type=_verilog_source,
                      help="import FILE (structural Verilog, e.g. from "
                           "'repro export') as the design instead of "
                           "generating the benchmark netlist; tech and "
                           "target frequency still come from "
                           "--benchmark")

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("--table", type=int, required=True,
                       choices=(1, 3, 4, 5, 6))
    table.add_argument("--seed", type=int,
                       default=DEFAULT_EXPERIMENT_SEED)

    timing = sub.add_parser("timing", help="signoff-style timing report")
    _add_common(timing)
    timing.add_argument("--paths", type=int, default=3)

    congestion = sub.add_parser("congestion",
                                help="routing utilization + heatmap")
    _add_common(congestion)

    export = sub.add_parser("export", help="write structural Verilog")
    _add_design(export)
    export.add_argument("--out", required=True)

    service = sub.add_parser(
        "service", help="flow-as-a-service daemon (start|stop|status|"
                        "submit)")
    ssub = service.add_subparsers(dest="service_command", required=True)

    def _add_socket(parser):
        parser.add_argument("--socket", default=DEFAULT_SOCKET,
                            help=f"daemon unix socket "
                                 f"(default: {DEFAULT_SOCKET})")

    s_start = ssub.add_parser("start", help="run the daemon")
    _add_socket(s_start)
    s_start.add_argument("--store", default=None,
                         help=f"artifact store root "
                              f"(default: {DEFAULT_STORE})")
    s_start.add_argument("--budget-mb", type=_positive_int, default=2048,
                         help="store size budget in MB (LRU eviction)")
    s_start.add_argument("--detach", action="store_true",
                         help="fork into the background and return "
                              "once the socket answers")

    s_stop = ssub.add_parser("stop", help="shut the daemon down")
    _add_socket(s_stop)

    s_status = ssub.add_parser("status",
                               help="queue/store/metrics snapshot")
    _add_socket(s_status)
    s_status.add_argument("--json", action="store_true",
                          help="print the raw status JSON")

    s_submit = ssub.add_parser("submit", help="submit one flow request")
    _add_socket(s_submit)
    _add_design(s_submit)
    s_submit.add_argument("--selector", default="gnn",
                          choices=list(SELECTORS))
    s_submit.add_argument("--with-scan", action="store_true")
    s_submit.add_argument("--dft-strategy", default=None,
                          choices=("net-based", "wire-based"))
    s_submit.add_argument("--freq-mhz", type=float, default=None,
                          help="override the benchmark target clock")
    s_submit.add_argument("--save-report", action="store_true",
                          help="also report the on-disk FlowReport "
                               "artifact paths")
    s_submit.add_argument("--timeout", type=float, default=900.0,
                          help="client wait budget in seconds")
    s_submit.add_argument("--json", action="store_true",
                          help="print the raw response JSON")

    s_status.add_argument("--metrics", action="store_true",
                          help="print the daemon metrics as Prometheus "
                               "text exposition and exit")

    tracecmd = sub.add_parser(
        "trace", help="analyze trace files (report|diff|gate)")
    tsub = tracecmd.add_subparsers(dest="trace_command", required=True)

    t_report = tsub.add_parser(
        "report", help="self/total time per span path, critical path")
    t_report.add_argument("file", help="span trace (JSONL)")
    t_report.add_argument("--top", type=_positive_int, default=20,
                          help="hot paths to show (default: 20)")
    t_report.add_argument("--by", default="self",
                          choices=("self", "total"),
                          help="hot-path sort key (default: self)")

    t_diff = tsub.add_parser(
        "diff", help="localize where wall-clock moved between two runs")
    t_diff.add_argument("a", help="baseline span trace (JSONL)")
    t_diff.add_argument("b", help="comparison span trace (JSONL)")
    t_diff.add_argument("--top", type=_positive_int, default=20,
                        help="largest self-time moves to show")

    t_gate = tsub.add_parser(
        "gate", help="fail when a tracked perf leg exceeds its budget")
    t_gate.add_argument("--trend",
                        default="benchmarks/results/trend.jsonl",
                        help="perf-trend ledger (JSONL, appended by "
                             "the benches)")
    t_gate.add_argument("--budgets", default="benchmarks/budgets.json",
                        help="per-leg budget file")
    t_gate.add_argument("--update-budgets", action="store_true",
                        help="re-baseline: write budgets from the "
                             "newest ledger samples instead of "
                             "checking")
    t_gate.add_argument("--leg", action="append", metavar="NAME",
                        help="with --update-budgets: re-baseline only "
                             "this leg, keeping every other budget "
                             "(repeatable; default: every sampled leg)")
    t_gate.add_argument("--tolerance", type=float, default=None,
                        help="with --update-budgets: allowed fraction "
                             "over budget (default: keep the file's, "
                             "else 0.15)")
    t_gate.add_argument("--headroom", type=float, default=None,
                        help="with --update-budgets: budget = newest "
                             "sample x headroom (default: keep the "
                             "file's, else 2.0)")

    for command in (listing, flow, table, timing, congestion, export,
                    s_start, s_stop, s_submit, t_report, t_diff,
                    t_gate):
        _add_obs(command)
    _add_obs(s_status, metrics_flag=False)

    args = parser.parse_args(argv)
    set_log_level(args.log_level)
    handler = {
        "list": _cmd_list,
        "flow": _cmd_flow,
        "table": _cmd_table,
        "timing": _cmd_timing,
        "congestion": _cmd_congestion,
        "export": _cmd_export,
        "service": _cmd_service,
        "trace": _cmd_trace,
    }[args.command]
    # Long-lived daemons stream their trace through a rotating sink
    # (bounded file size, bounded memory); one-shot commands buffer
    # unless --trace-max-mb asks for rotation explicitly.
    streaming = args.trace and (
        args.trace_max_mb is not None
        or (args.command == "service"
            and args.service_command == "start"))
    if (args.command == "service" and args.service_command == "start"
            and args.detach):
        # The forked daemon owns the trace and metrics files
        # (_service_start forwards the flags and clears args.trace and
        # args.metrics); the parent must not open, truncate, or write
        # them.
        streaming = False
    elif args.trace:
        trace.enable()
        if streaming:
            from repro.obs.tracer import RotatingTraceSink
            max_mb = args.trace_max_mb or 64
            trace.attach_sink(RotatingTraceSink(
                args.trace, max_bytes=max_mb << 20))
    code = handler(args)
    if args.trace:
        if streaming:
            sink = trace.detach_sink()
            trace.disable()
            trace.reset()
            log.info(f"streamed {sink.records_written} spans to "
                     f"{args.trace} ({sink.rotations} rotations; "
                     f"no chrome sibling in rotating mode)")
        else:
            spans = trace.write_jsonl(args.trace)
            chrome = chrome_trace_path(args.trace)
            trace.write_chrome(chrome)
            trace.disable()
            trace.reset()
            log.info(f"wrote {spans} spans to {args.trace} "
                     f"(chrome: {chrome})")
    if getattr(args, "metrics", None) and isinstance(args.metrics, str):
        metrics.write_json(args.metrics)
        log.info(f"wrote metrics to {args.metrics}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
