"""Command-line interface.

Examples::

    # list what is available
    repro-dgnn list-models
    repro-dgnn list-datasets
    repro-dgnn list-experiments

    # regenerate a paper artefact
    repro-dgnn experiment table1
    repro-dgnn experiment fig6 --scale small --output fig6.json

    # profile one model/dataset/device configuration
    repro-dgnn profile tgat --dataset wikipedia --device gpu --param num_neighbors=50

    # simulate online serving under load
    repro-dgnn serve tgat --dataset wikipedia --arrival poisson --rate 200 --slo-ms 50
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import __version__
from .bench import (
    available_scenarios,
    comparable_scenarios,
    compare_to_baseline,
    format_table as format_bench_table,
    load_report,
    next_bench_path,
    run_bench,
    to_payload,
    write_report,
)
from .cache import available_eviction_policies, backfill_embeddings, make_model_cache
from .core import Profiler, analyze_profile, compute_breakdown
from .datasets import available_datasets, load
from .experiments import available_experiments, run_experiment
from .fuzz import INVARIANTS, fuzz as run_fuzz, load_reproducer, replay, save_reproducer
from .graph.partition import available_partitioners, make_partition
from .hw import Cluster, Machine, available_cluster_specs, available_machine_specs
from .models import available_models, build_model
from .obs import (
    MetricsRegistry,
    Tracer,
    attribute_request,
    diff_traces,
    export_trace,
    format_breakdown,
    format_diff,
    format_top_spans,
    load_trace,
    pick_request,
    top_spans,
)
from .serve import (
    AutoscaleConfig,
    Autoscaler,
    ClusterServer,
    InferenceServer,
    ShardedModel,
    available_arrivals,
    available_policies,
    available_routers,
    build_cluster_replicas,
    build_replicas,
    generate_requests,
    make_arrival_process,
    make_fidelity_controller,
    make_policy,
    make_router,
)


def _coerce_value(raw: str) -> Any:
    """Coerce a ``--param`` value string to bool/int/float, else keep it."""
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _param_override(text: str) -> Tuple[str, Any]:
    """argparse type for ``--param``: a validated, coerced ``(key, value)``.

    Raising :class:`argparse.ArgumentTypeError` here makes argparse exit
    cleanly (usage message + ``SystemExit(2)``) on malformed overrides
    instead of surfacing a raw traceback.
    """
    key, separator, raw = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(f"parameter override {text!r} must be key=value")
    return (key, _coerce_value(raw))


def _parse_param(values: Sequence[Union[str, Tuple[str, Any]]]) -> Dict[str, Any]:
    """Merge ``key=value`` overrides, coercing ints/floats/bools.

    Accepts both raw strings (programmatic use; raises :class:`ValueError`
    on malformed input) and the ``(key, value)`` pairs ``--param`` produces
    via :func:`_param_override`.  Later duplicates win.
    """
    overrides: Dict[str, Any] = {}
    for item in values:
        if isinstance(item, tuple):
            key, value = item
        else:
            try:
                key, value = _param_override(item)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(str(exc)) from None
        overrides[key] = value
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dgnn",
        description="DGNN inference bottleneck analysis (IISWC 2022 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub.add_parser("list-models", help="list the profiled DGNN models")
    sub.add_parser("list-datasets", help="list the synthetic datasets")
    sub.add_parser("list-experiments", help="list the table/figure experiments")

    exp = sub.add_parser("experiment", help="run one paper experiment")
    exp.add_argument("name", choices=available_experiments())
    exp.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    exp.add_argument("--seed", type=int, default=0,
                     help="random seed for seeded experiments (serving, overlap_exec)")
    exp.add_argument("--output", default=None, help="write the rows as JSON to this path")
    exp.add_argument("--max-rows", type=int, default=None, help="limit printed rows")

    prof = sub.add_parser("profile", help="profile one model configuration")
    prof.add_argument("model", choices=available_models())
    prof.add_argument("--dataset", default=None, help="dataset name (model default if omitted)")
    prof.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    prof.add_argument("--device", default="gpu", choices=("cpu", "gpu"))
    prof.add_argument("--iterations", type=int, default=1,
                      help="number of inference iterations to profile")
    prof.add_argument("--backend", default="numeric", choices=("numeric", "shape"),
                      help="execution backend: 'numeric' computes real values, "
                           "'shape' propagates only shapes/dtypes while charging "
                           "the identical simulated timeline (much faster)")
    prof.add_argument(
        "--overlap", action=argparse.BooleanOptionalAction, default=False,
        help="execute iterations with the stream-based sampling/compute "
             "overlap scheduler instead of the serialized baseline "
             "(requires a model implementing the overlap protocol, e.g. tgat)",
    )
    prof.add_argument(
        "--param", action="append", type=_param_override, default=[],
        metavar="KEY=VALUE",
        help="model config override, e.g. --param batch_size=256 (repeatable)",
    )
    prof.add_argument("--trace", default=None, metavar="PATH",
                      help="export the profiled timeline as Perfetto/Chrome "
                           "trace-event JSON to PATH (load it in "
                           "ui.perfetto.dev, or feed it to repro-dgnn trace)")

    srv = sub.add_parser(
        "serve",
        help="simulate online inference serving under load",
        description="Serve a stream of inference requests against one model "
                    "on the simulated machine: seeded arrival process -> "
                    "request queue -> dynamic batching under a scheduler "
                    "policy -> model iterations, with latency-percentile "
                    "telemetry at the end.",
    )
    srv.add_argument("model", choices=available_models())
    srv.add_argument("--dataset", default=None, help="dataset name (model default if omitted)")
    srv.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    srv.add_argument("--arrival", default="poisson", choices=available_arrivals(),
                     help="request arrival process")
    srv.add_argument(
        "--arrival-param", action="append", type=_param_override, default=[],
        metavar="KEY=VALUE",
        help="arrival-process override, e.g. --arrival-param "
             "flash_multiplier=8 for --arrival flash-crowd (repeatable)",
    )
    srv.add_argument("--rate", type=float, default=200.0,
                     help="mean arrival rate in requests per simulated second")
    srv.add_argument("--policy", default="timeout", choices=available_policies(),
                     help="batch scheduling policy")
    srv.add_argument("--slo-ms", type=float, default=50.0,
                     help="per-request latency objective in simulated ms "
                          "(stamps every request's deadline; also configures "
                          "the slo policy)")
    srv.add_argument("--duration", type=float, default=1000.0,
                     help="arrival window in simulated ms (queued requests drain after)")
    srv.add_argument("--max-batch-size", type=int, default=8,
                     help="dynamic batching cap in requests")
    srv.add_argument("--batch-timeout-ms", type=float, default=None,
                     help="max wait before a partial batch is dispatched "
                          "(timeout/slo policies only, default 4; an error "
                          "with --policy fifo, which never waits)")
    srv.add_argument("--events-per-request", type=int, default=1,
                     help="event-stream slice size each request carries")
    srv.add_argument("--seed", type=int, default=0,
                     help="seed for the arrival process (runs are reproducible)")
    srv.add_argument("--topology", default="1xA6000",
                     choices=available_machine_specs() + available_cluster_specs(),
                     help="machine or cluster topology preset to serve on; "
                          "cluster presets (e.g. 2n-2xA100-eth) place one "
                          "replica per GPU across NIC-linked nodes")
    srv.add_argument("--backend", default="numeric", choices=("numeric", "shape"),
                     help="execution backend: 'numeric' computes real values, "
                          "'shape' propagates only shapes/dtypes while charging "
                          "the identical simulated timeline (much faster)")
    srv.add_argument("--gpus", type=int, default=None,
                     help="number of the topology's GPUs to use "
                          "(default: all of them)")
    srv.add_argument("--placement", default="single",
                     choices=("single", "replicate", "shard"),
                     help="scale-out placement: one model on GPU 0, one "
                          "replica per GPU behind a router, or a graph-"
                          "sharded model spanning the GPUs")
    srv.add_argument("--router", default="round-robin", choices=available_routers(),
                     help="batch router for --placement replicate and cluster "
                          "topologies")
    srv.add_argument(
        "--autoscale", action=argparse.BooleanOptionalAction, default=False,
        help="enable the elastic autoscaler (cluster topologies only): "
             "replicas spin up/down between --min-replicas and "
             "--max-replicas, paying modeled cold starts (weight transfer "
             "over the NIC, cold caches)",
    )
    srv.add_argument("--min-replicas", type=int, default=1,
                     help="autoscaler floor (with --autoscale)")
    srv.add_argument("--max-replicas", type=int, default=None,
                     help="autoscaler ceiling (with --autoscale; default: "
                          "every GPU in the cluster)")
    srv.add_argument("--partitioner", default="degree", choices=available_partitioners(),
                     help="node partitioner for --placement shard")
    srv.add_argument(
        "--overlap", action=argparse.BooleanOptionalAction, default=False,
        help="serve with the stream-based sampling/compute overlap scheduler "
             "(requires a model implementing the overlap protocol, e.g. tgat)",
    )
    srv.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="front the request path with the staleness-aware serving cache "
             "(embedding/sample/memory stores charged to simulated device "
             "memory; per replica under --placement replicate, per shard "
             "under --placement shard)",
    )
    srv.add_argument("--cache-policy", default="lru",
                     choices=available_eviction_policies(),
                     help="cache eviction policy")
    srv.add_argument("--cache-mb", type=float, default=64.0,
                     help="cache byte budget in MB (split across the model's "
                          "entry-kind stores)")
    srv.add_argument("--staleness-ms", type=float, default=0.0,
                     help="event-time staleness bound; 0 admits no hit, so "
                          "cached execution stays byte-identical to uncached")
    srv.add_argument(
        "--fidelity", action=argparse.BooleanOptionalAction, default=False,
        help="adaptive fidelity (requires --policy slo): under deadline "
             "pressure, degrade batches instead of missing SLOs outright -- "
             "reduced sampling fan-out, then a widened cache staleness "
             "bound, then forced cache hits for already-lost deadlines -- "
             "and account the accumulated fidelity debt in the report",
    )
    srv.add_argument("--backfill", type=int, default=0, metavar="N",
                     help="precompute the N hottest nodes' embeddings into "
                          "the serving cache before traffic starts (requires "
                          "--cache; on cluster topologies the same charge "
                          "also lands inside autoscaling cold starts)")
    srv.add_argument(
        "--param", action="append", type=_param_override, default=[],
        metavar="KEY=VALUE",
        help="model config override, e.g. --param num_neighbors=20 (repeatable)",
    )
    srv.add_argument("--trace", default=None, metavar="PATH",
                     help="record per-request spans and a metrics registry "
                          "during the run and export a Perfetto/Chrome "
                          "trace-event JSON to PATH (request flows cross node "
                          "tracks on cluster topologies; analyse with "
                          "repro-dgnn trace)")

    tr = sub.add_parser(
        "trace",
        help="critical-path attribution of an exported trace",
        description="Analyse a trace file written by serve/profile --trace: "
                    "decompose one request's end-to-end latency into "
                    "queue/kernel/nic/copy/cache/sample/sync/wait segments "
                    "that sum exactly to its total (the service window is "
                    "swept over the serving node's timeline events, highest-"
                    "priority active category first), print the longest "
                    "spans, or diff two traces category by category.",
    )
    tr.add_argument("trace", help="trace JSON exported by serve/profile --trace")
    tr.add_argument("--request", default="p99", metavar="SELECTOR",
                    help="which request to attribute: p50/p95/p99 (closest "
                         "to that total-latency percentile), max (slowest), "
                         "or a request id")
    tr.add_argument("--top", type=int, default=10, metavar="K",
                    help="also print the K longest spans (0 disables)")
    tr.add_argument("--diff", default=None, metavar="OTHER",
                    help="instead of attribution, diff this trace against "
                         "OTHER (per-category busy totals and latency "
                         "percentiles)")

    fz = sub.add_parser(
        "fuzz",
        help="fuzz the simulator's cross-tier invariants",
        description="Run seeded random operator programs over random "
                    "configurations from the full cross-product (machine "
                    "topologies x cluster NIC presets x cache policy/"
                    "capacity/staleness x serving placement/router/policy x "
                    "numeric-vs-shape backend), checking every global "
                    "contract after each case.  The first violation is "
                    "greedily shrunk to a minimal seed + JSON reproducer "
                    "and written to --out; exit status 1 flags the finding.",
    )
    fz.add_argument("--seed", type=int, default=0,
                    help="campaign seed (case i replays as seed '<seed>:<i>')")
    fz.add_argument("--budget", type=int, default=100,
                    help="number of independent cases to run")
    fz.add_argument("--check", action="append", default=[], metavar="INVARIANT",
                    choices=sorted(INVARIANTS) + ["all"],
                    help="invariant to enforce (repeatable; default all): "
                         f"{', '.join(sorted(INVARIANTS))}")
    fz.add_argument("--num-ops", type=int, default=40,
                    help="ops per program (a serving episode rides on top "
                         "when the drawn config has one)")
    fz.add_argument("--fault-rate", type=float, default=0.0,
                    help="probability of planting a clock-rewind fault per "
                         "op slot (harness self-test; the monotone-clock "
                         "invariant must catch and shrink it)")
    fz.add_argument("--out", default="FUZZ_REPRO.json",
                    help="where to write the shrunken reproducer on failure")
    fz.add_argument("--replay", default=None, metavar="REPRO_JSON",
                    help="re-execute a reproducer file instead of fuzzing "
                         "(exit 1 if its invariant still fails)")
    fz.add_argument("--list-invariants", action="store_true",
                    help="print the available invariants and exit")
    fz.add_argument("--progress", action=argparse.BooleanOptionalAction, default=False,
                    help="print one line per case as the campaign runs")

    bench = sub.add_parser(
        "bench",
        help="run the performance benchmark suite",
        description="Run the scenario suite (offline iteration, blocking/"
                    "overlapped serving, 1/2/4-GPU scaling), report median "
                    "wall-clock, simulated time and events/sec per scenario, "
                    "and write a machine-readable BENCH_<n>.json.  With "
                    "--baseline, exit non-zero if any scenario's median wall "
                    "time regressed beyond --max-regression.",
    )
    bench.add_argument("--quick", action="store_true",
                       help="small workloads and fewer reps (the CI perf gate)")
    bench.add_argument("--reps", type=int, default=None,
                       help="repetitions per scenario (default: 5, or 3 with --quick)")
    bench.add_argument("--seed", type=int, default=0,
                       help="workload seed (simulated results are reproducible)")
    bench.add_argument("--scenario", action="append", default=[],
                       choices=available_scenarios(), metavar="NAME",
                       help="run only the named scenario (repeatable; "
                            f"available: {', '.join(available_scenarios())})")
    bench.add_argument("--output", default=None,
                       help="report path (default: next free BENCH_<n>.json "
                            "in the current directory)")
    bench.add_argument("--no-write", action="store_true",
                       help="print the table without writing a report file")
    bench.add_argument("--baseline", default=None,
                       help="compare against this BENCH_*.json and gate on it")
    bench.add_argument("--max-regression", type=float, default=0.25,
                       help="allowed fractional wall-clock regression per "
                            "scenario vs --baseline (default 0.25 = 25%%)")

    # Hidden maintenance subcommand (no help= -> omitted from the listing):
    # regenerates docs/CLI.md from this parser so the reference cannot drift.
    docs = sub.add_parser(
        "docs",
        description="Render the CLI reference as deterministic markdown "
                    "(the generator walks the parser directly instead of "
                    "using argparse's terminal-width-dependent help "
                    "formatter).  tests/test_docs.py regenerates it and "
                    "fails on drift.",
    )
    docs.add_argument("--output", default=None,
                      help="write the markdown here instead of stdout")
    return parser


def _doc_entry(action: argparse.Action) -> Optional[str]:
    """One markdown bullet for a parser action (None: not documented)."""
    if action.help == argparse.SUPPRESS or isinstance(action, argparse._SubParsersAction):
        return None
    if action.option_strings:
        if any(option in ("-h", "--help") for option in action.option_strings):
            return None
        name = ", ".join(f"`{option}`" for option in action.option_strings)
    else:
        name = f"`{action.metavar or action.dest}`"
    notes = []
    if action.choices is not None:
        notes.append("one of: " + ", ".join(f"`{choice}`" for choice in action.choices))
    default = action.default
    if (
        action.option_strings
        and default is not None
        and default is not argparse.SUPPRESS
        and default is not False
        and default != []
    ):
        notes.append(f"default: `{default}`")
    # Raw help text, not argparse's formatter: format_help() wraps to the
    # invoking terminal's width, which would make the generated reference
    # differ between environments.  ('%%' is argparse's escaped percent.)
    text = " ".join((action.help or "").replace("%%", "%").split())
    parts = [name]
    if notes:
        parts.append("(" + "; ".join(notes) + ")")
    if text:
        parts.append("— " + text)
    return "- " + " ".join(parts)


def render_cli_docs(parser: Optional[argparse.ArgumentParser] = None) -> str:
    """The full CLI reference as deterministic markdown.

    Walks the parser's subcommands and actions directly so the output is
    canonical -- byte-identical regardless of terminal width or locale --
    and therefore diffable: ``tests/test_docs.py`` regenerates it and fails
    when ``docs/CLI.md`` drifts from the argparse definitions.
    """
    if parser is None:
        parser = build_parser()
    sub_action = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    lines = [
        "# CLI reference",
        "",
        f"`{parser.prog}` — {parser.description}",
        "",
        "Generated by `repro-dgnn docs`; edit `src/repro/cli.py`, not this "
        "file (`tests/test_docs.py` fails on drift).  Global flag: "
        "`--version`.",
    ]
    for name, command in sub_action.choices.items():
        lines.append("")
        lines.append(f"## `{parser.prog} {name}`")
        summary = command.description or next(
            (
                choice_action.help
                for choice_action in sub_action._choices_actions
                if choice_action.dest == name and choice_action.help
            ),
            None,
        )
        if summary:
            lines.append("")
            lines.append(" ".join(summary.split()))
        entries = [_doc_entry(action) for action in command._actions]
        entries = [entry for entry in entries if entry is not None]
        if entries:
            lines.append("")
            lines.extend(entries)
    lines.append("")
    return "\n".join(lines)


def _cmd_docs(args: argparse.Namespace) -> int:
    text = render_cli_docs()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_list_models() -> int:
    for name in available_models():
        print(name)
    return 0


def _cmd_list_datasets() -> int:
    for name in available_datasets():
        print(name)
    return 0


def _cmd_list_experiments() -> int:
    for name in available_experiments():
        print(name)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = run_experiment(args.name, scale=args.scale, seed=args.seed)
    print(result.format_table(max_rows=args.max_rows))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"experiment": result.experiment, "rows": result.rows,
                       "notes": result.notes}, handle, indent=2)
        print(f"\nwrote {len(result.rows)} rows to {args.output}")
    return 0


def _take_batches(model, count: int) -> List[Any]:
    """The first ``count`` iteration batches of a model."""
    return list(itertools.islice(model.iteration_batches(), count))


def _print_profile_summary(profile, title: str) -> None:
    breakdown = compute_breakdown(profile)
    print(breakdown.format_table(title=title))
    print(f"GPU utilization: {profile.gpu_utilization() * 100:.2f}%   "
          f"peak GPU memory: {profile.peak_memory_mb('gpu'):.1f} MB")
    print()


def _cmd_profile(args: argparse.Namespace) -> int:
    overrides = _parse_param(args.param)
    machine = (
        Machine.cpu_gpu(backend=args.backend)
        if args.device == "gpu"
        else Machine.cpu_only(backend=args.backend)
    )
    tracer = Tracer().attach(machine) if args.trace else None
    with machine.activate():
        dataset = load(args.dataset, scale=args.scale) if args.dataset else None
        model = build_model(args.model, machine, dataset=dataset, scale=args.scale, **overrides)
        profiler = Profiler(machine)
        if args.overlap:
            status = _profile_overlapped(args, machine, model, profiler)
            if status == 0 and tracer is not None:
                export_trace(args.trace, tracer, label=f"{args.model}-profile")
                print(f"wrote trace to {args.trace}")
            return status
        for index, batch in enumerate(_take_batches(model, args.iterations)):
            if index == 0:
                model.warm_up(batch)
            with profiler.capture(f"{args.model}-iter{index}"):
                model.inference_iteration(batch)
    for profile in profiler.profiles:
        _print_profile_summary(profile, f"{profile.label} ({args.device})")
    report = analyze_profile(profiler.profiles[-1])
    print(report.format_table())
    if tracer is not None:
        export_trace(args.trace, tracer, label=f"{args.model}-profile")
        print(f"wrote trace to {args.trace}")
    return 0


def _profile_overlapped(args, machine, model, profiler) -> int:
    """Profile ``--iterations`` batches through the overlap scheduler."""
    from .optim import OverlappedRunner

    try:
        runner = OverlappedRunner(model)
    except TypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    batches = _take_batches(model, args.iterations)
    if not batches:
        print("error: the model yielded no batches", file=sys.stderr)
        return 2
    model.warm_up(batches[0])
    # Prime the prefetch stream so the capture reflects steady state, then
    # leave the trailing synchronisation to the scheduler's own stream syncs.
    runner.prefetch(batches[0])
    with profiler.capture(f"{args.model}-overlapped", synchronize=False):
        result = runner.run(batches)
    profile = profiler.last_profile
    _print_profile_summary(profile, f"{profile.label} ({args.device}, {len(batches)} iterations)")
    print("per-iteration host time (ms): "
          + "  ".join(f"{t:.3f}" for t in result.iteration_ms))
    print(f"steady-state iteration: {result.steady_state_ms():.3f} ms")
    for snapshot in profile.stream_snapshots("cpu"):
        if snapshot.name != "default":
            print(f"prefetch stream '{snapshot.name}': busy {snapshot.busy_ms:.3f} ms "
                  f"({snapshot.occupancy * 100:.1f}% of window)")
    return 0


def _make_cli_policy(args: argparse.Namespace):
    """Build the scheduler policy from serve-command flags.

    Explicit flags are forwarded verbatim so :func:`make_policy` rejects
    inapplicable overrides (``--policy fifo --batch-timeout-ms 20`` is a
    contradiction, not a silent no-op).  ``--slo-ms`` doubles as the
    request-deadline stamp for every policy, so it only reaches the policy
    constructor when the slo policy consumes it.
    """
    batch_timeout_ms = args.batch_timeout_ms
    if batch_timeout_ms is None and args.policy in ("timeout", "slo"):
        batch_timeout_ms = 4.0
    return make_policy(
        args.policy,
        max_batch_size=args.max_batch_size,
        batch_timeout_ms=batch_timeout_ms,
        slo_ms=args.slo_ms if args.policy == "slo" else None,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    overrides = _parse_param(args.param)
    if args.fidelity and args.policy != "slo":
        print(
            "error: --fidelity degrades batches on the slo policy's deadline "
            "signal; pass --policy slo",
            file=sys.stderr,
        )
        return 2
    if args.backfill < 0:
        print("error: --backfill must be non-negative", file=sys.stderr)
        return 2
    if args.backfill and not args.cache:
        print("error: --backfill warms the serving cache; pass --cache",
              file=sys.stderr)
        return 2
    if args.topology in available_cluster_specs():
        return _cmd_serve_cluster(args, overrides)
    if args.autoscale:
        print(
            "error: --autoscale needs a cluster topology "
            f"(one of: {', '.join(available_cluster_specs())})",
            file=sys.stderr,
        )
        return 2
    machine = Machine.from_spec(args.topology, backend=args.backend)
    gpus = list(machine.gpus)
    if args.gpus is not None:
        if args.gpus < 1 or args.gpus > len(gpus):
            print(
                f"error: --gpus must be in [1, {len(gpus)}] for topology "
                f"{args.topology!r}",
                file=sys.stderr,
            )
            return 2
        gpus = gpus[: args.gpus]
    if args.placement == "single" and args.gpus is not None:
        print(
            "error: --gpus only applies to --placement replicate/shard; "
            "single-model serving always runs on GPU 0",
            file=sys.stderr,
        )
        return 2
    if args.placement == "shard" and args.fidelity:
        print(
            "error: --fidelity has no degradation hooks on sharded serving; "
            "use --placement single or replicate",
            file=sys.stderr,
        )
        return 2
    if args.placement != "single":
        if args.overlap:
            print(
                "error: --overlap applies to single-model serving; "
                "replicated dispatch already overlaps sampling and compute",
                file=sys.stderr,
            )
            return 2
        if not gpus:
            print(
                f"error: --placement {args.placement} needs a GPU topology",
                file=sys.stderr,
            )
            return 2
    try:
        with machine.activate():
            dataset = load(args.dataset, scale=args.scale) if args.dataset else None

            def factory():
                return build_model(
                    args.model, machine, dataset=dataset, scale=args.scale, **overrides
                )

            if args.placement == "single":
                models = [factory()]
            else:
                models = build_replicas(machine, factory, gpus)
            if args.cache:
                for model in models:
                    make_model_cache(
                        model,
                        policy=args.cache_policy,
                        capacity_mb=args.cache_mb,
                        staleness_ms=args.staleness_ms,
                    )
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def build_server(policy, stream, tracer, metrics):
        if args.backfill:
            for model in models:
                backfill_embeddings(model, top_k=args.backfill)
        fidelity = make_fidelity_controller() if args.fidelity else None
        if args.placement == "replicate":
            return ClusterServer(
                machine, models, [0] * len(models), policy,
                make_router(args.router, len(models)), fidelity=fidelity,
                tracer=tracer, metrics=metrics,
            )
        if args.placement == "shard":
            partition = make_partition(args.partitioner, stream, len(models), seed=args.seed)
            return InferenceServer(ShardedModel(models, partition), policy, overlap=False,
                                   tracer=tracer, metrics=metrics)
        return InferenceServer(models[0], policy, overlap=args.overlap, fidelity=fidelity,
                               tracer=tracer, metrics=metrics)

    return _serve_and_report(
        args, models, dataset, f"{args.model}-serve-{args.placement}", build_server
    )


def _cmd_serve_cluster(args: argparse.Namespace, overrides: Dict[str, Any]) -> int:
    """Serve on a multi-node cluster topology (one replica per GPU)."""
    if args.placement == "shard":
        print(
            "error: --placement shard is single-machine only; cluster "
            "topologies serve one replica per GPU behind a router",
            file=sys.stderr,
        )
        return 2
    if args.overlap:
        print(
            "error: --overlap applies to single-model serving; cluster "
            "dispatch already overlaps sampling and compute",
            file=sys.stderr,
        )
        return 2
    if args.gpus is not None:
        print(
            "error: --gpus applies to single-machine topologies; cluster "
            "presets use every GPU of every node",
            file=sys.stderr,
        )
        return 2
    cluster = Cluster(args.topology, backend=args.backend)
    try:
        with cluster.nodes[0].activate():
            dataset = load(args.dataset, scale=args.scale) if args.dataset else None
        models, nodes = build_cluster_replicas(
            cluster,
            lambda machine: build_model(
                args.model, machine, dataset=dataset, scale=args.scale, **overrides
            ),
        )
        if args.cache:
            for model in models:
                with model.machine.activate():
                    make_model_cache(
                        model,
                        policy=args.cache_policy,
                        capacity_mb=args.cache_mb,
                        staleness_ms=args.staleness_ms,
                    )
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def build_server(policy, stream, tracer, metrics):
        autoscaler = None
        if args.autoscale:
            autoscaler = Autoscaler(AutoscaleConfig(
                min_replicas=args.min_replicas,
                max_replicas=args.max_replicas or len(models),
                slo_ms=args.slo_ms,
            ))
        return ClusterServer(
            cluster, models, nodes, policy,
            make_router(args.router, len(models)), autoscaler=autoscaler,
            fidelity=make_fidelity_controller() if args.fidelity else None,
            backfill_nodes=args.backfill,
            tracer=tracer, metrics=metrics,
        )

    return _serve_and_report(args, models, dataset, f"{args.model}-serve-cluster", build_server)


def _serve_and_report(
    args: argparse.Namespace,
    models: List[Any],
    dataset: Any,
    label: str,
    build_server: Callable[..., Any],
) -> int:
    """The serve commands' shared tail: requests, then the policy, then the
    tracer and metrics, then the server; then print and export the report.

    ``build_server(policy, stream, tracer, metrics)`` returns the server.
    """
    if dataset is None:
        dataset = getattr(models[0], "dataset", None)
    stream = getattr(dataset, "stream", None)
    if stream is None:
        print(f"error: {args.model} exposes no event stream to serve", file=sys.stderr)
        return 2
    try:
        arrivals = make_arrival_process(
            args.arrival, args.rate, seed=args.seed,
            trace_timestamps=stream.timestamps if args.arrival == "trace" else None,
            **_parse_param(args.arrival_param),
        )
        requests = generate_requests(
            stream, arrivals, duration_ms=args.duration,
            events_per_request=args.events_per_request, slo_ms=args.slo_ms,
        )
        policy = _make_cli_policy(args)
        tracer = Tracer() if args.trace else None
        metrics = MetricsRegistry() if args.trace else None
        server = build_server(policy, stream, tracer, metrics)
        report = server.serve(requests, label=label, arrival_name=args.arrival)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.format_table())
    if tracer is not None:
        export_trace(args.trace, tracer, report=report)
        print(f"wrote trace to {args.trace}")
    if not requests:
        print("(the workload offered no requests; raise --rate or --duration)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        payload = load_trace(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    if args.diff is not None:
        try:
            other = load_trace(args.diff)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load trace {args.diff!r}: {exc}", file=sys.stderr)
            return 2
        print(format_diff(diff_traces(payload, other)))
        return 0
    try:
        request = pick_request(payload, args.request)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_breakdown(request, attribute_request(payload, request)))
    if args.top > 0:
        spans = top_spans(payload, args.top)
        if spans:
            print()
            print(format_top_spans(spans))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.list_invariants:
        width = max(len(name) for name in INVARIANTS)
        for name in sorted(INVARIANTS):
            print(f"{name:<{width}}  {INVARIANTS[name]}")
        return 0
    if args.replay is not None:
        try:
            reproducer = load_reproducer(args.replay)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load reproducer {args.replay!r}: {exc}",
                  file=sys.stderr)
            return 2
        checks = args.check or None
        try:
            replay(reproducer, checks=checks)
        except AssertionError as violation:
            print(f"reproducer still fails: {violation}", file=sys.stderr)
            return 1
        invariant = reproducer.get("invariant", "?")
        print(f"reproducer replays clean ({invariant} holds)")
        return 0
    if args.budget < 1:
        print("error: --budget must be positive", file=sys.stderr)
        return 2
    if args.num_ops < 1:
        print("error: --num-ops must be positive", file=sys.stderr)
        return 2
    on_case = None
    if args.progress:
        def on_case(case: int, config) -> None:
            print(f"  case {case}: {config.describe()}")
    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        checks=args.check or None,
        num_ops=args.num_ops,
        fault_rate=args.fault_rate,
        on_case=on_case,
    )
    print(report.summary())
    if report.failure is not None:
        save_reproducer(args.out, report.failure.reproducer)
        print(f"wrote reproducer to {args.out}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.reps is not None and args.reps < 1:
        print("error: --reps must be positive", file=sys.stderr)
        return 2
    if args.max_regression < 0:
        print("error: --max-regression must be non-negative", file=sys.stderr)
        return 2
    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_report(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
    result = run_bench(
        scenarios=args.scenario or None,
        seed=args.seed,
        reps=args.reps,
        quick=args.quick,
    )
    payload = to_payload(result)
    print(format_bench_table(payload, baseline=baseline))
    if not args.no_write:
        path = args.output if args.output else next_bench_path(".")
        write_report(payload, path)
        print(f"\nwrote {path}")
    if baseline is not None:
        compared = comparable_scenarios(payload, baseline)
        if not compared:
            print(
                "error: no scenario is comparable against the baseline "
                "(names or quick/full modes do not match); the perf gate "
                "cannot pass vacuously -- refresh the baseline with the "
                "same mode this run used",
                file=sys.stderr,
            )
            return 1
        regressions = compare_to_baseline(payload, baseline, max_regression=args.max_regression)
        if regressions:
            print(
                f"\nPERF REGRESSION (> {args.max_regression:.0%} over baseline):",
                file=sys.stderr,
            )
            for regression in regressions:
                print(
                    f"  {regression.scenario}: {regression.baseline_wall_ms:.1f} ms "
                    f"-> {regression.current_wall_ms:.1f} ms "
                    f"({(regression.ratio - 1.0) * 100.0:+.1f}%)",
                    file=sys.stderr,
                )
            return 1
        print(
            f"\nperf gate passed (threshold {args.max_regression:.0%}, "
            f"{len(compared)} scenario(s) compared)"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-models":
        return _cmd_list_models()
    if args.command == "list-datasets":
        return _cmd_list_datasets()
    if args.command == "list-experiments":
        return _cmd_list_experiments()
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "docs":
        return _cmd_docs(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
