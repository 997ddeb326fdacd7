"""Command-line entry point: ``python -m repro``.

Subcommands::

    python -m repro info                 # package and experiment summary
    python -m repro run [EXPERIMENTS]    # forwards to repro.harness.run_all
    python -m repro demo                 # the quickstart scenario
    python -m repro obs                  # observability demo + exporters
    python -m repro check                # differential fuzzer + invariants
    python -m repro bench [NAME]         # run one benchmarks/ pytest module
"""

from __future__ import annotations

import argparse
import os
import sys

__all__ = ["main"]


def _cmd_info(_args) -> int:
    import repro
    from repro.harness.experiments import ALL_EXPERIMENTS
    print(f"repro {repro.__version__} — 'Adaptive Resource Views for "
          f"Containers' (HPDC '19) reproduction")
    print("\nregistered experiments:")
    for key, module in ALL_EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {key:10s} {doc}")
    print("\nrun them with: python -m repro run [--quick] [names...]")
    return 0


def _cmd_run(args) -> int:
    from repro.harness.run_all import main as run_all_main
    return run_all_main(args.forwarded)


def _cmd_demo(_args) -> int:
    from repro import ContainerSpec, World, gib
    world = World(ncpus=20, memory=gib(128))
    a = world.containers.create(ContainerSpec("a", cpu_shares=2048))
    b = world.containers.create(ContainerSpec("b", cpus=4.0))
    for i in range(16):
        a.spawn_thread(f"w{i}").assign_work(1e9)
    world.run(until=5.0)
    for c in (a, b):
        view = c.resource_view()
        print(f"container {c.name}: {view.ncpus()} effective CPUs "
              f"(host has {world.host.ncpus}), "
              f"{view.total_memory() / gib(1):.1f} GiB effective memory")
    return 0


def _cmd_obs_fleet(args) -> int:
    """Streaming fleet telemetry over the demo cluster scenario."""
    import json
    from repro.errors import ReproError
    from repro.obs.demo import run_fleet_demo
    from repro.obs.export import JsonlStreamWriter
    from repro.obs.fleet import FleetCollector, format_epoch_line

    sink = JsonlStreamWriter(args.output) if args.output else None
    collector = FleetCollector(sink=sink)
    try:
        cluster = run_fleet_demo(args.seed, quick=args.quick,
                                 collector=collector)
        for record in collector.epoch_records:
            print(format_epoch_line(record))
        print(json.dumps(collector.summary(), indent=2))
        if args.quick:
            # CI smoke: telemetry must not perturb the simulation.
            bare = run_fleet_demo(args.seed, quick=True)
            if bare.trace_digest() != cluster.trace_digest():
                raise ReproError("obs fleet self-check failed: telemetry "
                                 "changed the cluster trace digest")
    finally:
        if sink is not None:
            sink.close()
    if args.output:
        print(f"streamed {collector.records_streamed} epoch records "
              f"to {args.output}")
    return 0


def _cmd_obs_profile(args) -> int:
    """Engine self-profiler over the demo cluster scenario."""
    import json
    from repro.obs.demo import run_fleet_demo
    from repro.obs.profile import EngineProfiler

    profiler = EngineProfiler(flight_every=1024)
    run_fleet_demo(args.seed, quick=args.quick, profiler=profiler)
    if args.format == "jsonl":
        text = json.dumps(profiler.report())
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote profile report to {args.output}")
        else:
            print(text)
    else:
        print(profiler.format_report())
    return 0


def _cmd_obs(args) -> int:
    from repro.errors import ReproError
    from repro.obs import jsonl_export, jsonl_import, prometheus_text
    from repro.obs.demo import run_demo

    if args.mode == "fleet":
        return _cmd_obs_fleet(args)
    if args.mode == "profile":
        return _cmd_obs_profile(args)

    telemetry = run_demo(args.seed, quick=args.quick)
    world = telemetry.world

    jsonl = jsonl_export(telemetry.recorder, histograms=telemetry.histograms,
                         tracelog=world.trace, world=world)
    # Round-trip self-check: reload must reproduce the dump byte for
    # byte, so a broken exporter fails the CI smoke run loudly.
    if jsonl_import(jsonl).to_jsonl() != jsonl:
        raise ReproError("obs self-check failed: JSONL did not round-trip")

    throttled = world.cgroupfs.read(
        "/sys/fs/cgroup/cpu/docker/throttled/cpu.pressure")
    if "some avg10=" not in throttled:
        raise ReproError("obs self-check failed: malformed cpu.pressure")

    if args.format == "jsonl":
        text = jsonl
    else:
        text = prometheus_text(telemetry.recorder,
                               histograms=telemetry.histograms,
                               tracelog=world.trace, world=world)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        print(text, end="")
        if args.format == "prometheus":
            print()
            print("# throttled container cpu.pressure:")
            for line in throttled.splitlines():
                print(f"#   {line}")
    return 0


def _cmd_check(args) -> int:
    from repro.check.cli import main as check_main
    return check_main(args)


def _benchmarks_dir():
    """Locate ``benchmarks/`` for a source checkout (cwd or repo root)."""
    from pathlib import Path
    candidates = [Path.cwd() / "benchmarks",
                  Path(__file__).resolve().parents[2] / "benchmarks"]
    for cand in candidates:
        if cand.is_dir():
            return cand
    return None


def _cmd_bench(args) -> int:
    """Run one ``benchmarks/bench_NAME.py`` under ``pytest``.

    Every benchmark module is a pytest module: the figure, ablation and
    serving pins, and the engine's step-count pins.  Extra arguments
    after the name are forwarded to ``pytest``.
    """
    import subprocess
    bench_dir = _benchmarks_dir()
    if bench_dir is None:
        print("no benchmarks/ directory found (run from a source checkout)")
        return 2
    modules = {p.stem.removeprefix("bench_"): p
               for p in sorted(bench_dir.glob("bench_*.py"))}
    if not args.name:
        print("available benchmarks (python -m repro bench NAME [ARGS...]):")
        for name, path in modules.items():
            doc = ""
            for line in path.read_text().splitlines()[:2]:
                text = line.strip().strip('"').strip()
                if text:
                    doc = text
                    break
            print(f"  {name:10s} {doc}")
        return 0
    if args.name not in modules:
        print(f"unknown benchmark {args.name!r}; "
              f"choose from: {', '.join(modules)}")
        return 2
    path = modules[args.name]
    env = dict(os.environ)
    src = str(bench_dir.parent / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return subprocess.call(
        [sys.executable, "-m", "pytest", str(path), "-q", *args.args],
        env=env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="package and experiment summary")
    # ``run`` declares nothing: its arguments go to run_all's parser
    # unparsed (``repro run --help`` lists them).
    sub.add_parser("run", add_help=False,
                   help="run paper experiments (repro.harness.run_all)")
    sub.add_parser("demo", help="run the quickstart scenario")
    obs_p = sub.add_parser(
        "obs", help="observability demo: pressure, histograms, exporters")
    obs_p.add_argument("mode", nargs="?", default="demo",
                       choices=("demo", "fleet", "profile"),
                       help="demo: single-world exporters; fleet: streaming "
                            "cluster telemetry; profile: engine self-profiler")
    obs_p.add_argument("--quick", action="store_true",
                       help="short run + self-checks (the CI smoke path)")
    obs_p.add_argument("--seed", type=int, default=0)
    obs_p.add_argument("--format", choices=("prometheus", "jsonl"),
                       default="prometheus")
    obs_p.add_argument("--output", type=str, default=None,
                       help="write the export to a file instead of stdout")
    check_p = sub.add_parser(
        "check", help="differential scenario fuzzer + invariant checker")
    from repro.check.cli import add_arguments as _check_args
    _check_args(check_p)
    bench_p = sub.add_parser(
        "bench", help="run a benchmarks/ module by name (no name: list them)")
    bench_p.add_argument("name", nargs="?", default=None)
    bench_p.add_argument("args", nargs=argparse.REMAINDER,
                         help="forwarded to pytest")
    args, forwarded = parser.parse_known_args(argv)
    if forwarded and args.command != "run":
        parser.error(f"unrecognized arguments: {' '.join(forwarded)}")
    args.forwarded = forwarded
    handlers = {"info": _cmd_info, "run": _cmd_run, "demo": _cmd_demo,
                "obs": _cmd_obs, "check": _cmd_check, "bench": _cmd_bench}
    if args.command is None:
        parser.print_help()
        return 2
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro info | head``): stop
        # quietly, and point stdout at /dev/null so the interpreter's
        # final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
