"""Command-line interface: regenerate any paper artifact from a shell.

The paper's §6 lists "development of a more elaborate tool" as ongoing
work; this CLI is that tool's headless form.  Usage::

    python -m repro table1            # Table 1: TCP retransmission
    python -m repro table5            # Table 5: GMP packet interruption
    python -m repro figure4           # Figure 4 series
    python -m repro all               # everything
    python -m repro campaign gmp      # auto-generated script battery
    python -m repro campaign tcp --tclish   # show the tclish sources
    python -m repro fuzz --protocol gmp --seed 0   # oracle-guided fuzzing
    python -m repro fuzz --checkpoint-depth 4      # install the filter at t=4
    python -m repro explore --target self_death    # delivery-order exploration

Each table command runs the live experiment (nothing is cached) and
prints the paper-shaped rows.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import Callable, Dict, Union

from repro.analysis.tables import render_table


def _print(title: str, body: str) -> None:
    bar = "=" * 72
    print(f"{bar}\n{title}\n{bar}\n{body}\n")


# ----------------------------------------------------------------------
# table commands
# ----------------------------------------------------------------------

def cmd_table1(_args) -> None:
    from repro.experiments.tcp_retransmission import run_all, table_rows
    results = run_all()
    _print("Table 1: TCP Retransmission Timeout Results",
           render_table("(pass 30 packets, then drop all incoming)",
                        ["Implementation", "Results", "Comments"],
                        table_rows(results)))


def cmd_table2(args) -> None:
    from repro.experiments.tcp_delayed_ack import run_all, table_rows
    delay = getattr(args, "delay", 3.0) or 3.0
    results = run_all(delay)
    _print(f"Table 2: RTO with {delay:.0f}-second delayed ACKs",
           render_table("(delay 30 ACKs, then drop all incoming)",
                        ["Implementation", "Results", "Comments"],
                        table_rows(results)))


def cmd_table3(_args) -> None:
    from repro.experiments.tcp_keepalive import run_all, table_rows
    _print("Table 3: TCP Keep-alive Results",
           render_table("(idle connection, keep-alive enabled)",
                        ["Implementation", "Results", "Comments"],
                        table_rows(run_all())))


def cmd_table4(_args) -> None:
    from repro.experiments.tcp_zero_window import run_all, table_rows
    for variant in ("acked", "unacked"):
        _print(f"Table 4: Zero Window Probes (probes {variant})",
               render_table("(receiver never consumes)",
                            ["Implementation", "Results", "Comments"],
                            table_rows(run_all(variant))))


def cmd_exp5(_args) -> None:
    from repro.experiments.tcp_reordering import run_all
    rows = [[r.vendor,
             "queued" if r.second_segment_queued else "dropped",
             "cumulative ACK" if r.acked_both_at_once else "partial ACKs",
             "intact" if r.data_delivered_in_order else "CORRUPTED"]
            for r in run_all().values()]
    _print("Experiment 5: Reordering of messages",
           render_table("(second segment overtakes a delayed first)",
                        ["Implementation", "OOO policy", "ACK", "Data"],
                        rows))


def cmd_figure4(_args) -> None:
    from repro.experiments.tcp_delayed_ack import run_all as run_delayed
    from repro.experiments.tcp_retransmission import run_all as run_nodelay
    panels = {
        "no delay": run_nodelay(),
        "3 s ACK delay": run_delayed(3.0),
        "8 s ACK delay": run_delayed(8.0),
    }
    for title, results in panels.items():
        lines = []
        for name, result in results.items():
            series = " ".join(f"{v:7.2f}" for v in result.intervals)
            lines.append(f"{name:<13s} {series}")
        _print(f"Figure 4 panel: {title} (seconds before each "
               f"retransmission)", "\n".join(lines))


def cmd_table5(_args) -> None:
    from repro.experiments.gmp_packet_interruption import run_all
    results = run_all()
    rows = []
    for key, value in results.items():
        attrs = ", ".join(f"{k}={v}" for k, v in vars(value).items()
                          if not k.startswith("_"))
        rows.append([key, attrs])
    _print("Table 5: GMP Packet Interruption",
           render_table("(three machines)", ["Experiment", "Findings"],
                        rows))


def cmd_table6(_args) -> None:
    from repro.experiments.gmp_partition import run_all
    results = run_all()
    rows = [[key, ", ".join(f"{k}={v}" for k, v in vars(value).items())]
            for key, value in results.items()]
    _print("Table 6: Network Partition Experiment",
           render_table("(five machines)", ["Experiment", "Findings"],
                        rows))


def cmd_table7(_args) -> None:
    from repro.experiments.gmp_proclaim import run_all
    results = run_all()
    rows = [[key, ", ".join(f"{k}={v}" for k, v in vars(value).items())]
            for key, value in results.items()]
    _print("Table 7: Proclaim Forwarding Experiment",
           render_table("(newcomer's proclaim to leader dropped)",
                        ["Build", "Findings"], rows))


def cmd_table8(_args) -> None:
    from repro.experiments.gmp_timer import run_all
    results = run_all()
    rows = [[key, ", ".join(f"{k}={v}" for k, v in vars(value).items())]
            for key, value in results.items()]
    _print("Table 8: GMP Timer Test",
           render_table("(second membership change; commits+heartbeats "
                        "dropped)", ["Build", "Findings"], rows))


def cmd_all(args) -> None:
    for fn in (cmd_table1, cmd_table2, cmd_table3, cmd_table4, cmd_exp5,
               cmd_figure4, cmd_table5, cmd_table6, cmd_table7, cmd_table8):
        fn(args)


def cmd_run_script(args) -> int:
    """Run a user-supplied tclish filter file against a standard workload.

    The TCP workload is the paper's default rig (vendor -> x-kernel,
    steady data stream); the GMP workload is a three-machine group.  The
    script is installed on the x-kernel machine's PFI layer (TCP) or on
    machine 3's (GMP).
    """
    from repro.core import TclishFilter
    from repro.core.tclish import TclError
    with open(args.script_file) as fp:
        source = fp.read()
    script = TclishFilter(source, init_script=args.init or "",
                          name=args.script_file, lint="error")
    try:
        _drive_script(args, script)
    except TclError as err:
        # a script fault (runaway recursion, a bad field name) is the
        # user's input failing, not the tool
        print(f"repro run-script: {args.script_file}: {err}",
              file=sys.stderr)
        return 1
    return 0


def _drive_script(args, script) -> None:
    """Install ``script`` on the standard workload, run it, print stats."""
    if args.protocol == "tcp":
        from repro.experiments.tcp_common import (build_tcp_testbed,
                                                  open_connection,
                                                  stream_from_vendor)
        from repro.tcp import VENDORS
        testbed = build_tcp_testbed(VENDORS[args.vendor])
        client, server = open_connection(testbed)
        if args.direction == "send":
            testbed.pfi.set_send_filter(script)
        else:
            testbed.pfi.set_receive_filter(script)
        stream_from_vendor(testbed, client,
                           segments=int(args.duration), interval=0.5)
        testbed.env.run_until(args.duration)
        pfi = testbed.pfi
        trace = testbed.trace
        print(f"ran {args.script_file} for {args.duration:.0f} virtual "
              f"seconds against {args.vendor}")
        print(f"connection: {client.state}"
              + (f" ({client.close_reason})" if client.close_reason else ""))
        print(f"delivered: {len(server.delivered)} bytes; "
              f"retransmissions: "
              f"{trace.count('tcp.retransmit', conn='vendor:5000')}")
    else:
        from repro.experiments.gmp_common import build_gmp_cluster
        cluster = build_gmp_cluster([1, 2, 3])
        if args.direction == "send":
            cluster.pfis[3].set_send_filter(script)
        else:
            cluster.pfis[3].set_receive_filter(script)
        cluster.start()
        cluster.run_until(args.duration)
        pfi = cluster.pfis[3]
        print(f"ran {args.script_file} for {args.duration:.0f} virtual "
              f"seconds against a 3-machine GMP group")
        for address, daemon in cluster.daemons.items():
            print(f"  gmd{address}: {daemon.status} "
                  f"view={list(daemon.view.members)}")

    print(f"pfi stats: {pfi.stats}")
    if script.output_lines:
        print("script output:")
        for line in script.output_lines[-20:]:
            print(f"  | {line}")
    if pfi.msglog.lines:
        print("last log lines:")
        for line in pfi.msglog.lines[-10:]:
            print(f"  {line}")


def cmd_sequence(args) -> None:
    """Render a message-sequence ladder for a standard workload."""
    if args.protocol == "tcp":
        from repro.analysis.timeline import tcp_sequence
        from repro.experiments.tcp_common import (build_tcp_testbed,
                                                  open_connection)
        from repro.tcp import VENDORS
        testbed = build_tcp_testbed(VENDORS[args.vendor])
        client, _server = open_connection(testbed)
        client.send(b"L" * 512 * 3)
        testbed.env.run_until(args.duration)
        diagram = tcp_sequence(
            testbed.trace,
            {"vendor:5000": "vendor", "xkernel:80": "xkernel"})
    else:
        from repro.analysis.timeline import gmp_sequence
        from repro.experiments.gmp_common import build_gmp_cluster
        cluster = build_gmp_cluster([1, 2, 3])
        cluster.start()
        cluster.run_until(args.duration)
        diagram = gmp_sequence(
            cluster.trace, [1, 2, 3],
            kinds={"PROCLAIM", "JOIN", "MEMBERSHIP_CHANGE", "ACK",
                   "COMMIT"})
    print(diagram.render(max_events=args.max_events))


def cmd_lint(args) -> int:
    """Statically analyze tclish filter scripts (scriptlint).

    Accepts files and directories (directories are walked for ``.tcl``
    and ``.tclish`` files).  ``--gen tcp,gmp`` additionally lints the
    auto-generated batteries.  Exit status: 2 for unreadable inputs or
    syntax errors (SL000), 1 for error-level findings, 0 when clean.
    """
    import json

    from repro.core.tclish.lint import (lint_source, render_json,
                                        render_text)

    targets = []
    for path in args.paths:
        if os.path.isdir(path):
            found = []
            for root, _dirs, files in sorted(os.walk(path)):
                for fname in sorted(files):
                    if fname.endswith((".tcl", ".tclish")):
                        found.append(os.path.join(root, fname))
            if not found:
                print(f"repro lint: no .tcl scripts under {path}",
                      file=sys.stderr)
                return 2
            targets.extend(found)
        elif os.path.exists(path):
            targets.append(path)
        else:
            print(f"repro lint: no such file: {path}", file=sys.stderr)
            return 2

    reports = []
    for path in targets:
        with open(path) as fp:
            source = fp.read()
        reports.append(lint_source(source, init_script=args.init or "",
                                   source_name=path))

    if args.gen:
        from repro.core.genscripts import (generate_campaign, gmp_spec,
                                           lint_generated, tcp_spec)
        from repro.core.tclish.lint import LintReport
        for name in args.gen.split(","):
            spec = {"tcp": tcp_spec, "gmp": gmp_spec}[name.strip()]()
            scripts = generate_campaign(spec, self_check=False)
            failing = lint_generated(scripts)
            if failing:
                reports.extend(failing)
            else:
                clean = LintReport(source_name=f"generated:{spec.name} "
                                   f"({len(scripts)} scripts)")
                reports.append(clean)

    if not reports:
        print("repro lint: nothing to lint (give files, directories, "
              "or --gen)", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps([json.loads(render_json(r)) for r in reports],
                         indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.staticcheck import render_sarif
        print(render_sarif(reports, tool_name="repro-scriptlint"))
    else:
        for report in reports:
            print(render_text(report))
        errors = sum(len(r.errors()) for r in reports)
        warnings = sum(len(r.warnings()) for r in reports)
        print(f"checked {len(reports)} script source(s): "
              f"{errors} error(s), {warnings} warning(s)")
    if any(d.code == "SL000" for r in reports for d in r):
        return 2
    return 1 if any(not r.ok() for r in reports) else 0


def cmd_check(args) -> int:
    """Run the three-pass static correctness suite (repro.staticcheck).

    With no paths, checks the standard repo layout: scriptlint over
    ``examples/filters`` and the regression corpus' embedded scripts,
    the determinism pass over the simulation Python, and the
    trace-schema drift pass over ``src/repro``.  Explicit paths replace
    the scriptlint/determinism targets (classified by suffix); the
    drift pass stays whole-program unless ``--no-drift``.  Exit status:
    2 for parse/internal errors, 1 for findings (warning or error), 0
    when clean.
    """
    from repro.staticcheck import render_sarif, run_suite

    overrides = {}
    if args.paths:
        overrides["tcl_paths"] = list(args.paths)
        overrides["py_paths"] = [p for p in args.paths
                                 if not p.endswith((".tcl", ".tclish",
                                                    ".json"))]
        overrides["corpus_paths"] = [p for p in args.paths
                                     if p.endswith(".json")]
    result = run_suite(drift_enabled=not args.no_drift, **overrides)
    if args.format == "sarif":
        print(render_sarif(result.reports))
    elif args.format == "json":
        print(result.to_json())
    else:
        print(result.render_text(verbose=args.verbose))
    return result.exit_code()


def _load_trace_file(path: str):
    from repro.analysis.export import load_trace
    with open(path) as fp:
        return load_trace(fp)


def cmd_report(args) -> int:
    """Reconstruct a run report from an exported JSON-lines trace.

    The report covers the run summary, per-kind/per-node metrics, the
    causal lineage of every derived message (delays, duplicates, holds/
    releases, injections, retransmissions), and a timeline tail.

    ``--campaign <journal>`` switches to the campaign flight record: the
    journal (crash-safe JSONL from any ``--journal`` sweep) is replayed
    into the partial-or-complete scorecard, a bug-yield ranking of the
    executed fault scenarios, and optionally machine-readable JSON
    (``--format json``) or a self-contained HTML report (``--html``).
    """
    if args.campaign:
        return _cmd_report_campaign(args)
    if not args.trace_file:
        print("repro report: give a trace file, or --campaign <journal>",
              file=sys.stderr)
        return 2
    from repro.obs.lineage import Lineage
    from repro.obs.report import render_report
    trace = _load_trace_file(args.trace_file)
    if args.uid is not None:
        lineage = Lineage.from_trace(trace)
        if args.uid not in lineage.uids():
            print(f"repro report: uid {args.uid} does not appear in "
                  f"{args.trace_file}", file=sys.stderr)
            return 2
        print(lineage.render(lineage.root_of(args.uid)))
        return 0
    oracle = None
    if args.oracle:
        from repro.oracle import packs_by_name
        try:
            oracle = packs_by_name(args.oracle.split(","))
        except ValueError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
    print(render_report(trace, tail=args.tail, kind_prefix=args.kind,
                        oracle=oracle))
    return 0


def _cmd_report_campaign(args) -> int:
    """The ``repro report --campaign <journal-or-directory>`` path.

    A directory -- a fabric campaign dir or any folder of shard
    journals -- is folded by :func:`repro.core.fabric.merge.
    merge_campaign_dir` into one merged summary (rows deduplicated by
    config index, per-group capture-hits table included); a file is
    replayed as the single journal it always was.
    """
    import json

    from repro.obs.campaign_report import (render_html, render_text,
                                           summarize_journal,
                                           summary_to_json)
    if not os.path.exists(args.campaign):
        print(f"repro report: no such journal: {args.campaign}",
              file=sys.stderr)
        return 2
    if os.path.isdir(args.campaign):
        from repro.core.fabric.merge import merge_campaign_dir
        try:
            summary = merge_campaign_dir(args.campaign)
        except FileNotFoundError as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
    else:
        summary = summarize_journal(args.campaign)
    if args.html:
        with open(args.html, "w") as fp:
            fp.write(render_html(summary))
        # keep stdout pure JSON when both --html and --format json ask
        print(f"wrote {args.html} (self-contained HTML, "
              f"{summary.executed} run(s))",
              file=sys.stderr if args.format == "json" else sys.stdout)
    if args.format == "json":
        print(json.dumps(summary_to_json(summary), indent=2,
                         sort_keys=True))
    elif not args.html or args.format == "text":
        print(render_text(summary))
    return 0


def cmd_tail(args) -> int:
    """Follow (or replay) a campaign journal: ``repro tail <journal>``.

    Prints one line per journal event.  Without ``--follow`` the journal
    is replayed once and a torn final line (from a killed sweep) is
    reported; with ``--follow`` the file is polled for appended events
    until ``campaign.end`` arrives or ``--timeout`` elapses, which is
    how a second terminal watches a running sweep live.
    """
    from repro.obs.journal import follow_journal, replay_journal
    if not args.follow and not os.path.exists(args.journal):
        print(f"repro tail: no such journal: {args.journal}",
              file=sys.stderr)
        return 2
    if args.follow:
        for event in follow_journal(args.journal, poll=args.poll,
                                    timeout=args.timeout):
            print(_render_journal_event(event))
        return 0
    replay = replay_journal(args.journal)
    for event in replay.events:
        print(_render_journal_event(event))
    if replay.torn_tail is not None:
        print(f"  ! torn tail: {len(replay.torn_tail)} byte(s) cut "
              f"mid-append (writer killed); {len(replay.events)} "
              f"complete event(s) recovered")
    elif not replay.complete:
        print(f"  ! no campaign.end: sweep still running or interrupted "
              f"({len(replay.events)} event(s) so far)")
    return 0


def _render_journal_event(event) -> str:
    """One journal event as a tail line."""
    data = event.data
    bits = []
    for key in ("engine", "name", "label", "case", "target", "status",
                "protocol", "budget", "configs", "executed", "codes",
                "violations", "new_coverage", "coverage_total", "findings",
                "ok"):
        if key in data and data[key] not in (None, [], ""):
            bits.append(f"{key}={data[key]}")
    detail = " ".join(bits)
    return f"{event.t:9.3f}s  {event.kind:<28} {detail}"


def cmd_history(args) -> int:
    """Cross-run history: record journals, show per-sweep deltas.

    ``repro history DIR`` renders the store; ``--record <journal>``
    first folds one or more journals into content-addressed summary
    rows (idempotent -- re-recording an unchanged sweep adds nothing),
    and ``--bench <BENCH_*.json>`` records benchmark payloads the same
    way, turning them into a tracked trajectory.
    """
    from repro.obs.history import HistoryStore
    store = HistoryStore(args.dir)
    for journal in args.record or ():
        row = store.record_journal(journal)
        if not args.json:
            print(f"recorded {journal} -> {row.id} "
                  f"(fingerprint {row.fingerprint})")
    for bench in args.bench or ():
        row = store.record_bench(bench)
        if not args.json:
            print(f"recorded {bench} -> {row.id}")
    if args.json:
        import json

        from repro.analysis.export import _jsonable
        print(json.dumps(_jsonable(store.to_json()), indent=2,
                         sort_keys=True))
    else:
        print(store.render())
    return 0


def cmd_trace(args) -> int:
    """Export a JSON-lines trace as Chrome-trace/Perfetto JSON.

    Load the output in https://ui.perfetto.dev or ``chrome://tracing``:
    nodes become processes, fault-injection delays and hold/release
    windows become duration spans, everything else instant events.
    ``--journal <journal>`` converts a campaign journal instead:
    campaign phases (preflight, capture, dispatch, merge) and runs
    become duration spans on the sweep's wall-clock timeline.
    """
    import json

    if args.journal:
        from repro.obs.chrometrace import journal_chrome_trace
        from repro.obs.journal import replay_journal
        replay = replay_journal(args.journal)
        text = json.dumps(journal_chrome_trace(replay, title=args.journal),
                          sort_keys=True)
        count = len(replay.events)
    else:
        if not args.trace_file:
            print("repro trace: give a trace file, or --journal <journal>",
                  file=sys.stderr)
            return 2
        from repro.obs.chrometrace import dump_chrome_trace
        trace = _load_trace_file(args.trace_file)
        text = dump_chrome_trace(trace, title=args.trace_file)
        count = len(trace)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
        print(f"wrote {args.out} ({count} entries); open in "
              f"https://ui.perfetto.dev or chrome://tracing")
    else:
        print(text)
    return 0


def cmd_fuzz(args) -> int:
    """Coverage-guided fault-scenario fuzzing (docs/conformance.md).

    Draws tclish fault scripts from the PFI-command grammar, runs them
    through the campaign's shard executor with the protocol's invariant
    pack as the oracle, and keeps coverage-novel cases as mutation
    parents.  ``--save-repro`` shrinks every finding (delta debugging
    over script clauses, then seed minimization) and writes a
    deterministic JSON repro artifact into the regression corpus.
    The sweep and the shrinkers share one checkpoint pool and one
    journal: a probe's prefix is simulated once, the shrink trail rides
    in the sweep's flight record.
    """
    from pathlib import Path

    from repro.core.checkpoint import CheckpointPool
    from repro.obs.journal import Journal
    from repro.oracle.fuzz import check_placement, run_fuzz
    from repro.oracle.shrink import artifact_name, shrink_finding
    try:  # before --journal creates its file
        check_placement(args.protocol, depth=args.checkpoint_depth)
    except ValueError as err:
        print(f"repro fuzz: {err}", file=sys.stderr)
        return 2
    pool = CheckpointPool(max_items=8)
    with (Journal(args.journal) if args.journal
          else nullcontext()) as journal:
        report = run_fuzz(args.protocol, seed=args.seed, budget=args.budget,
                          workers=args.workers,
                          checkpoint_depth=args.checkpoint_depth,
                          pool=pool,
                          progress=print if args.progress else None,
                          journal=journal)
        print(report.render())
        if not args.save_repro:
            return 0
        if not report.findings:
            print("no findings to shrink")
        for finding in report.findings:
            artifact, stats = shrink_finding(
                finding, campaign_seed=args.seed, pool=pool, journal=journal)
            path = artifact.save(Path(args.save_repro)
                                 / artifact_name(artifact))
            print(f"  shrunk {finding.case.script.name}: "
                  f"{stats.clauses_before}->{stats.clauses_after} "
                  f"clause(s), seed {stats.seed_before}->"
                  f"{stats.seed_after} ({stats.runs} runs) -> {path}")
    return 0


def cmd_sweep(args) -> int:
    """Distributed, resumable campaign sweeps (docs/fabric.md).

    Runs a generated fault-script battery through ``run_sweep`` on a
    chosen backend.  ``--backend local`` is the in-process engine;
    ``--backend sockets`` is the fabric: a coordinator plus
    ``--workers`` worker processes over the lease protocol, every
    completed row persisted to the campaign directory's shared result
    store.  The campaign directory (``--journal-dir``) holds the sweep
    spec, the store, and per-shard journals; SIGKILL anything mid-sweep
    and ``repro sweep --resume <dir>`` finishes the remainder --
    ``repro report --campaign <dir>`` then renders the merged scorecard,
    byte-identical on stable keys to an uninterrupted serial run.
    """
    from repro.core.fabric import FabricError, merge_campaign_dir
    from repro.core.fabric.spec import SpecError, SweepSpec
    from repro.core.orchestrator import run_sweep
    from repro.obs.campaign_report import render_stable, render_text

    fabric_options = {} if args.ttl is None else {"ttl": args.ttl}

    if args.resume:
        fabric_dir = args.resume
        try:
            spec = SweepSpec.load(os.path.join(fabric_dir, "spec.pkl"))
        except SpecError as exc:
            print(f"repro sweep: {exc}", file=sys.stderr)
            return 2
    else:
        if not args.journal_dir:
            print("repro sweep: give --journal-dir DIR (the campaign "
                  "directory) or --resume DIR", file=sys.stderr)
            return 2
        fabric_dir = args.journal_dir
        from repro.oracle.fuzz import (pack_for, prefixed_fuzz_body,
                                       sweep_battery)
        targets = [t.strip() for t in args.targets.split(",") if t.strip()]
        try:
            configs = sweep_battery(args.protocol, targets, args.count,
                                    depth=args.depth)
        except ValueError as err:
            print(f"repro sweep: {err}", file=sys.stderr)
            return 2
        spec = SweepSpec(body=prefixed_fuzz_body, seed=args.seed,
                         configs=configs, oracle=pack_for(args.protocol))

    try:
        run_sweep(spec, workers=args.workers, backend=args.backend,
                  fabric_dir=fabric_dir, fabric_options=fabric_options)
    except FabricError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        # a body that raised would raise again on --resume: not the
        # "resumable" status
        return 1 if exc.status == "worker_error" else 3
    summary = merge_campaign_dir(fabric_dir)
    print(render_text(summary))
    if args.stable:
        print(render_stable(summary))
    return 0


def cmd_explore(args) -> int:
    """Bounded delivery-order exploration (docs/checkpointing.md).

    Warms the target rig to the checkpoint depth, then enumerates
    bounded perturbations of the pending event order -- dropping or
    deferring in-flight deliveries and protocol timers -- with every
    schedule forked from the same checkpoint and judged by the
    protocol's oracle pack.  Exit status 1 when any schedule violates
    an invariant the baseline does not, 2 when the world at ``--depth``
    has not started (nothing to explore) or an argument is refused
    (unknown target, ``--depth`` / ``--window`` outside the horizon,
    ``--max-perturbations`` above 2).
    """
    from repro.oracle.explore import ExploreError, explore
    try:
        report = explore(args.protocol, args.target, seed=args.seed,
                         depth=args.depth, window=args.window,
                         horizon=args.horizon,
                         max_schedules=args.max_schedules,
                         max_perturbations=args.max_perturbations,
                         defer_delta=args.defer_delta,
                         recheckpoint_every=args.recheckpoint_every,
                         progress=print if args.progress else None,
                         journal=args.journal or None)
    except (ExploreError, ValueError) as err:
        print(f"repro explore: {err}", file=sys.stderr)
        return 2
    print(report.render())
    return 1 if report.findings else 0


def cmd_campaign(args) -> None:
    from repro.core.genscripts import (generate_campaign, gmp_spec,
                                       tcp_spec)
    spec = tcp_spec() if args.protocol == "tcp" else gmp_spec()
    scripts = generate_campaign(spec)
    print(f"{len(scripts)} scripts generated for {spec.name}:\n")
    for script in scripts:
        print(f"  [{script.failure_model.value:>16}] {script.name:<40} "
              f"{script.description}")
        if args.tclish:
            for line in script.tclish_source.splitlines():
                print(f"      | {line}")
    print()


#: the paper's tables and figures: ``repro <name>`` regenerates one
PAPER_COMMANDS: Dict[str, Callable] = {
    "table1": cmd_table1, "table2": cmd_table2, "table3": cmd_table3,
    "table4": cmd_table4, "exp5": cmd_exp5, "figure4": cmd_figure4,
    "table5": cmd_table5, "table6": cmd_table6, "table7": cmd_table7,
    "table8": cmd_table8, "all": cmd_all,
}


def _workers_arg(text: str) -> Union[int, str]:
    """``--workers``: a process count of at least 1, or ``auto``."""
    if text == "auto":
        return text
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"expected an int >= 1 or 'auto', got {text!r}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of Dawson & "
                    "Jahanian, ICDCS 1995.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler: Callable, **kwargs):
        """A subcommand whose parsed args carry the function to run."""
        sub = subparsers.add_parser(name, **kwargs)
        sub.set_defaults(handler=handler)
        return sub

    for name, handler in PAPER_COMMANDS.items():
        cmd = command(name, handler, help=f"regenerate {name}")
        if name == "table2":
            cmd.add_argument("--delay", type=float, default=3.0,
                             help="ACK delay in seconds (default 3)")
    campaign = command("campaign", cmd_campaign, help=(
        "auto-generate a test-script battery from a "
        "protocol spec (paper §6 future work)"))
    campaign.add_argument("protocol", choices=["tcp", "gmp"])
    campaign.add_argument("--tclish", action="store_true",
                          help="print the generated tclish sources")
    runner = command("run-script", cmd_run_script, help=(
        "run a tclish filter file against a standard "
        "TCP or GMP workload"))
    runner.add_argument("script_file", help="path to the tclish source")
    runner.add_argument("--protocol", choices=["tcp", "gmp"],
                        default="tcp")
    runner.add_argument("--direction", choices=["send", "receive"],
                        default="receive")
    runner.add_argument("--vendor", default="SunOS 4.1.3",
                        help="TCP vendor profile name")
    runner.add_argument("--duration", type=float, default=120.0,
                        help="virtual seconds to run")
    runner.add_argument("--init", default="",
                        help="init script (e.g. 'set n 0')")
    lint = command("lint", cmd_lint, help=(
        "statically analyze tclish filter scripts "
        "(scriptlint; see docs/scriptlint.md)"))
    lint.add_argument("paths", nargs="*",
                      help="script files or directories to walk for "
                           ".tcl/.tclish files")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="output format (sarif for CI annotation)")
    lint.add_argument("--init", default="",
                      help="init script evaluated before each body "
                           "(e.g. 'set n 0')")
    lint.add_argument("--gen", default="",
                      help="also lint the auto-generated batteries "
                           "(comma list of tcp,gmp)")
    check = command("check", cmd_check, help=(
        "run the three-pass static correctness suite "
        "(scriptlint dataflow, determinism, trace-schema "
        "drift; see docs/staticcheck.md)"))
    check.add_argument("paths", nargs="*",
                       help="files or directories to check (default: "
                            "the standard repo layout)")
    check.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text",
                       help="output format (sarif for CI annotation)")
    check.add_argument("--no-drift", action="store_true",
                       help="skip the whole-program trace-schema "
                            "drift pass")
    check.add_argument("-v", "--verbose", action="store_true",
                       help="also print info-level diagnostics "
                            "(e.g. SC202 oracle-coverage gaps)")
    sequence = command("sequence", cmd_sequence, help=(
        "render a message-sequence ladder for a "
        "standard TCP or GMP run"))
    sequence.add_argument("--protocol", choices=["tcp", "gmp"],
                          default="gmp")
    sequence.add_argument("--vendor", default="SunOS 4.1.3")
    sequence.add_argument("--duration", type=float, default=5.0)
    sequence.add_argument("--max-events", type=int, default=30)
    report = command("report", cmd_report, help=(
        "summarize an exported JSON-lines trace: metrics, "
        "message lineage, timeline (docs/observability.md)"))
    report.add_argument("trace_file", nargs="?", default="",
                        help="JSON-lines trace "
                             "(analysis.export.dump_trace)")
    report.add_argument("--tail", type=int, default=40,
                        help="timeline entries to show (default 40)")
    report.add_argument("--kind", default="",
                        help="restrict the timeline to kinds with this "
                             "prefix (e.g. 'pfi.')")
    report.add_argument("--uid", type=int, default=None,
                        help="print only the derivation tree containing "
                             "this message uid")
    report.add_argument("--oracle", default="",
                        help="add a conformance section: comma list of "
                             "invariant packs (tcp,gmp)")
    report.add_argument("--campaign", default="", metavar="JOURNAL",
                        help="report a campaign journal instead: partial "
                             "scorecard + bug-yield ranking "
                             "(docs/campaign-journal.md)")
    report.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="campaign report format (default text)")
    report.add_argument("--html", default="", metavar="FILE",
                        help="also write a self-contained HTML campaign "
                             "report to FILE")
    tail = command("tail", cmd_tail, help=(
        "follow or replay a campaign journal "
        "(docs/campaign-journal.md)"))
    tail.add_argument("journal", help="journal file (from any --journal "
                                      "sweep)")
    tail.add_argument("--follow", action="store_true",
                      help="poll for appended events until campaign.end "
                           "or --timeout (watch a running sweep)")
    tail.add_argument("--poll", type=float, default=0.2,
                      help="seconds between polls with --follow "
                           "(default 0.2)")
    tail.add_argument("--timeout", type=float, default=None,
                      help="stop following after this many wall seconds")
    history = command("history", cmd_history, help=(
        "cross-run history: record campaign journals, "
        "show per-sweep deltas (docs/campaign-journal.md)"))
    history.add_argument("dir", help="history store directory")
    history.add_argument("--record", action="append", default=[],
                         metavar="JOURNAL",
                         help="fold a journal into the store first "
                              "(repeatable, idempotent)")
    history.add_argument("--bench", action="append", default=[],
                         metavar="FILE",
                         help="record a BENCH_*.json payload "
                              "(repeatable)")
    history.add_argument("--json", action="store_true",
                         help="machine-readable output")
    fuzz = command("fuzz", cmd_fuzz, help=(
        "coverage-guided fault-scenario fuzzing with the "
        "conformance oracle as verdict (docs/conformance.md)"))
    fuzz.add_argument("--protocol", choices=["tcp", "gmp"], default="gmp")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; the whole session is "
                           "deterministic in it (default 0)")
    fuzz.add_argument("--budget", type=int, default=24,
                      help="number of cases to execute (default 24)")
    fuzz.add_argument("--workers", type=int, default=1,
                      help="parallel campaign workers (default 1; does "
                           "not perturb results)")
    fuzz.add_argument("--save-repro", default="", metavar="DIR",
                      help="shrink findings and write JSON repro "
                           "artifacts into DIR (e.g. tests/regressions)")
    fuzz.add_argument("--checkpoint-depth", type=float, default=None,
                      metavar="T",
                      help="install the fuzzed filter at virtual time T: "
                           "the depth of the prefix checkpoint every "
                           "trial forks (docs/checkpointing.md; default: "
                           "the protocol's stock install time)")
    fuzz.add_argument("--progress", action="store_true",
                      help="print a progress line per batch "
                           "(trials/sec, checkpoint hit-rate)")
    fuzz.add_argument("--journal", default="", metavar="FILE",
                      help="append a crash-safe JSONL flight record of "
                           "the sweep to FILE (repro tail / repro report "
                           "--campaign; docs/campaign-journal.md)")
    sweep = command("sweep", cmd_sweep, help=(
        "distributed, resumable campaign sweeps over the "
        "fabric backends (docs/fabric.md)"))
    sweep.add_argument("--protocol", choices=["tcp", "gmp"],
                       default="gmp")
    sweep.add_argument("--targets", default="",
                       help="comma list of targets (TCP vendor profiles "
                            "or GMP variants; default: all)")
    sweep.add_argument("--count", type=int, default=3,
                       help="generated scripts per target (default 3)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="campaign seed (default 0)")
    sweep.add_argument("--depth", type=float, default=None, metavar="T",
                       help="filter-install depth shared by every "
                            "config (forms one prefix group per target)")
    sweep.add_argument("--backend", choices=["local", "sockets"],
                       default="local",
                       help="execution backend (default local)")
    sweep.add_argument("--workers", type=_workers_arg, default=2,
                       help="worker processes (>= 1), or 'auto' (default 2)")
    sweep.add_argument("--journal-dir", default="", metavar="DIR",
                       help="campaign directory: sweep spec, shared "
                            "result store, per-shard journals")
    sweep.add_argument("--resume", default="", metavar="DIR",
                       help="resume the sweep recorded in DIR (its "
                            "spec.pkl); only rows missing from the "
                            "result store execute")
    sweep.add_argument("--ttl", type=float, default=None,
                       help="lease heartbeat TTL in seconds "
                            "(sockets backend; default 15)")
    sweep.add_argument("--stable", action="store_true",
                       help="also print the wall-clock-free stable "
                            "scorecard (the chaos-test oracle)")
    explore = command("explore", cmd_explore, help=(
        "bounded delivery-order exploration from a "
        "prefix checkpoint, oracle packs as verdict "
        "(docs/checkpointing.md)"))
    explore.add_argument("--protocol", choices=["tcp", "gmp"],
                         default="gmp")
    explore.add_argument("--target", default="self_death",
                         help="bug variant to build the rig with "
                              "(default self_death; 'fixed' for the "
                              "clean build)")
    explore.add_argument("--seed", type=int, default=0,
                         help="world seed (default 0)")
    explore.add_argument("--depth", type=float, default=None,
                         help="virtual time to warm the world to before "
                              "checkpointing (default: the protocol's "
                              "stock filter-install time)")
    explore.add_argument("--window", type=float, default=1.5,
                         help="seconds past the checkpoint whose events "
                              "may be perturbed (default 1.5)")
    explore.add_argument("--horizon", type=float, default=None,
                         help="virtual time to run each schedule to "
                              "(default: the protocol's fuzz horizon)")
    explore.add_argument("--max-schedules", type=int, default=64,
                         help="schedule budget (default 64)")
    explore.add_argument("--max-perturbations", type=int, default=1,
                         help="perturbations per schedule: 1 or 2 (default 1)")
    explore.add_argument("--defer-delta", type=float, default=4.0,
                         help="seconds a deferred event is pushed back "
                              "(default 4)")
    explore.add_argument("--recheckpoint-every", type=int, default=8,
                         metavar="K",
                         help="re-checkpoint explored branches every K "
                              "steps and refork later schedules from "
                              "the nearest ancestor (0 disables the "
                              "checkpoint tree; default 8)")
    explore.add_argument("--progress", action="store_true",
                         help="print findings and progress as schedules "
                              "run")
    explore.add_argument("--journal", default="", metavar="FILE",
                         help="append a crash-safe JSONL flight record "
                              "of the exploration to FILE "
                              "(docs/campaign-journal.md)")
    chrome = command("trace", cmd_trace, help=(
        "convert a JSON-lines trace to Chrome-trace/"
        "Perfetto JSON"))
    chrome.add_argument("trace_file", nargs="?", default="",
                        help="JSON-lines trace "
                             "(analysis.export.dump_trace)")
    chrome.add_argument("--out", default="",
                        help="write to this file instead of stdout")
    chrome.add_argument("--journal", default="", metavar="FILE",
                        help="convert a campaign journal instead: phases "
                             "and runs become duration spans")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.handler(args) or 0
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed early (``repro fuzz | head -1``); stdout goes
        # to devnull so the exit-time flush cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
