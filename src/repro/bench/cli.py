"""``mfa-bench`` command line: run individual exhibits or the full report.

Examples::

    mfa-bench table5            # print Table V
    mfa-bench fig2              # memory image sizes
    mfa-bench fig3              # construction times
    mfa-bench fig4              # real-trace throughput
    mfa-bench fig5              # synthetic difficulty sweep
    mfa-bench explosion         # the state-explosion law sweep
    mfa-bench report            # regenerate EXPERIMENTS.md (everything)
    mfa-bench compile C7p       # compile one set, print its stats
    mfa-bench compile S31p --shards 4 --jobs 4  # + sharded compiler timing
    mfa-bench scan S24 cap.pcap # compile a set and scan a capture
    mfa-bench rcompile B217p    # resilient compile: fallback chain + report
    mfa-bench rscan S24 cap.pcap  # tolerant scan: skip corrupt, isolate flows
    mfa-bench scan S24 cap.pcap --engine fastpath   # lockstep batch scan
    mfa-bench rscan S24 cap.pcap --engine fastpath  # tolerant + batched
    mfa-bench serve S24 cap.pcap --workers 4        # long-lived scan daemon
    mfa-bench serve S24 cap.pcap --socket /run/mfa.sock --report report.json
    mfa-bench lint C7p          # static verifier over one rule set
    mfa-bench lint out.mfab     # ... or over a serialized bundle
    mfa-bench lint --all --json # every shipped set, machine-readable
    mfa-bench lint C7p --fail-on warning  # gate on warnings too
    mfa-bench audit B217p       # worst-case cost audit + witness replay
    mfa-bench audit B217p --json --out witnesses.json  # CI witness corpus
    mfa-bench audit out.mfab --no-replay  # static bounds only, no timing
    mfa-bench verify S24        # runtime oracle: MFA stream vs reference
    mfa-bench prove S24         # equivalence proof, one per pattern
    mfa-bench prove --all --jobs 4        # every set, proofs in parallel
    mfa-bench prove out.mfab --patterns C8  # prove a serialized artifact
    mfa-bench rules R32         # cross-rule analysis: duplicates, subsumption
    mfa-bench rules --all --json  # every set, machine-readable RS findings
    mfa-bench rules R32 --prune   # drop redundant rules, prove equivalence
    mfa-bench rules R32 --plan --shards 4  # contiguous vs interaction plan

``lint`` exits non-zero when any error-severity finding survives
(``--fail-on warning`` tightens the gate to warnings as well);
``audit`` synthesizes adversarial worst-case witness traces
(prefilter-evading streams, filter bit-churn maximizers), replays each
through the real scalar and fastpath engines, and exits non-zero on any
error-severity ``AV`` finding — a crashed audit or a witness whose
replay diverged from the reference match stream;
``verify`` exits non-zero on any stream divergence from the oracle;
``prove`` exits non-zero on any error-severity ``EQ`` finding — a
replay-confirmed divergence with its shortest distinguishing input, or a
proof that could not run at all.  A budget-bounded proof (``EQ110``,
``--budget``) is a warning, not a failure;
``rules`` runs the cross-rule interaction analyzer (duplicate /
subsumption / shadowing proofs with replay-confirmed witnesses, RS1xx)
and honours the same ``--fail-on`` gate as ``lint``; ``--prune`` also
exits non-zero when the pruned set fails the equivalence prover or
diverges from the unpruned stream on any tracked trace.

Compiled MFAs are cached on disk between runs of the resilient commands
and ``serve`` (``~/.cache/repro-mfa``, override with ``REPRO_CACHE_DIR``);
set ``REPRO_COMPILE_CACHE=0`` to disable.  Every ``REPRO_*`` variable is
parsed before any command runs (see :mod:`repro.config`); a malformed
one exits with status 2 and names the variable.
"""

from __future__ import annotations

import argparse

# Every other import is local to the verb that needs it: ``bench.harness``
# reads three knobs on import, so it may load only after ``main`` has
# checked the configuration, and a spawned ``serve`` worker re-runs this
# module as ``__mp_main__``, where it should import nothing it won't use.


def _cmd_compile(set_name: str, shards: int = 1, jobs: int = 1, compress: int = 0) -> None:
    from ..core.explain import explain_lines
    from .harness import build_engine

    for engine_name in ("nfa", "dfa", "hfa", "xfa", "mfa"):
        result = build_engine(set_name, engine_name)
        if result.ok:
            states = getattr(result.engine, "n_states", "?")
            print(f"{engine_name}: {states} states in {result.seconds:.2f}s")
        else:
            print(f"{engine_name}: failed ({result.error}) after {result.seconds:.2f}s")
    if shards > 1 or jobs > 1:
        _print_sharded_compile(set_name, shards, jobs)
    if compress:
        _print_compressed_compile(set_name, compress)
    mfa = build_engine(set_name, "mfa")
    if mfa.ok:
        print()
        for line in explain_lines(mfa.engine):  # type: ignore[arg-type]
            print(line)


def _print_compressed_compile(set_name: str, depth: int) -> None:
    """Compile with the D2FA artifact tier and print the compression stats."""
    from ..core import compile_mfa, dumps_mfa
    from .harness import STATE_BUDGET, patterns_for

    patterns = patterns_for(set_name)
    mfa = compile_mfa(patterns, state_budget=STATE_BUDGET, compress=depth)
    compressed_blob = dumps_mfa(mfa)
    forest = mfa.compressed
    mfa.compressed = None
    dense_blob = dumps_mfa(mfa)
    mfa.compressed = forest
    ratio = len(dense_blob) / max(1, len(compressed_blob))
    n_roots = getattr(forest, "n_roots", 0)
    print(
        f"mfa compressed (depth<={depth}): {mfa.dfa.n_states} states, "
        f"{n_roots} dense roots; bundle {len(dense_blob)} -> "
        f"{len(compressed_blob)} bytes ({ratio:.1f}x)"
    )


def _print_sharded_compile(set_name: str, shards: int, jobs: int) -> None:
    """Time the sharded parallel compiler and print its phase breakdown."""
    import time

    from ..core import compile_mfa
    from ..patterns import ruleset
    from .harness import STATE_BUDGET

    phases: dict[str, float] = {}
    start = time.perf_counter()
    engine = compile_mfa(
        list(ruleset(set_name).rules),
        state_budget=STATE_BUDGET,
        shards=shards,
        jobs=jobs,
        phases=phases,
    )
    seconds = time.perf_counter() - start
    n_shards = getattr(engine, "n_shards", 1)
    print(
        f"mfa sharded (shards={n_shards}, jobs={jobs}): "
        f"{engine.n_states} states in {seconds:.2f}s"
    )
    for name in ("parse", "split", "determinize", "filter-gen"):
        if name in phases:
            print(f"  {name}: {phases[name]:.2f}s")


def _cmd_rcompile(set_name: str) -> int:
    from .harness import build_resilient, write_table

    result = build_resilient(set_name)
    lines = [f"resilient compile of {set_name}"] + result.report.describe()
    write_table(f"rcompile_{set_name}.txt", lines)
    return 0 if result.ok else 1


def _scan_and_print(engine, pcap_path: str, describe: bool) -> int:
    """The tail ``scan`` and ``rscan`` share: one :func:`resilient_scan` of
    the capture (lockstep batches when the engine has a ``batch_hint``),
    its summary (the whole report when ``describe``) and the ten rules
    with the most hits."""
    from collections import Counter

    from .. import config
    from ..robust import resilient_scan
    from ..traffic.pcap import PcapError

    try:
        alerts, report = resilient_scan(
            engine,
            pcap_path,
            limits=config.scan_limits(),
            batch_size=getattr(engine, "batch_hint", None),
        )
    except (OSError, PcapError) as exc:
        # Tolerance covers records, not the preamble: a file that is not
        # a capture at all (or cannot be opened) is an operator error.
        print(f"cannot scan {pcap_path}: {exc}")
        return 1
    if describe:
        for line in report.describe():
            print(line)
    else:
        print(f"{report.n_packets} packets decoded from {pcap_path}")
        print(f"{len(alerts)} alerts across {len({a.key for a in alerts})} flows")
    by_rule = Counter(alert.event.match_id for alert in alerts)
    for match_id, count in by_rule.most_common(10):
        print(f"  rule {{{{{match_id}}}}}: {count} hits")
    return 0


def _cmd_rscan(
    set_name: str,
    pcap_path: str,
    engine_choice: str = "mfa",
    prefilter: str = "auto",
) -> int:
    from .harness import build_resilient

    result = build_resilient(set_name)
    print(f"engine: {result.engine_name}")
    for line in result.report.describe():
        print(f"  {line}")
    if not result.ok:
        return 1
    engine = result.engine
    if engine_choice == "fastpath":
        from ..core.mfa import MFA
        from ..fastpath import build_fastpath

        if isinstance(engine, MFA):
            engine = build_fastpath(engine, prefilter=prefilter)
        else:
            # The fallback chain shipped a non-MFA engine; the lockstep
            # wrapper only accelerates MFAs, so scan scalar and say so.
            print(f"fastpath unavailable for {result.engine_name}; scanning scalar")
    return _scan_and_print(engine, pcap_path, describe=True)


def _cmd_serve(
    set_name: str,
    pcap_path: str | None,
    workers: int,
    engine_choice: str,
    shards: int,
    report_path: str | None,
    socket_path: str | None,
    oneshot: bool,
    prefilter: str = "auto",
    compress: int = 0,
) -> int:
    """Run the long-lived scan daemon over a shipped rule set.

    Scans ``pcap_path`` (if given) through the worker pool, then keeps
    serving until SIGTERM/SIGINT or a control-socket ``shutdown`` —
    either way the final :class:`~repro.serve.ServeReport` is dumped as
    JSON to ``--report`` (or stdout).  ``--oneshot`` exits right after
    the capture drains, which is what the benchmark driver uses.
    """
    import json
    import signal
    import threading

    from .. import config
    from ..patterns import ruleset
    from ..serve import ControlServer, ScanDaemon, ServeConfig, serve_scan
    from .harness import STATE_BUDGET

    daemon = ScanDaemon(
        list(ruleset(set_name).rules),
        shards=shards,
        cache=config.artifact_cache(),
        config=ServeConfig(
            workers=workers, engine=engine_choice, prefilter=prefilter, compress=compress
        ),
        state_budget=STATE_BUDGET,
    ).start()
    server = None
    stop_requested = threading.Event()

    def _on_signal(_signum, _frame):
        stop_requested.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        if socket_path:
            server = ControlServer(daemon, socket_path).start()
            print(f"control socket: {socket_path}")
        status = daemon.status()
        print(
            f"serving {set_name}: {status.n_workers} worker(s), "
            f"generation {status.generation}"
        )
        if pcap_path:
            _alerts, report = serve_scan(daemon, pcap_path)
            print(
                f"scanned {pcap_path}: {report.n_flows} flows, "
                f"{report.n_alerts} alerts"
            )
        if not oneshot:
            while not stop_requested.is_set():
                if server is not None and server.shutdown_requested.is_set():
                    break
                stop_requested.wait(0.2)
        report = daemon.status()
    finally:
        if server is not None:
            server.stop()
        daemon.stop()
    doc = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if report_path:
        with open(report_path, "w") as handle:
            handle.write(doc + "\n")
        print(f"report: {report_path}")
    else:
        print(doc)
    return 1 if report.degraded else 0


def _build_compressed_scan_engine(
    set_name: str, engine_choice: str, depth: int, prefilter: str = "auto"
):
    """Compile with ``compress=depth`` and reload from the serialized bundle."""
    import time

    from ..core import compile_mfa, dumps_mfa, loads_mfa
    from .harness import STATE_BUDGET, BuildResult, patterns_for

    start = time.perf_counter()
    try:
        compiled = compile_mfa(
            patterns_for(set_name), state_budget=STATE_BUDGET, compress=depth
        )
        blob = dumps_mfa(compiled)
        engine: object = loads_mfa(blob)
    except Exception as exc:  # noqa: BLE001 - CLI reports, doesn't trace back
        return BuildResult(
            set_name,
            engine_choice,
            None,
            time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    print(f"compressed artifact: {len(blob)} bytes (depth<={depth})")
    if engine_choice == "fastpath":
        from ..fastpath import build_fastpath

        engine = build_fastpath(engine, prefilter=prefilter)  # type: ignore[arg-type]
    return BuildResult(set_name, engine_choice, engine, time.perf_counter() - start)


def _cmd_scan(
    set_name: str,
    pcap_path: str,
    engine_choice: str = "mfa",
    prefilter: str = "auto",
    compress: int = 0,
) -> int:
    from .harness import build_engine

    if compress:
        # Round-trip through the serialized compressed artifact so the scan
        # exercises the same decode path a deployed data plane would use.
        built = _build_compressed_scan_engine(set_name, engine_choice, compress, prefilter)
    else:
        built = build_engine(set_name, engine_choice)
    if not built.ok:
        print(f"cannot compile {set_name}: {built.error}")
        return 1
    engine = built.engine
    if engine_choice == "fastpath":
        if prefilter != getattr(engine, "prefilter_mode", prefilter):
            # build_engine caches one wrapper per set; re-wrap the shared
            # MFA under the requested mode (tables rebuild, artifact doesn't).
            from ..fastpath import build_fastpath

            engine = build_fastpath(engine.mfa, prefilter=prefilter)
        state = "active" if getattr(engine, "prefilter_active", False) else "inactive"
        print(f"prefilter: {prefilter} ({state})")
    return _scan_and_print(engine, pcap_path, describe=False)


def _lint_one_set(set_name: str):
    """Static-analysis report of one shipped rule set: triage + cross-rule
    analysis + engine audit."""
    from ..analyze import AnalysisReport, analyze_ruleset, triage_patterns
    from ..analyze.report import ERROR
    from .harness import STATE_BUDGET, patterns_for

    report = AnalysisReport()
    patterns = patterns_for(set_name)
    triage = triage_patterns(patterns, state_budget=STATE_BUDGET)
    report.extend(triage.report)
    # Cross-rule pass: duplicate/subsumed/shadowed rules surface as RS
    # findings in the default lint sweep, witnesses replay-confirmed.
    analyze_ruleset(patterns, report=report)
    from ..core import compile_mfa

    try:
        mfa = compile_mfa(patterns, state_budget=STATE_BUDGET)
    except Exception as exc:  # noqa: BLE001 - an uncompilable set is a finding
        report.add(
            "EX130",
            ERROR,
            "ruleset",
            f"MFA does not compile under budget {STATE_BUDGET}: "
            f"{type(exc).__name__}: {exc}",
        )
        return report
    from ..analyze import analyze_mfa

    analyze_mfa(mfa, report)
    return report


def _report_fails(report, fail_on: str) -> bool:
    """Gate decision for one report under the ``--fail-on`` threshold."""
    if report.has_errors:
        return True
    return fail_on == "warning" and bool(report.warnings)


def _cmd_lint(
    target: str | None, lint_all: bool, json_out: bool, fail_on: str = "error"
) -> int:
    """Run the static verifier over rule sets and/or bundle files."""
    import json
    from pathlib import Path

    from ..analyze import analyze_bundle
    from .harness import all_set_names

    if lint_all:
        targets = list(all_set_names())
    elif target is None:
        print("lint needs a rule-set name, a bundle path, or --all")
        return 2
    else:
        targets = [target]

    reports = {}
    for name in targets:
        if name in all_set_names():
            reports[name] = _lint_one_set(name)
        elif Path(name).exists():
            reports[name] = analyze_bundle(name)
        else:
            print(f"unknown target {name!r}: not a rule set {all_set_names()} "
                  f"and not a file")
            return 2

    failed = False
    if json_out:
        print(json.dumps({name: r.to_dict() for name, r in reports.items()},
                         indent=2, sort_keys=True))
        failed = any(_report_fails(r, fail_on) for r in reports.values())
    else:
        for name, report in reports.items():
            counts = report.counts()
            print(f"{name}: {counts['error']} error(s), {counts['warning']} "
                  f"warning(s), {counts['info']} info")
            for line in report.describe():
                print(f"  {line}")
            if _report_fails(report, fail_on):
                failed = True
    return 1 if failed else 0


def _prune_and_verify(set_name: str, patterns, result) -> dict:
    """Prune RS101/RS102 losers and prove the pruned compile equivalent.

    Two independent checks back the prune: the EQ prover over the pruned
    engine against the kept patterns, and an event-level stream diff on
    every tracked trace — each unpruned event must map (dropped id ->
    surviving keeper id) onto the pruned stream exactly.
    """
    from ..analyze import analyze_engine_equivalence
    from ..analyze.ruleset import map_stream, prune_patterns
    from ..core import compile_mfa
    from .harness import PROFILES, STATE_BUDGET, real_trace_flows

    kept, alias = prune_patterns(patterns, result)
    doc: dict = {
        "rules_in": len(patterns),
        "rules_kept": len(kept),
        "alias": {str(k): v for k, v in sorted(alias.items())},
    }
    if not alias:
        doc.update({"ok": True, "note": "nothing to prune"})
        return doc
    unpruned = compile_mfa(list(patterns), state_budget=STATE_BUDGET)
    pruned = compile_mfa(kept, state_budget=STATE_BUDGET)
    proof = analyze_engine_equivalence(pruned, kept)
    doc["proof"] = proof.to_dict()
    diffs = 0
    flows = 0
    for profile in PROFILES:
        for payload in real_trace_flows(set_name, profile.name):
            flows += 1
            expected = map_stream(unpruned.run(payload), alias)
            got = {(e.pos, e.match_id) for e in pruned.run(payload)}
            if expected != got:
                diffs += 1
    doc["traces"] = {"flows": flows, "stream_diffs": diffs}
    doc["ok"] = not proof.has_errors and diffs == 0
    return doc


def _cmd_rules(
    target: str | None,
    rules_all: bool,
    json_out: bool,
    prune: bool,
    plan: bool,
    shards: int,
    fail_on: str = "error",
) -> int:
    """Cross-rule interaction analysis over shipped rule sets."""
    import json

    from ..analyze import analyze_ruleset
    from ..analyze.ruleset import contiguous_plan, plan_shards
    from .harness import all_set_names, patterns_for

    if rules_all:
        targets = list(all_set_names())
    elif target is None:
        print("rules needs a rule-set name or --all")
        return 2
    elif target not in all_set_names():
        print(f"unknown rule set {target!r}; have {all_set_names()}")
        return 2
    else:
        targets = [target]

    failed = False
    docs: dict[str, dict] = {}
    for name in targets:
        patterns = list(patterns_for(name))
        result = analyze_ruleset(patterns)
        doc = result.to_dict()
        if plan:
            contig = contiguous_plan(patterns, shards)
            inter = plan_shards(patterns, shards)
            doc["plans"] = {
                "shards": shards,
                "contiguous": contig.to_dict(),
                "interaction": inter.to_dict(),
            }
        if prune:
            doc["prune"] = _prune_and_verify(name, patterns, result)
            if not doc["prune"]["ok"]:
                failed = True
        docs[name] = doc
        if _report_fails(result.report, fail_on):
            failed = True
        if json_out:
            continue
        print(f"== {name} ==")
        for line in result.report.describe():
            print(f"  {line}")
        if plan:
            contig_peak = doc["plans"]["contiguous"]["peak"]
            inter_peak = doc["plans"]["interaction"]["peak"]
            print(
                f"  shard plan ({shards} shards): contiguous predicted peak "
                f"{contig_peak}, interaction predicted peak {inter_peak}"
            )
        if prune:
            p = doc["prune"]
            verdict = "ok" if p["ok"] else "FAILED"
            print(
                f"  prune: {p['rules_in']} -> {p['rules_kept']} rule(s), "
                f"{verdict}"
                + (
                    f" ({p['traces']['flows']} trace flow(s), "
                    f"{p['traces']['stream_diffs']} stream diff(s))"
                    if "traces" in p
                    else ""
                )
            )
    if json_out:
        print(json.dumps(docs, indent=2, sort_keys=True))
    return 1 if failed else 0


def _audit_one_set(set_name: str, replay: bool):
    """Adversarial worst-case audit of one shipped rule set (dense compile)."""
    from ..analyze import AnalysisReport, analyze_adversary
    from ..analyze.report import ERROR
    from ..core import compile_mfa
    from .harness import STATE_BUDGET, patterns_for

    try:
        mfa = compile_mfa(patterns_for(set_name), state_budget=STATE_BUDGET)
    except Exception as exc:  # noqa: BLE001 - an uncompilable set is a finding
        report = AnalysisReport()
        report.add(
            "AV100",
            ERROR,
            "adversary",
            f"cannot compile {set_name} under budget {STATE_BUDGET}: "
            f"{type(exc).__name__}: {exc}",
        )
        from ..analyze.adversary import AdversaryResult

        return AdversaryResult(report, [], [])
    return analyze_adversary(mfa, replay=replay)


def _cmd_audit(
    target: str | None,
    audit_all: bool,
    json_out: bool,
    out_path: str | None,
    replay: bool,
) -> int:
    """Worst-case cost audit over rule sets and/or bundle files."""
    import json
    from pathlib import Path

    from ..analyze import analyze_engine_adversary
    from ..core import loads_mfa
    from .harness import all_set_names

    if audit_all:
        targets = list(all_set_names())
    elif target is None:
        print("audit needs a rule-set name, a bundle path, or --all")
        return 2
    else:
        targets = [target]

    results = {}
    for name in targets:
        if name in all_set_names():
            results[name] = _audit_one_set(name, replay)
        elif Path(name).exists():
            engine = loads_mfa(Path(name).read_bytes())
            results[name] = analyze_engine_adversary(engine, replay=replay)
        else:
            print(f"unknown target {name!r}: not a rule set {all_set_names()} "
                  f"and not a file")
            return 2

    doc = {name: result.to_dict() for name, result in results.items()}
    if out_path:
        # The witness corpus artifact CI uploads: payloads in hex with
        # their predicted bounds and (when replayed) measured slowdowns.
        with open(out_path, "w") as handle:
            handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"witness corpus: {out_path}")
    if json_out:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for name, result in results.items():
            counts = result.report.counts()
            print(f"{name}: {counts['error']} error(s), {counts['warning']} "
                  f"warning(s), {counts['info']} info")
            for line in result.describe().splitlines():
                print(f"  {line}")
    return 1 if any(r.report.has_errors for r in results.values()) else 0


def _prove_one_set(set_name: str, budget: int, jobs: int):
    """Per-pattern equivalence proofs of one shipped rule set.

    Each pattern is compiled alone and proven against its own reference
    automaton — the per-pattern shape the paper's theorem is stated over,
    and the one that stays feasible even when the whole set's
    un-decomposed automaton explodes (B217p).
    """
    from ..analyze import prove_patterns
    from .harness import STATE_BUDGET, patterns_for

    return prove_patterns(
        patterns_for(set_name),
        state_budget=budget,
        dfa_budget=STATE_BUDGET,
        jobs=jobs,
    )


def _prove_bundle(path: str, patterns_set: str | None, budget: int):
    """Whole-artifact equivalence proof of a serialized bundle.

    Bundles carry no original patterns, so the rule set they were
    compiled from must be named with ``--patterns``.
    """
    from pathlib import Path

    from ..analyze import AnalysisReport, analyze_engine_equivalence
    from ..analyze.report import ERROR
    from ..core import loads_mfa
    from .harness import patterns_for

    report = AnalysisReport()
    if patterns_set is None:
        report.add(
            "EQ100",
            ERROR,
            "equivalence",
            "a bundle carries no original patterns; pass --patterns <set> "
            "naming the rule set it was compiled from",
            path,
        )
        return report
    try:
        engine = loads_mfa(Path(path).read_bytes())
    except Exception as exc:  # noqa: BLE001 - an unloadable artifact is a finding
        report.add(
            "EQ100",
            ERROR,
            "equivalence",
            f"cannot load bundle: {type(exc).__name__}: {exc}",
            path,
        )
        return report
    return analyze_engine_equivalence(
        engine, patterns_for(patterns_set), report, state_budget=budget
    )


def _cmd_prove(
    target: str | None,
    prove_all: bool,
    json_out: bool,
    budget: int,
    jobs: int,
    patterns_set: str | None,
) -> int:
    """Prove rule sets pattern-by-pattern and/or bundle files whole."""
    import json
    from pathlib import Path

    from .harness import all_set_names

    if prove_all:
        targets = list(all_set_names())
    elif target is None:
        print("prove needs a rule-set name, a bundle path, or --all")
        return 2
    else:
        targets = [target]
    if patterns_set is not None and patterns_set not in all_set_names():
        print(f"unknown --patterns set {patterns_set!r}; have {all_set_names()}")
        return 2

    reports = {}
    for name in targets:
        if name in all_set_names():
            reports[name] = _prove_one_set(name, budget, jobs)
        elif Path(name).exists():
            reports[name] = _prove_bundle(name, patterns_set, budget)
        else:
            print(f"unknown target {name!r}: not a rule set {all_set_names()} "
                  f"and not a file")
            return 2

    failed = False
    if json_out:
        print(json.dumps({name: r.to_dict() for name, r in reports.items()},
                         indent=2, sort_keys=True))
        failed = any(r.has_errors for r in reports.values())
    else:
        for name, report in reports.items():
            counts = report.counts()
            bounded = sum(1 for f in report if f.code == "EQ110")
            verdict = "FAILED" if report.has_errors else (
                f"bounded ({bounded} proof(s) hit the budget)" if bounded
                else "proved"
            )
            print(f"{name}: {verdict} — {counts['error']} error(s), "
                  f"{counts['warning']} warning(s), {counts['info']} info")
            for finding in report.errors + report.warnings:
                print(f"  {finding.describe()}")
            if report.has_errors:
                failed = True
    return 1 if failed else 0


def _cmd_verify(set_name: str) -> int:
    """Runtime oracle: the compiled MFA's stream must equal the reference."""
    from ..core import compile_mfa, verify_equivalence
    from .harness import STATE_BUDGET, patterns_for, synthetic_payload

    patterns = patterns_for(set_name)
    try:
        mfa = compile_mfa(patterns, state_budget=STATE_BUDGET)
    except Exception as exc:  # noqa: BLE001 - report, don't trace back
        print(f"cannot compile {set_name}: {type(exc).__name__}: {exc}")
        return 1
    failed = False
    for p_match in (0.35, 0.55, 0.75, 0.95):
        payload = synthetic_payload(set_name, p_match)
        outcome = verify_equivalence(patterns, payload, mfa)
        status = "ok" if outcome.equal else (
            f"DIVERGED ({len(outcome.missing)} missing, "
            f"{len(outcome.spurious)} spurious)"
        )
        print(f"p_match={p_match}: {len(payload)} bytes vs "
              f"{outcome.reference_engine}: {status}")
        failed = failed or not outcome.equal
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    from ..automata.compress import DEFAULT_CHAIN_DEPTH
    from ..fastpath.engine import PREFILTER_MODES

    parser = argparse.ArgumentParser(prog="mfa-bench", description=__doc__)
    parser.add_argument(
        "command",
        choices=[
            "table5", "fig2", "fig3", "fig4", "fig5",
            "explosion", "report", "compile", "scan",
            "rcompile", "rscan", "lint", "audit", "verify", "prove", "serve",
            "rules",
        ],
    )
    parser.add_argument(
        "set_name",
        nargs="?",
        help="pattern set for 'compile'/'scan'/'verify'/'rules', or a set "
        "name / bundle path for 'lint'/'audit'/'prove'",
    )
    parser.add_argument("pcap", nargs="?", help="capture file for 'scan'")
    parser.add_argument(
        "--all",
        action="store_true",
        help="for 'lint'/'audit'/'prove'/'rules': run over every shipped "
        "rule set",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="for 'lint'/'audit'/'prove'/'rules': machine-readable findings "
        "(stable ordering)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning"),
        default="error",
        help="for 'lint'/'rules': exit non-zero on findings at or above "
        "this severity (default: error)",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help="for 'rules': drop RS101/RS102 rules, prove the pruned set "
        "equivalent (EQ prover + mapped stream diff on tracked traces)",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="for 'rules': print the contiguous vs interaction-aware shard "
        "plans with their predicted per-shard state peaks (--shards)",
    )
    parser.add_argument(
        "--no-replay",
        action="store_true",
        help="for 'audit': skip replaying witnesses through the real "
        "engines — static cost bounds only (fast, no timing noise)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="for 'audit': write the witness corpus (payload hex + "
        "predicted/measured cost ratios) as JSON to this path",
    )
    parser.add_argument(
        "--engine",
        choices=("mfa", "fastpath"),
        default="mfa",
        help="scan engine for 'scan'/'rscan': scalar MFA or the lockstep "
        "batch fastpath; both scan reassembled flows in tolerant mode",
    )
    parser.add_argument(
        "--prefilter",
        choices=PREFILTER_MODES,
        default="auto",
        help="for 'scan'/'rscan'/'serve' with the fastpath engine: "
        "required-literal prefilter mode (auto enables it whenever the "
        "compiled plan exists; recorded in the scan/serve report)",
    )
    parser.add_argument(
        "--compress",
        nargs="?",
        const=DEFAULT_CHAIN_DEPTH,
        type=int,
        default=0,
        metavar="DEPTH",
        help="for 'compile'/'scan'/'serve': emit/load default-transition "
        "compressed (D2FA) artifacts with this chain-depth bound "
        f"(bare flag = depth {DEFAULT_CHAIN_DEPTH}); 'scan' round-trips "
        "through the serialized bundle, 'serve' ships compressed "
        "shared-memory segments that workers decode per-process",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="for 'compile': also time the sharded parallel compiler "
        "(rule set split into N shards); for 'serve': shard count of the "
        "daemon's engine (per-shard reload caching); for 'rules --plan': "
        "shard count the plans are computed for (default 4)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="for 'serve': supervised scan worker processes",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="for 'serve': write the final ServeReport JSON here "
        "(default: stdout)",
    )
    parser.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="for 'serve': expose the control socket (ping/status/reload/"
        "shutdown as JSON lines) at this unix path",
    )
    parser.add_argument(
        "--oneshot",
        action="store_true",
        help="for 'serve': exit after the capture drains instead of "
        "serving until SIGTERM",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="for 'compile': worker processes for the sharded compiler; "
        "for 'prove': parallel per-pattern proofs",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="for 'prove': product-automaton state budget before the proof "
        "degrades to bounded-depth checking (EQ110)",
    )
    parser.add_argument(
        "--patterns",
        metavar="SET",
        default=None,
        help="for 'prove' on a bundle: the rule set the bundle was "
        "compiled from (bundles carry no original patterns)",
    )
    args = parser.parse_args(argv)
    from .. import config

    try:
        config.check()
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    from .harness import all_set_names, write_table

    if args.command == "table5":
        from .tables import table5_rows

        write_table("table5.txt", table5_rows())
    elif args.command == "fig2":
        from .tables import fig2_rows

        write_table("fig2_memory.txt", fig2_rows())
    elif args.command == "fig3":
        from .figures import fig3_rows

        write_table("fig3_construction.txt", fig3_rows())
    elif args.command == "fig4":
        from .figures import fig4_collect, fig4_rows

        write_table("fig4_throughput.txt", fig4_rows(fig4_collect()))
    elif args.command == "fig5":
        from .figures import fig5_collect, fig5_rows

        write_table("fig5_synthetic.txt", fig5_rows(fig5_collect()))
    elif args.command == "explosion":
        from .sweep import explosion_rows, explosion_sweep

        write_table("explosion_law.txt", explosion_rows(explosion_sweep()))
    elif args.command == "report":
        from .report import generate_all

        generate_all()
    elif args.command == "lint":
        return _cmd_lint(args.set_name, args.all, args.json, args.fail_on)
    elif args.command == "rules":
        return _cmd_rules(
            args.set_name,
            args.all,
            args.json,
            args.prune,
            args.plan,
            args.shards if args.shards > 1 else 4,
            args.fail_on,
        )
    elif args.command == "audit":
        return _cmd_audit(
            args.set_name,
            args.all,
            args.json,
            args.out,
            not args.no_replay,
        )
    elif args.command == "prove":
        from ..analyze import DEFAULT_PRODUCT_BUDGET

        return _cmd_prove(
            args.set_name,
            args.all,
            args.json,
            args.budget if args.budget is not None else DEFAULT_PRODUCT_BUDGET,
            args.jobs,
            args.patterns,
        )
    elif args.command == "verify":
        if not args.set_name:
            parser.error("verify needs a pattern set name")
        if args.set_name not in all_set_names():
            parser.error(f"unknown set {args.set_name!r}; have {all_set_names()}")
        return _cmd_verify(args.set_name)
    elif args.command == "serve":
        if not args.set_name:
            parser.error("serve needs a pattern set name")
        if args.set_name not in all_set_names():
            parser.error(f"unknown set {args.set_name!r}; have {all_set_names()}")
        if args.shards < 1 or args.workers < 1:
            parser.error("serve needs --shards and --workers of at least 1")
        return _cmd_serve(
            args.set_name,
            args.pcap,
            args.workers,
            args.engine,
            args.shards,
            args.report,
            args.socket,
            args.oneshot,
            args.prefilter,
            args.compress,
        )
    elif args.command in ("compile", "scan", "rcompile", "rscan"):
        if not args.set_name:
            parser.error(f"{args.command} needs a pattern set name")
        if args.set_name not in all_set_names():
            parser.error(f"unknown set {args.set_name!r}; have {all_set_names()}")
        if args.command == "compile":
            if args.shards < 1 or args.jobs < 1:
                parser.error("compile needs --shards and --jobs of at least 1")
            _cmd_compile(
                args.set_name, shards=args.shards, jobs=args.jobs,
                compress=args.compress,
            )
        elif args.command == "rcompile":
            return _cmd_rcompile(args.set_name)
        else:
            if not args.pcap:
                parser.error(f"{args.command} needs a pcap file")
            if args.command == "scan":
                return _cmd_scan(
                    args.set_name, args.pcap, args.engine, args.prefilter,
                    args.compress,
                )
            return _cmd_rscan(args.set_name, args.pcap, args.engine, args.prefilter)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
