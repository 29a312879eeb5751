"""Per-layer instrumentation of the traced run.

Each layer is a library module.  ``instrument`` wraps the public functions the
pipeline calls across module boundaries and counts work at the same
boundaries; ``per_layer_metrics`` turns spans and counts into the benchmark's
per-layer metrics.  Every ``*_s`` metric is a self time: span duration minus
the time covered by the wrapped calls it made.

Two metrics come from records the library keeps itself: ``synth_ltl`` returns
one ``stats`` entry per bounded attempt (side, bound, CNF size, time, and
whether its time slice ran out), and the solver counts its conflicts.  Only
attempts and solves that reached a verdict contribute CNF sizes and conflicts,
because how far a solve gets before its wall-clock slice runs out depends on
the machine's speed.
"""

from __future__ import annotations

from liveupdate import automata, modelcheck, monitor, rewrite, sat, synthesis

from spans import Tracer


def _after_solve(tr: Tracer, args, result, sid: int, conflicts_before: int) -> None:
    tr.count("sat.solves")
    if result is None:
        tr.count("sat.timeouts")
    else:
        tr.count("sat.conflicts", args[0].conflicts - conflicts_before)
        tr.count("sat.verdict_s", tr.duration(sid))


def _after_synth(tr: Tracer, args, result, sid: int, _) -> None:
    tr.count("synthesis.calls")
    for attempt in result.stats:
        tr.count("synthesis.attempts")
        tr.count("synthesis.attempt_s", attempt["time"])
        if attempt.get("timeout"):
            tr.count("synthesis.slice_timeouts")
            tr.count("synthesis.slice_wait_s", attempt["time"])
        else:
            tr.count("synthesis.cnf_vars", attempt["vars"])
            tr.count("synthesis.cnf_clauses", attempt["clauses"])
        if attempt.get("sat"):
            tr.count("synthesis.attempts_won")
    if result.machine is not None:
        tr.count("synthesis.machine_states", len(result.machine))


def _sized(calls: str, states: str):
    def after(tr: Tracer, args, result, sid: int, _) -> None:
        tr.count(calls)
        tr.count(states, len(result))
    return after


def _after_obligations(tr: Tracer, args, result, sid: int, _) -> None:
    tr.count("monitor.obligations", len(result))


def _after_af(tr: Tracer, args, result, sid: int, _) -> None:
    tr.count("rewrite.af_calls")
    tr.distinct("rewrite.af", (args[0], args[1]))


def _after_nba(tr: Tracer, args, result, sid: int, _) -> None:
    tr.count("automata.nba_calls")
    tr.count("automata.nba_states", len(result))
    tr.distinct("automata.nba", args[0])


def _after_mc(tr: Tracer, args, result, sid: int, _) -> None:
    tr.count("automata.mc_calls")


def instrument(tr: Tracer) -> None:
    tr.install_method(sat.Solver, "solve", "sat.solve",
                      before=lambda args: args[0].conflicts, after=_after_solve)
    tr.install_function(synthesis, "synth_ltl", "synthesis.synth_ltl", after=_after_synth)
    tr.install_function(synthesis, "synth_finite_live", "synthesis.synth_finite_live")
    tr.install_function(synthesis, "synth_universal_live", "synthesis.synth_universal_live")
    tr.install_function(monitor, "build_monitor", "monitor.build_monitor",
                        after=_sized("monitor.build_calls", "monitor.build_states"))
    tr.install_function(monitor, "cut_monitor", "monitor.cut_monitor",
                        after=_sized("monitor.cut_calls", "monitor.cut_states"))
    tr.install_function(monitor, "reachable_obligations", "monitor.reachable_obligations",
                        after=_after_obligations)
    tr.install_function(rewrite, "af", "rewrite.af", after=_after_af)
    tr.install_function(rewrite, "evolve", "rewrite.evolve")
    tr.install_function(automata, "ltl_to_nba", "automata.ltl_to_nba", after=_after_nba)
    tr.install_function(automata, "mc_ltl", "automata.mc_ltl", after=_after_mc)
    tr.install_function(modelcheck, "mc_universal_live", "modelcheck.mc_universal_live")
    tr.install_function(modelcheck, "mc_finite_live", "modelcheck.mc_finite_live")


# (metric, unit, better): the per-layer metrics in reporting order
PER_LAYER = (
    ("sat.solves", "count", "lower"),
    ("sat.solve_s", "s", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("sat.conflicts_per_s", "1/s", "higher"),
    ("sat.timeouts", "count", "lower"),
    ("synthesis.calls", "count", "lower"),
    ("synthesis.attempts", "count", "lower"),
    ("synthesis.attempts_won", "count", "higher"),
    ("synthesis.slice_timeouts", "count", "lower"),
    ("synthesis.slice_wait_s", "s", "lower"),
    ("synthesis.encode_s", "s", "lower"),
    ("synthesis.cnf_vars", "count", "lower"),
    ("synthesis.cnf_clauses", "count", "lower"),
    ("synthesis.machine_states", "count", "lower"),
    ("monitor.build_calls", "count", "lower"),
    ("monitor.build_s", "s", "lower"),
    ("monitor.build_states", "count", "lower"),
    ("monitor.cut_calls", "count", "lower"),
    ("monitor.cut_s", "s", "lower"),
    ("monitor.cut_states", "count", "lower"),
    ("monitor.obligations", "count", "lower"),
    ("rewrite.af_calls", "count", "lower"),
    ("rewrite.af_distinct", "count", "lower"),
    ("rewrite.af_s", "s", "lower"),
    ("rewrite.evolve_s", "s", "lower"),
    ("automata.nba_calls", "count", "lower"),
    ("automata.nba_distinct", "count", "lower"),
    ("automata.nba_s", "s", "lower"),
    ("automata.nba_states", "count", "lower"),
    ("automata.mc_calls", "count", "lower"),
    ("automata.mc_s", "s", "lower"),
    ("modelcheck.universal_s", "s", "lower"),
    ("modelcheck.finite_s", "s", "lower"),
    ("problem.load_s", "s", "lower"),
)


def per_layer_metrics(tr: Tracer, load_s: float) -> dict[str, float]:
    st = tr.self_times()
    c = tr.counts
    solve_s = st.get("sat.solve", 0.0)
    verdict_s = c.get("sat.verdict_s", 0.0)
    return {
        "sat.solves": c.get("sat.solves", 0),
        "sat.solve_s": solve_s,
        "sat.conflicts": c.get("sat.conflicts", 0),
        "sat.conflicts_per_s": c.get("sat.conflicts", 0) / verdict_s if verdict_s else 0.0,
        "sat.timeouts": c.get("sat.timeouts", 0),
        "synthesis.calls": c.get("synthesis.calls", 0),
        "synthesis.attempts": c.get("synthesis.attempts", 0),
        "synthesis.attempts_won": c.get("synthesis.attempts_won", 0),
        "synthesis.slice_timeouts": c.get("synthesis.slice_timeouts", 0),
        "synthesis.slice_wait_s": c.get("synthesis.slice_wait_s", 0.0),
        # attempt time (encoding plus solving) minus the solver's own time
        "synthesis.encode_s": c.get("synthesis.attempt_s", 0.0) - solve_s,
        "synthesis.cnf_vars": c.get("synthesis.cnf_vars", 0),
        "synthesis.cnf_clauses": c.get("synthesis.cnf_clauses", 0),
        "synthesis.machine_states": c.get("synthesis.machine_states", 0),
        "monitor.build_calls": c.get("monitor.build_calls", 0),
        "monitor.build_s": st.get("monitor.build_monitor", 0.0),
        "monitor.build_states": c.get("monitor.build_states", 0),
        "monitor.cut_calls": c.get("monitor.cut_calls", 0),
        "monitor.cut_s": st.get("monitor.cut_monitor", 0.0),
        "monitor.cut_states": c.get("monitor.cut_states", 0),
        "monitor.obligations": c.get("monitor.obligations", 0),
        "rewrite.af_calls": c.get("rewrite.af_calls", 0),
        "rewrite.af_distinct": len(tr.sets.get("rewrite.af", ())),
        "rewrite.af_s": st.get("rewrite.af", 0.0),
        "rewrite.evolve_s": st.get("rewrite.evolve", 0.0),
        "automata.nba_calls": c.get("automata.nba_calls", 0),
        "automata.nba_distinct": len(tr.sets.get("automata.nba", ())),
        "automata.nba_s": st.get("automata.ltl_to_nba", 0.0),
        "automata.nba_states": c.get("automata.nba_states", 0),
        "automata.mc_calls": c.get("automata.mc_calls", 0),
        "automata.mc_s": st.get("automata.mc_ltl", 0.0),
        "modelcheck.universal_s": st.get("modelcheck.mc_universal_live", 0.0),
        "modelcheck.finite_s": st.get("modelcheck.mc_finite_live", 0.0),
        "problem.load_s": load_s,
    }


def layer_self_times(tr: Tracer) -> dict[str, float]:
    """Self time per layer (the span name's module prefix)."""
    out: dict[str, float] = {}
    for name, s in tr.self_times().items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + s
    return out
