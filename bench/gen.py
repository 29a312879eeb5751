"""Make the benchmark's committed inputs anew.

    python3 bench/gen.py [--seed 2107]

It makes, in this order:

* ``inputs/machines/``: the initial machines, synthesized from their family
  specifications.  They are committed because the synthesized machine depends
  on the SAT search path, so a later change to the synthesizer must not change
  a workload.
* ``inputs/candidates/`` and ``inputs/check-universal.json``: candidate update
  machines for check-universal.  For each problem the conjunction of the
  reachable obligations and the update specification is synthesized at fixed
  bounds, and those machines are mutated (one state's output flipped, or one
  edge redirected).  Candidates are chosen, passing and failing in the numbers
  below, by the verdict of ``mc_universal_product``.
* ``inputs/relay-2-executions.txt``: recorded executions of the relay(2)
  machine on seeded random inputs of 2 to 80 letters.

It takes about 20 s on a 2-core x86-64 VM, and with the same code and seed
it reproduces the committed files byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random

from checkout import INPUTS, pin_environment, use_checkout_sources

# check-universal problems: (initial, update, passing candidates, failing candidates)
CHECK_PROBLEMS = (
    (("relay", 2), ("relay", 1), 3, 3),
    (("visit", 3), ("seq-visit", 3), 0, 1),
)
CANDIDATE_BOUNDS = (3, 4, 6)
EXECUTIONS = 150
EXECUTION_LENGTHS = (2, 80)
DEFAULT_SEED = 2107


def initial_machines(names) -> None:
    from liveupdate.benchmarks import family
    from liveupdate.machine import serialize_machine
    from liveupdate.synthesis import SynthesisProblem, synth_ltl
    from workloads import machine_path

    machine_path(("x", 0)).parent.mkdir(parents=True, exist_ok=True)
    for name in sorted(names):
        inst = family(*name)
        result = synth_ltl(SynthesisProblem(inst.spec, inst.ap))
        if not result.realizable:
            raise SystemExit(f"{inst.name}: initial specification gave {result.outcome}")
        machine_path(name).write_text(serialize_machine(result.machine))
        print(f"{machine_path(name).relative_to(INPUTS)}: {len(result.machine)} states")


def _mutants(m, rng: random.Random, count: int):
    """Machines that differ from ``m`` in one state's output or one edge."""
    from liveupdate.machine import MooreMachine

    for _ in range(count):
        outputs = list(m.outputs)
        edges = [list(row) for row in m.edges]
        s = rng.randrange(len(m))
        if rng.random() < 0.5 or len(m) == 1:
            o = rng.choice(m.ap.outputs)
            outputs[s] = outputs[s] ^ {o}
        else:
            e = rng.randrange(len(edges[s]))
            cube, dst = edges[s][e]
            edges[s][e] = (cube, rng.choice([d for d in range(len(m)) if d != dst]))
        yield MooreMachine(m.ap, m.names, m.initial, outputs, edges)


def _bounded_machines(ts_i, phi, psi, ap):
    """Update machines of sizes ``CANDIDATE_BOUNDS`` for every obligation of
    the cut monitor at once."""
    from liveupdate.formula import f_and
    from liveupdate.monitor import build_monitor, cut_monitor, reachable_obligations
    from liveupdate.synthesis import SynthesisProblem, synth_ltl

    cut = cut_monitor(build_monitor(phi, ap, anchor="state"), ts_i)
    spec = f_and(list(reachable_obligations(cut)) + [psi])
    for k in CANDIDATE_BOUNDS:
        result = synth_ltl(SynthesisProblem(spec, ap, bounds=(k,), cap=k))
        if result.realizable:
            yield result.machine


def candidates(rng: random.Random) -> None:
    from liveupdate.benchmarks import update_pair
    from liveupdate.machine import serialize_machine
    from liveupdate.modelcheck import mc_universal_product
    from workloads import CHECK_UNIVERSAL_FILE, load_initial

    folder = INPUTS / "candidates"
    folder.mkdir(parents=True, exist_ok=True)
    for old in folder.glob("*.machine"):
        old.unlink()
    manifest = []
    loaded: dict = {}
    for initial, update, n_pass, n_fail in CHECK_PROBLEMS:
        ts_i, _ = load_initial(initial, loaded)
        bi, bu, ap = update_pair(initial, update)
        bases = list(_bounded_machines(ts_i, bi.spec, bu.spec, ap))
        mutants = (m for base in bases for m in _mutants(base, rng, 100))
        chosen = {True: [], False: []}
        want = {True: n_pass, False: n_fail}
        seen = set()
        for m in itertools.chain(bases, mutants):
            text = serialize_machine(m)
            if text in seen:
                continue
            seen.add(text)
            passed = mc_universal_product(ts_i, m, bi.spec, bu.spec, ap).passed
            if len(chosen[passed]) < want[passed]:
                chosen[passed].append(text)
            if all(len(chosen[k]) == want[k] for k in want):
                break
        else:
            raise SystemExit(f"{initial}->{update}: too few passing or failing mutants")
        stem = f"{initial[0]}-{initial[1]}--{update[0]}-{update[1]}"
        for i, text in enumerate(chosen[True] + chosen[False], 1):
            path = folder / f"{stem}--{i:02d}.machine"
            path.write_text(text)
            manifest.append({"candidate": str(path.relative_to(INPUTS)),
                             "initial": list(initial), "update": list(update)})
        print(f"{stem}: {n_pass} passing, {n_fail} failing candidates")
    (INPUTS / CHECK_UNIVERSAL_FILE).write_text(
        "[\n" + ",\n".join(json.dumps(entry) for entry in manifest) + "\n]\n")


def executions(rng: random.Random, seed: int) -> None:
    from liveupdate.traces import format_trace
    from workloads import EXECUTIONS_FILE, FINITE_INITIAL, load_initial

    ts_i, _ = load_initial(FINITE_INITIAL, {})
    lines = [f"# executions of the relay(2) machine on random inputs, seed {seed}"]
    for _ in range(EXECUTIONS):
        n = rng.randint(*EXECUTION_LENGTHS)
        inputs = tuple(frozenset(p for p in ts_i.ap.inputs if rng.random() < 0.5) for _ in range(n))
        lines.append(format_trace(ts_i.run(inputs)))
    (INPUTS / EXECUTIONS_FILE).write_text("\n".join(lines) + "\n")
    print(f"{EXECUTIONS_FILE}: {EXECUTIONS} executions")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()
    pin_environment()
    use_checkout_sources()
    from workloads import FINITE_INITIAL, SYNTH_UNIVERSAL_PAIRS

    names = {pair[1] for pair in SYNTH_UNIVERSAL_PAIRS}
    initial_machines(names | {p[0] for p in CHECK_PROBLEMS} | {FINITE_INITIAL})
    candidates(random.Random(f"candidates-{args.seed}"))
    executions(random.Random(f"executions-{args.seed}"), args.seed)


if __name__ == "__main__":
    main()
