"""Verification and synthesis of live updates for reactive systems.

The package decides and constructs *live updates*: given an initial
specification, a running implementation (or one of its finite executions) and
an update specification, it computes the residual obligations the update
system inherits, model-checks candidate update systems, and synthesizes
correct-by-construction ones.
"""

from .automata import BuchiAutomaton, CounterexampleLasso, Verdict, ltl_to_nba, mc_ltl, nba_emptiness
from .formula import Formula
from .machine import MooreMachine, parse_machine, serialize_machine
from .modelcheck import LiveProblem, mc_finite_live, mc_universal_live, mc_universal_product
from .monitor import ObligationMonitor, build_monitor, cut_from_phi, cut_monitor, reachable_obligations
from .parser import parse_formula
from .rewrite import af, af_word, evolve, expand, expand_n, liveltl_to_ltl, strip
from .semantics import eval_initial, eval_ltl, eval_update, words_membership
from .synthesis import SynthesisProblem, SynthesisResult, synth_finite_live, synth_ltl, synth_universal_live
from .traces import APTable, LassoTrace, parse_trace

__version__ = "0.1.0"
