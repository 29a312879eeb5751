import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from liveupdate import forget
from liveupdate.benchmarks import family
from liveupdate.machine import parse_machine
from liveupdate.synthesis import SynthesisProblem, synth_ltl

# The synthesized satellite controller for two base stations (running
# example): outputs on states, measurement inputs on edges.
FIG1_TEXT = """
inputs: m0 m1
outputs: i0 i1 r
state n0 initial { i0 i1 r }
state n1 { i1 }
state n2 { }
state n3 { i0 i1 r }
state n4 { i0 }
state n5 { }
n0 --m0 & m1--> n0
n0 --!m0--> n1
n0 --m0 & !m1--> n4
n1 --!m0 & m1--> n1
n1 --!m0 & !m1--> n2
n1 --m0--> n3
n2 --!m0 & !m1--> n2
n2 --!m0 & m1--> n1
n2 --m0--> n3
n3 --m1--> n0
n3 --!m1--> n4
n4 --m0 & !m1--> n4
n4 --m1--> n0
n4 --!m0 & !m1--> n5
n5 --!m0 & !m1--> n5
n5 --m0 & !m1--> n4
n5 --m1--> n0
"""

# The two-state cycle of the relay controller closed under measurement
# silence of station 0: the {i1}-labeled state and its successor.
TOP_CYCLE_TEXT = """
inputs: m1
outputs: i1
state c1 initial { i1 }
state c2 { }
c1 --m1--> c1
c1 --!m1--> c2
c2 --m1--> c1
c2 --!m1--> c2
"""


@pytest.fixture(autouse=True)
def fresh_process_tables():
    """Every test starts with the process-wide tables of a fresh process, so
    that one that patches the search is not answered from an earlier test's
    verdict, nor from that of a specification that renames its own, and one
    that counts translations counts its own."""
    forget()


@pytest.fixture(scope="session")
def fig1_machine():
    return parse_machine(FIG1_TEXT)


@pytest.fixture(scope="session")
def top_cycle_machine():
    return parse_machine(TOP_CYCLE_TEXT)


@pytest.fixture(scope="session")
def relay2():
    return family("relay", 2)


@pytest.fixture(scope="session")
def relay2_synthesized(relay2):
    """Synthesized relay controller, shared across acceptance tests."""
    result = synth_ltl(SynthesisProblem(relay2.spec, relay2.ap, deadline=time.monotonic() + 120))
    assert result.realizable
    return result
