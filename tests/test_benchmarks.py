import time

import pytest

from liveupdate.benchmarks import ACCEPTANCE_ROWS, TABLE1_ROWS, family, update_pair
from liveupdate.synthesis import SynthesisProblem, synth_ltl

# initial-side instances the regression table relies on; every generated
# initial specification must be realizable standalone
INITIAL_INSTANCES = sorted({row.initial for row in TABLE1_ROWS})


def test_families_deterministic():
    for name, n in INITIAL_INSTANCES:
        a = family(name, n)
        b = family(name, n)
        assert a.spec is b.spec  # hash-consing makes regeneration identical
        assert a.ap == b.ap


def test_update_pair_ap_union():
    bi, bu, ap = update_pair(("arbiter-simple", 2), ("arbiter-full", 2))
    assert set(bi.ap.all) <= set(ap.all)
    assert set(bu.ap.all) <= set(ap.all)
    assert set(ap.inputs) == {"r0", "r1"}


def test_unknown_family():
    with pytest.raises(ValueError):
        family("no-such-family", 2)


def test_family_parameter_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        family("relay", 0)


def test_acceptance_rows_exist():
    keys = {row.key for row in TABLE1_ROWS}
    assert set(ACCEPTANCE_ROWS) <= keys


@pytest.mark.parametrize("name,n", [i for i in INITIAL_INSTANCES if i != ("relay", 2)])
def test_initial_specs_realizable(name, n):
    inst = family(name, n)
    result = synth_ltl(SynthesisProblem(inst.spec, inst.ap, deadline=time.monotonic() + 90))
    assert result.realizable, f"{inst.name}: {result.outcome}"


def test_relay2_realizable(relay2_synthesized):
    # shared fixture; the relay controller needs the largest bound
    assert relay2_synthesized.realizable
