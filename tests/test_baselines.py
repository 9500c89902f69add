"""Baseline-specific behaviour tests (architecture knobs, caps, support)."""
import pytest

from helpers import stream_of
from repro.baselines import EsperEngine, FlinkCepEngine, SaseEngine
from repro.baselines import sase as sase_mod
from repro.cea import cel
from repro.cea.automaton import compile_cel

A, B, C = (cel.EventType(x) for x in "ABC")
SEQ2 = compile_cel(cel.Seq(A, B))
SEQ3 = compile_cel(cel.seq(A, B, C))

ENGINES = [SaseEngine, EsperEngine, FlinkCepEngine]


@pytest.mark.parametrize("Engine", ENGINES)
def test_basic_match(Engine):
    eng = Engine(SEQ2)
    out = []
    for i, t in enumerate(stream_of("A", "X", "B")):
        out.extend(eng.process(t, float(i), i))
    assert out == [(0, 2, (0, 2))]


@pytest.mark.parametrize("Engine", ENGINES)
def test_partial_match_explosion_is_materialized(Engine):
    """The defining property of the baselines: live partial-match count grows
    super-linearly in window content (here: #A * (#B+1) for A;B;C)."""
    eng = Engine(SEQ3, window=100)
    for i, t in enumerate(stream_of(*(["A", "B"] * 10))):
        eng.process(t, float(i), i)
    assert eng.n_partial_matches > 50


@pytest.mark.parametrize("Engine", ENGINES)
def test_window_prunes_partial_matches(Engine):
    eng = Engine(SEQ3, window=4)
    for i, t in enumerate(stream_of(*(["A", "B"] * 50))):
        eng.process(t, float(i), i)
    bounded = eng.n_partial_matches
    assert bounded < 40  # stays O(window^2), not O(stream^2)


@pytest.mark.parametrize("Engine", ENGINES)
def test_consume_clears_runs(Engine):
    eng = Engine(SEQ2, consume=True)
    eng.process({"type": "A"}, 0.0, 0)
    out = eng.process({"type": "B"}, 1.0, 1)
    assert out and eng.n_partial_matches == 0


@pytest.mark.parametrize("Engine", ENGINES)
def test_limit_caps_matches(Engine):
    eng = Engine(SEQ2, limit=2)
    for i in range(5):
        eng.process({"type": "A"}, float(i), i)
    out = eng.process({"type": "B"}, 5.0, 5)
    assert len(out) == 2


@pytest.mark.parametrize("Engine", ENGINES)
def test_selection_next_takes_marking_branch(Engine):
    eng = Engine(SEQ3, selection="next")
    out = []
    for i, t in enumerate(stream_of("A", "B", "B", "C")):
        out.extend(eng.process(t, float(i), i))
    assert out == [(0, 3, (0, 1, 3))]


@pytest.mark.parametrize("Engine", ENGINES)
def test_max_runs_cap_sheds_load(Engine):
    capped = Engine(SEQ3, window=100, max_runs=10)
    uncapped = Engine(SEQ3, window=100)
    for i, t in enumerate(stream_of(*(["A", "B"] * 20))):
        capped.process(t, float(i), i)
        uncapped.process(t, float(i), i)
    assert capped.n_partial_matches <= 3 * 10 + 5  # cap per event (+q0 starts)
    # The cap says what it dropped; without it nothing is dropped.
    assert capped.n_shed_runs > 0
    assert uncapped.n_shed_runs == 0


@pytest.mark.parametrize("Engine", ENGINES)
def test_reset(Engine):
    eng = Engine(SEQ2)
    eng.process({"type": "A"}, 0.0, 0)
    eng.reset()
    assert eng.n_partial_matches == 0


@pytest.mark.parametrize("Engine", ENGINES)
def test_invalid_selection_rejected(Engine):
    with pytest.raises(ValueError):
        Engine(SEQ2, selection="max")


def test_sase_supports_reports_disjunction():
    assert sase_mod.supports(cel.Seq(A, B))
    assert not sase_mod.supports(cel.Seq(A, cel.Or(B, C)))
    assert not sase_mod.supports(cel.Plus(cel.Or(A, B)))


def test_flink_state_is_serialized_per_event():
    eng = FlinkCepEngine(SEQ2)
    eng.process({"type": "A"}, 0.0, 0)
    assert isinstance(eng._state_blob, bytes) and len(eng._state_blob) > 2


def test_esper_groups_partial_matches_by_state():
    eng = EsperEngine(SEQ3, window=50)
    for i, t in enumerate(stream_of("A", "A", "B")):
        eng.process(t, float(i), i)
    assert len(eng.buffers) >= 2  # waiting-for-B and waiting-for-C states
