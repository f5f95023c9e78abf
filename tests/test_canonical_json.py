"""The canonical JSON writer and the matrix encoder against their oracles.

``canonical_json`` must write exactly what ``json.dumps(obj, indent=2,
sort_keys=True)`` writes, on generated values and on every real report,
and ``encode_matrix`` must round exactly as the per-entry ``round(x, 12)``
it replaced.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import framerel.runner as runner
from framerel.runner import emit_report, run_scenario
from framerel.scenario import canonical_json, encode_matrix, parse_scenario, serialize_scenario

from .fixtures import generate



def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True)


# ------------------------------------------------------------------ writer

ESCAPES = "\"\\/\b\f\n\r\t\x00\x1f\x7f é€😀 \ud800"
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e300, 1e16, 1e-5, 0.1, math.inf, -math.inf, math.nan)

numbers = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    numbers,
    st.floats().map(np.float64),
    st.text(),
    st.lists(st.sampled_from(ESCAPES)).map("".join),
)
# matrix entries: exact int and float, and the ones the fast path refuses
entries = st.one_of(numbers, st.booleans(), st.floats().map(np.float64))
pairs = st.one_of(st.lists(entries, min_size=2, max_size=2), st.tuples(entries, entries))


@st.composite
def pair_matrices(draw):
    """Rows of equal width of [re, im] pairs, as lists or tuples."""
    width = draw(st.integers(1, 4))
    return draw(st.lists(st.lists(pairs, min_size=width, max_size=width), min_size=1, max_size=4))


near_matrices = st.lists(st.lists(st.lists(entries, max_size=3), max_size=3), max_size=3)
keys = st.one_of(st.lists(st.sampled_from(ESCAPES), max_size=3).map("".join), st.text())
values = st.recursive(
    st.one_of(scalars, pair_matrices(), near_matrices),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(), children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_writer_writes_what_json_dumps_writes(obj):
    assert canonical_json(obj) == _dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        [[]],
        [{}],
        {"a": []},
        "é\n",
        [[[1, 2.5]], [[3, 4]]],
        [[[True, 0.0]]],
        [[[np.float64(0.1), 1]]],
        [[[0.5, math.nan], [1.0, -math.inf]]],
        [[[1, 2], [3, 4]], [[5, 6]]],
        [[[1, 2, 3]]],
        [[(1.0, 2.0), [3, 4.0]]],
        {"m": [[[1e-12, -0.0]]], "n": {"2": 10, "10": [[[1, 1]]]}},
        {2: "b", 10: "a"},
        {1.5: 0, -0.0: 1},
    ],
)
def test_writer_on_chosen_values(obj):
    assert canonical_json(obj) == _dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        np.int64(1),
        np.bool_(True),
        1j,
        {1, 2},
        object(),
        [[[np.int64(1), 0.0]]],
        {"a": [[[1.0, 2j]]]},
        {(1, 2): 0},
        {1: 0, "a": 1},
    ],
)
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        _dumps(obj)
    with pytest.raises(TypeError):
        canonical_json(obj)


# ----------------------------------------------------------------- encoder


def _clean(x):
    v = round(float(x), 12)
    return 0.0 if v == 0 else v


def _encode_oracle(m):
    """The per-entry encoder that ``encode_matrix`` replaced."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return [[[_clean(z.real), _clean(z.imag)] for z in row] for row in a]


def _bits(encoded):
    return np.asarray(encoded, dtype=np.float64).view(np.int64)


def _assert_same_encoding(m):
    got, want = encode_matrix(m), _encode_oracle(m)
    assert type(got) is list and all(type(x) is float for row in got for p in row for x in p)
    assert np.array_equal(_bits(got), _bits(want))


halfway = (np.arange(-2000, 2000) + 0.5) * 1e-12


@pytest.mark.parametrize(
    "m",
    [
        np.array([1.5 + 2j, -0.0 - 0.0j, 1e-15]),
        np.array([[-0.0, 0.0], [-1e-13, 4.9e-13]], dtype=complex),
        np.array([[5e-13, -5e-13, 1.5e-12, 2.5e-12, 5e-324]]),
        np.array([[1e300, -1e300, 2.0**60, 1125.899906842624, 1125.899906842625]]),
        # past x 1e12 = 2^52 rint(x 1e12) / 1e12 is not round(x, 12) on these
        np.array([[4503.599627370495, 4503.599627370497, 9824.040177750905, 2549833.212391792, 1898694340.615499]]),
        np.array([[math.inf, -math.inf, 1 / 8192, -3 / 8192]], dtype=complex),
        halfway + 1j * (np.arange(-2000, 2000) + 0.5) / 8192,
        np.nextafter(halfway, 1.0) + 1j * np.nextafter(halfway, -1.0),
        np.arange(12.0).reshape(3, 4).T + 0j,
        np.arange(6).reshape(2, 3),
    ],
)
def test_encoder_rounds_as_round_does(m):
    _assert_same_encoding(m)


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5), st.just(2)), elements=st.floats(allow_nan=False)),
    st.sampled_from([1e-13, 1e-12, 1e-6, 1.0, 1e3, 1e12]),
)
def test_encoder_agrees_with_round_on_generated_matrices(parts, scale):
    with np.errstate(over="ignore"):
        _assert_same_encoding((parts * scale).view(np.complex128)[..., 0])


def test_encoder_keeps_nan():
    (re, im), = encode_matrix([math.nan + 1j])[0]
    assert math.isnan(re) and im == 1.0


# ------------------------------------------------------------ real reports


def _scenario_texts():
    return generate.manifest_scenarios(range(1, 9))


def test_every_report_is_what_json_dumps_writes(monkeypatch):
    payloads = []
    writer = runner.canonical_json
    monkeypatch.setattr(runner, "canonical_json", lambda obj: payloads.append(obj) or writer(obj))
    texts = _scenario_texts()
    assert len(texts) == 5 + 6 * 8
    for name, text in texts:
        report = emit_report(run_scenario(parse_scenario(text)), "machine")
        assert report == _dumps(payloads[-1]) + "\n", name
    assert len(payloads) == len(texts)


def test_serialized_fixtures_are_what_json_dumps_writes():
    for name, text in _scenario_texts()[:5]:
        spec = parse_scenario(text)
        assert serialize_scenario(spec) == _dumps(spec.document) + "\n", name
