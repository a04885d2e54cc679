"""Tests for deterministic RNG utilities."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as sstats

from repro import rng
from repro.calibration.accidents import COLLISION_TYPE_WEIGHTS, COLLISION_TYPES
from repro.calibration.fault_model import fault_mixture
from repro.calibration.manufacturers import MANUFACTURERS
from repro.calibration.modality import modality_mixture
from repro.calibration.reaction_times import REACTION_TIME_MODELS
from repro.calibration.roads import ROAD_TYPE_SHARES, WEATHER_WEIGHTS
from repro.synth import accidents, events
from repro.synth.narratives import TEMPLATES, Template


def test_child_seed_is_deterministic():
    assert rng.child_seed(5, "x") == rng.child_seed(5, "x")


def test_child_seed_differs_by_name():
    assert rng.child_seed(5, "x") != rng.child_seed(5, "y")


def test_child_seed_differs_by_parent():
    assert rng.child_seed(5, "x") != rng.child_seed(6, "x")


def test_child_seed_fits_in_63_bits():
    for name in ("a", "b", "verylongname" * 10):
        assert 0 <= rng.child_seed(123, name) < 2 ** 63


def test_child_generator_streams_are_independent():
    a = rng.child_generator(9, "alpha").random(8)
    b = rng.child_generator(9, "beta").random(8)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("name", ["ocr:doc-1", "manufacturer:Waymo"])
def test_child_generator_matches_child_seed(name):
    direct = np.random.default_rng(rng.child_seed(11, name)).random(3)
    via_helper = rng.child_generator(11, name).random(3)
    assert np.allclose(direct, via_helper)


# ----------------------------------------------------------------------
# Closed-form draws against the library calls they stand for.  Floats
# are compared with ``==`` (or bit for bit), never approximately, and
# the generator state must match after every draw.
# ----------------------------------------------------------------------

_seeds = st.integers(0, 2 ** 32 - 1)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_variates_match(a, c, scale, seed, draws=25):
    oracle = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    for _ in range(draws):
        expected = float(sstats.exponweib.rvs(
            a, c, scale=scale, random_state=oracle))
        assert rng.exponweib_variate(a, c, scale, twin) == expected
        assert twin.bit_generator.state == oracle.bit_generator.state


class TestExponweibVariate:
    @pytest.mark.parametrize("name", sorted(REACTION_TIME_MODELS))
    @given(seed=_seeds)
    @settings(max_examples=40, deadline=None)
    def test_calibrated_models_match_scipy(self, name, seed):
        model = REACTION_TIME_MODELS[name]
        _assert_variates_match(model.a, model.c, model.scale, seed)

    @given(a=st.floats(0.2, 5.0), c=st.floats(0.2, 5.0),
           scale=st.floats(0.01, 10.0), seed=_seeds)
    @example(a=2.0, c=2.0, scale=1.0, seed=0)
    @example(a=1.0, c=1.0, scale=1.0, seed=1)
    @example(a=1.0, c=0.5, scale=0.01, seed=2)
    @example(a=0.5, c=0.2, scale=10.0, seed=3)
    @settings(max_examples=300, deadline=None)
    def test_drawn_parameters_match_scipy(self, a, c, scale, seed):
        _assert_variates_match(a, c, scale, seed)


_SQRT1_2 = 0.70710678118654752440
_SQRT2 = 1.41421356237309504880

#: ``x`` with ``1 + x`` one ulp either side of the polynomial range's
#: ends (each ``x`` is exact, so ``1 + x`` lands where intended).
_LOG1P_EDGES = [math.nextafter(edge, direction) - 1.0
                for edge in (_SQRT1_2, _SQRT2)
                for direction in (-math.inf, math.inf)]


class TestLog1p:
    @given(x=st.floats(-1.0, 1.0, exclude_max=True))
    @settings(max_examples=2000, deadline=None)
    def test_matches_cephes(self, x):
        assert _bits(rng._log1p(x)) == _bits(float(special.log1p(x)))

    @pytest.mark.parametrize(
        "x", _LOG1P_EDGES + [_SQRT1_2 - 1.0, _SQRT2 - 1.0, 0.0, -0.0,
                             1e-300, -1e-300, 5e-324, -0.5, 0.5,
                             1.0 - 2 ** -53, -1.0 + 2 ** -53])
    def test_edges_match_cephes(self, x):
        assert _bits(rng._log1p(x)) == _bits(float(special.log1p(x)))

    def test_edges_straddle_the_polynomial_range(self):
        inside = [1.0 + x for x in _LOG1P_EDGES]
        assert inside[0] < _SQRT1_2 < inside[1]
        assert inside[2] < _SQRT2 < inside[3]

    @pytest.mark.parametrize("edge", [_SQRT1_2, _SQRT2])
    def test_every_double_near_a_range_end(self, edge):
        # The polynomial and log(1 + x) round differently on ~1 in 8
        # of these inputs, so a misplaced range end shows here.
        bits = np.float64(edge).view(np.int64)
        z = (bits + np.arange(-2000, 2001)).view(np.float64)
        x = z - 1.0
        assert np.array_equal(1.0 + x, z)
        expected = special.log1p(x)
        assert [_bits(rng._log1p(v)) for v in x.tolist()] == [
            _bits(v) for v in expected.tolist()]

    def test_minus_one_is_minus_infinity(self):
        assert rng._log1p(-1.0) == -math.inf
        assert math.isnan(rng._log1p(-2.0))


#: Every calibrated weight vector synthesis draws categories from.
_CALIBRATED_WEIGHTS = (
    [list(fault_mixture(m).weights.values()) for m in MANUFACTURERS]
    + [list(modality_mixture(m).weights.values()) for m in MANUFACTURERS]
    + [list(ROAD_TYPE_SHARES.values()), list(WEATHER_WEIGHTS)])


@st.composite
def _probability_vectors(draw):
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
        min_size=1, max_size=12))
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    p = np.asarray(weights)
    return p / p.sum()


class TestCdfIndex:
    @given(p=st.one_of(_probability_vectors(),
                       st.sampled_from(_CALIBRATED_WEIGHTS)),
           seed=_seeds)
    @example(p=[1.0], seed=0)
    @example(p=[0.0, 1.0, 0.0], seed=1)
    @example(p=[0.5, 0.0, 0.0, 0.5], seed=2)
    @settings(max_examples=300, deadline=None)
    def test_matches_generator_choice(self, p, seed):
        cdf = rng.weighted_cdf(p)
        oracle = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        for _ in range(40):
            expected = int(oracle.choice(len(p), p=p))
            assert rng.cdf_index(cdf, twin) == expected
            assert twin.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("p", [
        [0.5, -0.1, 0.6],
        [0.5, math.nan, 0.5],
        [0.5, math.inf, 0.5],
        [0.5, 0.5 + 1e-7],
        [0.5, 0.5 - 1e-7],
        [],
        [[0.5, 0.5]],
    ])
    def test_rejects_what_choice_rejects(self, p):
        with pytest.raises(ValueError):
            rng.weighted_cdf(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(max(len(p), 1), p=p)

    @pytest.mark.parametrize("p", [[0.5, 0.5 + 1e-9], [0.5, 0.5 - 1e-9]])
    def test_accepts_rounding_error_within_sqrt_eps(self, p):
        cdf = rng.weighted_cdf(p)
        np.random.default_rng(0).choice(2, p=p)
        # Normalized as choice normalizes, so every draw below 1 maps
        # to a valid index.
        assert cdf[-1] == 1.0


#: Every pool synthesis picks from uniformly: template slots and the
#: accident narratives of each collision type.
_PICK_POOLS = (
    [t.choices for pool in TEMPLATES.values() for t in pool if t.choices]
    + list(accidents._NARRATIVES_BY_TYPE.values()))


class TestSynthesisPicks:
    """The per-event picks and clamps synthesis writes without the
    library call, against that call."""

    def test_pick_pools_are_covered(self):
        assert {len(pool) for pool in _PICK_POOLS} <= set(range(1, 11))

    @given(n=st.integers(1, 10), seed=_seeds)
    @settings(max_examples=300, deadline=None)
    def test_index_pick_matches_choice(self, n, seed):
        pool = tuple(f"option {i}" for i in range(n))
        template = Template("pick {x}", pool)
        oracle = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        for _ in range(40):
            expected = "pick " + str(oracle.choice(list(pool)))
            assert template.render(twin) == expected
            assert twin.bit_generator.state == oracle.bit_generator.state

    @given(seed=_seeds)
    @example(seed=755)  # the first normal draw is below 0
    @example(seed=108)  # the first normal draw is above 23
    @settings(max_examples=300, deadline=None)
    def test_sample_time_matches_clip(self, seed):
        oracle = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        for _ in range(40):
            expected = (int(np.clip(oracle.normal(13.0, 3.5), 0, 23)),
                        int(oracle.integers(0, 60)),
                        int(oracle.integers(0, 60)))
            assert events._sample_time(twin) == expected
            assert twin.bit_generator.state == oracle.bit_generator.state

    @given(seed=_seeds)
    @settings(max_examples=300, deadline=None)
    def test_collision_type_matches_choice(self, seed):
        oracle = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        for _ in range(40):
            expected = int(oracle.choice(
                len(COLLISION_TYPES), p=COLLISION_TYPE_WEIGHTS))
            assert rng.cdf_index(
                accidents._COLLISION_TYPE_CDF, twin) == expected
            assert twin.bit_generator.state == oracle.bit_generator.state

    @given(value=st.one_of(
        st.integers(-10 ** 7, 10 ** 7).map(lambda n: n / 1000),
        st.floats(-1e300, 1e300, allow_nan=False)))
    @example(value=0.015)  # numpy rounds to 0.02, Python's round to 0.01
    @example(value=0.125)  # an exact tie: half to even
    @example(value=0.004)  # rounds to 0, under the 0.01 floor
    @settings(max_examples=500, deadline=None)
    def test_drifted_round_matches_numpy(self, value):
        rounded = events._round_drifted(value)
        assert type(rounded) is float
        assert rounded == round(np.float64(value), 2)
        assert max(rounded, 0.01) == max(round(np.float64(value), 2), 0.01)
