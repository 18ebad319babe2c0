import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dasee import geometry
from dasee.config import ConfigError
from dasee.geometry import (MAX_EMPTY_ROUNDS, CalibrationResult, build_layout,
                            calibrate, drop_users)


def test_seven_cell_layout_geometry():
    layout = build_layout(M=7, Rc=2000.0, L=7)
    assert layout.cell_centers.shape == (7, 2)
    assert np.allclose(layout.cell_centers[0], 0.0)
    spacing = np.linalg.norm(layout.cell_centers[1:], axis=1)
    assert np.allclose(spacing, 4000.0)
    # one central RRH plus six on the 2/3-radius ring, 60 degrees apart
    assert np.allclose(layout.rrh_positions[0, 0], 0.0)
    ring = layout.rrh_positions[0, 1:]
    assert np.allclose(np.linalg.norm(ring, axis=1), 2000.0 * 2 / 3)
    angles = np.sort(np.arctan2(ring[:, 1], ring[:, 0]))
    assert np.allclose(np.diff(angles), np.pi / 3)


def test_layout_rrhs_distinct():
    for M in (1, 2, 4, 7, 12):
        layout = build_layout(M=M, Rc=500.0, L=7)
        flat = layout.rrh_positions.reshape(-1, 2)
        dists = np.linalg.norm(flat[:, None] - flat[None], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 0.0


def test_layout_single_rrh_and_bad_l():
    layout = build_layout(M=1, Rc=1000.0, L=1)
    assert layout.rrh_positions.shape == (1, 1, 2)
    assert np.allclose(layout.rrh_positions[0, 0], 0.0)
    with pytest.raises(ValueError, match="unsupported cell count"):
        build_layout(M=7, Rc=1000.0, L=3)


def test_drop_users_inside_disk_and_reproducible():
    users = drop_users(500, 750.0, seed=8)
    assert (np.linalg.norm(users, axis=1) <= 750.0).all()
    assert (users == drop_users(500, 750.0, seed=8)).all()
    assert not np.allclose(users, drop_users(500, 750.0, seed=9))


def test_drop_users_uniformity_moment():
    # uniform disk: E{r^2} = Rc^2 / 2
    users = drop_users(100_000, 1000.0, seed=3)
    mean_r2 = (users ** 2).sum(axis=1).mean()
    assert abs(mean_r2 / (1000.0 ** 2 / 2) - 1.0) < 0.01


def test_calibration_gain_ordering():
    layout = build_layout(M=7, Rc=2000.0, L=7)
    result = calibrate(layout, iota=2.5, K=10, drops=200, seed=5)
    assert result.mean_gain_nearest > result.mean_gain_intra > result.mean_gain_inter
    assert 0.0 < result.alpha2 < result.alpha1 < 1.0


def test_calibration_radius_scaling():
    # doubling every distance (layout, exclusion) scales beta by 2^-iota
    iota = 2.5
    base = calibrate(build_layout(M=7, Rc=1000.0, L=7), iota=iota, K=10,
                     drops=150, seed=12, min_distance=100.0)
    scaled = calibrate(build_layout(M=7, Rc=2000.0, L=7), iota=iota, K=10,
                       drops=150, seed=12, min_distance=200.0)
    assert np.isclose(scaled.beta / base.beta, 2.0 ** (-iota), rtol=1e-9)
    assert np.isclose(scaled.alpha1, base.alpha1, rtol=1e-9)
    assert np.isclose(scaled.alpha2, base.alpha2, rtol=1e-9)


def test_calibration_pathloss_exponent_direction():
    # larger iota: farther cells decay faster, alpha2 falls (same drop set)
    layout = build_layout(M=7, Rc=2000.0, L=7)
    low = calibrate(layout, iota=2.5, K=10, drops=150, seed=4)
    high = calibrate(layout, iota=3.5, K=10, drops=150, seed=4)
    assert high.alpha2 < low.alpha2


def test_calibration_single_rrh_alpha1():
    layout = build_layout(M=1, Rc=2000.0, L=7)
    result = calibrate(layout, iota=2.5, K=10, drops=50, seed=2)
    assert result.alpha1 == 0.0
    assert result.alpha2 > 0.0


def test_calibration_fragment_keys():
    layout = build_layout(M=7, Rc=2000.0, L=7)
    result = calibrate(layout, iota=2.5, K=10, drops=20, seed=1)
    overrides = result.config_overrides()
    assert set(overrides) == {"beta", "alpha1", "alpha2"}
    assert all(isinstance(v, float) for v in overrides.values())


# --- block-drawn calibration vs the drop-by-drop loop -----------------------

def reference_calibrate(layout, iota, K, drops, seed=None, min_distance=200.0):
    """The calibration as a plain loop: one drop, one rejection round at a
    time, each round a ``drop_users`` draw."""
    if drops < 1:
        raise ConfigError("drops must be >= 1")
    rng = np.random.default_rng(seed)
    flat_rrh = layout.rrh_positions.reshape(-1, 2)
    M = layout.M
    sum_nearest = sum_intra = sum_inter = 0.0
    users_idx = np.arange(K)
    for _ in range(drops):
        users = np.empty((K, 2))
        filled = empty_rounds = 0
        while filled < K:
            cand = drop_users(K, layout.Rc, rng)
            dist = np.linalg.norm(cand[:, None, :] - flat_rrh[None], axis=-1)
            keep = cand[dist.min(axis=1) >= min_distance]
            empty_rounds = 0 if len(keep) else empty_rounds + 1
            if empty_rounds == MAX_EMPTY_ROUNDS:
                raise ConfigError(
                    f"min_distance {min_distance:g} m excludes every user")
            take = min(K - filled, len(keep))
            users[filled:filled + take] = keep[:take]
            filled += take
        dist = np.linalg.norm(users[:, None, None, :]
                              - layout.rrh_positions[None], axis=-1)
        gain = np.maximum(dist, 1.0) ** (-iota)
        own = gain[:, 0, :]
        nearest = np.argmax(own, axis=1)
        sum_nearest += own[users_idx, nearest].mean()
        if M > 1:
            others = np.ones((K, M), dtype=bool)
            others[users_idx, nearest] = False
            sum_intra += own[others].mean()
        if layout.L > 1:
            sum_inter += gain[:, 1:, :].mean()
    e_nearest = float(sum_nearest / drops)
    e_intra = float(sum_intra / drops)
    e_inter = float(sum_inter / drops)
    beta = e_nearest / M ** (iota / 2.0)
    return CalibrationResult(
        beta=beta, alpha1=e_intra / beta if M > 1 else 0.0,
        alpha2=e_inter / beta if layout.L > 1 else 0.0,
        mean_gain_nearest=e_nearest, mean_gain_intra=e_intra,
        mean_gain_inter=e_inter, drops=drops, users_per_drop=K)


def _outcome(fn, *args, **kwargs):
    """repr of the result (exact floats) or of the ConfigError raised."""
    try:
        return repr(fn(*args, **kwargs))
    except ConfigError as exc:
        return f"ConfigError({exc})"


GEOMETRIES = list(itertools.product((1, 3, 7), (1, 7), (1, 10, 20),
                                    (50.0, 200.0, 800.0)))


@pytest.mark.parametrize("M,L,K,min_distance", GEOMETRIES)
def test_calibrate_equals_drop_by_drop_loop(monkeypatch, M, L, K,
                                            min_distance):
    layout = build_layout(M=M, Rc=2000.0, L=L)
    iota = 2.5 + 0.5 * (M % 3)
    for drops, seed in itertools.product((1, 7), (0, 1, 2)):
        assert _outcome(calibrate, layout, iota, K, drops, seed=seed,
                        min_distance=min_distance) == _outcome(
            reference_calibrate, layout, iota, K, drops, seed=seed,
            min_distance=min_distance)
    # a block of a round or a few: drops span many blocks, and a drop spans
    # the boundary between two
    for block, seed in ((1, 3), (2 * K + 1, 4)):
        monkeypatch.setattr(geometry, "BLOCK", block)
        assert _outcome(calibrate, layout, iota, K, 40, seed=seed,
                        min_distance=min_distance) == _outcome(
            reference_calibrate, layout, iota, K, 40, seed=seed,
            min_distance=min_distance)


@pytest.mark.parametrize("K", [1, 20])
def test_calibrate_equals_loop_past_one_block(K):
    # more rounds than one block holds at the shipped BLOCK
    layout = build_layout(M=7, Rc=2000.0, L=7)
    drops = geometry.BLOCK // K + 3
    assert repr(calibrate(layout, 2.5, K, drops, seed=11)) == repr(
        reference_calibrate(layout, 2.5, K, drops, seed=11))


# the shipped BLOCK, a small one and a block four times the shipped size
@pytest.mark.parametrize("block", sorted({3, geometry.BLOCK, 4096}))
def test_calibrate_leaves_a_passed_generator_where_the_loop_does(
        monkeypatch, block):
    monkeypatch.setattr(geometry, "BLOCK", block)
    layout = build_layout(M=7, Rc=2000.0, L=7)
    for K, drops, seed in ((10, 1, 5), (10, 25, 6), (3, 60, 7)):
        ours, theirs = (np.random.default_rng(seed) for _ in range(2))
        assert repr(calibrate(layout, 2.5, K, drops, seed=ours,
                              min_distance=400.0)) == repr(
            reference_calibrate(layout, 2.5, K, drops, seed=theirs,
                                min_distance=400.0))
        assert ours.random() == theirs.random()


def test_calibrate_excluding_every_user_raises_like_the_loop(monkeypatch):
    layout = build_layout(M=7, Rc=2000.0, L=7)
    for block in (1, geometry.BLOCK):
        monkeypatch.setattr(geometry, "BLOCK", block)
        for drops in (1, 300):
            with pytest.raises(ConfigError, match="excludes every user"):
                calibrate(layout, 2.5, 10, drops, seed=1, min_distance=5000.0)


def test_calibrate_rejects_degenerate_inputs():
    layout = build_layout(M=7, Rc=2000.0, L=7)
    # iota 300 underflows every gain (beta = 0), 800 overflows M^(iota/2)
    for iota in (300.0, 800.0):
        with pytest.raises(ConfigError, match="iota"):
            calibrate(layout, iota, 10, 3, seed=1)
    with pytest.raises(ConfigError, match="K must be"):
        calibrate(layout, 2.5, 0, 3, seed=1)


_COORDINATE = st.one_of(st.floats(-5000.0, 5000.0),
                        st.sampled_from((0.0, 1e154, -1e200, 1e300, np.inf,
                                         -np.inf, np.nan)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(1, 1), (1, 7), (3, 1), (7, 7)]),
       points=st.lists(st.tuples(_COORDINATE, _COORDINATE), min_size=1,
                       max_size=6),
       pick=st.integers(0, 10 ** 6), step=st.sampled_from((-1, 0, 1)))
def test_keep_test_on_squared_distances_is_the_min_distance_test(
        shape, points, pick, step):
    # sqrt is correctly rounded and never decreases, so it commutes with
    # min: sqrt(min d^2) >= d_min keeps exactly the users that min(sqrt d^2)
    # keeps, also where d_min ties a distance or sits one ulp beside it
    M, L = shape
    layout = build_layout(M=M, Rc=2000.0, L=L)
    cand = np.array(points)
    square = geometry._square_distances(cand, layout)
    with np.errstate(over="ignore"):   # a distance beyond a double is inf
        distances = np.linalg.norm(cand[:, None, None, :]
                                   - layout.rrh_positions[None], axis=-1)
    assert np.array_equal(np.sqrt(square), distances, equal_nan=True)
    drawn = distances.ravel()
    d_min = np.nextafter(drawn[pick % drawn.size], step * np.inf)
    keep = np.sqrt(square.min(axis=(-2, -1))) >= d_min
    assert np.array_equal(keep, distances.min(axis=(-2, -1)) >= d_min)
