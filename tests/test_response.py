import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toudesign import (
    InputError,
    StorageSpec,
    TouPrice,
    capacity_curve,
    equivalent_transform,
    optimal_capacity_discrete,
    respond,
    threshold_set_extended,
)
from toudesign.oracles import newsvendor_cost, newsvendor_enumeration
from toudesign.response import ResponseProfile, _SpecArrays


@st.composite
def discrete_instances(draw):
    n = draw(st.integers(1, 6))
    demand = np.sort(
        np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    )
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    probs = weights / weights.sum()
    theta = draw(st.floats(0.01, 5.0))
    p_delta = draw(st.floats(0.0, 12.0))
    return demand, probs, theta, p_delta


@settings(max_examples=200, deadline=None)
@given(discrete_instances())
def test_discrete_capacity_matches_enumeration(instance):
    demand, probs, theta, p_delta = instance
    cap = optimal_capacity_discrete(demand, probs, theta, p_delta)
    cost = newsvendor_cost(cap, demand, probs, theta, p_delta)
    assert cost <= newsvendor_enumeration(demand, probs, theta, p_delta) + 1e-9


def test_discrete_capacity_examples():
    demand, probs = np.array([1.0, 2.0]), np.array([0.5, 0.5])
    # enumeration at p_delta=1.5 gives costs {0, -0.5, -0.25} for c in {0,1,2}
    assert [newsvendor_cost(c, demand, probs, 1.0, 1.5) for c in (0, 1, 2)] == [
        0.0,
        -0.5,
        -0.25,
    ]
    assert optimal_capacity_discrete(demand, probs, 1.0, 1.5) == 1.0
    # at p_delta=2.5 the costs become {0, -1.5, -1.75}
    assert [newsvendor_cost(c, demand, probs, 1.0, 2.5) for c in (0, 1, 2)] == [
        0.0,
        -1.5,
        -1.75,
    ]
    assert optimal_capacity_discrete(demand, probs, 1.0, 2.5) == 2.0
    assert optimal_capacity_discrete(demand, probs, 1.0, 0.5) == 0.0


def test_discrete_capacity_tie_returns_lower_step():
    demand, probs = np.array([1.0, 2.0]), np.array([0.5, 0.5])
    # exact tie at p_delta = theta / tail mass = 2.0
    assert optimal_capacity_discrete(demand, probs, 1.0, 2.0) == 1.0
    # and no investment right at p_delta = theta
    assert optimal_capacity_discrete(demand, probs, 1.0, 1.0) == 0.0


def test_discrete_capacity_rejects_unsorted():
    with pytest.raises(InputError):
        optimal_capacity_discrete([2.0, 1.0], [0.5, 0.5], 1.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(discrete_instances(), st.floats(0.01, 5.0))
def test_capacity_monotone_in_theta(instance, bump):
    demand, probs, theta, p_delta = instance
    lo = optimal_capacity_discrete(demand, probs, theta, p_delta)
    hi = optimal_capacity_discrete(demand, probs, theta + bump, p_delta)
    assert hi <= lo


def test_threshold_set_examples():
    ts = threshold_set_extended(StorageSpec(theta=1.0), [1.0, 2.0], [0.5, 0.5], 0.0)
    assert ts == (0.0, 1.0, 2.0)
    ts_single = threshold_set_extended(StorageSpec(theta=0.171), [4.0], [1.0], 0.0)
    assert ts_single == (0.0, 0.171)


def test_threshold_set_first_positive_is_theta():
    rng = np.random.default_rng(0)
    probs = rng.uniform(0.1, 1.0, 5)
    probs /= probs.sum()
    ts = threshold_set_extended(
        StorageSpec(theta=0.7), np.sort(rng.uniform(0, 5, 5)), probs, 0.0
    )
    assert ts[0] == 0.0
    assert ts[1] == pytest.approx(0.7)


def test_capacity_steps_only_at_thresholds_with_duplicates():
    demand = np.array([1.0, 2.0, 2.0, 3.0])
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    theta = 0.9
    values = np.array(threshold_set_extended(StorageSpec(theta=theta), demand, probs, 0.0))
    curve_points = []
    for lo, hi in zip(values, values[1:]):
        grid = np.linspace(lo, hi, 200, endpoint=False)[1:]
        caps = capacity_curve(demand, probs, theta, grid)
        assert np.all(caps == caps[0]), "capacity moved between thresholds"
        curve_points.append(caps[0])
    beyond = capacity_curve(demand, probs, theta, np.array([values[-1] * 3]))
    curve_points.append(beyond[0])
    assert curve_points == sorted(curve_points)
    assert curve_points[-1] == demand[-1]


def test_capacity_curve_matches_scalar():
    rng = np.random.default_rng(5)
    demand = np.sort(rng.uniform(0, 6, 5))
    probs = rng.uniform(0.1, 1, 5)
    probs /= probs.sum()
    pds = rng.uniform(0, 8, 40)
    curve = capacity_curve(demand, probs, 0.8, pds)
    scalars = [optimal_capacity_discrete(demand, probs, 0.8, pd) for pd in pds]
    np.testing.assert_array_equal(curve, scalars)


def test_respond_elastic_boundary_and_full_shift():
    spec = StorageSpec(theta=1.0, e_shift=0.4, elastic_fraction=0.5)
    peak = np.array([3.0, 5.0])
    probs = np.array([0.5, 0.5])
    elastic = np.array([1.5, 2.5])
    at_cost = respond(spec, TouPrice(0.4), probs, peak)
    np.testing.assert_array_equal(at_cost.shifted, [0.0, 0.0])
    above = respond(spec, TouPrice(0.41), probs, peak)
    np.testing.assert_array_equal(above.shifted, elastic)


def test_storage_spec_rejects_elastic_fraction_outside_unit_interval():
    for fraction in (-0.1, 1.5, float("nan")):
        with pytest.raises(InputError, match="elastic_fraction"):
            StorageSpec(theta=1.0, e_shift=0.4, elastic_fraction=fraction)
    for fraction in (0.0, 1.0):
        StorageSpec(theta=1.0, e_shift=0.4, elastic_fraction=fraction)


def test_elastic_spec_requires_cheaper_shift():
    with pytest.raises(InputError):
        StorageSpec(theta=1.0, e_shift=1.0)


def test_equivalent_transform_lossless_identity():
    spec = StorageSpec(theta=2.0)
    tr = equivalent_transform(spec, 5.0, 3.0)
    assert tr.p_delta == 3.0
    assert tr.theta == 2.0
    assert tr.peak_scale == 1.0
    assert tr.activation_price == 0.0


def test_equivalent_transform_values():
    spec = StorageSpec(theta=2.0, eta_c=0.9, eta_d=0.9)
    tr = equivalent_transform(spec, 0.0, 10.0)
    assert tr.p_delta == pytest.approx(8.1)
    assert tr.theta == pytest.approx(1.8)
    assert tr.peak_scale == pytest.approx(1.0 / 0.81)
    assert tr.activation_price == 0.0


def test_invest_boundary_single_outcome_matches_brute_force():
    # single outcome: invest exactly when p_delta exceeds the activation
    # price plus theta / eta_d; verified by scalar minimization of the
    # owner's total cost over capacity
    spec = StorageSpec(theta=1.5, eta_c=0.92, eta_d=0.88, tau=0.07)
    p_o = 2.0
    demand = np.array([4.0])
    probs = np.array([1.0])
    loss = spec.eta_c * spec.eta_d
    boundary = equivalent_transform(spec, p_o, 0.0).activation_price + spec.theta / spec.eta_d

    def brute_invests(p_delta):
        caps = np.linspace(0, 8, 4001)
        benefit = p_delta * loss - p_o * (1 - loss) - spec.tau * (1 + loss)
        charge = np.minimum(caps / spec.eta_c, demand[0] / loss)
        cost = spec.theta * caps - benefit * charge
        return caps[np.argmin(cost)] > 1e-9

    assert not brute_invests(boundary * 0.99)
    assert brute_invests(boundary * 1.01)
    below = respond(spec, TouPrice(p_o + boundary * 0.99, p_o), probs, demand)
    above = respond(spec, TouPrice(p_o + boundary * 1.01, p_o), probs, demand)
    assert below.capacity == 0.0
    assert above.capacity > 0.0


def test_threshold_set_extended_reduces_to_plain():
    spec = StorageSpec(theta=1.3)
    demand = np.array([1.0, 2.0, 4.0])
    probs = np.array([0.2, 0.3, 0.5])
    plain = threshold_set_extended(spec, demand, probs, 0.0)
    ext = threshold_set_extended(spec, demand, probs, 7.0)
    assert ext == plain


def test_threshold_set_extended_values():
    spec = StorageSpec(theta=1.0, eta_c=0.9, eta_d=0.9)
    demand = np.array([2.0, 3.0])
    probs = np.array([0.5, 0.5])
    ext = threshold_set_extended(spec, demand, probs, 0.0)
    expected = sorted({0.0, 1.0 / 0.9 / 1.0, 1.0 / 0.9 / 0.5})
    assert ext == pytest.approx(tuple(expected))


def test_threshold_set_extended_monotone_in_tau():
    demand = np.array([2.0, 3.0])
    probs = np.array([0.5, 0.5])
    previous = None
    for tau in (0.0, 0.2, 0.5):
        spec = StorageSpec(theta=1.0, eta_c=0.9, eta_d=0.9, tau=tau)
        values = np.array(threshold_set_extended(spec, demand, probs, 1.0))
        if previous is not None:
            assert np.all(values > previous)
        previous = values


def test_respond_zero_price_difference():
    spec = StorageSpec(theta=1.0)
    r = respond(spec, TouPrice(2.0, 2.0), np.array([1.0]), np.array([5.0]))
    assert r.capacity == 0.0
    assert np.all(r.charge == 0.0)


def test_respond_reproduces_plain_composition():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        peak = rng.uniform(0, 6, n)
        probs = rng.uniform(0.1, 1, n)
        probs /= probs.sum()
        theta = float(rng.uniform(0.05, 3))
        p_delta = float(rng.uniform(0, 8))
        spec = StorageSpec(theta=theta)
        r = respond(spec, TouPrice(p_delta + 1.0, 1.0), probs, peak)
        order = np.argsort(peak, kind="stable")
        cap = optimal_capacity_discrete(peak[order], probs[order], theta, p_delta)
        assert r.capacity == cap
        np.testing.assert_array_equal(
            r.charge, [min(cap, d) for d in peak]
        )


def test_respond_matches_capacity_grid_oracle_with_losses():
    # randomized lossy/degrading specs against a brute-force minimizer of the
    # owner's objective over candidate capacities
    rng = np.random.default_rng(33)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        peak = rng.uniform(0.2, 6, n)
        probs = rng.uniform(0.1, 1, n)
        probs /= probs.sum()
        spec = StorageSpec(
            theta=float(rng.uniform(0.1, 2.0)),
            eta_c=float(rng.uniform(0.7, 1.0)),
            eta_d=float(rng.uniform(0.7, 1.0)),
            tau=float(rng.uniform(0.0, 0.3)),
        )
        p_o = float(rng.uniform(0, 3))
        p_delta = float(rng.uniform(0, 10))
        loss = spec.eta_c * spec.eta_d
        benefit = p_delta * loss - p_o * (1 - loss) - spec.tau * (1 + loss)

        def owner_cost(cap):
            s = np.minimum(cap / spec.eta_c, peak / loss) if benefit > 0 else np.zeros_like(peak)
            return spec.theta * cap - benefit * float(probs @ s)

        candidates = np.concatenate(([0.0], peak / loss * spec.eta_c))
        best = min(owner_cost(c) for c in candidates)
        r = respond(spec, TouPrice(p_o + p_delta, p_o), probs, peak)
        assert owner_cost(r.capacity) <= best + 1e-6
        assert np.all(spec.eta_c * r.charge <= r.capacity + 1e-12)
        assert np.all(loss * r.charge <= peak + 1e-12)


def test_respond_extended_reduction_to_plain():
    rng = np.random.default_rng(8)
    peak = rng.uniform(0, 5, 4)
    probs = np.full(4, 0.25)
    plain = StorageSpec(theta=1.0)
    r1 = respond(plain, TouPrice(3.5, 1.5), probs, peak)
    r2 = respond(StorageSpec(theta=1.0, eta_c=1.0, eta_d=1.0, tau=0.0), TouPrice(3.5, 1.5), probs, peak)
    assert r1.capacity == r2.capacity
    np.testing.assert_array_equal(r1.charge, r2.charge)


def test_elastic_shift_activates_before_any_investment():
    rng = np.random.default_rng(55)
    for _ in range(20):
        theta = float(rng.uniform(0.5, 3.0))
        spec = StorageSpec(
            theta=theta, e_shift=float(rng.uniform(0.0, 0.9) * theta), elastic_fraction=0.3
        )
        peak = rng.uniform(1.0, 5.0, 3)
        probs = np.full(3, 1 / 3)
        elastic = 0.3 * peak
        mid = 0.5 * (spec.e_shift + theta)
        r = respond(spec, TouPrice(mid, 0.0), probs, peak)
        assert np.all(r.shifted == elastic)
        assert r.capacity == 0.0


def test_respond_zero_elastic_fraction_identical_to_plain():
    rng = np.random.default_rng(77)
    peak = rng.uniform(0, 5, 4)
    probs = np.full(4, 0.25)
    spec = StorageSpec(theta=0.8, e_shift=0.3)
    with_zero = respond(spec, TouPrice(2.0, 0.0), probs, peak)
    plain = respond(StorageSpec(theta=0.8), TouPrice(2.0, 0.0), probs, peak)
    assert with_zero.capacity == plain.capacity
    np.testing.assert_array_equal(with_zero.charge, plain.charge)


NOT_FINITE = "capacity, charge and shifted must be finite"
NOT_1D = "charge and shifted must be 1-d arrays of equal length"


@pytest.mark.parametrize(
    "capacity, charge, shifted, message",
    [
        (1.0, [0.5, np.nan], [0.0, 0.0], NOT_FINITE),
        (1.0, [0.5, np.inf], [0.0, 0.0], NOT_FINITE),
        (1.0, [0.5, 0.5], [np.nan, 0.0], NOT_FINITE),
        (1.0, [0.5, 0.5], [0.0, -np.inf], NOT_FINITE),
        (np.nan, [0.5, 0.5], [0.0, 0.0], NOT_FINITE),
        (np.inf, [0.5, 0.5], [0.0, 0.0], NOT_FINITE),
        (-1.0, [0.5, 0.5], [0.0, 0.0], "capacity must be >= 0"),
        (1.0, [0.5, 0.5], [0.0, 0.0, 0.0], NOT_1D),
        (1.0, [[0.5, 0.5]], [[0.0, 0.0]], NOT_1D),
    ],
)
def test_response_profile_checks_one_profile_and_a_batch_alike(capacity, charge, shifted, message):
    charge, shifted = np.array(charge), np.array(shifted)
    with pytest.raises(InputError, match=f"^{message}$"):
        ResponseProfile(capacity, charge, shifted)
    # the same profile as the one bad row of a batch of three
    with pytest.raises(InputError, match=f"^{message}$"):
        ResponseProfile._batch(
            ("a", "b", "c"),
            np.array([1.0, capacity, 1.0]),
            np.stack((np.zeros_like(charge), charge, np.ones_like(charge))),
            np.stack((np.zeros_like(shifted), shifted, np.zeros_like(shifted))),
        )


def test_response_profiles_come_back_read_only_with_contiguous_rows():
    single = ResponseProfile(1.5, [0.5, 1.0, 0.0], np.zeros(3))
    # an (outcome x entity) matrix seen by entity, as the array pass hands it over
    charge = np.arange(6.0).reshape(3, 2)
    batch = ResponseProfile._batch(("a", "b"), np.array([2.0, 5.0]), charge.T, np.zeros((2, 3)))
    for profile in (single, *batch.values()):
        for values in (profile.charge, profile.shifted):
            assert values.dtype == np.float64 and values.ndim == 1
            assert not values.flags.writeable and values.flags.c_contiguous
    assert [type(p.capacity) for p in batch.values()] == [float, float]
    charge[:] = -1.0  # the batch holds its own copy
    np.testing.assert_array_equal(batch["b"].charge, [1.0, 3.0, 5.0])
    assert (batch["a"].capacity, batch["b"].capacity) == (2.0, 5.0)


def _spec_arrays_six_passes(specs):
    """`_SpecArrays.of` as first written: one pass over the specs per field."""
    fields = ("theta", "eta_c", "eta_d", "tau", "elastic_fraction")
    return (
        *(np.array([getattr(s, name) for s in specs]) for name in fields),
        np.array([np.nan if s.e_shift is None else s.e_shift for s in specs]),
    )


@pytest.mark.parametrize(
    "specs",
    [
        [StorageSpec(0.4), StorageSpec(1.3)],
        [StorageSpec(0.4, eta_c=0.9, eta_d=0.8), StorageSpec(1.3, eta_c=0.8, eta_d=0.8)],
        [StorageSpec(0.4, tau=0.2), StorageSpec(1.3, eta_c=0.95, tau=4.0)],
        [StorageSpec(0.4, e_shift=0.1, elastic_fraction=0.3), StorageSpec(1.3, elastic_fraction=0.3)],
        [StorageSpec(1), StorageSpec(3, eta_c=1, eta_d=1, tau=0), StorageSpec(2, e_shift=1)],
    ],
    ids=["lossless", "lossy", "degrading", "elastic", "integer-theta"],
)
def test_spec_arrays_equal_the_six_pass_build(specs):
    arr = _SpecArrays.of(specs)
    for field, new, old in zip(_SpecArrays._fields, arr, _spec_arrays_six_passes(specs)):
        assert new.dtype == np.float64 and new.shape == (len(specs),), field
        assert new.flags.c_contiguous, field
        assert np.array_equal(new, old, equal_nan=True), field
