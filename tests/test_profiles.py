"""Parameter-profile tests: derived frequencies, positivity, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from landau_td.errors import (
    GridTooShort,
    MissingParameter,
    NonPositiveMassOrFrequency,
    OutOfDomain,
    UnsupportedKind,
)
from landau_td.profiles import (
    make_profile,
    profile_from_json,
    profile_to_json,
)
from reference import KIND_PARAMS, kind_profile


def test_constant_profile_derived_frequencies():
    # omega_c = qB/M = 2, Omega = sqrt(1 + 1) = sqrt(2)
    prof = make_profile("constant", {"M": 1.0, "omega": 1.0}, q=1.0, B=2.0)
    assert prof.omega_c(0.5) == pytest.approx(2.0, rel=1e-14)
    assert prof.Omega(0.5) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_omega_relation_all_kinds():
    # Omega^2 - omega^2 - omega_c^2/4 = 0 pointwise for every kind
    profiles = [
        make_profile("constant", {"M": 2.0, "omega": 1.3, "E1": 0.5}, q=1.0, B=1.5),
        make_profile("exponential-mass", {"alpha": 0.2, "omega": 1.0}, q=0.7, B=2.0),
        make_profile("exponential-frequency", {"tau": 1.0, "alpha": 0.1}, q=1.0, B=0.5, t1=5.0),
        make_profile("sinusoidal", {"omega0": 1.0, "depth": 0.4, "rate": 2.0}, q=1.0, B=1.0),
    ]
    ts = np.linspace(0.0, 5.0, 57)
    for prof in profiles:
        t = ts[ts <= prof.t1]
        lhs = prof.Omega(t) ** 2 - prof.omega(t) ** 2 - 0.25 * prof.omega_c(t) ** 2
        assert np.max(np.abs(lhs)) < 1e-12


def test_mass_rate_matches_finite_difference():
    profs = [
        make_profile("exponential-mass", {"alpha": 0.3, "omega": 1.0, "M0": 2.0}),
        make_profile(
            "tabulated",
            {
                "t": np.linspace(0.0, 10.0, 41),
                "M": 1.0 + 0.3 * np.sin(np.linspace(0.0, 10.0, 41)),
                "omega": np.full(41, 1.2),
            },
        ),
    ]
    for prof in profs:
        h = 1e-6 * prof.span
        # generic points, away from tabulation knots (the interpolant's
        # second derivative jumps there and degrades the central difference)
        for t in (1.03, 4.57, 7.91):
            fd = (prof.mass(t + h) - prof.mass(t - h)) / (2 * h)
            exact = prof.mass_rate(t)
            assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))


def test_sinusoidal_omega_formula():
    prof = make_profile("sinusoidal", {"omega0": 2.0, "depth": 0.3, "rate": 1.5})
    t = 0.8
    assert prof.omega(t) == pytest.approx(2.0 * (1.0 + 0.3 * np.sin(1.5 * t)), rel=1e-14)


def test_unknown_kind():
    with pytest.raises(UnsupportedKind):
        make_profile("quadratic", {"M": 1.0})


def test_missing_parameter():
    with pytest.raises(MissingParameter):
        make_profile("constant", {"M": 1.0})


def test_nonpositive_mass_or_frequency():
    with pytest.raises(NonPositiveMassOrFrequency):
        make_profile("constant", {"M": -1.0, "omega": 1.0})
    with pytest.raises(NonPositiveMassOrFrequency):
        make_profile("constant", {"M": 1.0, "omega": 0.0})
    with pytest.raises(NonPositiveMassOrFrequency):
        make_profile("sinusoidal", {"omega0": 1.0, "depth": 1.2, "rate": 1.0})


def test_out_of_domain():
    prof = make_profile("constant", {"M": 1.0, "omega": 1.0}, t0=0.0, t1=2.0)
    with pytest.raises(OutOfDomain):
        prof.Omega(2.5)
    with pytest.raises(OutOfDomain):
        prof.omega_c(-0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_time_rejected(bad):
    prof = make_profile("constant", {"M": 1.0, "omega": 1.0}, t0=0.0, t1=2.0)
    for t in (bad, np.float64(bad), np.array(bad), np.array([1.0, bad])):
        with pytest.raises(OutOfDomain):
            prof.check_time(t)
    with pytest.raises(OutOfDomain):
        prof.Omega(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_rejected(bad):
    # the Python API refuses what the JSON path refuses, before any sampling
    for entry in ("q", "B", "kappa", "t0", "t1"):
        with pytest.raises(MissingParameter, match=f"'{entry}'"):
            make_profile("constant", {"M": 1.0, "omega": 1.0}, **{entry: bad})
    with pytest.raises(MissingParameter, match="'omega'"):
        make_profile("constant", {"M": 1.0, "omega": bad})
    tables = {"t": [0.0, 1.0, 2.0, 3.0], "M": [1.0, bad, 1.0, 1.0], "omega": [1.0] * 4}
    with pytest.raises(MissingParameter, match="'M'"):
        make_profile("tabulated", tables, t1=3.0)


@given(t=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 5)))
def test_scalar_and_array_time_checks_agree(t):
    # a scalar and an array go through the one window rule, with the same
    # 1e-12 tolerance at the edges
    prof = make_profile("constant", {"M": 1.0, "omega": 1.0}, t0=-1.0, t1=2.5)

    def rejects(value) -> bool:
        try:
            prof.check_time(value)
        except OutOfDomain:
            return True
        return False

    scalar = rejects(t)
    assert rejects(np.array([t], dtype=float)) == scalar
    assert rejects(np.array(t, dtype=float)) == scalar
    assert scalar == (not -1.0 - 2.5e-12 <= t <= 2.5 + 2.5e-12)


def test_knots_are_interior_samples():
    t = np.linspace(0.0, 6.0, 13)
    prof = make_profile(
        "tabulated", {"t": t, "M": 1.0 + 0.0 * t, "omega": 1.0 + 0.0 * t}, t0=1.2, t1=4.0
    )
    assert np.array_equal(prof.knots, [1.5, 2.0, 2.5, 3.0, 3.5])
    assert make_profile("constant", {"M": 1.0, "omega": 1.0}).knots.size == 0


def test_tabulated_grid_too_short():
    with pytest.raises(GridTooShort):
        make_profile("tabulated", {"t": [0, 1, 2], "M": [1, 1, 1], "omega": [1, 1, 1]})


def test_tabulated_interpolates_through_samples():
    t = np.linspace(0.0, 6.0, 13)
    M = 1.0 + 0.2 * np.cos(t)
    w = 1.5 + 0.1 * np.sin(t)
    prof = make_profile("tabulated", {"t": t, "M": M, "omega": w})
    assert np.allclose(prof.mass(t), M, atol=1e-13)
    assert np.allclose(prof.omega(t), w, atol=1e-13)


@st.composite
def _tables(draw):
    """Uneven sample times and, per entry, a monotone or a wiggling table:
    positive for M and omega, either sign for the field."""
    n = draw(st.integers(4, 12))
    steps = draw(st.lists(st.floats(0.05, 3.0), min_size=n - 1, max_size=n - 1))
    t = np.concatenate(([draw(st.floats(-5.0, 5.0))], np.cumsum(steps)))
    t[1:] += t[0]

    def table(low):
        values = np.asarray(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
        shape = draw(st.sampled_from(["wiggle", "monotone", "plateaus"]))
        if shape == "monotone":
            values = np.cumsum(values) / n
        elif shape == "plateaus":
            # equal neighbours: zero secants, at the ends too
            values = np.ceil(2.0 * values) / 2.0
        return low + values

    return {"t": t, "M": table(0.0), "omega": table(0.0), "E1": table(-1.0), "E2": table(-1.5)}


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


@settings(max_examples=60, deadline=None)
@given(tables=_tables(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_tabulated_float_path_is_the_interpolant_bit_for_bit(tables, fractions):
    # the package's PCHIP must give the bits of scipy's PchipInterpolator
    # (and its derivative for mass_rate), also on, next to and outside the
    # knots: a float time summed in plain floats, arrays elementwise
    t = tables["t"]
    prof = make_profile("tabulated", tables, t0=t[0], t1=t[-1])
    mass_ip = PchipInterpolator(t, tables["M"])
    pairs = [
        (prof.mass, mass_ip),
        (prof.mass_rate, mass_ip.derivative()),
        (prof.omega, PchipInterpolator(t, tables["omega"])),
        (prof.efield1, PchipInterpolator(t, tables["E1"])),
        (prof.efield2, PchipInterpolator(t, tables["E2"])),
    ]
    span = t[-1] - t[0]
    times = np.concatenate([
        t[0] + span * np.asarray(fractions),
        t,
        np.nextafter(t, -np.inf),
        np.nextafter(t, np.inf),
        [t[0] - 0.1 * span, t[-1] + 0.1 * span],
    ])
    for fn, ip in pairs:
        expected = ip(times)
        assert fn(times).tobytes() == expected.tobytes(), fn
        column = fn(times[:, None])
        assert column.shape == (times.size, 1) and column.tobytes() == expected.tobytes(), fn
        for time, want in zip(times, expected):
            assert _bits(fn(float(time))) == _bits(want), (fn, time)
            assert _bits(fn(np.float64(time))) == _bits(want), (fn, time)


def test_tabulated_evaluator_input_types():
    t = np.linspace(0.0, 6.0, 13)
    doc = {"t": t, "M": 1.0 + 0.2 * np.cos(t), "omega": 1.5 + 0.0 * t, "E1": 0.1 * np.sin(t)}
    prof = make_profile("tabulated", doc, t1=6.0)
    for fn in (prof.mass, prof.mass_rate, prof.omega, prof.efield1):
        assert type(fn(1.3)) is float
        assert isinstance(fn(np.float64(1.3)), float)
        zero_d = fn(np.array(1.3))
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        assert fn(np.array([1.3, 2.0])).shape == (2,)
        assert fn(t.reshape(13, 1)).shape == (13, 1)
        assert _bits(fn(1.3)) == _bits(fn(np.array(1.3)))


@pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
def test_constant_entries_answer_a_float_in_plain_floats(kind):
    prof = kind_profile(kind)
    entries = [
        fn
        for fn in (prof.mass, prof.mass_rate, prof.omega, prof.efield1, prof.efield2)
        if fn.__qualname__.startswith("_const_fn.")
    ]
    assert entries
    for fn in entries:
        assert type(fn(2.0)) is float
        assert _bits(fn(2.0)) == _bits(float(fn(np.array(2.0))))
        assert _bits(fn(np.float64(2.0))) == _bits(fn(2.0))


def test_tabulated_field_table_from_json():
    t = np.linspace(0.0, 6.0, 13)
    doc = {"t": t, "M": 1.0 + 0.0 * t, "omega": 1.0 + 0.0 * t, "E1": 0.1 * np.sin(t)}
    prof = profile_from_json(profile_to_json(make_profile("tabulated", doc, t1=6.0)))
    assert np.allclose(prof.efield1(t), 0.1 * np.sin(t), atol=1e-15)
    assert np.all(prof.efield2(t) == 0.0)
    with pytest.raises(MissingParameter):
        make_profile("tabulated", {**doc, "E1": [0.1, 0.2]})


def test_json_round_trip():
    prof = make_profile(
        "exponential-mass",
        {"alpha": 0.25, "omega": 1.1, "E1": 0.3, "E2": -0.2},
        q=1.0,
        B=0.8,
        kappa=2.0,
        t0=0.0,
        t1=7.0,
    )
    text = profile_to_json(prof)
    back = profile_from_json(text)
    ts = np.linspace(0.0, 7.0, 11)
    assert back.kind == prof.kind
    assert back.kappa == prof.kappa
    assert np.allclose(back.mass(ts), prof.mass(ts), atol=0, rtol=1e-15)
    assert np.allclose(back.omega(ts), prof.omega(ts), atol=0, rtol=1e-15)
    assert np.allclose(back.efield1(1.0), prof.efield1(1.0))
    # serialization is deterministic
    assert profile_to_json(back) == text


def test_json_rejects_garbage():
    with pytest.raises(MissingParameter):
        profile_from_json("not json at all {")
    with pytest.raises(MissingParameter):
        profile_from_json("{}")


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
