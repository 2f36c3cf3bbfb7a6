"""Property-based tests for partitioning patterns."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.mk import MKConstraint
from repro.model.patterns import (
    EPattern,
    RotatedPattern,
    RPattern,
    pattern_satisfies_mk,
)

mk_pairs = st.integers(min_value=2, max_value=20).flatmap(
    lambda k: st.tuples(st.integers(min_value=1, max_value=k), st.just(k))
)
#: Counting is checked on hard constraints (m = k, k = 1 included) as
#: often as on firm ones: R-patterns special-case them.
count_pairs = st.one_of(
    mk_pairs, st.integers(min_value=1, max_value=20).map(lambda k: (k, k))
)
bases = st.sampled_from([RPattern, EPattern])


@given(mk_pairs)
def test_rpattern_every_window_satisfies_mk(pair):
    m, k = pair
    mk = MKConstraint(m, k)
    bits = RPattern(mk).bits(6 * k)
    assert pattern_satisfies_mk(bits, mk)


@given(mk_pairs)
def test_epattern_every_window_satisfies_mk(pair):
    m, k = pair
    mk = MKConstraint(m, k)
    bits = EPattern(mk).bits(6 * k)
    assert pattern_satisfies_mk(bits, mk)


@given(mk_pairs)
def test_patterns_place_exactly_m_per_window(pair):
    m, k = pair
    mk = MKConstraint(m, k)
    assert sum(RPattern(mk).window()) == m
    assert sum(EPattern(mk).window()) == m


@given(mk_pairs)
def test_first_job_mandatory(pair):
    m, k = pair
    mk = MKConstraint(m, k)
    assert RPattern(mk).is_mandatory(1)
    assert EPattern(mk).is_mandatory(1)


@given(count_pairs, bases, st.integers(min_value=0, max_value=200))
@example((1, 1), RPattern, 3)
@example((5, 5), EPattern, 12)
def test_prefix_count_matches_enumeration(pair, base, count):
    m, k = pair
    pattern = base(MKConstraint(m, k))
    expected = sum(int(pattern.is_mandatory(j)) for j in range(1, count + 1))
    assert pattern.mandatory_count_in(1, count) == expected


@given(
    count_pairs,
    bases,
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=0, max_value=100),
)
def test_range_count_is_additive(pair, base, lo, width):
    m, k = pair
    pattern = base(MKConstraint(m, k))
    hi = lo + width
    left = pattern.mandatory_count_in(1, lo - 1)
    right = pattern.mandatory_count_in(lo, hi)
    assert left + right == pattern.mandatory_count_in(1, hi)


# --- Rotated patterns (the enhanced-FP admission lever) --------------------

rotations = st.integers(min_value=0, max_value=45)


@given(count_pairs, rotations, bases)
@example((1, 1), 0, RPattern)
@example((4, 4), 3, EPattern)
@example((3, 7), 2, EPattern)
def test_rotated_prefix_count_matches_enumeration(pair, rotation, base):
    """The closed-form ``_prefix_count`` must agree with brute-force
    enumeration of ``is_mandatory`` for every rotation."""
    m, k = pair
    pattern = RotatedPattern(base(MKConstraint(m, k)), rotation)
    for count in range(0, 3 * k + 1):
        expected = sum(
            int(pattern.is_mandatory(j)) for j in range(1, count + 1)
        )
        assert pattern.mandatory_count_in(1, count) == expected, (
            m,
            k,
            rotation,
            count,
        )


@given(
    count_pairs,
    rotations,
    bases,
    st.integers(min_value=1, max_value=80),
    st.integers(min_value=0, max_value=80),
)
@example((1, 1), 0, RPattern, 1, 5)
@example((4, 4), 3, EPattern, 7, 9)
@example((3, 7), 2, EPattern, 5, 20)
def test_rotated_window_count_matches_enumeration(pair, rotation, base, lo, width):
    m, k = pair
    pattern = RotatedPattern(base(MKConstraint(m, k)), rotation)
    hi = lo + width
    expected = sum(int(pattern.is_mandatory(j)) for j in range(lo, hi + 1))
    assert pattern.mandatory_count_in(lo, hi) == expected


@given(mk_pairs, rotations, bases)
def test_rotation_preserves_steady_state_mk(pair, rotation, base):
    """Every window of k consecutive jobs of the rotated infinite
    sequence still carries >= m mandatory slots (the property [13]'s
    enhanced analysis relies on)."""
    m, k = pair
    mk = MKConstraint(m, k)
    pattern = RotatedPattern(base(mk), rotation)
    bits = [int(pattern.is_mandatory(j)) for j in range(1, 6 * k + 1)]
    assert pattern_satisfies_mk(bits, mk)


@given(mk_pairs, rotations, bases)
def test_full_circle_rotation_is_identity(pair, rotation, base):
    m, k = pair
    pattern = base(MKConstraint(m, k))
    shifted = RotatedPattern(pattern, rotation)
    unshifted = RotatedPattern(pattern, rotation + k)
    assert all(
        shifted.is_mandatory(j) == unshifted.is_mandatory(j)
        for j in range(1, 3 * k + 1)
    )


@given(mk_pairs, rotations, bases)
def test_rotation_preserves_density(pair, rotation, base):
    """Rotation permutes the window; it never changes how many jobs per
    window are mandatory."""
    m, k = pair
    mk = MKConstraint(m, k)
    rotated = RotatedPattern(base(mk), rotation)
    assert rotated.mandatory_count_in(1, 4 * k) == base(
        mk
    ).mandatory_count_in(1, 4 * k)
