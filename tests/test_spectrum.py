import numpy as np
import pytest
from hypothesis import given, strategies as st

from squarepulse import (
    SpectrumClass,
    SystemKind,
    classify_spectrum,
    coupled_gap,
    recenter,
    validate_spectrum,
)
from squarepulse.errors import (
    GapStructureViolation,
    IndexOutOfRange,
    NonMonotonicSpectrum,
)


def test_valid_gap_to_ground():
    spec = validate_spectrum([0, 2, 3, 4], SystemKind.GAP_TO_GROUND, 1e-9)
    assert spec.nearest_gaps == (2, 1, 1)
    assert spec.energies == (0, 2, 3, 4)


def test_valid_nearest_neighbor():
    spec = validate_spectrum([0, 1, 3, 6], SystemKind.NEAREST_NEIGHBOR, 1e-9)
    assert spec.nearest_gaps == (1, 2, 3)


def test_equal_gaps_rejected_for_gap_to_ground():
    with pytest.raises(GapStructureViolation):
        validate_spectrum([0, 1, 2, 3], SystemKind.GAP_TO_GROUND, 1e-9)


def test_repeated_gaps_rejected_for_nearest_neighbor():
    with pytest.raises(GapStructureViolation):
        validate_spectrum([0, 2, 3, 4], SystemKind.NEAREST_NEIGHBOR, 1e-9)


def test_non_monotonic_rejected():
    with pytest.raises(NonMonotonicSpectrum):
        validate_spectrum([0, 1, 1], SystemKind.NEAREST_NEIGHBOR, 1e-9)
    with pytest.raises(NonMonotonicSpectrum):
        validate_spectrum([0, 2, 1], SystemKind.GAP_TO_GROUND, 1e-9)
    with pytest.raises(NonMonotonicSpectrum):
        validate_spectrum([0.5], SystemKind.GAP_TO_GROUND, 1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n, at", [(2, 0), (2, 1), (3, 1), (3, 2)])
def test_non_finite_energies_rejected(bad, n, at):
    # at N = 2 the gap-pattern checks are vacuous, so only this check stops them
    energies = [0.0, 2.0, 3.0][:n]
    energies[at] = bad
    for kind in SystemKind:
        with pytest.raises(NonMonotonicSpectrum, match="finite"):
            validate_spectrum(energies, kind, 1e-9)
    with pytest.raises(NonMonotonicSpectrum, match="finite"):
        classify_spectrum(energies)


def test_three_level_edge_cases():
    # N = 3 only needs the first gap distinct from the second
    validate_spectrum([0, 2, 3], SystemKind.GAP_TO_GROUND, 1e-9)
    with pytest.raises(GapStructureViolation):
        validate_spectrum([0, 1, 2], SystemKind.GAP_TO_GROUND, 1e-9)


def test_two_level_validates_as_both():
    for kind in SystemKind:
        validate_spectrum([-0.5, 0.5], kind, 1e-9)
    assert classify_spectrum([-0.5, 0.5]) is SpectrumClass.BOTH


def test_classify():
    assert classify_spectrum([0, 2, 3, 4]) is SpectrumClass.GAP_TO_GROUND
    assert classify_spectrum([0, 1, 3, 6]) is SpectrumClass.NEAREST_NEIGHBOR
    assert classify_spectrum([0, 1, 2, 3]) is SpectrumClass.NEITHER


def test_classify_matches_validate():
    for energies in ([0, 2, 3, 4], [0, 1, 3, 6], [0, 1, 2, 3], [-0.5, 0.5]):
        label = classify_spectrum(energies)
        for kind in SystemKind:
            ok = label.value == kind.value or label is SpectrumClass.BOTH
            if ok:
                validate_spectrum(energies, kind)
            else:
                with pytest.raises(GapStructureViolation):
                    validate_spectrum(energies, kind)


def test_coupled_gap_values():
    spec_i = validate_spectrum([0, 2, 3, 4], SystemKind.GAP_TO_GROUND)
    assert coupled_gap(spec_i, 2) == 3
    spec_ii = validate_spectrum([0, 1, 3, 6], SystemKind.NEAREST_NEIGHBOR)
    assert coupled_gap(spec_ii, 3) == 3
    two = validate_spectrum([-0.5, 0.5], SystemKind.GAP_TO_GROUND)
    assert coupled_gap(two, 1) == 1


def test_coupled_gap_monotone_and_positive():
    spec_i = validate_spectrum([0, 2, 3, 4, 5], SystemKind.GAP_TO_GROUND)
    gaps_i = [coupled_gap(spec_i, m) for m in range(1, 5)]
    assert all(g > 0 for g in gaps_i)
    assert gaps_i == sorted(gaps_i)
    spec_ii = validate_spectrum([0, 1, 3, 6, 10], SystemKind.NEAREST_NEIGHBOR)
    gaps_ii = [coupled_gap(spec_ii, m) for m in range(1, 5)]
    assert len(set(gaps_ii)) == len(gaps_ii)


def test_coupled_gap_index_bounds():
    spec = validate_spectrum([0, 2, 3], SystemKind.GAP_TO_GROUND)
    with pytest.raises(IndexOutOfRange):
        coupled_gap(spec, 0)
    with pytest.raises(IndexOutOfRange):
        coupled_gap(spec, 3)


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
)
def test_recenter_zero_mean(energies):
    shifted = recenter(energies)
    assert abs(sum(shifted)) < 1e-9 * max(1.0, max(abs(e) for e in energies))
