import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irsmimo.arrays import (ArraySpec, beam_gain, steering,
                            steering_coefficients)
from conftest import projection_beam, selection_matrix
from irsmimo.codebook import build_codebook, num_stages, two_rf_factorization


def leaf_matrix(codebook):
    return np.stack([codebook.beam(codebook.num_stages, i).coefficients
                     for i in range(codebook.num_leaves)], axis=1)


def leaf_gains(codebook, beam):
    return np.array([beam_gain(beam, codebook.spec, float(d))
                     for d in codebook.leaf_grid.directions])


def test_num_stages_paper_tree():
    assert num_stages(3, 22) == 3


def test_num_stages_exact_power_and_ceiling():
    assert num_stages(2, 64) == 6
    assert num_stages(2, 65) == 7


def test_num_stages_validation():
    with pytest.raises(ValueError):
        num_stages(1, 8)
    with pytest.raises(ValueError):
        num_stages(2, 0)


def test_selection_matrix_contiguous_block():
    D = selection_matrix(2, 3, 22)
    assert D.shape == (22, 9)
    assert list(np.nonzero(D[:, 0])[0]) == [0, 1, 2]


def test_selection_matrix_drops_padded_rows():
    # column 7 keeps only leaf 21; column 8 is entirely padding
    D = selection_matrix(2, 3, 22)
    assert list(np.nonzero(D[:, 7])[0]) == [21]
    assert not D[:, 8].any()


def test_selection_matrix_column_sums_count_live_descendants():
    D = selection_matrix(1, 3, 22)
    assert list(D.sum(axis=0)) == [9, 9, 4]


def test_selection_matrix_partitions_leaves():
    for stage in (1, 2, 3):
        D = selection_matrix(stage, 3, 22)
        assert np.all(D.sum(axis=1) == 1.0)


def test_wide_beam_equals_leaf_for_square_grid():
    # K = N_a: the leaves are orthonormal, so the projection returns them
    spec = ArraySpec(16)
    book = build_codebook(spec, 2, 16)
    L = leaf_matrix(book)
    for i in (0, 7, 15):
        target = np.zeros(16)
        target[i] = 1.0
        raw = projection_beam(L, target)
        raw /= np.linalg.norm(raw)
        leaf = book.beam(book.num_stages, i).coefficients
        phase = np.vdot(leaf, raw)
        assert np.allclose(raw * np.conj(phase) / abs(phase), leaf, atol=1e-12)


def test_wide_beam_is_least_squares_solution():
    # oracle: generic lstsq on leaves^H w = target
    spec = ArraySpec(32)
    book = build_codebook(spec, 2, 64)
    L = leaf_matrix(book)
    for stage, index in [(1, 0), (2, 3), (3, 5)]:
        target = selection_matrix(stage, 2, 64)[:, index]
        raw = projection_beam(L, target)
        oracle, *_ = np.linalg.lstsq(L.conj().T, target, rcond=None)
        assert np.allclose(raw, oracle, atol=1e-10)


@pytest.mark.parametrize("num_elements", [1, 2, 3, 8, 16, 33, 64, 96])
def test_leaf_gram_is_scaled_identity(num_elements):
    # leaves at sines (2k - 1)/K - 1: every off-diagonal Gram entry sums K
    # evenly spread unit phasors, so L L^H = (K/N) I for every K >= N
    for num_leaves in sorted({max(num_elements, 2), num_elements + 1,
                              2 * num_elements + 1, 3 * num_elements,
                              4 * num_elements}):
        book = build_codebook(ArraySpec(num_elements), 2, num_leaves)
        L = leaf_matrix(book)
        scale = num_leaves / num_elements
        gram = L @ L.conj().T
        assert np.abs(gram - scale * np.eye(num_elements)).max() <= 1e-13 * scale


@pytest.mark.parametrize("num_elements,branching,num_leaves",
                         [(16, 3, 22), (40, 4, 100), (64, 2, 192)])
def test_wide_beams_are_normalized_projection_solves(num_elements, branching,
                                                     num_leaves):
    # ragged trees included: each live wide beam is the general solve
    # (L L^H)^-1 L d, normalized, and every live column has unit norm
    book = build_codebook(ArraySpec(num_elements), branching, num_leaves)
    L = leaf_matrix(book)
    for stage in range(1, book.num_stages):
        D = selection_matrix(stage, branching, num_leaves)
        for index in np.flatnonzero(book.live[stage]):
            raw = projection_beam(L, D[:, index])
            raw /= np.linalg.norm(raw)
            beam = book.stages[stage][:, index]
            phase = np.vdot(beam, raw)
            assert np.abs(raw * np.conj(phase) / abs(phase) - beam).max() <= 1e-12
        assert list(book.live[stage]) == list(D.any(axis=0))
    # phase 2 gives every pilot one noise scale, which holds only while
    # each live column has unit norm and a dead one is zero
    for stage in range(1, book.num_stages + 1):
        norms = np.linalg.norm(book.stages[stage], axis=0)
        assert np.abs(norms - book.live[stage]).max() <= 1e-12


@pytest.mark.parametrize("num_elements,branching,num_leaves",
                         [(16, 3, 22), (40, 4, 100), (64, 2, 192),
                          (32, 3, 96), (8, 2, 11)])
def test_calibration_equalizes_siblings_at_shared_edges(num_elements,
                                                        branching, num_leaves):
    # the defining property: within each sibling group the first live slot
    # has multiplier 1, and adjacent live siblings' calibrated responses agree
    # at the cell edge between them
    book = build_codebook(ArraySpec(num_elements), branching, num_leaves)
    for stage in range(1, book.num_stages):
        span = branching ** (book.num_stages - stage)
        scale = np.sqrt(book.weights[stage])
        assert np.all(scale[::branching][book.live[stage][::branching]] == 1.0)
        for right in np.flatnonzero(book.live[stage]):
            if right % branching == 0:
                continue
            edge = np.arcsin(-1.0 + right * span * 2.0 / num_leaves)
            left_gain = scale[right - 1] * beam_gain(
                book.beam(stage, right - 1), book.spec, edge)
            right_gain = scale[right] * beam_gain(
                book.beam(stage, right), book.spec, edge)
            assert right_gain == pytest.approx(left_gain, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(num_elements=st.integers(1, 128), branching=st.integers(2, 4),
       ratio=st.floats(0.0, 1.0))
@example(num_elements=16, branching=4, ratio=0.0)      # K = N, full tree
@example(num_elements=22, branching=3, ratio=0.0)      # K = N, partial slots
@example(num_elements=128, branching=2, ratio=1.0)     # K = 4N
@example(num_elements=43, branching=3, ratio=0.5)      # K = 107, ragged
def test_closed_form_codebook_matches_its_definition(num_elements, branching,
                                                     ratio):
    # leaves are the grid's steering vectors, each live wide beam is its
    # normalized projection solve, `live` is what `selection_matrix` keeps,
    # and calibrated siblings agree at their shared cell edge (`beam_gain`)
    num_leaves = max(2, num_elements + int(round(ratio * 3 * num_elements)))
    spec = ArraySpec(num_elements)
    book = build_codebook(spec, branching, num_leaves)
    leaves = steering_coefficients(num_elements, 0.5,
                                   book.leaf_grid.directions[:, None]).T
    bottom = book.stages[book.num_stages]
    assert np.abs(bottom[:, :num_leaves] - leaves).max() <= 1e-12
    for stage in range(1, book.num_stages + 1):
        D = selection_matrix(stage, branching, num_leaves)
        assert np.array_equal(book.live[stage], D.any(axis=0))
        assert not book.stages[stage][:, ~book.live[stage]].any()
        if stage == book.num_stages:
            continue
        raw = projection_beam(leaves, D[:, book.live[stage]])
        raw /= np.linalg.norm(raw, axis=0)
        beams = book.stages[stage][:, book.live[stage]]
        phase = np.sum(beams.conj() * raw, axis=0)
        assert np.abs(raw * (phase.conj() / np.abs(phase)) - beams).max() \
            <= 1e-12
        span = branching ** (book.num_stages - stage)
        scale = np.sqrt(book.weights[stage])
        for right in np.flatnonzero(book.live[stage]):
            if right % branching == 0:
                assert scale[right] == 1.0
                continue
            edge = np.arcsin(-1.0 + right * span * 2.0 / num_leaves)
            left_gain = scale[right - 1] * beam_gain(
                book.beam(stage, right - 1), spec, edge)
            right_gain = scale[right] * beam_gain(
                book.beam(stage, right), spec, edge)
            assert right_gain == pytest.approx(left_gain, rel=1e-12)


def test_wide_beam_null_for_dead_slot():
    # slot 8 of stage 2 covers leaves 24..26, all padding beyond K = 22
    book = build_codebook(ArraySpec(16), 3, 22)
    assert not book.stages[2][:, 8].any() and not book.live[2][8]
    assert book.beam(2, 8) is None and book.beam(2, 7) is not None


def test_wide_beam_descendants_beat_non_descendants_stage_one():
    book = build_codebook(ArraySpec(32), 2, 64)
    gains = leaf_gains(book, book.beam(1, 0))
    assert gains[:32].min() > gains[32:].max()


@pytest.mark.parametrize("branching,num_leaves,floor", [(2, 64, 0.95), (3, 96, 0.85)])
def test_discrimination_margin(branching, num_leaves, floor):
    # measured constants: worst min-descendant / max-non-descendant amplitude
    # ratio is 0.978 at (2, 32, 64) and 0.884 at (3, 32, 96); adjacent-leaf
    # leakage keeps band-limited beams below the idealized 0/1 targets
    book = build_codebook(ArraySpec(32), branching, num_leaves)
    worst = np.inf
    for stage in range(1, book.num_stages):
        span = branching ** (book.num_stages - stage)
        for index in range(branching ** stage):
            beam = book.beam(stage, index)
            if beam is None:
                continue
            gains = leaf_gains(book, beam)
            descendants = np.arange(index * span,
                                    min((index + 1) * span, num_leaves))
            mask = np.zeros(num_leaves, dtype=bool)
            mask[descendants] = True
            worst = min(worst, gains[mask].min() / gains[~mask].max())
    assert worst >= floor


def test_bottom_stage_layout_and_common_edges():
    book = build_codebook(ArraySpec(16), 3, 22)
    bottom = book.stages[book.num_stages]
    assert bottom.shape == (16, 27)
    assert list(np.flatnonzero(book.live[book.num_stages])) == list(range(22))
    assert not bottom[:, 22:].any()
    assert all(book.beam(book.num_stages, i) is None for i in range(22, 27))
    # every live leaf is the grid steering vector: common coverage-edge energy
    rho = book.leaf_grid.edge_energy
    for i in (0, 10, 21):
        edge = float(np.arcsin(np.clip(book.leaf_grid.sines[i] + 1 / 22, -1, 1)))
        leaf = book.beam(book.num_stages, i)
        assert beam_gain(leaf, book.spec, edge) == pytest.approx(rho, abs=1e-9)


@pytest.mark.parametrize("num_elements,branching,num_leaves",
                         [(16, 3, 22), (32, 2, 64), (64, 2, 192)])
def test_flat_table_holds_every_stage(num_elements, branching, num_leaves):
    # one (N, M + ... + M**S) table per codebook, built with it: each stage
    # is a read-only view of its columns, and no second (uplink) copy is kept
    book = build_codebook(ArraySpec(num_elements), branching, num_leaves)
    width = sum(branching ** s for s in range(1, book.num_stages + 1))
    assert book.table.shape == (num_elements, width)
    arrays = [v for v in vars(book).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is book.table
    start = 0
    for stage in range(1, book.num_stages + 1):
        columns = book.table[:, start:start + branching ** stage]
        assert book.stages[stage].base is book.table
        assert np.array_equal(book.stages[stage], columns)
        assert np.shares_memory(book.stages[stage], columns)
        start += branching ** stage
    for values in (book.table, *book.stages.values()):
        assert not values.flags.writeable


def test_calibration_live_slots_positive():
    book = build_codebook(ArraySpec(32), 3, 96)
    for stage in range(1, book.num_stages + 1):
        span = 3 ** (book.num_stages - stage)
        for index in range(3 ** stage):
            # a slot is live exactly when its first leaf is
            assert book.live[stage][index] == (index * span < 96)
            scale = book.weights[stage][index]
            if book.beam(stage, index) is None:
                assert scale == 0.0
            else:
                assert scale > 0.0


def test_build_rejects_other_spacings():
    with pytest.raises(ValueError):
        build_codebook(ArraySpec(16, spacing_wavelengths=0.25), 2, 16)


def test_two_rf_factorization_random_unit_vectors():
    rng = np.random.default_rng(23)
    for _ in range(100):
        w = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        w /= np.linalg.norm(w)
        from irsmimo.arrays import BeamVector
        analog, digital = two_rf_factorization(BeamVector(w))
        assert np.max(np.abs(np.abs(analog) - 1.0)) < 1e-12
        assert np.max(np.abs(analog @ digital - w)) <= 1e-10


def test_two_rf_factorization_steering_vector():
    # constant-modulus input: the two analog columns agree up to the split
    spec = ArraySpec(16)
    w = steering(spec, 0.4)
    analog, digital = two_rf_factorization(w)
    assert np.max(np.abs(analog @ digital - w.coefficients)) <= 1e-12


def test_two_rf_factorization_zero_entry_antipodal():
    from irsmimo.arrays import BeamVector
    w = np.array([0.0, 0.6, 0.8], dtype=complex)
    analog, digital = two_rf_factorization(BeamVector(w))
    # zero rows split into antipodal phases
    assert abs(analog[0, 0] + analog[0, 1]) < 1e-12
    assert np.max(np.abs(analog @ digital - w)) <= 1e-12


def test_two_rf_factorization_rejects_zero_beam():
    from irsmimo.arrays import BeamVector
    with pytest.raises(ValueError):
        two_rf_factorization(BeamVector(np.zeros(4, dtype=complex)))
