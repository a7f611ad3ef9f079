"""Property tests for the packed (numpy uint64) graph form.

The packed matrix is the substrate of the compiled kernel's vectorized
lane; its contract is exact round-tripping against the Python-int bitmask
representation the bitset lane (and the search state) uses.  Hypothesis drives the mask round-trip,
popcount-parity and lowest-set-bit-parity properties, including the
``n % 64 == 0`` word-boundary case; the remaining tests pin the derived
structure (``PackedAdjacency`` rows, columns, indicator, reductions) to the
compiled graph's int adjacency.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.graph import compile_feasible_graph, extract_feasible_graph  # noqa: E402
from repro.graph.compiled import iter_bits, lowest_bit_index  # noqa: E402
from repro.graph import packed  # noqa: E402
from repro.graph.packed import (  # noqa: E402
    NUMPY_MIN_CANDIDATES,
    PackedAdjacency,
    mask_to_row,
    numpy_kernel_available,
    pack_adjacency,
    pack_masks,
    row_popcount,
    row_to_mask,
    use_vectorized,
    words_for,
)

if not numpy_kernel_available():  # pragma: no cover - numpy >= 2.0 in CI
    pytest.skip("numpy lacks bitwise_count (needs numpy >= 2.0)", allow_module_level=True)


#: Bit widths around the uint64 word boundaries, plus small/odd sizes.
BOUNDARY_WIDTHS = (1, 63, 64, 65, 127, 128, 192)


@st.composite
def masks_with_width(draw):
    """A (mask, words) pair where the mask fits the word budget."""
    width = draw(st.sampled_from(BOUNDARY_WIDTHS) | st.integers(1, 200))
    mask = draw(st.integers(0, (1 << width) - 1))
    return mask, words_for(width)


class TestLaneSelection:
    def test_threshold_boundary(self):
        assert not use_vectorized(NUMPY_MIN_CANDIDATES - 1)
        assert use_vectorized(NUMPY_MIN_CANDIDATES)

    def test_bitset_lane_without_bitwise_count(self, monkeypatch):
        monkeypatch.setattr(packed, "_HAVE_BITWISE_COUNT", False)
        assert not use_vectorized(10 * NUMPY_MIN_CANDIDATES)

    def test_threshold_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(packed, "NUMPY_MIN_CANDIDATES", 0)
        assert use_vectorized(0)


class TestMaskRowRoundTrip:
    @given(masks_with_width())
    def test_round_trip(self, case):
        mask, words = case
        row = mask_to_row(mask, words)
        assert row.dtype == np.uint64
        assert row.shape == (words,)
        assert row_to_mask(row) == mask

    @given(masks_with_width())
    def test_popcount_parity(self, case):
        mask, words = case
        assert row_popcount(mask_to_row(mask, words)) == mask.bit_count()

    @given(masks_with_width())
    def test_lowest_set_bit_parity(self, case):
        mask, words = case
        row = mask_to_row(mask, words)
        if mask == 0:
            assert not row.any()
            return
        # Lowest set bit of the int mask == first set bit of the row's
        # little-endian bit layout.
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")
        assert int(np.argmax(bits)) == lowest_bit_index(mask)

    def test_word_boundary_exact(self):
        # n % 64 == 0: the top bit of the top word round-trips with no
        # phantom word appearing or disappearing.
        for width in (64, 128):
            mask = 1 << (width - 1) | 1
            row = mask_to_row(mask, words_for(width))
            assert row.shape == (width // 64,)
            assert row_to_mask(row) == mask

    @given(st.lists(st.integers(0, (1 << 130) - 1), max_size=6))
    def test_pack_masks_rows_round_trip(self, masks):
        words = words_for(130)
        matrix = pack_masks(masks, words)
        assert matrix.shape == (len(masks), words)
        for mask, row in zip(masks, matrix):
            assert row_to_mask(row) == mask


@pytest.fixture
def compiled_and_packed(toy_dataset):
    feasible = extract_feasible_graph(toy_dataset.graph, "v7", 2)
    compiled = compile_feasible_graph(feasible)
    return compiled, pack_adjacency(compiled)


class TestPackedAdjacency:
    def test_rows_match_int_adjacency(self, compiled_and_packed):
        compiled, packed = compiled_and_packed
        assert packed.n == len(compiled)
        for i, mask in enumerate(compiled.adj):
            assert row_to_mask(packed.rows[i]) == mask

    def test_rows_are_read_only(self, compiled_and_packed):
        _, packed = compiled_and_packed
        with pytest.raises(ValueError):
            packed.rows[0, 0] = np.uint64(1)

    def test_intersect_counts_equals_popcount_loop(self, compiled_and_packed):
        compiled, packed = compiled_and_packed
        mask = compiled.candidate_mask & 0b101101101101
        counts = packed.intersect_counts(packed.row(mask))
        for i, adj_mask in enumerate(compiled.adj):
            assert counts[i] == (mask & adj_mask).bit_count()

    def test_column_is_adjacency_indicator(self, compiled_and_packed):
        compiled, packed = compiled_and_packed
        for v in range(len(compiled)):
            column = packed.column(v)
            for u in range(len(compiled)):
                assert column[u] == (compiled.adj[u] >> v & 1)
            # Memoized columns are shared, so they must be immutable.
            if packed._columns:
                with pytest.raises(ValueError):
                    column[0] = 7

    def test_indicator_matches_iter_bits(self, compiled_and_packed):
        compiled, packed = compiled_and_packed
        mask = compiled.candidate_mask & 0b110110011
        indicator = packed.indicator(mask)
        assert indicator.shape == (packed.n,)
        assert set(np.nonzero(indicator)[0].tolist()) == set(iter_bits(mask))

    def test_memo_disabled_above_cap(self):
        adj = [0b10, 0b01]
        packed = PackedAdjacency(adj)
        assert packed._columns  # small universes memoize
        try:
            PackedAdjacency.COLUMN_MEMO_MAX_IDS = 1
            unmemoized = PackedAdjacency(adj)
            assert unmemoized._columns == []
            assert unmemoized.column(1)[0] == 1  # still computes correctly
        finally:
            PackedAdjacency.COLUMN_MEMO_MAX_IDS = 2048
