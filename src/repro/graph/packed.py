"""Packed (numpy ``uint64``) form of a compiled feasible graph.

The compiled kernel (:mod:`repro.graph.compiled`) stores adjacency as one
arbitrary-precision Python int per id, which makes single AND/popcount
expressions cheap but forces a *Python-level loop* whenever a measure has to
be evaluated for many candidates at once (Lemma 3's inner degrees, the
per-candidate interior-unfamiliarity / exterior-expansibility scan, Lemma
5's per-slot busy counts).  This module packs the same adjacency into a
``(n, ceil(n / 64))`` ``uint64`` matrix so those loops become whole-pool
``np.bitwise_and`` + ``np.bitwise_count`` reductions — the array path of the
compiled kernel's expansion in SGSelect/STGSelect.

The int-bitmask representation stays the search state's source of truth
(``VS`` / ``VA`` / deferred masks are still Python ints, shared with the
scalar measures); :func:`mask_to_row` / :func:`row_to_mask` convert between a
mask and its packed row in O(words) C-level work, so the two views never
drift.

:func:`use_vectorized` is the one place packing is decided: extraction
(pack or not), the service cache entry and both solvers all ask it.  numpy
is an *optional* dependency (the ``[speed]`` extra): this module imports
without it, and without numpy >= 2.0 (``np.bitwise_count``) nothing is
packed and the compiled kernel measures every node scalar-wise.

Like :class:`~repro.graph.compiled.CompiledFeasibleGraph`, a
:class:`PackedAdjacency` is immutable after construction, so one instance is
shared by every concurrent search over the same ego network (the service
cache keeps it next to the compiled form).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

try:  # pragma: no cover - exercised via numpy_kernel_available()
    import numpy as np

    _HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
except ImportError:  # pragma: no cover - numpy genuinely absent
    np = None
    _HAVE_BITWISE_COUNT = False

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .compiled import CompiledFeasibleGraph

__all__ = [
    "PackedAdjacency",
    "mask_to_row",
    "numpy_kernel_available",
    "pack_adjacency",
    "pack_masks",
    "row_popcount",
    "row_to_mask",
    "use_vectorized",
]

#: Bits per packed word.
WORD_BITS = 64

#: Below this many candidates the compiled kernel packs no matrix, so every
#: node of the search takes the scalar cascade: array setup costs more than
#: it saves on sub-millisecond egos (the cache-hot radius-1 regime).  Either
#: way the search visits the identical tree with identical stats — pinned by
#: the kernel-equivalence suite, which runs every instance with this
#: threshold forced high and forced to 0.
NUMPY_MIN_CANDIDATES = 48

#: Cascade batching: on a packed pool, a node whose remaining pool has at
#: most this many candidates is measured with the exact scalar bitset
#: arithmetic instead of materialising whole-pool arrays.  Forced chains —
#: the deep tails of a search where pruning leaves a handful of survivors
#: per node — then never pay per-node numpy dispatch, while wide nodes take
#: the array path from their first candidate.  Both paths yield the same
#: integer measures, so the search tree and the stats don't depend on the
#: threshold (the equivalence suite also runs it at -1: arrays everywhere).
#: The solvers read it at node entry, so it can be overridden here.
LAZY_MEASURE_THRESHOLD = 4


def numpy_kernel_available() -> bool:
    """``True`` when the packed form (and so the array path) is available.

    Requires numpy >= 2.0 (``np.bitwise_count``); older numpys are treated
    as absent rather than half-supported.
    """
    return _HAVE_BITWISE_COUNT


def use_vectorized(candidate_count: int) -> bool:
    """Whether the compiled kernel packs a pool of ``candidate_count``
    candidates, so its wide nodes can be measured with whole-pool arrays."""
    return _HAVE_BITWISE_COUNT and candidate_count >= NUMPY_MIN_CANDIDATES


def _require_numpy() -> None:
    if not _HAVE_BITWISE_COUNT:
        raise RuntimeError(
            "the packed (numpy) graph form needs numpy >= 2.0; install the "
            "'speed' extra (pip install repro[speed])"
        )


def words_for(n: int) -> int:
    """Number of ``uint64`` words needed for ``n`` bit positions (min 1)."""
    return max(1, -(-n // WORD_BITS))


def mask_to_row(mask: int, words: int) -> "np.ndarray":
    """Pack a Python-int bitmask into a ``(words,)`` ``uint64`` row.

    Bit ``i`` of ``mask`` lands in word ``i // 64``, bit ``i % 64`` —
    little-endian word order, so :func:`row_to_mask` is the exact inverse.
    ``mask`` must fit in ``words * 64`` bits.
    """
    return np.frombuffer(mask.to_bytes(words * 8, "little"), dtype="<u8").astype(
        np.uint64, copy=False
    )


def row_to_mask(row: "np.ndarray") -> int:
    """Inverse of :func:`mask_to_row`."""
    return int.from_bytes(np.ascontiguousarray(row, dtype="<u8").tobytes(), "little")


def row_popcount(row: "np.ndarray") -> int:
    """Total number of set bits in a packed row (parity with ``int.bit_count``)."""
    return int(np.bitwise_count(row).sum())


def pack_masks(masks: Sequence[int], words: int) -> "np.ndarray":
    """Pack a sequence of int bitmasks into a ``(len(masks), words)`` matrix."""
    _require_numpy()
    if not masks:
        return np.zeros((0, words), dtype=np.uint64)
    buffer = b"".join(mask.to_bytes(words * 8, "little") for mask in masks)
    return (
        np.frombuffer(buffer, dtype="<u8").astype(np.uint64, copy=False).reshape(len(masks), words)
    )


class PackedAdjacency:
    """``(n, words)`` ``uint64`` adjacency matrix of a compiled feasible graph.

    Attributes
    ----------
    n:
        Number of ids in the universe (``len(compiled)``).
    words:
        ``ceil(n / 64)`` — row width in ``uint64`` words.
    rows:
        The packed matrix; ``rows[i]`` is id ``i``'s adjacency bitmask in
        the same bit layout as ``CompiledFeasibleGraph.adj[i]``.
    """

    __slots__ = ("n", "words", "rows", "_columns")

    #: Above this universe size the per-id column memo is skipped (a full
    #: memo is an n² int64 matrix; at 2048 ids that is 32 MiB — too much for
    #: a structure the service caches by the hundred).
    COLUMN_MEMO_MAX_IDS = 2048

    def __init__(self, adj: Sequence[int]) -> None:
        _require_numpy()
        self.n = len(adj)
        self.words = words_for(self.n)
        rows = pack_masks(adj, self.words)
        rows.setflags(write=False)
        self.rows = rows
        self._columns: List[Optional["np.ndarray"]] = (
            [None] * self.n if self.n <= self.COLUMN_MEMO_MAX_IDS else []
        )

    @classmethod
    def from_rows(cls, rows: "np.ndarray") -> "PackedAdjacency":
        """Adopt a pre-packed ``(n, words)`` ``uint64`` matrix.

        Used by the CSR extraction fast lane, which scatters the feasible
        rows' edges straight into the packed layout; the matrix must use
        the :func:`mask_to_row` bit order.  The array is frozen in place.
        """
        _require_numpy()
        self = cls.__new__(cls)
        self.n = int(rows.shape[0])
        self.words = int(rows.shape[1]) if rows.ndim == 2 else words_for(self.n)
        rows.setflags(write=False)
        self.rows = rows
        self._columns = [None] * self.n if self.n <= self.COLUMN_MEMO_MAX_IDS else []
        return self

    def row(self, mask: int) -> "np.ndarray":
        """Packed row of an arbitrary id bitmask (``VS``, ``VA``, ...)."""
        return mask_to_row(mask, self.words)

    def intersect_counts(self, row: "np.ndarray") -> "np.ndarray":
        """``|mask ∩ N_i|`` for *every* id ``i``, in one vectorized pass.

        This is the workhorse reduction: with ``row`` = the members row it
        yields every candidate's acquaintance count inside ``VS``; with
        ``row`` = the remaining row it yields Lemma 3's inner degrees and
        the expansibility neighbour counts — each a whole-pool replacement
        for one per-candidate Python loop of the scalar measures.
        """
        return np.bitwise_count(self.rows & row).sum(axis=1, dtype=np.int64)

    def column(self, v: int) -> "np.ndarray":
        """0/1 adjacency-to-``v`` indicator for every id, as ``int64``.

        ``column(v)[u] == 1`` iff ``u`` and ``v`` are adjacent (symmetric,
        so this reads row ``v`` transposed via the bit layout instead of
        scanning a column).  Columns are the kernels' incremental-update
        currency (every candidate removal subtracts one from the pool
        counts), so they are memoized per id on all but huge universes; the
        memoized arrays are read-only and safely shared across concurrent
        searches (worst case under a race is a duplicate computation).
        """
        memo = self._columns
        if memo:
            cached = memo[v]
            if cached is not None:
                return cached
        word = v // WORD_BITS
        shift = np.uint64(v % WORD_BITS)
        column = ((self.rows[:, word] >> shift) & np.uint64(1)).astype(np.int64)
        if memo:
            column.setflags(write=False)
            memo[v] = column
        return column

    def select(self, counts: "np.ndarray", mask: int) -> "np.ndarray":
        """Entries of a per-id vector at the ids set in ``mask``."""
        return counts[self.indicator(mask)]

    def indicator(self, mask: int) -> "np.ndarray":
        """Boolean per-id membership array for an id bitmask."""
        bits = np.frombuffer(mask.to_bytes(self.words * 8, "little"), dtype=np.uint8)
        return np.unpackbits(bits, count=self.n, bitorder="little").astype(bool)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedAdjacency(n={self.n}, words={self.words})"


def pack_adjacency(compiled: "CompiledFeasibleGraph") -> PackedAdjacency:
    """Pack a compiled feasible graph's adjacency for the array path.

    The packed form is derived data: it carries no vertex identity of its
    own and is only valid together with the ``compiled`` graph it was built
    from (same id layout).  Callers that cache one must cache them as a
    pair — :class:`~repro.service.QueryService` keeps both in one cache
    entry so every batch over an ego network shares one packing.
    """
    return PackedAdjacency(compiled.adj)


def busy_slot_masks(
    schedules: List[object], feasible_mask: int, window
) -> List[int]:
    """Per-slot busy masks over a pivot window, as int bitmasks in slot order.

    ``busy[j]`` has bit ``i`` set when candidate id ``i`` (restricted to
    ``feasible_mask``) is unavailable in slot ``window.window.start + j`` —
    the compiled kernel's Lemma 5 input.
    """
    from .compiled import iter_bits

    masks: List[int] = []
    for slot in window.window:
        mask = 0
        for i in iter_bits(feasible_mask):
            if not schedules[i].is_available(slot):
                mask |= 1 << i
        masks.append(mask)
    return masks
