"""The compiled kernel's branch-and-bound expansion, shared by SGSelect and
STGSelect.

The paper (§4.2) builds STGSelect from SGSelect by adding three temporal
pieces: pivot windows, the temporal-extensibility rung of the access
ordering with its ``φ`` relaxation, and Lemma 5 availability pruning.
:class:`CompiledSearch` follows that shape.  STGSelect runs it once per
pivot window with the window's schedules and busy masks; SGSelect runs it
with no temporal state, and the SGQ case follows from that data alone:

* ``schedules is None`` skips the temporal rung, so an accepted candidate
  is selected at once;
* ``φ`` starts at ``phi_threshold``, so the temporal right-hand side is 0
  and the ``φ`` relaxation never runs;
* ``busy_max = 0``, so the Lemma 5 gate never passes.

The search state is the dense-id bitmask form of the feasible graph
(:mod:`repro.graph.compiled`): ``VS`` / ``VA`` / deferred are int masks,
the measures are AND/popcount expressions, and the per-member stranger
counters behind ``U`` / ``A`` are maintained incrementally across
include/backtrack.  Each node measures its candidates either with the
scalar cascade or with whole-pool reductions over the packed matrix of
:mod:`repro.graph.packed`; the matrix exists only for pools
:func:`~repro.graph.packed.use_vectorized` accepts, so smaller pools take
the scalar cascade at every node.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..graph import packed as packing
from ..graph.compiled import CompiledFeasibleGraph
from ..graph.packed import PackedAdjacency
from ..temporal.pivot import PivotWindow
from ..temporal.schedule import Schedule
from ..temporal.slots import SlotRange
from .ordering import (
    candidate_measures_bitset,
    expansibility_member_terms,
    temporal_extensibility,
    unfamiliarity_measures_packed,
)
from .pruning import (
    acquaintance_pruning_bitset,
    acquaintance_pruning_packed,
    availability_pruning_bitset,
    distance_pruning_bitset,
)
from .query import SearchParameters
from .result import SearchStats

__all__ = ["CompiledSearch"]

#: Incumbent-recording callback: (members, total, shared_run).  The shared
#: run is ``None`` for an SGQ.
RecordFn = Callable[[object, float, Optional[SlotRange]], None]


class CompiledSearch:
    """One compiled branch-and-bound search over one candidate pool.

    Holds the state that is fixed for the whole search (parameters, the
    compiled and packed forms, ``p``/``k``/``m``, the incumbent callback,
    the stats, the shared member/stranger lists and, for STGQ, the pivot
    window's schedules and busy masks), so each recursive :meth:`expand`
    passes only the per-node values.

    Parameters
    ----------
    parameters:
        The solver's search tunables.
    compiled / packed:
        The pool's compiled form, and its packed matrix or ``None`` (every
        node then takes the scalar cascade).
    group_size / acquaintance:
        The query's ``p`` and ``k``.
    record / best / stats:
        The solver's incumbent callback, its incumbent (``best["distance"]``
        feeds Lemma 2) and the statistics the search accumulates into.
    window / schedules / busy_masks / busy_max:
        STGQ only: the pivot window, the per-id schedules of the
        pivot-feasible pool, Lemma 5's per-slot busy masks (``None`` when
        availability pruning is ablated) and their largest popcount.
    """

    def __init__(
        self,
        parameters: SearchParameters,
        compiled: CompiledFeasibleGraph,
        packed: Optional[PackedAdjacency],
        group_size: int,
        acquaintance: int,
        record: RecordFn,
        best: Dict[str, object],
        stats: SearchStats,
        window: Optional[PivotWindow] = None,
        schedules: Optional[List[Optional[Schedule]]] = None,
        busy_masks=None,
        busy_max: int = 0,
    ) -> None:
        self.parameters = parameters
        self.compiled = compiled
        self.packed = packed
        self.p = group_size
        self.k = acquaintance
        self.m = window.activity_length if window is not None else 0
        self.record = record
        self.best = best
        self.stats = stats
        self.window = window
        self.schedules = schedules
        self.busy_masks = busy_masks
        self.busy_max = busy_max
        #: Ids of ``VS`` in insertion order (the initiator is id 0), and
        #: ``strangers[v] = |VS - {v} - N_v|`` for each of them; both are
        #: updated in place around the include branch.
        self.member_ids = [0]
        self.strangers = [0] * len(compiled)
        # An SGQ has no temporal rung to relax: φ starts exhausted.
        self.phi_start = (
            parameters.phi
            if schedules is not None and parameters.use_access_ordering
            else parameters.phi_threshold
        )

    def run(self, remaining_mask: int, shared: Optional[SlotRange] = None) -> None:
        """Search from the root ``VS = {q}`` over the pool ``remaining_mask``
        (``shared``: the initiator's free run around the pivot, STGQ only)."""
        self.expand(1, remaining_mask, 0.0, shared)

    def expand(
        self,
        members_mask: int,
        remaining_mask: int,
        current_distance: float,
        shared: Optional[SlotRange],
        base_counts=None,
        pending_mask: int = 0,
    ) -> None:
        """Explore one node of the set-enumeration tree.

        Each considered candidate's ``(U, A)`` comes from one of two
        sources, and then one decision ladder (expansibility →
        unfamiliarity → [temporal] → removal) uses it:

        * **cascade batching** (scalar) — while a node's remaining pool holds
          at most ``LAZY_MEASURE_THRESHOLD`` candidates, or always when
          ``packed`` is ``None``, :func:`candidate_measures_bitset` scores
          the candidate with exact AND/popcount arithmetic, so the
          forced-chain tail of a search never pays numpy dispatch;
        * **whole-pool arrays** — otherwise the node materialises, once:

          - ``unfam`` / ``cand_strangers``: per-id ``U(VS ∪ {u})`` and
            ``|VS - N_u|`` (they depend only on ``VS``, fixed for the
            node's lifetime), as Python lists so each candidate costs two
            list lookups;
          - ``base_counts`` + ``pending_mask``: per-id ``|VA ∩ N_i|`` in
            copy-on-write form.  ``base_counts`` holds the counts for a
            base pool and is *shared* down the tree, while
            ``pending_mask`` accumulates the ids removed since the base was
            taken; a candidate's current count is
            ``base[u] - popcount(pending & N_u)``, and only Lemma 3 rebases
            the array (into a fresh one — ancestors never see the flush);
          - ``member_terms`` / ``member_min``: the member side of
            ``A(VS ∪ {u})`` as one small int list (see
            :func:`expansibility_member_terms`), updated with plain int
            adjacency bits on each removal.

        Both sources yield the same integers (the adjacency bit in the
        member terms cancels either way), and the conditions' right-hand
        sides are precomputed with the ``*_condition`` helpers' expressions,
        so the tree and the stats don't depend on the source.  High-frequency
        counters accumulate in locals and are folded into ``stats`` when the
        node finishes.

        The temporal machinery (STGQ):

        * Lemma 5's per-slot scan is an early-breaking AND/popcount over
          the busy masks, gated by ``busy_max`` (no slot can reach the
          threshold ⇒ the prune cannot fire ⇒ skip the scan — the window
          boundaries alone never prune, as ``t⁺ - t⁻`` is then the full
          window plus both virtual busy slots, which always exceeds
          ``m``);
        * joint runs are pure functions of the node-fixed ``shared`` run,
          so reconsidering a deferred candidate after a θ/φ relaxation
          replays them from a per-node memo instead of re-walking the
          schedule.
        """
        params = self.parameters
        p = self.p
        k = self.k
        m = self.m
        compiled = self.compiled
        packed = self.packed
        window = self.window
        schedules = self.schedules
        busy_max = self.busy_max
        member_ids = self.member_ids
        strangers = self.strangers
        stats = self.stats
        adj = compiled.adj
        dist = compiled.dist
        stats.nodes_expanded += 1
        # Without a packed matrix every node takes the scalar cascade.
        lazy_threshold = packing.LAZY_MEASURE_THRESHOLD if packed is not None else len(compiled)

        theta = params.theta if params.use_access_ordering else 0
        phi = self.phi_start
        deferred_mask = 0
        members_count = len(member_ids)

        cand_strangers = None  # per-id |VS - N_u| list (whole-node validity)
        unfam = None  # per-id U(VS ∪ {u}) list (whole-node validity)
        member_terms = None  # member side of A(VS ∪ {u}); tracks removals
        member_min = 0
        considered = 0
        expans_removed = 0
        unfam_removed = 0
        temporal_removed = 0

        new_size = members_count + 1
        expans_need = p - new_size
        unfam_rhs = k * (new_size / p) ** theta
        temporal_rhs = (
            0.0 if phi >= params.phi_threshold else (m - 1) * ((p - new_size) / p) ** phi
        )
        joint_memo: Dict[int, tuple] = {}

        try:
            while True:
                if members_count == p:
                    self.record(compiled.members_of(members_mask), current_distance, shared)
                    return
                remaining_count = remaining_mask.bit_count()
                if members_count + remaining_count < p:
                    return

                # --- node-level pruning -----------------------------------
                if params.use_distance_pruning and distance_pruning_bitset(
                    incumbent_distance=self.best["distance"],  # type: ignore[arg-type]
                    current_distance=current_distance,
                    members_count=members_count,
                    group_size=p,
                    remaining_mask=remaining_mask,
                    dist=dist,
                ):
                    stats.distance_prunes += 1
                    return
                needed = p - members_count
                if params.use_acquaintance_pruning:
                    # Same early-outs as the helpers, checked first so the
                    # (frequent) can't-fire case costs no work.
                    if needed * (needed - 1 - k) > 0 and remaining_count >= needed:
                        if packed is None:
                            pruned = acquaintance_pruning_bitset(
                                adj=adj,
                                remaining_mask=remaining_mask,
                                members_count=members_count,
                                group_size=p,
                                acquaintance=k,
                            )
                        else:
                            if base_counts is None:
                                base_counts = packed.intersect_counts(packed.row(remaining_mask))
                                pending_mask = 0
                            elif pending_mask:
                                # Rebase into a fresh array: the stale base
                                # may be shared with ancestor nodes.
                                base_counts = base_counts - packed.intersect_counts(
                                    packed.row(pending_mask)
                                )
                                pending_mask = 0
                            pruned = acquaintance_pruning_packed(
                                remaining_counts=base_counts,
                                remaining_indicator=packed.indicator(remaining_mask),
                                remaining_count=remaining_count,
                                members_count=members_count,
                                group_size=p,
                                acquaintance=k,
                            )
                        if pruned:
                            stats.acquaintance_prunes += 1
                            return
                if (
                    params.use_availability_pruning
                    and remaining_count >= needed
                    and busy_max >= remaining_count - needed + 1
                    and availability_pruning_bitset(
                        busy_masks=self.busy_masks,
                        remaining_mask=remaining_mask,
                        members_count=members_count,
                        group_size=p,
                        window=window,
                    )
                ):
                    stats.availability_prunes += 1
                    return

                # --- candidate selection (access ordering) ----------------
                selected = -1
                selected_shared: Optional[SlotRange] = None
                while selected < 0:
                    open_mask = remaining_mask & ~deferred_mask
                    if not open_mask:
                        if theta > 0:
                            theta -= 1
                            unfam_rhs = k * (new_size / p) ** theta
                            deferred_mask = 0
                            continue
                        if phi < params.phi_threshold:
                            phi += 1
                            temporal_rhs = (
                                0.0
                                if phi >= params.phi_threshold
                                else (m - 1) * ((p - new_size) / p) ** phi
                            )
                            deferred_mask = 0
                            continue
                        # θ and φ exhausted and every remaining candidate
                        # deferred or removed: nothing left to branch on.
                        return
                    # Ids follow the access order, so the lowest set bit is the
                    # unvisited candidate with the smallest social distance.
                    cand_bit = open_mask & -open_mask
                    candidate = cand_bit.bit_length() - 1
                    considered += 1

                    if unfam is None and remaining_mask.bit_count() <= lazy_threshold:
                        u_val, e_val = candidate_measures_bitset(
                            adj,
                            member_ids,
                            strangers,
                            members_mask,
                            remaining_mask & ~cand_bit,
                            candidate,
                            k,
                        )
                    else:
                        if unfam is None:
                            cs_arr, unfam_arr = unfamiliarity_measures_packed(
                                packed, member_ids, strangers, members_mask
                            )
                            cand_strangers = cs_arr.tolist()
                            unfam = unfam_arr.tolist()
                            if base_counts is None:
                                base_counts = packed.intersect_counts(packed.row(remaining_mask))
                                pending_mask = 0
                            member_terms = expansibility_member_terms(
                                base_counts, member_ids, strangers, k, adj, pending_mask
                            )
                            member_min = min(member_terms)
                        u_val = unfam[candidate]
                        e_val = int(base_counts[candidate]) + k - cand_strangers[candidate]
                        if pending_mask:
                            e_val -= (pending_mask & adj[candidate]).bit_count()
                        if member_min < e_val:
                            e_val = member_min

                    if e_val < expans_need:
                        # Lemma 1: this candidate can never complete the group.
                        expans_removed += 1
                    elif u_val > unfam_rhs:
                        if theta == 0:
                            # The expanded set already violates the acquaintance
                            # constraint; adding more members can only worsen it.
                            unfam_removed += 1
                        else:
                            deferred_mask |= cand_bit
                            continue
                    elif schedules is None:
                        # SGQ: no temporal rung.
                        selected = candidate
                        continue
                    else:
                        entry = joint_memo.get(candidate)
                        if entry is None:
                            cand_shared = schedules[candidate].free_run_around(  # type: ignore[union-attr]
                                window.pivot, shared  # type: ignore[union-attr]
                            )
                            ext = temporal_extensibility(cand_shared, m)
                            joint_memo[candidate] = (cand_shared, ext)
                        else:
                            cand_shared, ext = entry
                        if ext >= temporal_rhs:
                            selected = candidate
                            selected_shared = cand_shared
                            continue
                        if ext >= 0:
                            deferred_mask |= cand_bit
                            continue
                        # Adding this candidate destroys temporal feasibility
                        # for every extension of the current VS.
                        temporal_removed += 1
                    # Drop ``candidate`` from the pool: one bit into the
                    # pending batch, plus the int updates that keep the
                    # member terms exact once they exist.
                    remaining_mask &= ~cand_bit
                    deferred_mask &= ~cand_bit
                    pending_mask |= cand_bit
                    if member_terms is not None:
                        cand_adj = adj[candidate]
                        for j, v in enumerate(member_ids):
                            member_terms[j] -= cand_adj >> v & 1
                        member_min = min(member_terms)

                # --- branch 1: include ``selected`` -----------------------
                sel_bit = 1 << selected
                sel_adj = adj[selected]
                strangers[selected] = (members_mask & ~sel_adj).bit_count()
                for v in member_ids:
                    if not sel_adj >> v & 1:
                        strangers[v] += 1
                member_ids.append(selected)
                self.expand(
                    members_mask | sel_bit,
                    remaining_mask & ~sel_bit,
                    current_distance + dist[selected],
                    selected_shared,
                    # Copy-on-write: the child shares this base array and
                    # extends the pending batch with ``selected`` (no
                    # self-loops, so the id's own count needs no fix-up).
                    base_counts,
                    pending_mask | sel_bit,
                )
                member_ids.pop()
                for v in member_ids:
                    if not sel_adj >> v & 1:
                        strangers[v] -= 1

                # --- branch 2: exclude ``selected`` and continue ----------
                remaining_mask &= ~sel_bit
                deferred_mask &= ~sel_bit
                pending_mask |= sel_bit
                if member_terms is not None:
                    for j, v in enumerate(member_ids):
                        member_terms[j] -= sel_adj >> v & 1
                    member_min = min(member_terms)
        finally:
            stats.candidates_considered += considered
            stats.expansibility_removals += expans_removed
            stats.unfamiliarity_removals += unfam_removed
            stats.temporal_removals += temporal_removed
