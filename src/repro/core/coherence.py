"""Which mutations can change a known top-k (standing-answer coherence).

A cached answer is the top-k of one world;
:func:`answer_survives` decides whether it is still the top-k after a
sequence of live-dataset deltas ``(target, op, set_id, old, new)``
(entries of the dataset's mutation log, replayed by
:meth:`repro.live.LiveDataset.revalidate`), without re-running the
query.  Each delta is judged on its own against
the answer — the rules bound what *any* object can gain or lose from
it, so harmless deltas compose in any order.  Any doubt is "no".  With
``s_k`` the last reported score and "full" meaning ``len(items) == k``:

* **R1** (Defs. 2, 6, 7: only features with ``sim(t, W_i) > 0`` score)
  — a feature delta whose ``old`` and ``new`` share no keyword with
  ``W_i`` is invisible to the query, in every variant.
* **R2** (Def. 2, range) — removing a relevant feature lowers only the
  scores of objects within ``r`` of it: harmless unless one of them is
  reported (a non-member that loses score cannot enter).
* **R3** (Defs. 1, 2, range) — adding a relevant feature ``t`` to set
  ``i`` raises only objects within ``r`` of it, and only those with
  ``τ_i(p) < s(t)``, to exactly ``s(t) + Σ_{j≠i} τ_j(p)``: harmless
  when the answer is full, no object within ``r`` of ``t`` is
  reported, and none has ``Σ_{j≠i} τ_j(p)`` reaching ``s_k − s(t)``.
  A ceiling ``s(t) + (c - 1)`` below ``s_k`` (``s ≤ 1`` bounds every
  other set) proves it without looking — at ``c = 1`` the ceiling is
  the whole rule, and an arrival it does not clear is a change even
  with nobody in range; otherwise the scorer is asked that skip-set
  question on the current trees, folding the ``c − 1`` sets other than
  ``i``.  A move or rescore is R2 on ``old`` plus R3 on ``new``.
  Influence and nearest-neighbour scores have no cut-off radius, so a
  relevant side there is never harmless.
* **R4** — deleting an object that is not reported changes nothing.
* **R5** (Algorithm 2) — an inserted object is harmless iff the answer
  is full and the scorer says its location does not reach ``s_k``.

Both scored rules ask one floor question — does a score reach ``s_k``
(R3: ``s_k − s(t)`` over the sets but ``i``)? — not for the score
itself, so the scorer (:meth:`repro.live.LiveDataset.reaches`) runs
Algorithm 1's fold with that floor as its threshold
(:func:`repro.core.stds.reaches`): batched in the range variant, per
object in the others, and an object whose ``τ̂`` falls below the floor
is settled without being scored in full.

"Below" is strict by ``stds._DROP_EPS``, the scan's own tie guard, so
an object that would tie the k-th score (and could win the ``oid``
tie-break) always counts as a change.

R3 and R5 score on the trees as they are *after* the whole replay, and
that is what makes them compose.  A reported object keeps its score:
R2 and R3 refuse any relevant side within ``r`` of it.  Take a
non-member ``p`` in the range variant and its final score, term by
term.  If some set ``i``'s final term is ``s(t)`` of a feature whose
last delta in the replay brought it (an insert, or the ``new`` side of
a move or rescore), that arrival bounds ``p``: its R3 check found
``s(t) + Σ_{j≠i} τ_j(p)`` — exactly ``p``'s final score, the other
terms read off the final trees — below ``s_k``.  If no final term is
such an arrival's, every term comes from a feature ``p`` could already
score from before the replay, so no term rose and ``p`` scores at most
what it did.  A newcomer is R5's.  The caller must make "the trees"
mean the replay's last version:
:meth:`repro.live.LiveDataset.revalidate` scores under the mutation lock
and calls it doubt if a write landed since it read the log.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.core.query import PreferenceQuery, Variant
from repro.core.results import ResultItem
from repro.core.stds import _DROP_EPS
from repro.index.feature_tree import FeatureScorer
from repro.index.nodes import FeatureLeafEntry
from repro.model.objects import FeatureObject

#: Relative slack on ``r²`` (on ``r`` in
#: :meth:`repro.live.LiveDataset.reaches`) that makes R2's and R3's
#: "within ``r``" at least as inclusive as any engine's ``dx² + dy² ≤ r²``.
_RANGE_SLACK = 1.0 + 1e-9


def _reported_within(
    items: Sequence[ResultItem], f: FeatureObject, radius: float
) -> bool:
    """Does some reported object lie within ``radius`` of ``f``?"""
    r2 = radius * radius * _RANGE_SLACK
    fx, fy = f.x, f.y
    return any(
        (item.x - fx) ** 2 + (item.y - fy) ** 2 <= r2 for item in items
    )


def _relevant_entry(
    scorer: FeatureScorer, f: FeatureObject | None
) -> FeatureLeafEntry | None:
    """``f`` as the leaf entry it occupies, if ``sim(f, W_i) > 0``."""
    if f is None:
        return None
    entry = FeatureLeafEntry(f.fid, f.x, f.y, f.score, f.keyword_mask())
    return entry if scorer.leaf_relevant(entry) else None


def _harmless(
    query: PreferenceQuery,
    items: Sequence[ResultItem],
    delta: tuple,
    reaches: Callable | None,
) -> bool:
    target, _op, set_id, old, new = delta
    full = bool(items) and len(items) == query.k
    if target == "object":
        if old is not None and any(item.oid == old.oid for item in items):
            return False  # R4: a reported object left
        if new is None:
            return True
        if not full or reaches is None:
            return False
        floor = items[-1].score - _DROP_EPS  # R5
        return reaches(query, (new.x, new.y), floor, None) is False
    # Leaf-side scoring only: no index bound is asked of this scorer.
    scorer = FeatureScorer(query.keyword_masks[set_id], query.lam, None)
    gone = _relevant_entry(scorer, old)
    come = _relevant_entry(scorer, new)
    if gone is None and come is None:
        return True  # R1
    if query.variant is not Variant.RANGE:
        return False
    if gone is not None and _reported_within(items, old, query.radius):
        return False  # R2
    if come is not None:  # R3
        if not full or _reported_within(items, new, query.radius):
            return False
        floor = items[-1].score - _DROP_EPS
        gain = scorer.leaf_score(come)
        if gain + (query.c - 1) < floor:
            return True
        if query.c == 1 or reaches is None:
            return False
        return reaches(query, (new.x, new.y), floor - gain, set_id) is False
    return True


def answer_survives(
    query: PreferenceQuery,
    items: Sequence[ResultItem],
    deltas: Iterable[tuple],
    reaches: Callable | None = None,
) -> bool:
    """Is ``items`` still the answer to ``query`` after ``deltas``?

    ``items`` is the ranked answer over the world before the deltas.
    ``reaches(query, point, floor, skip)`` is the one scorer, over the
    *current* feature sets: does the location ``point`` score at least
    ``floor`` (``skip`` None, R5), or does some data object within ``r``
    of it, summed over every set but ``skip`` (R3)?  None when it cannot say
    (:meth:`repro.live.LiveDataset.reaches`).  True is a proof (rules
    R1-R5 in the module docstring); False only means "re-run it".
    """
    return all(_harmless(query, items, d, reaches) for d in deltas)
