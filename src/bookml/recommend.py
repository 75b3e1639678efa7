"""Alternating-least-squares matrix factorization, explicit and implicit.

Explicit ALS minimizes squared error on observed ratings plus
reg * (sum ||u||^2 + sum ||v||^2) by exact per-row ridge solves, so the
recorded objective never increases across half-sweeps. The implicit
variant treats ratings as confidence-weighted binary preferences
(confidence = 1 + alpha * rating over every user/item pair) and uses the
Gramian decomposition so each solve touches only observed entries.

An InteractionSet groups its triples once by user and once by item into
CSR-style arrays. A half-sweep builds the normal equations of all groups
of one length at once from that grouping, and solves each such stack with
one np.linalg.solve, as Spark's ALS solves a half-sweep as a block.
"""

import logging
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .errors import ConfigError, DataError, NumericError
from .docspec import Array, Const, Count, Doc, Finite, ListOf, Str

logger = logging.getLogger(__name__)

FACTOR_FORMAT_VERSION = 1

Score = namedtuple("Score", ["value", "cold_start"])

# Triples grouped by one side: group g holds slots indptr[g]:indptr[g + 1],
# in triple order. triple is each slot's position in the InteractionSet,
# other its index on the other side and rating its rating.
Grouping = namedtuple("Grouping", ["indptr", "triple", "other", "rating"])


@dataclass
class InteractionSet:
    """Contiguously indexed (user, item, rating) triples with id maps."""

    user_ids: list
    item_ids: list
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    dropped_nulls: int = 0
    duplicates_resolved: int = 0
    user_index: dict = field(default_factory=dict)
    item_index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.user_index:
            self.user_index = {u: i for i, u in enumerate(self.user_ids)}
        if not self.item_index:
            self.item_index = {v: i for i, v in enumerate(self.item_ids)}

    @property
    def num_users(self):
        return len(self.user_ids)

    @property
    def num_items(self):
        return len(self.item_ids)

    @property
    def num_triples(self):
        return self.users.shape[0]

    @cached_property
    def user_groups(self):
        return _group(self.users, self.items, self.ratings, self.num_users)

    @cached_property
    def item_groups(self):
        return _group(self.items, self.users, self.ratings, self.num_items)

    def seen_items(self, user_idx):
        """Item indices the user has rated, in triple order."""
        g = self.user_groups
        return g.other[g.indptr[user_idx] : g.indptr[user_idx + 1]]

    def item_popularity(self):
        return np.bincount(self.items, minlength=self.num_items)

    @cached_property
    def popularity_ranking(self):
        """Item indices by descending rating count, ties to the lower index, and their counts."""
        pop = self.item_popularity()
        order = np.argsort(-pop, kind="stable")
        counts = pop[order].astype(np.float64)
        order.setflags(write=False)
        counts.setflags(write=False)
        return order, counts

    def subset(self, keep):
        """Triple subset sharing this set's id maps (for holdout splits)."""
        keep = np.asarray(keep, dtype=bool)
        return InteractionSet(
            user_ids=self.user_ids,
            item_ids=self.item_ids,
            users=self.users[keep],
            items=self.items[keep],
            ratings=self.ratings[keep],
            user_index=self.user_index,
            item_index=self.item_index,
        )


def _group(keys, others, ratings, n_groups):
    order = np.argsort(keys, kind="stable")
    indptr = np.searchsorted(keys[order], np.arange(n_groups + 1))
    grouping = Grouping(indptr, order, others[order], ratings[order])
    # Shared by every fit and top-n call on the set; seen_items returns views.
    for arr in grouping:
        arr.setflags(write=False)
    return grouping


# Largest number of gathered factor and normal-matrix values one block of a
# half-sweep holds, which bounds its temporaries (a group longer than this
# is a block of its own).
ALS_BLOCK = 1 << 18

# Equal-length groups for one batched step of a half-sweep: others and
# ratings are (len(groups), length) arrays of the groups' slots.
_Block = namedtuple("_Block", ["groups", "others", "ratings"])


def _blocks(groups, rank):
    """Split a grouping into _Blocks of groups of one length each.

    Equal lengths need no padding, so each slice of a block's stacked
    products is the same product a per-group solve would form.
    """
    lengths = np.diff(groups.indptr)
    order = np.argsort(lengths, kind="stable")
    blocks = []
    for run in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        length = int(lengths[run[0]])
        step = max(1, ALS_BLOCK // ((length + rank) * rank))
        for lo in range(0, run.shape[0], step):
            g = run[lo : lo + step]
            slots = groups.indptr[g][:, None] + np.arange(length)
            blocks.append(_Block(g, groups.other[slots], groups.rating[slots]))
    return blocks


def build_interactions(table, user_col, item_col, rating_col):
    """Index ids by first appearance and deduplicate (user, item) pairs.

    Rows with a null id or rating are dropped and counted; duplicate pairs
    keep the last occurrence's rating and the first occurrence's position.
    """
    ucol = table.column(user_col)
    icol = table.column(item_col)
    rcol = table.column(rating_col)
    if rcol.dtype not in ("int64", "float64"):
        raise DataError(f"rating column {rating_col!r} must be numeric")
    keep = ~(ucol.mask | icol.mask | rcol.mask)
    dropped = table.row_count - int(keep.sum())
    if dropped == table.row_count:
        raise DataError("no usable (user, item, rating) triples")
    user_ids, user_index, row_users = _index_ids(_kept_values(ucol, keep))
    item_ids, item_index, row_items = _index_ids(_kept_values(icol, keep))
    row_ratings = rcol.values[keep].astype(np.float64)

    # Rows of one pair are adjacent after a stable sort of their pair keys,
    # in row order: the first row of a run places the pair, the last rates it.
    keys = row_users * len(item_ids) + row_items
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    first = order[starts]
    last = order[np.append(starts[1:], order.shape[0]) - 1]
    by_first = np.argsort(first)
    first, last = first[by_first], last[by_first]
    duplicates = order.shape[0] - first.shape[0]
    if dropped:
        logger.info("build_interactions: dropped %d rows with null ids/ratings", dropped)
    return InteractionSet(
        user_ids, item_ids, row_users[first], row_items[first], row_ratings[last],
        dropped_nulls=dropped, duplicates_resolved=duplicates,
        user_index=user_index, item_index=item_index,
    )


def _kept_values(col, keep):
    """The column's kept values as Python objects, as value_at returns them."""
    if isinstance(col.values, np.ndarray):
        return col.values[keep].tolist()
    return list(compress(col.values, keep.tolist()))


def _index_ids(values):
    """Distinct values in first-appearance order, their index, and each value's code."""
    ids = list(dict.fromkeys(values))
    index = {v: i for i, v in enumerate(ids)}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))
    return ids, index, codes


def _solve_ridge(A, b, reg):
    """Solve the stacked systems A[i] x[i] = b[i]; b is (n, rank, 1)."""
    try:
        return np.linalg.solve(A, b)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"singular normal equations (reg={reg}); increase the regularization"
        ) from exc


def _top_n(scores, candidates, n):
    """The n candidates of highest score, ties to the lower index, best first.

    A partition finds the n-th highest score; only the candidates scoring at
    least that much are sorted.
    """
    values = scores[candidates]
    if n < candidates.shape[0]:
        kth = np.partition(values, candidates.shape[0] - n)[candidates.shape[0] - n]
        keep = values >= kth
        candidates, values = candidates[keep], values[keep]
    return candidates[np.lexsort((candidates, -values))[:n]]


class _ALSBase(BaseEstimator):
    """Shared factor storage, scoring, ranking, and serialization."""

    kind = None

    def _init_factors(self, data):
        if not (self.rank >= 1 and self.reg >= 0 and self.sweeps >= 0):
            raise ConfigError("rank must be >= 1, reg >= 0, sweeps >= 0")
        if data.num_triples == 0:
            raise DataError("cannot fit on an empty interaction set")
        if self.rank > min(data.num_users, data.num_items):
            logger.warning(
                "rank %d exceeds min(num_users=%d, num_items=%d); factors will be degenerate",
                self.rank, data.num_users, data.num_items,
            )
        rng = np.random.default_rng(self.seed)
        # Items first; the first half-sweep then solves users against them.
        item_factors = rng.uniform(-0.5, 0.5, (data.num_items, self.rank)) / np.sqrt(self.rank)
        user_factors = np.zeros((data.num_users, self.rank))
        return user_factors, item_factors

    def _alternate(self, data, U, V, solve_side, objective):
        """Run the half-sweeps, users then items; returns the objective trace.

        solve_side(target, other, blocks) overwrites target's rows with the
        ridge solutions against the other side's factors.
        """
        user_blocks = _blocks(data.user_groups, self.rank)
        item_blocks = _blocks(data.item_groups, self.rank)
        trace = [objective()]
        for _ in range(self.sweeps):
            solve_side(U, V, user_blocks)
            trace.append(objective())
            solve_side(V, U, item_blocks)
            trace.append(objective())
            if not np.isfinite(trace[-1]):
                raise NumericError("non-finite training objective")
        return trace

    def _finalize(self, data, user_factors, item_factors, trace, global_mean):
        if not (np.all(np.isfinite(user_factors)) and np.all(np.isfinite(item_factors))):
            raise NumericError("non-finite factors after training")
        self.user_factors_ = user_factors
        self.item_factors_ = item_factors
        self.objective_trace_ = np.asarray(trace)
        self.global_mean_ = float(global_mean)
        self.user_ids_ = list(data.user_ids)
        self.item_ids_ = list(data.item_ids)
        self.user_index_ = dict(data.user_index)
        self.item_index_ = dict(data.item_index)
        self.rank_ = self.rank
        return self

    def score(self, user_id, item_id):
        """Score(value, cold_start); unknown ids fall back to the global mean."""
        check_is_fitted(self, "user_factors_")
        u = self.user_index_.get(user_id)
        i = self.item_index_.get(item_id)
        if u is None or i is None:
            return Score(self.global_mean_, True)
        return Score(float(self.user_factors_[u] @ self.item_factors_[i]), False)

    def predict_pairs(self, users, items):
        """Scores for aligned internal index arrays (no cold-start handling)."""
        check_is_fitted(self, "user_factors_")
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        return np.einsum(
            "ij,ij->i", self.user_factors_[users], self.item_factors_[items]
        )

    def recommend_top_n(self, user_id, n, exclude_seen=True, interactions=None):
        """Ranked (item_id, score) list; ties break toward the lower item index.

        Unknown users get the top-n most popular items (requires the
        interaction set) flagged as cold start.
        """
        check_is_fitted(self, "user_factors_")
        if n < 1:
            raise ConfigError("n must be at least 1")
        u = self.user_index_.get(user_id)
        if u is None:
            if interactions is None:
                raise DataError("unknown user and no interactions for the popularity fallback")
            order, counts = interactions.popularity_ranking
            picked = zip(order[:n].tolist(), counts[:n].tolist())
            return [(self.item_ids_[i], c) for i, c in picked], True
        scores = self.user_factors_[u] @ self.item_factors_.T
        candidates = np.arange(scores.shape[0])
        if exclude_seen:
            if interactions is None:
                raise DataError("exclude_seen requires the interaction set")
            candidates = np.delete(candidates, interactions.seen_items(u))
        top = _top_n(scores, candidates, n)
        return [(self.item_ids_[i], float(scores[i])) for i in top.tolist()], False

    @classmethod
    def doc_spec(cls):
        """The document of a fitted model: unique string ids, factors of len(ids) x rank,
        params naming exactly cls's parameters, and finite numbers throughout."""
        return Doc({
            "format_version": Const(FACTOR_FORMAT_VERSION), "kind": Const(cls.kind),
            "rank": Count, "params": cls.param_spec(),
            "user_ids": ListOf(Str, unique=True), "item_ids": ListOf(Str, unique=True),
            "user_factors": lambda d: Array((len(d["user_ids"]), d["rank"])),
            "item_factors": lambda d: Array((len(d["item_ids"]), d["rank"])),
            "global_mean": Finite, "objective_trace": Array((None,)),
        }, attrs={key: f"{key}_" for key in ("rank", "user_ids", "item_ids", "user_factors",
                                             "item_factors", "global_mean", "objective_trace")})

    @classmethod
    def from_json(cls, doc):
        """The fitted model of a document (doc_spec), whose params.rank must be its rank."""
        model = super().from_json(doc)
        if model.rank != model.rank_:
            raise DataError(f"model.params.rank {model.rank} is not rank {model.rank_}")
        model.global_mean_ = float(model.global_mean_)
        model.user_index_ = {u: i for i, u in enumerate(model.user_ids_)}
        model.item_index_ = {v: i for i, v in enumerate(model.item_ids_)}
        return model


class ALSExplicit(_ALSBase):
    """Rating prediction by alternating exact ridge solves on observed entries."""

    kind = "als"

    def __init__(self, rank=10, reg=0.1, sweeps=10, seed=0):
        self.rank = rank
        self.reg = reg
        self.sweeps = sweeps
        self.seed = seed
        self.user_factors_ = None

    def fit(self, data):
        U, V = self._init_factors(data)
        eye = np.eye(self.rank)

        def objective():
            preds = np.einsum("ij,ij->i", U[data.users], V[data.items])
            sq = float(((data.ratings - preds) ** 2).sum())
            return sq + self.reg * (float((U**2).sum()) + float((V**2).sum()))

        def solve_side(target, other, blocks):
            for block in blocks:
                if block.others.shape[1] == 0:
                    target[block.groups] = 0.0
                    continue
                M = other[block.others]
                Mt = M.transpose(0, 2, 1)
                A = Mt @ M + self.reg * eye
                target[block.groups] = _solve_ridge(A, Mt @ block.ratings[..., None], self.reg)

        trace = self._alternate(data, U, V, solve_side, objective)
        return self._finalize(data, U, V, trace, data.ratings.mean())


class ALSImplicit(_ALSBase):
    """Confidence-weighted preference factorization (implicit feedback).

    preference p = 1 when rating > 0 else 0; confidence c = 1 + alpha * rating;
    the loss sums c * (p - u.v)^2 over every user/item pair plus the usual
    L2 term. Fallback/global mean is the observed positive-preference share.
    """

    kind = "als_implicit"

    def __init__(self, rank=10, reg=0.1, sweeps=10, alpha=40.0, seed=0):
        self.rank = rank
        self.reg = reg
        self.sweeps = sweeps
        self.alpha = alpha
        self.seed = seed
        self.user_factors_ = None

    def fit(self, data):
        if not self.alpha > 0:
            raise ConfigError("alpha must be positive for implicit feedback")
        if np.any(data.ratings < 0):
            raise DataError("implicit feedback requires nonnegative ratings")
        U, V = self._init_factors(data)
        prefs = (data.ratings > 0).astype(np.float64)
        conf_minus_1 = self.alpha * data.ratings
        eye = np.eye(self.rank)

        def objective():
            # sum over all pairs of (0 - u.v)^2 via the Gramian, corrected on
            # the observed entries where confidence and preference differ.
            G = V.T @ V
            base = float(np.einsum("ij,jk,ik->", U, G, U))
            preds = np.einsum("ij,ij->i", U[data.users], V[data.items])
            conf = 1.0 + conf_minus_1
            corr = float((conf * (prefs - preds) ** 2 - preds**2).sum())
            return base + corr + self.reg * (float((U**2).sum()) + float((V**2).sum()))

        def solve_side(target, other, blocks):
            base = other.T @ other + self.reg * eye
            for block in blocks:
                # A group with no triples solves (G + reg*I) x = 0.
                M = other[block.others]
                Mt = M.transpose(0, 2, 1)
                w = self.alpha * block.ratings
                p = (block.ratings > 0).astype(np.float64)
                A = base + (Mt * w[:, None, :]) @ M
                b = Mt @ ((1.0 + w) * p)[..., None]
                target[block.groups] = _solve_ridge(A, b, self.reg)

        trace = self._alternate(data, U, V, solve_side, objective)
        return self._finalize(data, U, V, trace, prefs.mean())


def per_user_holdout(data, seed=0):
    """Hold out one seeded rating per user with >= 2 ratings.

    Returns (train InteractionSet, test InteractionSet) sharing id maps;
    users with a single rating stay wholly in train.
    """
    rng = np.random.default_rng(seed)
    holdout = np.zeros(data.num_triples, dtype=bool)
    groups = data.user_groups
    for user in range(data.num_users):
        positions = groups.triple[groups.indptr[user] : groups.indptr[user + 1]]
        if positions.shape[0] >= 2:
            holdout[rng.choice(positions)] = True
    if not holdout.any():
        raise DataError("no user has 2+ ratings; cannot build a holdout split")
    return data.subset(~holdout), data.subset(holdout)


def evaluate_holdout(estimator, data, seed=0):
    """Fit on the per-user-holdout train split, score held-out ratings.

    Returns (rmse, r2, n_test). Predictions come from the factor dot
    product; the r2 may be negative when the factors generalize worse than
    the mean rating.
    """
    from .metrics import evaluate_regression

    train, test = per_user_holdout(data, seed)
    model = estimator.clone()
    model.fit(train)
    preds = model.predict_pairs(test.users, test.items)
    rmse, r2 = evaluate_regression(preds, test.ratings)
    return rmse, r2, test.num_triples
