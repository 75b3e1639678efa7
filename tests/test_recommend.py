from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bookml import (
    ALSExplicit,
    ALSImplicit,
    ConfigError,
    DataError,
    NumericError,
    Table,
    build_interactions,
    evaluate_holdout,
    per_user_holdout,
)
from bookml import recommend


def interactions_table(rows):
    return Table.build(
        [("u", "text", True), ("i", "text", True), ("r", "float64", True)],
        {
            "u": [r[0] for r in rows],
            "i": [r[1] for r in rows],
            "r": [r[2] for r in rows],
        },
    )


def random_interactions(rng, n_users=30, n_items=25, n_obs=180, low=1, high=5):
    rows = []
    seen = set()
    while len(rows) < n_obs:
        u, i = int(rng.integers(n_users)), int(rng.integers(n_items))
        if (u, i) in seen:
            continue
        seen.add((u, i))
        rows.append((f"u{u}", f"i{i}", float(rng.integers(low, high + 1))))
    return build_interactions(interactions_table(rows), "u", "i", "r")


class TestBuildInteractions:
    def test_counts(self):
        data = build_interactions(
            interactions_table([("u1", "b1", 5.0), ("u2", "b1", 3.0)]), "u", "i", "r"
        )
        assert data.num_users == 2
        assert data.num_items == 1
        assert data.num_triples == 2

    def test_duplicate_keeps_last(self):
        data = build_interactions(
            interactions_table([("u1", "b1", 2.0), ("u1", "b1", 4.0)]), "u", "i", "r"
        )
        assert data.num_triples == 1
        assert data.ratings[0] == 4.0
        assert data.duplicates_resolved == 1

    def test_null_rows_dropped_and_counted(self):
        data = build_interactions(
            interactions_table([(None, "b1", 5.0), ("u1", "b1", 1.0)]), "u", "i", "r"
        )
        assert data.num_triples == 1
        assert data.dropped_nulls == 1

    def test_zero_usable_rejected(self):
        with pytest.raises(DataError):
            build_interactions(interactions_table([(None, "b1", 5.0)]), "u", "i", "r")

    def test_first_appearance_indexing(self):
        data = build_interactions(
            interactions_table([("u2", "b9", 1.0), ("u1", "b3", 2.0)]), "u", "i", "r"
        )
        assert data.user_ids == ["u2", "u1"]
        assert data.item_ids == ["b9", "b3"]

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.one_of(st.none(), st.sampled_from(["u1", "u2", "u3", "u4"])),
        st.one_of(st.none(), st.sampled_from(["b1", "b2", "b3"])),
        st.one_of(st.none(), st.integers(1, 5)),
    ), max_size=40), rating_dtype=st.sampled_from(["int64", "float64"]))
    def test_matches_row_by_row_oracle(self, rows, rating_dtype):
        # Small id sets make repeated pairs with differing ratings common.
        table = Table.build(
            [("u", "text", True), ("i", "text", True), ("r", rating_dtype, True)],
            {"u": [r[0] for r in rows], "i": [r[1] for r in rows],
             "r": [r[2] for r in rows]},
        )
        try:
            want = build_interactions_by_row(table, "u", "i", "r")
        except DataError:
            with pytest.raises(DataError):
                build_interactions(table, "u", "i", "r")
            return
        got = build_interactions(table, "u", "i", "r")
        assert got.user_ids == want.user_ids
        assert got.item_ids == want.item_ids
        assert got.user_index == want.user_index
        assert got.item_index == want.item_index
        for name in ("users", "items", "ratings"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.dropped_nulls == want.dropped_nulls
        assert got.duplicates_resolved == want.duplicates_resolved


def build_interactions_by_row(table, user_col, item_col, rating_col):
    """The row-at-a-time build_interactions the columnar one replaced."""
    ucol = table.column(user_col)
    icol = table.column(item_col)
    rcol = table.column(rating_col)
    user_ids, item_ids = [], []
    user_index, item_index = {}, {}
    pair_rating = {}
    pair_order = {}
    dropped = 0
    for row in range(table.row_count):
        u, v, r = ucol.value_at(row), icol.value_at(row), rcol.value_at(row)
        if u is None or v is None or r is None:
            dropped += 1
            continue
        if u not in user_index:
            user_index[u] = len(user_ids)
            user_ids.append(u)
        if v not in item_index:
            item_index[v] = len(item_ids)
            item_ids.append(v)
        pair = (user_index[u], item_index[v])
        if pair not in pair_order:
            pair_order[pair] = len(pair_order)
        pair_rating[pair] = float(r)
    if not pair_rating:
        raise DataError("no usable (user, item, rating) triples")
    duplicates = table.row_count - dropped - len(pair_rating)
    pairs = sorted(pair_order, key=pair_order.get)
    users = np.array([p[0] for p in pairs], dtype=np.int64)
    items = np.array([p[1] for p in pairs], dtype=np.int64)
    ratings = np.array([pair_rating[p] for p in pairs], dtype=np.float64)
    return recommend.InteractionSet(
        user_ids, item_ids, users, items, ratings,
        dropped_nulls=dropped, duplicates_resolved=duplicates,
        user_index=user_index, item_index=item_index,
    )


class TestExplicitALS:
    def rank1_data(self):
        return build_interactions(
            interactions_table(
                [("a", "x", 1.0), ("a", "y", 2.0), ("b", "x", 2.0), ("b", "y", 4.0)]
            ),
            "u", "i", "r",
        )

    def test_rank1_matrix_recovered(self):
        model = ALSExplicit(rank=1, reg=1e-6, sweeps=20, seed=0).fit(self.rank1_data())
        data = self.rank1_data()
        preds = model.predict_pairs(data.users, data.items)
        rmse = float(np.sqrt(((preds - data.ratings) ** 2).mean()))
        assert rmse < 0.05

    def test_single_triple(self):
        data = build_interactions(interactions_table([("a", "x", 3.0)]), "u", "i", "r")
        model = ALSExplicit(rank=1, reg=1e-6, sweeps=10, seed=1).fit(data)
        assert 2.9 <= model.score("a", "x").value <= 3.1

    def test_objective_non_increasing(self, rng):
        data = random_interactions(rng, n_users=50, n_items=40, n_obs=400)
        model = ALSExplicit(rank=4, reg=0.1, sweeps=8, seed=2).fit(data)
        diffs = np.diff(model.objective_trace_)
        assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(model.objective_trace_[:-1])))

    def test_zero_reg_singular_system_raises(self):
        # a user with fewer ratings than the rank makes the unregularized
        # normal equations singular
        data = build_interactions(
            interactions_table([("a", "x", 2.0), ("b", "x", 1.0), ("b", "y", 3.0)]),
            "u", "i", "r",
        )
        with pytest.raises(NumericError):
            ALSExplicit(rank=2, reg=0.0, sweeps=3, seed=0).fit(data)

    def test_same_seed_identical_factors(self, rng):
        data = random_interactions(rng)
        a = ALSExplicit(rank=3, reg=0.1, sweeps=4, seed=7).fit(data)
        b = ALSExplicit(rank=3, reg=0.1, sweeps=4, seed=7).fit(data)
        np.testing.assert_array_equal(a.user_factors_, b.user_factors_)
        np.testing.assert_array_equal(a.item_factors_, b.item_factors_)


class TestImplicitALS:
    def block_data(self):
        rows = []
        for u in range(20):
            base = 0 if u < 10 else 10
            for j in range(10):
                if (u + j) % 2 == 0:
                    rows.append((f"u{u}", f"i{base + j}", 3.0))
        return build_interactions(interactions_table(rows), "u", "i", "r")

    @pytest.mark.parametrize("alpha,rating", [(40.0, 3.0), (10.0, 0.5), (2.0, 1.0)])
    def test_confidence_enters_solves_as_one_plus_alpha_r(self, alpha, rating):
        # single user/item at rank 1 has a closed form: with confidence
        # c = 1 + alpha*r, the first sweep gives u1 = c v0/(c v0^2 + reg)
        # and then v1 = c u1/(c u1^2 + reg)
        reg = 0.1
        seed = 4
        data = build_interactions(
            interactions_table([("a", "x", rating)]), "u", "i", "r"
        )
        model = ALSImplicit(rank=1, reg=reg, sweeps=1, alpha=alpha, seed=seed).fit(data)
        v0 = float(np.random.default_rng(seed).uniform(-0.5, 0.5, (1, 1))[0, 0])
        c = 1.0 + alpha * rating
        u1 = c * v0 / (c * v0 * v0 + reg)
        v1 = c * u1 / (c * u1 * u1 + reg)
        assert model.user_factors_[0, 0] == pytest.approx(u1, rel=1e-12)
        assert model.item_factors_[0, 0] == pytest.approx(v1, rel=1e-12)

    def test_unobserved_has_confidence_one_preference_zero(self):
        # rating 0 contributes nothing beyond the background term
        with_zero = build_interactions(
            interactions_table(
                [("a", "x", 2.0), ("a", "y", 0.0), ("b", "x", 1.0), ("b", "y", 2.0)]
            ),
            "u", "i", "r",
        )
        model = ALSImplicit(rank=2, reg=0.1, sweeps=6, alpha=5.0, seed=3).fit(with_zero)
        assert np.all(np.isfinite(model.user_factors_))

    def test_block_structure_separates_preferences(self):
        model = ALSImplicit(rank=4, reg=0.1, sweeps=10, alpha=40.0, seed=0).fit(
            self.block_data()
        )
        items = np.arange(20)
        for u in range(10):
            scores = model.predict_pairs(np.full(20, u), items)
            assert scores[:10].mean() > scores[10:].mean()

    def test_negative_rating_rejected(self):
        data = build_interactions(interactions_table([("a", "x", -1.0)]), "u", "i", "r")
        with pytest.raises(DataError):
            ALSImplicit(alpha=40.0).fit(data)

    def test_objective_non_increasing(self, rng):
        data = random_interactions(rng, n_users=25, n_items=20, n_obs=150, low=1, high=4)
        model = ALSImplicit(rank=3, reg=0.1, sweeps=6, alpha=10.0, seed=1).fit(data)
        diffs = np.diff(model.objective_trace_)
        assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(model.objective_trace_[:-1])))

    def test_alpha_must_be_positive(self):
        data = build_interactions(interactions_table([("a", "x", 1.0)]), "u", "i", "r")
        with pytest.raises(ConfigError):
            ALSImplicit(alpha=0.0).fit(data)


class TestScoringAndRanking:
    def fitted(self, rng):
        data = random_interactions(rng)
        return ALSExplicit(rank=3, reg=0.1, sweeps=4, seed=5).fit(data), data

    def test_score_is_dot_product(self, rng):
        model, data = self.fitted(rng)
        model.user_factors_[0] = np.array([1.0, 2.0, 0.0])
        model.item_factors_[0] = np.array([3.0, 4.0, 0.0])
        value, cold = model.score(data.user_ids[0], data.item_ids[0])
        assert value == 11.0
        assert not cold

    def test_zero_factors_score_zero(self, rng):
        model, data = self.fitted(rng)
        model.user_factors_[:] = 0.0
        assert model.score(data.user_ids[0], data.item_ids[0]).value == 0.0

    def test_unknown_user_falls_back_to_global_mean(self, rng):
        model, data = self.fitted(rng)
        value, cold = model.score("nobody", data.item_ids[0])
        assert cold
        assert value == pytest.approx(data.ratings.mean())

    def test_scores_scale_linearly_with_user_factors(self, rng):
        model, data = self.fitted(rng)
        before = model.predict_pairs(data.users, data.items)
        model.user_factors_ = model.user_factors_ * 2.5
        after = model.predict_pairs(data.users, data.items)
        np.testing.assert_allclose(after, 2.5 * before, atol=1e-12)

    def test_top_n_sorting(self, rng):
        model, data = self.fitted(rng)
        model.user_factors_[0] = np.array([1.0, 0.0, 0.0])
        model.item_factors_[:, :] = 0.0
        model.item_factors_[0, 0] = 0.1
        model.item_factors_[1, 0] = 0.9
        model.item_factors_[2, 0] = 0.5
        items, cold = model.recommend_top_n(
            data.user_ids[0], 2, exclude_seen=False, interactions=data
        )
        assert not cold
        assert [data.item_index[t] for t, _ in items] == [1, 2]

    def test_exclude_seen_returns_next_best(self, rng):
        model, data = self.fitted(rng)
        full, _ = model.recommend_top_n(data.user_ids[0], data.num_items,
                                        exclude_seen=False, interactions=data)
        filtered, _ = model.recommend_top_n(data.user_ids[0], data.num_items,
                                            exclude_seen=True, interactions=data)
        seen = {data.item_ids[i] for i in data.seen_items(0)}
        assert all(t not in seen for t, _ in filtered)
        expected = [t for t, _ in full if t not in seen]
        assert [t for t, _ in filtered] == expected

    def test_matches_full_sort_oracle(self, rng):
        for _ in range(100):
            n_items = int(rng.integers(3, 12))
            scores = rng.normal(0, 1, n_items)
            model = ALSExplicit(rank=1, sweeps=0)
            model.user_ids_ = ["u"]
            model.item_ids_ = [f"i{j}" for j in range(n_items)]
            model.user_index_ = {"u": 0}
            model.item_index_ = {f"i{j}": j for j in range(n_items)}
            model.user_factors_ = np.array([[1.0]])
            model.item_factors_ = scores.reshape(-1, 1)
            model.global_mean_ = 0.0
            model.objective_trace_ = np.zeros(1)
            model.rank_ = 1
            got, _ = model.recommend_top_n("u", 3, exclude_seen=False)
            oracle = sorted(range(n_items), key=lambda j: (-scores[j], j))[:3]
            assert [t for t, _ in got] == [f"i{j}" for j in oracle]

    def test_unknown_user_popularity_fallback(self, rng):
        model, data = self.fitted(rng)
        items, cold = model.recommend_top_n("nobody", 3, interactions=data)
        assert cold
        pop = data.item_popularity()
        expected = sorted(range(data.num_items), key=lambda j: (-pop[j], j))[:3]
        assert [data.item_index[t] for t, _ in items] == expected


# The per-group half-sweeps that the batched ones replaced, kept as an oracle.
def per_group_lists(keys, values, ratings, n_groups):
    order = np.argsort(keys, kind="stable")
    sk, sv, sr = keys[order], values[order], ratings[order]
    bounds = np.searchsorted(sk, np.arange(n_groups + 1))
    return [
        (sv[bounds[g] : bounds[g + 1]], sr[bounds[g] : bounds[g + 1]])
        for g in range(n_groups)
    ]


def per_group_fit(data, rank, reg, sweeps, seed, alpha=None):
    """(U, V) of explicit ALS, or of implicit ALS when alpha is given."""
    rng = np.random.default_rng(seed)
    V = rng.uniform(-0.5, 0.5, (data.num_items, rank)) / np.sqrt(rank)
    U = np.zeros((data.num_users, rank))
    by_user = per_group_lists(data.users, data.items, data.ratings, data.num_users)
    by_item = per_group_lists(data.items, data.users, data.ratings, data.num_items)
    eye = np.eye(rank)

    def solve_explicit(target, other, groups):
        for idx, (cols, vals) in enumerate(groups):
            if cols.shape[0] == 0:
                target[idx] = 0.0
                continue
            M = other[cols]
            target[idx] = np.linalg.solve(M.T @ M + reg * eye, M.T @ vals)

    def solve_implicit(target, other, groups):
        G = other.T @ other
        for idx, (cols, vals) in enumerate(groups):
            A = G + reg * eye
            b = np.zeros(rank)
            if cols.shape[0]:
                M = other[cols]
                w = alpha * vals
                p = (vals > 0).astype(np.float64)
                A = A + (M * w[:, None]).T @ M
                b = M.T @ ((1.0 + w) * p)
            target[idx] = np.linalg.solve(A, b)

    solve = solve_explicit if alpha is None else solve_implicit
    for _ in range(sweeps):
        solve(U, V, by_user)
        solve(V, U, by_item)
    return U, V


def assert_close_factors(got, want):
    # Relative to the largest factor entry: near-zero entries carry the
    # rounding of their larger neighbours.
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)


def fit_both_ways(data, rank, reg, sweeps, seed, alpha=None):
    if alpha is None:
        model = ALSExplicit(rank=rank, reg=reg, sweeps=sweeps, seed=seed).fit(data)
    else:
        model = ALSImplicit(rank=rank, reg=reg, sweeps=sweeps, alpha=alpha, seed=seed).fit(data)
    U, V = per_group_fit(data, rank, reg, sweeps, seed, alpha)
    assert_close_factors(model.user_factors_, U)
    assert_close_factors(model.item_factors_, V)
    return model


class TestBatchedHalfSweeps:
    @settings(max_examples=150, deadline=None)
    @given(draw_data=st.data())
    def test_matches_per_group_solves(self, draw_data):
        draw = draw_data.draw
        n_users, n_items = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        pairs = draw(st.lists(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
            min_size=1, max_size=n_users * n_items, unique=True))
        ratings = draw(st.lists(st.integers(0, 5), min_size=len(pairs), max_size=len(pairs)))
        rows = [(f"u{u}", f"i{i}", float(r)) for (u, i), r in zip(pairs, ratings)]
        data = build_interactions(interactions_table(rows), "u", "i", "r")
        if np.bincount(data.users).max() >= 2:
            # The holdout train split keeps every id, so some users and
            # items may have no triples left.
            data = per_user_holdout(data, seed=draw(st.integers(0, 3)))[0]
        # Ranks above min(users, items) included.
        rank = draw(st.integers(1, 5))
        reg = draw(st.sampled_from([0.1, 0.5, 2.0]))
        alpha = draw(st.sampled_from([None, 1.0, 40.0]))
        # Block bounds of one group per block, a few groups, and the default.
        block = draw(st.sampled_from([1, 40, recommend.ALS_BLOCK]))
        with mock.patch.object(recommend, "ALS_BLOCK", block):
            fit_both_ways(data, rank, reg, draw(st.integers(1, 4)), draw(st.integers(0, 9)), alpha)

    @pytest.mark.parametrize("alpha", [None, 10.0])
    def test_items_without_train_triples(self, rng, alpha):
        data = random_interactions(rng, n_users=20, n_items=15, n_obs=110)
        train, _ = per_user_holdout(data, seed=3)
        lonely = data.items[0]
        train = train.subset(train.items != lonely)
        assert np.bincount(train.items, minlength=train.num_items)[lonely] == 0
        model = fit_both_ways(train, rank=4, reg=0.1, sweeps=5, seed=1, alpha=alpha)
        # No triples: explicit sets a zero row, implicit solves (G + reg*I) x = 0.
        assert np.all(model.item_factors_[lonely] == 0.0)

    @pytest.mark.parametrize("alpha", [None, 10.0])
    def test_group_longer_than_a_block(self, rng, monkeypatch, alpha):
        data = random_interactions(rng, n_users=8, n_items=30, n_obs=200)
        whole = fit_both_ways(data, rank=3, reg=0.1, sweeps=3, seed=2, alpha=alpha)
        # Each user has ~25 triples, so every block holds one group larger
        # than the bound.
        monkeypatch.setattr(recommend, "ALS_BLOCK", 10)
        blocked = fit_both_ways(data, rank=3, reg=0.1, sweeps=3, seed=2, alpha=alpha)
        assert_close_factors(blocked.user_factors_, whole.user_factors_)

    def test_blocks_cover_every_slot_once(self, rng):
        data = random_interactions(rng, n_users=40, n_items=30, n_obs=300)
        groups = data.user_groups
        for bound in (1, 100, recommend.ALS_BLOCK):
            with mock.patch.object(recommend, "ALS_BLOCK", bound):
                blocks = recommend._blocks(groups, 3)
            seen = np.concatenate([b.groups for b in blocks])
            np.testing.assert_array_equal(np.sort(seen), np.arange(data.num_users))
            for b in blocks:
                for row, g in enumerate(b.groups):
                    lo, hi = groups.indptr[g], groups.indptr[g + 1]
                    assert b.others.shape[1] == hi - lo
                    np.testing.assert_array_equal(b.others[row], groups.other[lo:hi])
                    np.testing.assert_array_equal(b.ratings[row], groups.rating[lo:hi])
                length = b.others.shape[1]
                assert b.groups.shape[0] <= max(1, bound // ((length + 3) * 3))

    def test_grouping_is_csr_in_triple_order(self, rng):
        data = random_interactions(rng)
        for groups, keys, others in ((data.user_groups, data.users, data.items),
                                     (data.item_groups, data.items, data.users)):
            for g in range(groups.indptr.shape[0] - 1):
                slots = slice(groups.indptr[g], groups.indptr[g + 1])
                positions = np.flatnonzero(keys == g)
                np.testing.assert_array_equal(groups.triple[slots], positions)
                np.testing.assert_array_equal(groups.other[slots], others[positions])
                np.testing.assert_array_equal(groups.rating[slots], data.ratings[positions])


class TestTopNOracle:
    @settings(max_examples=200, deadline=None)
    @given(draw_data=st.data())
    def test_matches_full_sort_with_ties_and_seen(self, draw_data):
        draw = draw_data.draw
        n_items = draw(st.integers(1, 12))
        # Few distinct scores, so ties are common.
        scores = np.asarray(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                                          min_size=n_items, max_size=n_items)))
        seen = draw(st.lists(st.integers(0, n_items - 1), unique=True))
        exclude = draw(st.booleans())
        n = draw(st.integers(1, n_items + 3))
        rows = [("u", f"i{j}", 1.0) for j in seen] + [("v", f"i{j}", 1.0) for j in range(n_items)]
        data = build_interactions(interactions_table(rows), "u", "i", "r")
        model = ALSExplicit(rank=1, sweeps=0)
        model.user_ids_ = list(data.user_ids)
        model.item_ids_ = list(data.item_ids)
        model.user_index_ = dict(data.user_index)
        model.item_index_ = dict(data.item_index)
        model.user_factors_ = np.ones((data.num_users, 1))
        # Scores indexed by the interaction set's item order.
        item_scores = np.array([scores[int(t[1:])] for t in data.item_ids])
        model.item_factors_ = item_scores.reshape(-1, 1)
        model.global_mean_ = 0.0
        model.objective_trace_ = np.zeros(1)
        model.rank_ = 1
        user = "u" if seen else "v"
        got, cold = model.recommend_top_n(user, n, exclude_seen=exclude, interactions=data)
        banned = {t for who, t, _ in rows if who == user} if exclude else set()
        oracle = sorted((j for j in range(data.num_items) if data.item_ids[j] not in banned),
                        key=lambda j: (-item_scores[j], j))[:n]
        assert not cold
        assert [t for t, _ in got] == [data.item_ids[j] for j in oracle]
        assert [s for _, s in got] == [float(item_scores[j]) for j in oracle]

    def test_n_beyond_unseen_returns_every_unseen_item(self, rng):
        model, data = ALSExplicit(rank=3, reg=0.1, sweeps=2, seed=5), random_interactions(rng)
        model.fit(data)
        seen = set(data.seen_items(0).tolist())
        got, _ = model.recommend_top_n(data.user_ids[0], data.num_items + 5,
                                       exclude_seen=True, interactions=data)
        assert len(got) == data.num_items - len(seen)
        assert {data.item_index[t] for t, _ in got} == set(range(data.num_items)) - seen

    def test_cold_start_n_beyond_items(self, rng):
        model, data = ALSExplicit(rank=3, reg=0.1, sweeps=2, seed=5), random_interactions(rng)
        model.fit(data)
        items, cold = model.recommend_top_n("nobody", data.num_items + 5, interactions=data)
        pop = data.item_popularity()
        expected = sorted(range(data.num_items), key=lambda j: (-pop[j], j))
        assert cold
        assert [data.item_index[t] for t, _ in items] == expected
        assert [s for _, s in items] == [float(pop[j]) for j in expected]


class TestHoldout:
    def test_per_user_holdout_shapes(self, rng):
        data = random_interactions(rng, n_users=12, n_items=10, n_obs=60)
        train, test = per_user_holdout(data, seed=1)
        assert train.num_triples + test.num_triples == data.num_triples
        # one held-out triple per multi-rating user
        multi = sum(1 for c in np.bincount(data.users, minlength=12) if c >= 2)
        assert test.num_triples == multi

    def test_same_split_as_per_group_positions(self, rng):
        data = random_interactions(rng, n_users=30, n_items=20, n_obs=200)
        train, test = per_user_holdout(data, seed=4)
        # One rng.choice per user with 2+ ratings, in user order, over the
        # user's triple positions in triple order.
        oracle_rng = np.random.default_rng(4)
        holdout = np.zeros(data.num_triples, dtype=bool)
        positions = np.arange(data.num_triples)
        for mine, _ in per_group_lists(data.users, positions, data.ratings, data.num_users):
            if mine.shape[0] >= 2:
                holdout[oracle_rng.choice(mine)] = True
        for part, keep in ((train, ~holdout), (test, holdout)):
            np.testing.assert_array_equal(part.users, data.users[keep])
            np.testing.assert_array_equal(part.items, data.items[keep])
            np.testing.assert_array_equal(part.ratings, data.ratings[keep])

    def test_holdout_requires_repeat_users(self):
        data = build_interactions(interactions_table([("a", "x", 1.0)]), "u", "i", "r")
        with pytest.raises(DataError):
            per_user_holdout(data)

    def test_evaluate_holdout_runs(self, rng):
        data = random_interactions(rng, n_users=20, n_items=15, n_obs=120)
        rmse, r2, n_test = evaluate_holdout(ALSExplicit(rank=2, reg=0.5, sweeps=5), data, seed=0)
        assert rmse >= 0
        assert n_test > 0


class TestSerialization:
    def test_roundtrip_identical_predictions(self, rng):
        data = random_interactions(rng)
        model = ALSExplicit(rank=3, reg=0.2, sweeps=4, seed=11).fit(data)
        clone = ALSExplicit.from_json(model.to_json())
        np.testing.assert_array_equal(
            model.predict_pairs(data.users, data.items),
            clone.predict_pairs(data.users, data.items),
        )
        got, _ = clone.recommend_top_n(data.user_ids[0], 5, exclude_seen=False)
        want, _ = model.recommend_top_n(data.user_ids[0], 5, exclude_seen=False)
        assert got == want
