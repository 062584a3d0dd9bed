"""Equivalence tests: the vectorized engine must match the reference
strategies bit for bit (same actions, same order, same scores)."""

import random

import pytest

from repro.core import AssociationGoalModel, GoalRecommender
from repro.core.vectorized import BatchRecommender
from repro.data import (
    FoodMartConfig,
    FortyThreeConfig,
    generate_foodmart,
    generate_fortythree,
)
from repro.exceptions import RecommendationError

STRATEGIES = ("breadth", "focus_cmp", "focus_cl", "best_match")


@pytest.fixture(scope="module")
def scenarios():
    result = []
    for dataset in (
        generate_foodmart(FoodMartConfig.tiny(), seed=0),
        generate_fortythree(FortyThreeConfig.tiny(), seed=1),
    ):
        model = AssociationGoalModel.from_library(dataset.library)
        result.append(
            (
                model,
                GoalRecommender(model),
                BatchRecommender(model),
                [user.full_activity for user in dataset.users[:25]],
            )
        )
    return result


class TestEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_reference_on_both_datasets(self, scenarios, strategy):
        for model, reference, batch, activities in scenarios:
            for activity in activities:
                expected = reference.recommend(activity, k=10, strategy=strategy)
                actual = batch.recommend(activity, k=10, strategy=strategy)
                assert actual.actions() == expected.actions(), (
                    f"{strategy}: ranking diverged for activity {sorted(activity)[:4]}"
                )
                for exp_item, act_item in zip(expected, actual):
                    assert act_item.score == pytest.approx(exp_item.score)

    def test_breadth_scores_match_reference(self, scenarios, figure1_model):
        from repro.core.strategies.breadth import BreadthStrategy

        batch = BatchRecommender(figure1_model)
        activity = figure1_model.encode_activity({"a1"})
        reference_scores = BreadthStrategy().scores(figure1_model, activity)
        vector_scores = batch.breadth_scores(activity)
        for aid, score in reference_scores.items():
            assert vector_scores[aid] == pytest.approx(score)

    def test_best_match_distances_match_reference(self, figure1_model):
        from repro.core.strategies.best_match import BestMatchStrategy

        batch = BatchRecommender(figure1_model)
        activity = figure1_model.encode_activity({"a1", "a2"})
        reference = BestMatchStrategy().distances(figure1_model, activity)
        vectorized = batch.best_match_distances(activity)
        assert set(reference) == set(vectorized)
        for aid, distance in reference.items():
            assert vectorized[aid] == pytest.approx(distance)


class TestApi:
    def test_unknown_strategy_rejected(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        with pytest.raises(ValueError, match="strategy"):
            batch.rank(frozenset(), k=5, strategy="nope")

    def test_k_validated(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        with pytest.raises(RecommendationError, match="positive"):
            batch.recommend({"a1"}, k=0)

    def test_empty_activity_empty_result(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        for strategy in STRATEGIES:
            assert batch.recommend(set(), k=5, strategy=strategy).actions() == []

    def test_unknown_actions_dropped(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        with_noise = batch.recommend({"a1", "martian"}, k=5)
        clean = batch.recommend({"a1"}, k=5)
        assert with_noise.actions() == clean.actions()

    def test_recommend_many_order(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        activities = [frozenset({"a1"}), frozenset({"a6"})]
        results = batch.recommend_many(activities, k=3)
        assert len(results) == 2
        assert results[0].activity == frozenset({"a1"})
        assert results[1].activity == frozenset({"a6"})

    def test_recommend_many_breadth_matches_per_activity_path(self, scenarios):
        for model, reference, batch, activities in scenarios:
            bulk = batch.recommend_many(
                [frozenset(a) for a in activities], k=10, strategy="breadth",
                chunk_size=4,  # force several chunks
            )
            for activity, result in zip(activities, bulk):
                expected = batch.recommend(activity, k=10, strategy="breadth")
                assert result.actions() == expected.actions()
                for exp_item, act_item in zip(expected, result):
                    assert act_item.score == exp_item.score  # bit-identical

    def test_recommend_many_validates_arguments(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        with pytest.raises(RecommendationError, match="k must be positive"):
            batch.recommend_many([frozenset({"a1"})], k=0)
        with pytest.raises(RecommendationError, match="chunk_size"):
            batch.recommend_many([frozenset({"a1"})], chunk_size=0)
        with pytest.raises(ValueError, match="strategy"):
            batch.recommend_many([frozenset({"a1"})], strategy="nope")

    def test_recommend_many_empty_batch(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        assert batch.recommend_many([], k=5) == []

    def test_rank_many_breadth_empty_activities(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        rankings = batch.rank_many_breadth(
            [frozenset(), figure1_model.encode_activity({"a1"})], k=5
        )
        assert rankings[0] == []
        assert rankings[1] == batch.rank(
            figure1_model.encode_activity({"a1"}), k=5, strategy="breadth"
        )

    def test_recommend_many_non_breadth_delegates(self, figure1_model):
        batch = BatchRecommender(figure1_model)
        results = batch.recommend_many(
            [frozenset({"a1"})], k=5, strategy="focus_cmp"
        )
        expected = batch.recommend({"a1"}, k=5, strategy="focus_cmp")
        assert results[0].actions() == expected.actions()


def _scalar_sizes(model, activity):
    """``(|IS|, |GS|, |AS|, |AS − H|)`` from the scalar set queries."""
    return (
        len(model.implementation_space(activity)),
        len(model.goal_space(activity)),
        len(model.action_space(activity)),
        len(model.candidate_actions(activity)),
    )


def _random_activities(model, seed, n=40):
    """Seeded label activities: random, empty, unknown-only and mixed."""
    rng = random.Random(seed)
    labels = sorted(model.action_labels())
    activities = [
        set(rng.sample(labels, k=rng.randint(1, 6))) for _ in range(n)
    ]
    activities += [set(), {"martian"}, {"martian", labels[0]}]
    return activities


class TestSpaceSizes:
    def test_matches_scalar_queries(self, scenarios, figure1_model):
        for model, _reference, batch, user_activities in scenarios:
            activities = _random_activities(model, seed=7) + user_activities
            for activity in activities:
                encoded = model.encode_activity(activity)
                assert batch.space_sizes(encoded) == _scalar_sizes(
                    model, encoded
                ), sorted(activity)[:4]
        # Paper Example 4.3: a1 reaches p1,p2,p3,p5 -> 4 goals, 6 actions.
        batch = BatchRecommender(figure1_model)
        assert batch.space_sizes(figure1_model.encode_activity({"a1"})) == (
            4, 4, 6, 5,
        )

    def test_holds_across_a_hot_reload(self):
        from repro.core.incremental import IncrementalGoalModel
        from repro.service import ModelManager

        dataset = generate_fortythree(FortyThreeConfig.tiny(), seed=3)
        incremental = IncrementalGoalModel.from_library(dataset.library)
        initial = incremental.freeze()
        arrays = BatchRecommender(initial).export_arrays()
        manager = ModelManager(
            incremental,
            engine_factory=lambda: BatchRecommender.from_arrays(
                initial, arrays
            ),
        )

        def check(snapshot, seed):
            engine = snapshot.recommender.csr_engine()
            assert engine is not None
            frozen = snapshot.frozen
            for activity in _random_activities(frozen, seed):
                encoded = frozen.encode_activity(activity)
                assert engine.space_sizes(encoded) == _scalar_sizes(
                    frozen, encoded
                ), sorted(activity)[:4]

        check(manager.snapshot(), seed=11)  # the from_arrays engine
        labels = sorted(initial.action_labels())
        manager.apply_add_implementations(
            [("hot goal", [labels[0], labels[1], "hot action"])]
        )
        manager.apply_remove_implementation(0)
        snapshot = manager.snapshot()
        assert snapshot.generation == 2
        check(snapshot, seed=12)
        # The mutated generation round-trips through from_arrays too.
        rebuilt = BatchRecommender.from_arrays(
            snapshot.frozen, BatchRecommender(snapshot.frozen).export_arrays()
        )
        for activity in _random_activities(snapshot.frozen, seed=13):
            encoded = snapshot.frozen.encode_activity(activity)
            assert rebuilt.space_sizes(encoded) == _scalar_sizes(
                snapshot.frozen, encoded
            )
