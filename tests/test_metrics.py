import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osd.dataset import Labels
from osd.errors import DataError
from osd.metrics import average_precision, evaluate_scores, roc_auc

from oracles import ap_oracle, auc_pairs_oracle, average_ranks_oracle


def test_auc_perfect_ranking():
    assert roc_auc(np.array([0.9, 0.8, 0.1]), Labels(np.array([1, 1, 0]))) == 1.0


def test_auc_all_ties_is_half():
    assert roc_auc(np.ones(6), Labels(np.array([1, 0, 1, 0, 0, 0]))) == 0.5


def test_auc_reversed_ranking_is_zero():
    assert roc_auc(np.array([0.1, 0.9]), Labels(np.array([1, 0]))) == 0.0


def test_auc_matches_pair_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=30)  # forced ties
        flags = (rng.random(30) < 0.3).astype(int)
        if flags.sum() in (0, 30):
            continue
        labels = Labels(flags)
        assert roc_auc(scores, labels) == pytest.approx(
            auc_pairs_oracle(scores, flags), abs=1e-12
        )


def test_auc_equals_rank_sum_bitwise():
    """The counted U gives the bits of the rank-sum formula over average ranks."""
    rng = np.random.default_rng(8)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0])
    for i in range(300):
        n = int(rng.integers(2, 40))
        scores = (rng.integers(0, 5, size=n).astype(float), rng.normal(size=n),
                  rng.choice(specials, size=n))[i % 3]
        flags = rng.permutation(np.r_[1, 0, rng.integers(0, 2, size=n - 2)])
        n_out = int(flags.sum())
        rank_sum = average_ranks_oracle(scores)[flags == 1].sum()
        want = (rank_sum - n_out * (n_out + 1) / 2.0) / (n_out * (n - n_out))
        assert roc_auc(scores, Labels(flags)) == want, (scores, flags)


@pytest.mark.parametrize("scores, first_nan", [
    (np.full(4, np.nan), 0),
    (np.array([0.1, np.nan, 0.2, 0.3]), 1),
])
def test_nan_scores_refused(scores, first_nan):
    labels = Labels(np.array([0, 0, 1, 1]))
    for metric in (roc_auc, average_precision, evaluate_scores):
        with pytest.raises(DataError, match=f"score {first_nan} is NaN"):
            metric(scores, labels)


def test_infinite_scores_agree_with_oracles():
    rng = np.random.default_rng(5)
    for _ in range(100):
        scores = rng.choice([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf], size=20)
        flags = rng.permutation(np.r_[1, 0, rng.integers(0, 2, size=18)])
        auc, ap = evaluate_scores(scores, Labels(flags))
        assert auc == auc_pairs_oracle(scores, flags)
        assert ap == pytest.approx(ap_oracle(scores, flags), abs=1e-12)


def test_auc_rejects_single_class():
    with pytest.raises(DataError):
        roc_auc(np.array([1.0, 2.0]), Labels(np.array([1, 1])))
    with pytest.raises(DataError):
        roc_auc(np.array([1.0, 2.0]), Labels(np.array([0, 0])))


def test_ap_perfect_ranking():
    scores = np.array([0.9, 0.8, 0.1])
    assert average_precision(scores, Labels(np.array([1, 1, 0]))) == 1.0


def test_ap_worst_ranking_single_outlier():
    scores = np.array([0.9, 0.8, 0.1])
    assert average_precision(scores, Labels(np.array([0, 0, 1]))) == pytest.approx(1 / 3)


def test_ap_matches_definition_oracle_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(50):
        scores = rng.choice([0.1, 0.3, 0.7, 0.7, 0.9], size=30)
        flags = (rng.random(30) < 0.25).astype(int)
        if flags.sum() == 0:
            continue
        assert average_precision(scores, Labels(flags)) == pytest.approx(
            ap_oracle(scores, flags), abs=1e-12
        )


def test_score_label_length_mismatch_rejected():
    labels = Labels(np.array([0, 0, 1, 0, 1, 0]))
    for scores in (np.array([0.1, 0.2, 0.9]), np.arange(7.0)):
        with pytest.raises(DataError):
            roc_auc(scores, labels)
        with pytest.raises(DataError):
            average_precision(scores, labels)


def test_ap_rejects_no_outliers():
    with pytest.raises(DataError):
        average_precision(np.array([1.0, 2.0]), Labels(np.array([0, 0])))


@settings(max_examples=60, deadline=None)
@given(
    # coarse grid: keeps deliberate ties while ruling out differences so
    # tiny that the affine map would absorb them into new ties
    st.lists(st.integers(-100_000, 100_000).map(lambda v: v / 1000.0),
             min_size=4, max_size=25),
    st.data(),
)
def test_monotone_transform_invariance(raw_scores, data):
    n = len(raw_scores)
    flags = np.array(data.draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(
            lambda f: 0 < sum(f) < len(f)
        )
    ))
    scores = np.array(raw_scores)
    labels = Labels(flags)
    transformed = 3.0 * scores + 7.0  # strictly increasing affine map
    assert roc_auc(scores, labels) == pytest.approx(
        roc_auc(transformed, labels), abs=1e-12
    )
    assert average_precision(scores, labels) == pytest.approx(
        average_precision(transformed, labels), abs=1e-12
    )


def test_label_flip_duality_without_ties():
    rng = np.random.default_rng(2)
    scores = rng.permutation(40) + rng.random(40) * 0.1  # all distinct
    flags = (rng.random(40) < 0.4).astype(int)
    labels = Labels(flags)
    assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(
        1.0, abs=1e-12
    )


def test_evaluate_scores_bundle():
    scores = np.array([0.9, 0.2, 0.8, 0.1])
    auc, ap = evaluate_scores(scores, Labels(np.array([1, 0, 1, 0])))
    assert auc == 1.0 and ap == 1.0
