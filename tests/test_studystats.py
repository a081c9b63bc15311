import itertools

import numpy as np
import pytest
from scipy import stats as scipy_stats

from survmrl import (
    EstimationError,
    PairedBinary,
    ScoreVector,
    bootstrap_proportion_ci,
    load_paired_survey,
    mcnemar_test,
    wilcoxon_from_differences,
    wilcoxon_signed_rank,
)
from survmrl.errors import ParseError, SchemaError


def wilcoxon_enumeration_oracle(differences):
    """Literal enumeration of every sign assignment (for small n).

    Reimplements the two-sided rule from scratch: counts of assignments
    with W+ at most / at least the observed value, doubled and capped.
    """
    d = np.asarray([x for x in differences if x != 0], dtype=float)
    n = len(d)
    ranks = scipy_stats.rankdata(np.abs(d))
    w_observed = ranks[d > 0].sum()
    at_most = at_least = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if 2 * w <= round(2 * w_observed):
            at_most += 1
        if 2 * w >= round(2 * w_observed):
            at_least += 1
    return min(1.0, 2 * min(at_most, at_least) / 2**n)


class TestMcnemar:
    def test_corrected_matches_reported_shift(self):
        result = mcnemar_test(PairedBinary(b=1, c=9), method="continuity_corrected")
        assert result.statistic == pytest.approx(4.9)
        assert result.p_value == pytest.approx(0.0269, abs=1e-3)

    def test_corrected_against_chi_square_oracle(self):
        for b, c in ((1, 9), (5, 5), (2, 20), (0, 7), (13, 4)):
            result = mcnemar_test(PairedBinary(b=b, c=c))
            expected = scipy_stats.chi2.sf(result.statistic, df=1)
            assert result.p_value == pytest.approx(expected, rel=1e-12)

    def test_balanced_discordance(self):
        result = mcnemar_test(PairedBinary(b=5, c=5))
        assert result.statistic == pytest.approx(0.1)
        assert result.p_value == pytest.approx(0.752, abs=1e-3)

    def test_exact_binomial_tail(self):
        result = mcnemar_test(PairedBinary(b=1, c=9), method="exact")
        assert result.p_value == 2 * (1 + 10) / 2**10

    def test_exact_capped_at_one(self):
        result = mcnemar_test(PairedBinary(b=5, c=5), method="exact")
        assert result.p_value == 1.0

    def test_no_discordant_pairs_is_error(self):
        with pytest.raises(EstimationError, match="no discordant pairs"):
            mcnemar_test(PairedBinary(b=0, c=0, n_concordant=12))

    def test_swap_symmetry_both_methods(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            b, c = (int(x) for x in rng.integers(0, 30, 2))
            if b + c == 0:
                continue
            for method in ("continuity_corrected", "exact"):
                p1 = mcnemar_test(PairedBinary(b, c), method=method).p_value
                p2 = mcnemar_test(PairedBinary(c, b), method=method).p_value
                assert p1 == p2
                assert 0.0 < p1 <= 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            mcnemar_test(PairedBinary(1, 2), method="bayes")


class TestWilcoxon:
    def test_three_positive_differences(self):
        result = wilcoxon_from_differences([1.0, 2.0, 3.0])
        assert result.statistic == 6.0
        assert result.p_value == 0.25
        assert result.method == "exact"

    def test_all_zero_differences_is_error(self):
        with pytest.raises(EstimationError, match="no nonzero differences"):
            wilcoxon_from_differences([0.0, 0.0])

    def test_zero_differences_dropped(self):
        with_zeros = wilcoxon_from_differences([1.0, 0.0, 2.0, 0.0, 3.0])
        without = wilcoxon_from_differences([1.0, 2.0, 3.0])
        assert with_zeros.p_value == without.p_value
        assert with_zeros.n_nonzero == 3

    def test_exact_equals_enumeration_oracle_random_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            d = rng.integers(-4, 5, n).astype(float)
            if not np.any(d):
                d[0] = 1.0
            result = wilcoxon_from_differences(d)
            assert result.p_value == wilcoxon_enumeration_oracle(d)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        d = rng.normal(size=12)
        cubed = np.sign(d) * np.abs(d) ** 3  # keeps signs and |d| order
        assert (
            wilcoxon_from_differences(d).p_value
            == wilcoxon_from_differences(cubed).p_value
        )

    def test_normal_approximation_against_scipy(self):
        rng = np.random.default_rng(3)
        d = rng.normal(0.3, 1.0, 60)
        d = d[d != 0]
        result = wilcoxon_from_differences(d)
        assert result.method == "normal"
        expected = scipy_stats.wilcoxon(
            d, correction=False, mode="approx", alternative="two-sided"
        )
        assert result.p_value == pytest.approx(expected.pvalue, rel=1e-9)

    def test_paired_vectors_matched_by_id(self):
        pre = ScoreVector(ids=("a", "b", "c"), scores=(0.0, 1.0, 0.5))
        post = ScoreVector(ids=("c", "a", "b"), scores=(1.0, 1.0, 1.0))
        by_vectors = wilcoxon_signed_rank(pre, post)
        by_diffs = wilcoxon_from_differences([1.0, 0.0, 0.5])
        assert by_vectors.p_value == by_diffs.p_value

    def test_mismatched_participants_rejected(self):
        pre = ScoreVector(ids=("a", "b"), scores=(0.0, 1.0))
        post = ScoreVector(ids=("a", "x"), scores=(1.0, 1.0))
        with pytest.raises(EstimationError, match="different participants"):
            wilcoxon_signed_rank(pre, post)


class TestBootstrap:
    def test_constant_scores_degenerate_interval(self):
        scores = ScoreVector(ids=tuple("abcd"), scores=(1.0, 1.0, 1.0, 1.0))
        ci = bootstrap_proportion_ci(scores, n_replicates=500, seed=1)
        assert ci.estimate == 1.0
        assert ci.lower == 1.0
        assert ci.upper == 1.0

    def test_point_estimate_is_participant_mean(self):
        scores = ScoreVector(
            ids=tuple(f"p{i}" for i in range(32)),
            scores=tuple(1.0 if i < 16 else 0.0 for i in range(32)),
        )
        ci = bootstrap_proportion_ci(scores, n_replicates=200, seed=4)
        assert ci.estimate == 0.5

    def test_bitwise_match_with_independent_reimplementation(self):
        scores = ScoreVector(ids=tuple("wxyz"), scores=(1.0, 1.0, 0.0, 0.0))
        ci = bootstrap_proportion_ci(scores, n_replicates=2000, seed=99)
        values = np.array(scores.scores)
        means = np.empty(2000)
        for b in range(2000):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=99, spawn_key=(b,)))
            means[b] = values[rng.integers(0, 4, size=4)].mean()
        assert ci.lower == np.quantile(means, 0.025)
        assert ci.upper == np.quantile(means, 0.975)

    def test_estimate_inside_interval_across_seeds(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            raw = rng.uniform(0, 1, 25)
            scores = ScoreVector(
                ids=tuple(f"p{i}" for i in range(25)), scores=tuple(float(x) for x in raw)
            )
            ci = bootstrap_proportion_ci(scores, n_replicates=300, seed=seed)
            assert ci.lower <= ci.estimate <= ci.upper

    def test_deterministic_given_seed(self):
        scores = ScoreVector(ids=tuple("abcde"), scores=(1.0, 0.0, 1.0, 0.0, 1.0))
        one = bootstrap_proportion_ci(scores, n_replicates=400, seed=5)
        two = bootstrap_proportion_ci(scores, n_replicates=400, seed=5)
        assert one == two

    def test_zero_replicates_rejected(self):
        scores = ScoreVector(ids=("a",), scores=(1.0,))
        with pytest.raises(EstimationError):
            bootstrap_proportion_ci(scores, n_replicates=0, seed=1)


SURVEY = (
    b"participant,item,pre,post\n"
    b"p1,i1,1,1\n"
    b"p1,i2,0,1\n"
    b"p2,i1,0,1\n"
    b"p2,i2,0,0\n"
    b"p3,i1,1,0\n"
    b"p3,i2,1,1\n"
)


class TestLoadPairedSurvey:
    def test_per_participant_scores(self):
        survey = load_paired_survey(SURVEY)
        assert survey.pre.ids == ("p1", "p2", "p3")
        assert survey.pre.scores == (0.5, 0.0, 1.0)
        assert survey.post.scores == (1.0, 0.5, 0.5)
        assert survey.n_items == 6

    def test_transition_counts(self):
        survey = load_paired_survey(SURVEY)
        assert survey.transitions.b == 1  # correct -> incorrect
        assert survey.transitions.c == 2  # incorrect -> correct
        assert survey.transitions.n_concordant == 3

    def test_schema_errors(self):
        with pytest.raises(SchemaError, match="empty dataset"):
            load_paired_survey(b"participant,item,pre,post\n")
        with pytest.raises(SchemaError, match="expected columns"):
            load_paired_survey(b"who,item,pre,post\nx,i,0,1\n")

    def test_row_errors(self):
        with pytest.raises(ParseError, match="row 1"):
            load_paired_survey(b"participant,item,pre,post\np1,i1,2,1\n")

    def test_row_numbers_count_blank_lines(self):
        with pytest.raises(ParseError, match="^row 4: pre must be 0 or 1"):
            load_paired_survey(b"participant,item,pre,post\np1,i1,1,1\n\n\np1,i2,2,1\n")

    def test_non_utf8_is_schema_error(self):
        with pytest.raises(SchemaError, match="input is not valid UTF-8"):
            load_paired_survey(b"participant,item,pre,post\n\xff,i1,1,1\n")

    def test_score_vector_invariants(self):
        with pytest.raises(ValueError):
            ScoreVector(ids=(), scores=())
        with pytest.raises(ValueError):
            ScoreVector(ids=("a", "a"), scores=(1.0, 0.0))
        with pytest.raises(ValueError):
            ScoreVector(ids=("a",), scores=(float("nan"),))
