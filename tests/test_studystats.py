import codecs
import csv
import io
import itertools
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy import stats as scipy_stats

import studystats_reference as reference

from survmrl import (
    EstimationError,
    dataset,
    studystats,
    PairedBinary,
    PairedSurvey,
    bootstrap_proportion_ci,
    bootstrap_proportion_cis,
    load_paired_survey,
    mcnemar_test,
    wilcoxon_from_differences,
    wilcoxon_signed_rank,
)
from survmrl.errors import ParseError, SchemaError
from survmrl.studystats import EXACT_WILCOXON_LIMIT, _average_ranks


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

    def test_paired_vectors_paired_by_position(self):
        by_vectors = wilcoxon_signed_rank(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0, 1.0]))
        by_diffs = wilcoxon_from_differences([1.0, 0.0, 0.5])
        assert repr(by_vectors) == repr(by_diffs)

    def test_paired_vectors_of_different_shapes_rejected(self):
        with pytest.raises(EstimationError, match=r"^pre and post scores differ in shape: \(2,\) and \(3,\)$"):
            wilcoxon_signed_rank(np.array([0.0, 1.0]), np.array([1.0, 1.0, 1.0]))

    @pytest.mark.parametrize(
        "differences, message",
        [
            ([1.0, float("nan"), 2.0], "difference 1 is not finite: nan"),
            ([1.0, float("inf"), -2.0, 3.0], "difference 1 is not finite: inf"),
            ([0.0, 1.0, 2.0, float("-inf")], "difference 3 is not finite: -inf"),
        ],
    )
    def test_non_finite_difference_rejected_at_once(self, differences, message):
        # run in a daemon thread, so a ranking loop that never ends fails
        # the test instead of holding the whole run
        raised = []

        def call():
            try:
                wilcoxon_from_differences(differences)
            except Exception as exc:
                raised.append(exc)

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(10.0)
        assert not worker.is_alive(), "wilcoxon_from_differences did not return"
        assert len(raised) == 1 and isinstance(raised[0], EstimationError)
        assert str(raised[0]) == message


class TestBootstrap:
    def test_constant_scores_degenerate_interval(self):
        scores = np.array([1.0, 1.0, 1.0, 1.0])
        ci = bootstrap_proportion_ci(scores, n_replicates=500, seed=1)
        assert ci.estimate == 1.0
        assert ci.lower == 1.0
        assert ci.upper == 1.0

    def test_point_estimate_is_participant_mean(self):
        scores = np.array([1.0 if i < 16 else 0.0 for i in range(32)])
        ci = bootstrap_proportion_ci(scores, n_replicates=200, seed=4)
        assert ci.estimate == 0.5

    def test_bitwise_match_with_independent_reimplementation(self):
        values = np.array([1.0, 1.0, 0.0, 0.0])
        ci = bootstrap_proportion_ci(values, n_replicates=2000, seed=99)
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
            ci = bootstrap_proportion_ci(raw, n_replicates=300, seed=seed)
            assert ci.lower <= ci.estimate <= ci.upper

    def test_deterministic_given_seed(self):
        scores = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        one = bootstrap_proportion_ci(scores, n_replicates=400, seed=5)
        two = bootstrap_proportion_ci(scores, n_replicates=400, seed=5)
        assert one == two

    def test_zero_replicates_rejected(self):
        scores = np.array([1.0])
        with pytest.raises(EstimationError):
            bootstrap_proportion_ci(scores, n_replicates=0, seed=1)

    @pytest.mark.parametrize("n_other", [2, 4], ids=["fewer", "more"])
    def test_shared_draw_needs_one_participant_tuple(self, n_other):
        # The participant is the resampling unit: position k must hold the
        # same participant in every vector that shares a draw.
        first = np.array([1.0, 0.0, 1.0])
        other = np.full(n_other, 0.5)
        with pytest.raises(EstimationError, match="different participants"):
            bootstrap_proportion_cis((first, other), n_replicates=10, seed=1)

    @pytest.mark.parametrize(
        "vectors",
        [((),), ([1.0, 0.0], []), ([float("nan")],), ([1.0, 0.0], [1.0, float("inf")]), ([[1.0, 0.0]],)],
        ids=["empty", "empty-second", "nan", "infinite", "two-dimensional"],
    )
    def test_shared_draw_rejects_a_bad_vector(self, vectors):
        with pytest.raises(EstimationError, match="^score vectors must be 1-D, non-empty, finite and of one length"):
            bootstrap_proportion_cis(vectors, n_replicates=10, seed=1)

    def test_shared_draw_needs_a_vector(self):
        with pytest.raises(EstimationError, match="at least one score vector"):
            bootstrap_proportion_cis((), n_replicates=10, seed=1)


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
        assert survey.ids == ("p1", "p2", "p3")
        assert np.array_equal(survey.pre, [0.5, 0.0, 1.0])
        assert np.array_equal(survey.post, [1.0, 0.5, 0.5])
        assert survey.n_pairs == 6
        assert survey.n_items == 2

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
        with pytest.raises(SchemaError) as info:
            load_paired_survey(b'"parti\ncipant",item,pre,post\nx,i,0,1\n')
        assert str(info.value) == (
            "expected columns participant,item,pre,post, got 'parti\\ncipant', 'item', 'pre', 'post'"
        )

    @pytest.mark.parametrize("item", [b"i1", b'"i1"'])
    def test_a_leading_byte_order_mark_is_ignored(self, item):
        text = b"participant,item,pre,post\np1," + item + b",0,1\np2,i1,1,1\n"
        survey = load_paired_survey(codecs.BOM_UTF8 + text)
        assert survey.ids == ("p1", "p2") and survey == load_paired_survey(text)

    def test_row_errors(self):
        with pytest.raises(ParseError, match="row 1"):
            load_paired_survey(b"participant,item,pre,post\np1,i1,2,1\n")

    def test_duplicate_participant_item_is_row_error(self):
        with pytest.raises(
            ParseError, match=r"^row 3: duplicate \(participant, item\) \('p1', 'i1'\), first given on row 1$"
        ):
            load_paired_survey(b"participant,item,pre,post\np1,i1,0,1\np1,i2,1,1\np1,i1,1,0\n")
        # the same item for another participant, or another item, is fine
        survey = load_paired_survey(b"participant,item,pre,post\np1,i1,0,1\np2,i1,1,0\np1,i2,1,1\n")
        assert survey.n_pairs == 3
        assert survey.n_items == 2

    @pytest.mark.parametrize("row", [b"p1,,0,1", b"p1, ,1,1", b'p1,"\t",1,1'])
    def test_empty_item_label_is_row_error(self, row):
        with pytest.raises(ParseError) as info:
            load_paired_survey(b"participant,item,pre,post\np1,i1,0,1\n" + row + b"\n")
        assert str(info.value) == "row 2: item label is empty"

    def test_row_numbers_count_blank_lines(self):
        with pytest.raises(ParseError, match="^row 4: pre must be 0 or 1"):
            load_paired_survey(b"participant,item,pre,post\np1,i1,1,1\n\n\np1,i2,2,1\n")

    def test_non_utf8_is_schema_error(self):
        with pytest.raises(SchemaError, match="input is not valid UTF-8"):
            load_paired_survey(b"participant,item,pre,post\n\xff,i1,1,1\n")

    def test_scores_are_a_read_only_float64_copy(self):
        given_scores = np.array([1, 0, 1])
        survey = PairedSurvey(
            ids=("a", "b", "c"),
            pre=given_scores,
            post=given_scores,
            transitions=PairedBinary(0, 0, 3),
            n_items=1,
            n_pairs=3,
        )
        given_scores[0] = 0
        for scores in (survey.pre, survey.post):
            assert scores.dtype == np.float64
            assert scores.flags.writeable is False
            assert np.array_equal(scores, [1.0, 0.0, 1.0])
        survey = load_paired_survey(SURVEY)
        for scores in (survey.pre, survey.post):
            assert scores.dtype == np.float64 and scores.flags.writeable is False
        assert all(type(i) is str for i in survey.ids)

    def test_an_id_with_a_nul_byte_is_rejected(self):
        with pytest.raises(SchemaError, match="^input holds a NUL byte$"):
            load_paired_survey(b"participant,item,pre,post\np1\x00,i1,1,1\np1,i1,0,1\n")


# Ids that differ only by a trailing NUL (which makes the input an error),
# by case or by padding (which the loader strips), unicode ids, and items
# that collide the same ways.
IDS = ["p1", "p1\x00", "P1", " p1", "p1 ", "p2", "p10", "é", "e\u0301", "参加者", "\x00", "a,b", 'q"t']
QUOTE_FREE_IDS = [i for i in IDS if "," not in i and '"' not in i]
ITEMS = ["i1", "i2", "i3", "I1", " i1", "i1\x00"]
BAD_OUTCOMES = ["2", "", " 1", "1.0", "x"]
PADDED_OUTCOMES = [" 1", "0 ", "\t1", "\x1c0"]  # the loader strips these
HEADERS = ["participant,item,pre,post"] * 8 + ["post,pre,item,participant", "who,item,pre,post"]


@st.composite
def survey_csvs(draw, quoted: bool) -> bytes:
    """A header, then (participant, item) rows with ragged items per
    participant and the odd blank line, in drawn order. One survey in
    six repeats a pair (also as a case or padding variant that the
    loader's strip makes equal), one in six has an empty or blank item
    label, one in six holds bad 0/1 tokens, one in six padded ones.
    Quoted surveys are written by the csv module, with ids it must
    quote; quote-free ones join each row's fields with commas."""
    header = draw(st.sampled_from(HEADERS))
    flaw = draw(st.sampled_from(["none", "none", "repeat", "empty", "token", "padded"]))
    ids = IDS if quoted else QUOTE_FREE_IDS
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ITEMS))
    keys = draw(st.lists(pair, max_size=40, unique_by=lambda k: (k[0].strip(), k[1].strip())))
    if keys and flaw == "repeat":
        participant, item = draw(st.sampled_from(keys))
        keys.insert(draw(st.integers(0, len(keys))), (draw(st.sampled_from([participant, f" {participant}"])), item))
    if flaw == "empty":
        blank = draw(st.sampled_from(["", " ", "\t"]))
        keys.insert(draw(st.integers(0, len(keys))), (draw(st.sampled_from(ids)), blank))
    outcome = st.sampled_from(
        ["0", "1"] * 8 + BAD_OUTCOMES * (flaw == "token") + PADDED_OUTCOMES * (flaw == "padded")
    )
    out = io.StringIO()
    out.write(header + "\n")
    writer = csv.writer(out, lineterminator="\n")
    for participant, item in keys:
        row = [participant, item, draw(outcome), draw(outcome)]
        if quoted:
            writer.writerow(row)
        else:
            out.write(",".join(row) + "\n")
        if draw(st.integers(0, 20)) == 0:
            out.write("\n")
    return out.getvalue().encode("utf-8")


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    text=st.one_of(survey_csvs(quoted=True), survey_csvs(quoted=False)),
    block_bytes=st.sampled_from([1, 7, 16, 64]),
)
def test_survey_loader_matches_the_reference(monkeypatch, text, block_bytes):
    # blocks of a few bytes, so the drawn rows cross block and chunk boundaries
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", block_bytes)
    try:
        expected = reference.load_paired_survey(text)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            load_paired_survey(text)
        assert str(info.value) == str(exc)
        return
    survey = load_paired_survey(text)
    assert survey.ids == expected.ids
    assert all(type(i) is str for i in survey.ids)
    assert _bits(survey.pre) == _bits(expected.pre_scores)
    assert _bits(survey.post) == _bits(expected.post_scores)
    counts = (
        survey.transitions.b, survey.transitions.c, survey.transitions.n_concordant, survey.n_items, survey.n_pairs
    )
    assert counts == (expected.b, expected.c, expected.n_concordant, expected.n_items, expected.n_pairs)
    assert all(type(v) is int for v in counts)
    differences = [b - a for a, b in zip(expected.pre_scores, expected.post_scores)]
    if any(differences):
        assert repr(wilcoxon_signed_rank(survey.pre, survey.post)) == repr(
            reference.wilcoxon_from_differences(differences)
        )


@pytest.mark.parametrize(
    "rows, ruled",
    [
        (["p1,i1, 1,0", "p1 ,i2,1,1", "p2,i1\t,0,1"], [1]),
        (["p2 ,i2,0,1", "p1,i1,1,1", "p2,\u2003i1,1, 0", "p1\t,i2,0,0"], [3]),
    ],
    ids=["row-rules-first", "whole-columns-first"],
)
def test_labels_keep_their_codes_between_the_row_rules_and_the_whole_columns(monkeypatch, rows, ruled):
    # one row per chunk; a padded outcome sends its chunk through the row
    # rules, whose stripped labels must share codes with the padded texts
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 1)
    row_numbers = []
    row_rules = studystats._survey_row

    def spy(*args):
        row_numbers.append(args[3])
        return row_rules(*args)

    monkeypatch.setattr(studystats, "_survey_row", spy)
    text = ("participant,item,pre,post\n" + "".join(row + "\n" for row in rows)).encode()
    survey = load_paired_survey(text)
    expected = reference.load_paired_survey(text)
    assert row_numbers == ruled
    assert survey.ids == expected.ids
    assert _bits(survey.pre) == _bits(expected.pre_scores)
    assert _bits(survey.post) == _bits(expected.post_scores)
    assert (survey.n_items, survey.n_pairs) == (expected.n_items, expected.n_pairs) == (2, len(rows))


DIFFERENCES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1 / 3, -1 / 3, 0.25, -0.25, 2.0, -2.0, 5e-324, -1e300]


@st.composite
def difference_vectors(draw) -> list[float]:
    """Lengths mostly around the exact/normal switch at 25 nonzero
    differences; values mostly from a small tie-heavy pool with zeros and
    -0.0, otherwise any finite float."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(EXACT_WILCOXON_LIMIT - 3, EXACT_WILCOXON_LIMIT + 3)))
    value = st.one_of(
        st.sampled_from(DIFFERENCES), st.sampled_from(DIFFERENCES), st.floats(allow_nan=False, allow_infinity=False)
    )
    return draw(st.lists(value, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(difference_vectors())
def test_signed_rank_matches_the_reference_bitwise(differences):
    try:
        expected = reference.wilcoxon_from_differences(differences)
    except EstimationError as exc:
        with pytest.raises(EstimationError, match=f"^{exc}$"):
            wilcoxon_from_differences(differences)
        return
    assert repr(wilcoxon_from_differences(differences)) == repr(expected)
    magnitudes = np.abs([d for d in differences if d != 0.0])
    assert _bits(_average_ranks(magnitudes)[0]) == _bits(reference._average_ranks(magnitudes))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.one_of(st.integers(0, 40), st.integers(0, 3000)),
    st.one_of(st.integers(0, 40), st.integers(0, 3000)),
)
@example(0, 1)
@example(7, 0)
@example(0, 3000)
@example(25, 25)
@example(3000, 3000)
@example(1600, 6400)
def test_exact_mcnemar_matches_the_comb_sum_bitwise(b, c):
    if b + c == 0:
        with pytest.raises(EstimationError, match="no discordant pairs"):
            mcnemar_test(PairedBinary(b, c), method="exact")
        return
    result = mcnemar_test(PairedBinary(b, c), method="exact")
    assert _bits(result.p_value) == _bits(reference.mcnemar_exact_p(b, c))
    assert result.statistic == float(min(b, c))


SCORES = [0.0, 1.0, 0.5, 1 / 3, 2 / 3, 0.25, -1.0, -0.5, 1 / 7]


@st.composite
def shared_draw_cases(draw):
    """1-3 score vectors over n participants, B, seed and a band.
    Some pass 128 participants, where numpy's sum turns pairwise."""
    n = draw(st.one_of(st.integers(1, 30), st.integers(129, 260)))
    value = st.one_of(st.sampled_from(SCORES), st.floats(-1e6, 1e6, allow_nan=False))
    vector = st.lists(value, min_size=n, max_size=n).map(np.array)
    vectors = draw(st.lists(vector, min_size=1, max_size=3))
    n_replicates = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**63))
    band = draw(st.sampled_from([(0.025, 0.975), (0.0, 1.0), (0.1, 0.9), (0.5, 0.75)]))
    return vectors, n_replicates, seed, band


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shared_draw_cases())
def test_shared_draw_bootstrap_matches_separate_draws_bitwise(case):
    vectors, n_replicates, seed, band = case
    shared = bootstrap_proportion_cis(vectors, n_replicates, seed, band)
    separate = tuple(reference.bootstrap_proportion_ci(v, n_replicates, seed, band) for v in vectors)
    assert repr(shared) == repr(separate)
    assert repr(bootstrap_proportion_ci(vectors[0], n_replicates, seed, band)) == repr(separate[0])
