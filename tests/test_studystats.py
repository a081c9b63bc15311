import codecs
import csv
import io
import itertools
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from scipy import stats as scipy_stats

import studystats_reference as reference

from survmrl import (
    EstimationError,
    SurvmrlError,
    compare,
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
        # no continuity correction at b == c, as R's mcnemar.test
        result = mcnemar_test(PairedBinary(b=5, c=5))
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        b=st.integers(0, 60) | st.integers(0, 10**9),
        c=st.integers(0, 60) | st.integers(0, 10**9),
    )
    @example(b=5, c=5)
    @example(b=5, c=6)
    @example(b=1, c=0)
    def test_corrected_p_never_rises_with_the_discordance(self, b, c):
        # At fixed n = b + c the corrected p is 1.0 exactly when |b - c| <= 1,
        # and one pair moved further from balance never raises it.
        assume(b + c > 0)
        p = mcnemar_test(PairedBinary(b, c)).p_value
        assert (p == 1.0) == (abs(b - c) <= 1)
        if min(b, c) > 0:
            further = (b + 1, c - 1) if b >= c else (b - 1, c + 1)
            assert mcnemar_test(PairedBinary(*further)).p_value <= p

    def test_exact_binomial_tail(self):
        result = mcnemar_test(PairedBinary(b=1, c=9), method="exact")
        assert result.p_value == 2 * (1 + 10) / 2**10

    def test_exact_capped_at_one(self):
        result = mcnemar_test(PairedBinary(b=5, c=5), method="exact")
        assert result.p_value == 1.0

    def test_no_discordant_pairs_is_error(self):
        with pytest.raises(EstimationError, match="no discordant pairs"):
            mcnemar_test(PairedBinary(b=0, c=0))

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

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="^pair counts must be >= 0$"):
            PairedBinary(-1, 0)

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
        d = rng.normal(0.3, 1.0, 80)
        d = d[d != 0]
        assert d.size > EXACT_WILCOXON_LIMIT
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

    def test_stream_that_differs_from_numpy_is_an_error(self, monkeypatch):
        monkeypatch.setattr(compare, "_MIX_MULT_R", np.uint32(0x4973F716))
        with pytest.raises(SurvmrlError, match="^replicate stream 0 of seed 1 differs from numpy "):
            bootstrap_proportion_cis((np.array([1.0, 0.0, 1.0]),), n_replicates=10, seed=1)

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

    def test_equal_quantiles_rejected(self):
        with pytest.raises(EstimationError, match=r"^invalid bootstrap quantiles \(0\.5, 0\.5\)$"):
            bootstrap_proportion_cis((np.ones(4),), n_replicates=10, seed=1, quantiles=(0.5, 0.5))

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
        assert survey.n_pairs - survey.transitions.b - survey.transitions.c == 3

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
            transitions=PairedBinary(0, 0),
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
    participant and the odd blank line, in drawn order. A survey has up
    to two of five flaws: a repeated pair (also as a case or padding
    variant that the loader's strip makes equal), a row whose participant
    id, item label or both are empty or blank, ids and items that may hold
    a NUL byte, bad 0/1 tokens, and padded tokens. Bad tokens are drawn
    for any pre or post cell, so a row may have both bad and several
    chunks may hold one; on top of that, one bad token is placed, half
    the time on the row of another flaw, so the order of the rules within
    a row shows. Quoted surveys are written by the csv module, with
    ids it must quote; quote-free ones join each row's fields with commas."""
    header = draw(st.sampled_from(HEADERS))
    flaw = st.sampled_from(["none", "repeat", "empty", "nul", "token", "padded"])
    flaws = {draw(flaw), draw(flaw)}
    ids = [i for i in (IDS if quoted else QUOTE_FREE_IDS) if "nul" in flaws or "\x00" not in i]
    items = [i for i in ITEMS if "nul" in flaws or "\x00" not in i]
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(items))
    keys = draw(st.lists(pair, max_size=40, unique_by=lambda k: (k[0].strip(), k[1].strip())))
    flawed = []  # the rows inserted for a flaw
    if keys and "repeat" in flaws:
        participant, item = draw(st.sampled_from(keys))
        flawed.append((draw(st.sampled_from([participant, f" {participant}"])), item))
        keys.insert(draw(st.integers(0, len(keys))), flawed[-1])
    if "empty" in flaws:
        blank = st.sampled_from(["", " ", "\t"])
        empty = st.one_of(
            st.tuples(st.sampled_from(ids), blank), st.tuples(blank, st.sampled_from(items)), st.tuples(blank, blank)
        )
        flawed.append(draw(empty))
        keys.insert(draw(st.integers(0, len(keys))), flawed[-1])
    outcome = st.sampled_from(
        ["0", "1"] * 8 + BAD_OUTCOMES * ("token" in flaws) + PADDED_OUTCOMES * ("padded" in flaws)
    )
    rows = [[participant, item, draw(outcome), draw(outcome)] for participant, item in keys]
    if rows and "token" in flaws:
        if flawed and draw(st.booleans()):
            target = draw(st.sampled_from(flawed))
            at = next(k for k, key in enumerate(keys) if key is target)
        else:
            at = draw(st.integers(0, len(rows) - 1))
        rows[at][draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(BAD_OUTCOMES))
    out = io.StringIO()
    out.write(header + "\n")
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
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
    counts = (survey.transitions.b, survey.transitions.c, survey.n_items, survey.n_pairs)
    assert counts == (expected.b, expected.c, expected.n_items, expected.n_pairs)
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
        row_numbers.append(args[0])
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
    """Lengths mostly around the exact/normal switch at 62 nonzero
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
    assert _bits(_average_ranks(magnitudes)[0] / 2) == _bits(reference._average_ranks(magnitudes))


def _signed_differences(rng, n, tied):
    """n nonzero differences with random signs: magnitudes 1..n, or drawn
    from a few values so most are tied."""
    magnitudes = rng.integers(1, max(2, n // 4) + 1, n) if tied else rng.permutation(n) + 1
    return magnitudes * rng.choice([-1.0, 1.0], n)


@pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
@pytest.mark.parametrize("n", [1, 2, 3, 10, 24, 25, 26, 32, 50, 61, 62, 63])
def test_exact_null_matches_the_python_loop_bitwise(n, tied):
    # the int64 shifted adds against the reference's Python-int double loop,
    # at the observed W+ and across the whole support, up to the limit of 62
    rng = np.random.default_rng(1000 * n + tied)
    d = _signed_differences(rng, n, tied)
    result = wilcoxon_from_differences(d)
    assert repr(result) == repr(reference.wilcoxon_from_differences(d))
    assert result.method == ("exact" if n <= 62 else "normal")
    if n > 62:
        return  # past the limit, where the int64 counts could overflow
    doubled_ranks = _average_ranks(np.abs(d))[0]
    assert doubled_ranks.tolist() == [int(2 * r) for r in reference._average_ranks(np.abs(d))]
    total = int(doubled_ranks.sum())
    for doubled_w in {0, 1, total // 3, total // 2, total // 2 + 1, total - 1, total}:
        p = studystats._exact_two_sided_p(doubled_ranks, doubled_w)
        assert _bits(p) == _bits(reference._exact_two_sided_p(doubled_ranks.tolist(), doubled_w))


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 25, 26, 32, 40, 49, 50])
def test_exact_matches_scipy_on_untied_samples(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        d = _signed_differences(rng, n, tied=False)
        result = wilcoxon_from_differences(d)
        assert result.method == "exact"
        expected = scipy_stats.wilcoxon(d, method="exact", alternative="two-sided").pvalue
        assert result.p_value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [11, 13, 14, 15, 16])
def test_exact_matches_enumeration_of_every_sign_vector_on_tied_samples(n):
    # all 2**n sign vectors as the bits of 0 .. 2**n - 1, with scipy's
    # average ranks: W+ of each vector is one dot product
    rng = np.random.default_rng(n)
    for _ in range(3):
        d = _signed_differences(rng, n, tied=True)
        doubled = np.rint(2 * scipy_stats.rankdata(np.abs(d))).astype(np.int64)
        signs = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        w = signs @ doubled
        observed = int(doubled[d > 0].sum())
        tail = min(np.count_nonzero(w <= observed), np.count_nonzero(w >= observed))
        assert wilcoxon_from_differences(d).p_value == min(1.0, 2 * tail / (1 << n))


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
# min(b, c) + 1 terms: one full leaf of the binary splitting, then one term more
@example(studystats._TAIL_LEAF - 1, 40)
@example(50, studystats._TAIL_LEAF)
# b + c = 20,000 at the first k whose p does not underflow: 5e-324, rounded
# from just above half the smallest subnormal
@example(7294, 12706)
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
    Some pass 128 participants, where numpy's sum turns pairwise. At 2,000
    and 2,049 participants a draw block holds 32 and 31 replicates, and B
    takes values on either side of one and two blocks."""
    n = draw(st.one_of(st.integers(1, 30), st.integers(129, 260), st.sampled_from([2000, 2049])))
    assert n < 2000 or compare._DRAW_BLOCK // n in (31, 32)
    if n < 2000:
        value = st.one_of(st.sampled_from(SCORES), st.floats(-1e6, 1e6, allow_nan=False))
        vector = st.lists(value, min_size=n, max_size=n).map(np.array)
    else:
        # too long to draw value by value: scores from a drawn numpy seed
        vector = st.integers(0, 2**32 - 1).map(lambda s: np.random.default_rng(s).choice(SCORES, n))
    vectors = draw(st.lists(vector, min_size=1, max_size=3))
    n_replicates = draw(st.integers(1, 60) | st.sampled_from([31, 32, 33, 63, 64, 65]))
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


# Around 128 (where numpy's sum turns pairwise) and 8,192 (numpy's
# buffer size), and the 100,003 participants of the redraw case.
@pytest.mark.parametrize("n", [1, 2, 7, 127, 128, 129, 2000, 8191, 8192, 8193, 20001, 100003])
def test_block_row_sums_match_one_dimensional_sums_bitwise(n):
    """The bootstrap sums a (rows, n) gather along axis 1; each row's sum
    must be bitwise the 1-D sum of that row."""
    rng = np.random.default_rng(n)
    for values in (rng.choice(SCORES, n), rng.normal(0.0, 1e3, n) * 10.0 ** rng.integers(-8, 8, n)):
        for rows in itertools.islice(compare.bootstrap_indices(5, range(40), n), 3):
            sums = np.add.reduce(values.take(rows), axis=1)
            one_d = np.array([np.add.reduce(values.take(row)) for row in rows])
            assert sums.tobytes() == one_d.tobytes()
