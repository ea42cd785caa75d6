"""Query normalization and provable unsatisfiability."""

import pytest

from repro.query.ast import Constant
from repro.query.parser import parse_query
from repro.query.rewriter import Verdict, normalize


def norm(text):
    return normalize(parse_query(text))


class TestUnsatisfiable:
    @pytest.mark.parametrize(
        "text",
        [
            "q() <- R(x), x != x",
            "q() <- R(x), x < x",
            "q() <- R(x), x > x",
            "q() <- R(x), 1 = 2",
            "q() <- R(x), 3 > 5",
            "q() <- R(x), x = 1, x = 2",
            "q() <- R(x), S(x), not S(x)",
            "q() <- R(x, 'a'), not R(x, 'a')",
        ],
    )
    def test_provably_false(self, text):
        _, verdict = norm(text)
        assert verdict is Verdict.UNSATISFIABLE

    def test_checker_short_cuts_unsatisfiable(self, figure2):
        from repro.core.checker import DCSatChecker

        checker = DCSatChecker(figure2)
        result = checker.check("q() <- TxOut(t, s, pk, a), t != t")
        assert result.satisfied
        assert result.stats.algorithm == "rewrite"
        assert result.stats.evaluations == 0  # never touched the data


class TestSimplification:
    def test_trivially_true_comparisons_dropped(self):
        query, verdict = norm("q() <- R(x), 1 < 2, x = x, x >= x")
        assert verdict is Verdict.NORMAL
        assert query.comparisons == ()

    def test_normal_query_returned_unchanged(self):
        original = parse_query("q() <- R(x, y), S(y, 'a'), x != y")
        query, verdict = normalize(original)
        assert verdict is Verdict.NORMAL
        assert query is original

    def test_duplicate_atoms_merged(self):
        query, _ = norm("q() <- R(x, y), R(x, y), S(x)")
        assert len(query.atoms) == 2

    def test_duplicate_comparisons_merged(self):
        query, _ = norm("q() <- R(x, y), x != y, x != y")
        assert len(query.comparisons) == 1

    def test_constant_binding_substituted(self):
        query, _ = norm("q() <- R(x, y), x = 5")
        atom = query.atoms[0]
        assert atom.terms[0] == Constant(5)
        assert query.comparisons == ()

    def test_binding_exposes_constant_to_coverage(self):
        from repro.query.analysis import constant_patterns

        query, _ = norm("q() <- TxOut(t, s, pk, a), pk = 'U8Pk'")
        patterns = constant_patterns(query)
        assert patterns and patterns[0].values == ("U8Pk",)

    def test_var_var_equalities_kept(self):
        query, _ = norm("q() <- R(x, y), x = y")
        assert len(query.comparisons) == 1

    def test_aggregate_bodies_normalized(self):
        query, verdict = norm("[q(sum(a)) <- R(x, a), x = 1, 2 < 3] > 5")
        assert verdict is Verdict.NORMAL
        assert query.comparisons == ()
        assert query.atoms[0].terms[0] == Constant(1)

    def test_aggregate_term_substituted(self):
        query, _ = norm("[q(max(a)) <- R(x, a), a = 7] > 5")
        assert query.agg_terms == (Constant(7),)

    def test_unsatisfiable_aggregate(self):
        _, verdict = norm("[q(count()) <- R(x, a), a != a] > 0")
        assert verdict is Verdict.UNSATISFIABLE


class TestEquivalence:
    def test_normalized_query_evaluates_identically(self, figure2):
        from repro.query.evaluator import evaluate

        texts = [
            "q() <- TxOut(t, s, pk, a), pk = 'U4Pk'",
            "q() <- TxOut(t, s, pk, a), TxOut(t, s, pk, a), 1 <= 1",
            "q() <- TxIn(p, s, pk, a, n, g), a = 1.0, a >= a",
        ]
        for text in texts:
            original = parse_query(text)
            rewritten, verdict = normalize(original)
            assert verdict is Verdict.NORMAL
            assert evaluate(rewritten, figure2.current) == evaluate(
                original, figure2.current
            ), text

    def test_solver_agreement_after_normalization(self, figure2):
        from repro.core.checker import DCSatChecker

        checker = DCSatChecker(figure2)
        text = "q() <- TxOut(t, s, pk, a), pk = 'U8Pk'"
        with_norm = checker.check(text)
        without = checker.check(text, normalize=False)
        assert with_norm.satisfied == without.satisfied is False
