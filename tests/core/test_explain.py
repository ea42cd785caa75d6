"""Verdict explanations: assignments, facts, provenance."""

import pytest

from repro.core.checker import DCSatChecker
from repro.core.explain import explain_violation
from repro.errors import ReproError
from repro.query.parser import parse_query


@pytest.fixture
def checker(figure2):
    return DCSatChecker(figure2, assume_nonnegative_sums=True)


class TestConjunctive:
    def test_explains_simple_violation(self, figure2, checker):
        query = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
        result = checker.check(query, algorithm="opt")
        explanation = explain_violation(figure2, query, result)
        assert explanation.assignment["t"] == 7
        assert explanation.assignment["a"] == 1.0
        assert len(explanation.facts) == 1
        fact = explanation.facts[0]
        assert fact.relation == "TxOut"
        assert fact.source == "T4"
        assert explanation.culprit_transactions == {"T4"}

    def test_committed_provenance(self, figure2, checker):
        query = parse_query("q() <- TxOut(t, s, 'U3Pk', a)")
        result = checker.check(query)
        explanation = explain_violation(figure2, query, result)
        assert explanation.witness == frozenset()
        assert explanation.facts[0].source == "committed"

    def test_join_provenance_spans_transactions(self, figure2, checker):
        query = parse_query(
            "q() <- TxOut(t, s, 'U8Pk', a), TxOut(t2, s2, 'U5Pk', a2)"
        )
        result = checker.check(query, algorithm="naive")
        explanation = explain_violation(figure2, query, result)
        assert explanation.culprit_transactions == {"T1", "T4"}

    def test_render_is_readable(self, figure2, checker):
        query = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
        result = checker.check(query)
        text = explain_violation(figure2, query, result).render()
        assert "witness world" in text
        assert "T4" in text
        assert "TxOut" in text


class TestAggregate:
    def test_aggregate_value_reported(self, figure2, checker):
        query = parse_query("[q(sum(a)) <- TxOut(t, s, 'U7Pk', a)] >= 4")
        result = checker.check(query, algorithm="naive")
        explanation = explain_violation(figure2, query, result)
        assert explanation.aggregate_value == 4.0
        assert "T5" in explanation.culprit_transactions
        assert "sum" in explanation.note


class TestErrors:
    def test_satisfied_result_rejected(self, figure2, checker):
        query = parse_query("q() <- TxOut(t, s, 'NobodyPk', a)")
        result = checker.check(query)
        with pytest.raises(ReproError):
            explain_violation(figure2, query, result)

    def test_missing_witness_rejected(self, figure2):
        from repro.core.results import DCSatResult

        query = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
        with pytest.raises(ReproError):
            explain_violation(
                figure2, query, DCSatResult(satisfied=False, witness=None)
            )

    def test_inconsistent_witness_detected(self, figure2):
        from repro.core.results import DCSatResult

        query = parse_query("q() <- TxOut(t, s, 'U8Pk', a)")
        bogus = DCSatResult(satisfied=False, witness=frozenset({"T3"}))
        with pytest.raises(ReproError):
            explain_violation(figure2, query, bogus)


class TestHashSeedIndependence:
    """``repro check --explain`` prints the same bytes under any hash
    seed: set iteration order must not pick the facts or the match."""

    @pytest.fixture(scope="class")
    def paper_inputs(self, tmp_path_factory):
        from repro import serialize
        from repro.bitcoin.generator import PRESETS, generate_dataset
        from repro.workloads.constants import ConstantPicker
        from repro.workloads.queries import (
            aggregate_constraint,
            path_constraint,
            simple_constraint,
            star_constraint,
        )

        dataset = generate_dataset(PRESETS["D200-S"])
        picker = ConstantPicker(dataset)
        source, sink = picker.path_endpoints(3)
        address, threshold = picker.aggregate_target()
        queries = {
            "q_s": simple_constraint(picker.pending_recipient()),
            "q_r3": star_constraint(3, picker.star_source(3)),
            "q_a": aggregate_constraint(address, threshold),
            "q_p3": path_constraint(3, source, sink),
        }
        path = tmp_path_factory.mktemp("explain") / "d200.json"
        serialize.dump(dataset.to_blockchain_database(), str(path))
        return str(path), {name: str(query) for name, query in queries.items()}

    def test_explain_output_is_byte_identical_across_seeds(self, paper_inputs):
        import json
        import os
        import re
        import subprocess
        import sys

        # One interpreter per seed runs ``repro check --explain`` on every
        # family (interpreter start-up dominates a single check).
        program = (
            "import contextlib, io, json, sys\n"
            "from repro.cli import main\n"
            "out = {}\n"
            "for family, query in json.loads(sys.argv[2]).items():\n"
            "    buffer = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buffer):\n"
            "        code = main(['check', sys.argv[1], '--query', query,\n"
            "                     '--explain', '--assume-nonnegative-sums'])\n"
            "    out[family] = [code, buffer.getvalue()]\n"
            "print(json.dumps(out))\n"
        )
        path, queries = paper_inputs
        outputs = {}
        for seed in ("1", "2", "3"):
            run = subprocess.run(
                [sys.executable, "-c", program, path, json.dumps(queries)],
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONHASHSEED=seed),
            )
            assert run.returncode == 0, run.stderr
            for family, (code, text) in json.loads(run.stdout).items():
                assert code == 1, f"{family} should be violable"
                assert "uses " in text
                # Wall-clock timing is the one field allowed to differ.
                outputs.setdefault(family, set()).add(
                    re.sub(r"elapsed=\S+", "elapsed=", text)
                )
        for family, seen in outputs.items():
            assert len(seen) == 1, f"{family}: {len(seen)} distinct outputs"
