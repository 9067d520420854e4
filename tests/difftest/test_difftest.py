"""Smoke and self-validation tests for the differential harness.

The full sweep runs from the CLI (and CI); here we keep a fast smoke
slice plus the properties that make the harness trustworthy: the
generator is deterministic, clean backends agree, and a deliberately
planted bug is caught and minimized.
"""

import numpy as np
import pytest

from repro.difftest import (
    CaseGenerator,
    Sizes,
    check_case,
    run_invariants,
    run_sweep,
    self_check,
)
from repro.difftest.backends import (
    STREAM_BACKENDS,
    TENSOR_BACKENDS,
    backends_for,
)
from repro.difftest.generator import derive_seed
from repro.difftest.oracle import evaluate, find_disagreement
from repro.streams import ops

SMOKE = Sizes.smoke()


class TestGenerator:
    def test_same_seed_same_case(self):
        gen = CaseGenerator(SMOKE)
        for family in ("stream", "gpm", "tensor"):
            assert gen.generate(family, 1234) == gen.generate(family, 1234)

    def test_different_seeds_differ(self):
        gen = CaseGenerator(SMOKE)
        cases = {gen.stream_case(s).inputs for s in range(20)}
        assert len(cases) > 1

    def test_derive_seed_is_family_and_index_stable(self):
        assert derive_seed(0, "stream", 3) == derive_seed(0, "stream", 3)
        assert derive_seed(0, "stream", 3) != derive_seed(0, "gpm", 3)
        assert derive_seed(0, "stream", 3) != derive_seed(0, "stream", 4)
        assert derive_seed(0, "stream", 3) != derive_seed(1, "stream", 3)

    def test_generated_cases_validate(self):
        gen = CaseGenerator(SMOKE)
        for index in range(50):
            gen.stream_case(derive_seed(7, "stream", index)).validate()

    def test_nestinter_cases_are_generated(self):
        gen = CaseGenerator(SMOKE)
        kinds = set()
        for index in range(80):
            case = gen.stream_case(derive_seed(0, "stream", index))
            kinds.update(n.kind for n in case.nodes)
        # The distribution must exercise the whole Table-1 surface.
        assert "nestinter" in kinds
        assert "vmerge" in kinds
        assert {"intersect", "subtract", "merge"} <= kinds


class TestOracle:
    def test_clean_sweep_passes(self):
        report = run_sweep(n_cases=30, root_seed=0, sizes=SMOKE)
        assert report.ok, report.render()

    def test_all_stream_backends_participate(self):
        report = run_sweep(n_cases=20, root_seed=1, sizes=SMOKE,
                           families=("stream",))
        parts = report.backend_participation["stream"]
        assert set(parts) == set(STREAM_BACKENDS)
        assert all(count > 0 for count in parts.values())
        # Both merge-run analysers are value-compared: the machine's
        # batched trace analysis and the per-op analyze_pair.
        assert {"machine", "runstats"} <= set(parts)

    def test_all_tensor_backends_participate(self):
        report = run_sweep(n_cases=24, root_seed=2, sizes=SMOKE,
                           families=("tensor",))
        assert report.ok, report.render()
        parts = report.backend_participation["tensor"]
        assert set(parts) == set(TENSOR_BACKENDS)
        assert all(count > 0 for count in parts.values())
        # The batched value intersection (inner, machine) is
        # value-compared against the per-row S_VINTER loop on every
        # spmspm and ttm case.
        gen = CaseGenerator(SMOKE)
        kinds = [gen.tensor_case(derive_seed(2, "tensor", index)).kind
                 for index in range(24)]
        assert parts["per_row"] == sum(kind != "ttv" for kind in kinds)

    def test_gpm_and_tensor_hit_three_plus_backends(self):
        report = run_sweep(n_cases=24, root_seed=2, sizes=SMOKE,
                           families=("gpm", "tensor"))
        assert report.ok, report.render()
        for family in ("gpm", "tensor"):
            assert len(report.backend_participation[family]) >= 3

    def test_backend_crash_is_reported_as_mismatch(self, monkeypatch):
        def boom(a, b, bound=ops.UNBOUNDED):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(ops, "merge", boom)
        gen = CaseGenerator(SMOKE)
        caught = None
        for index in range(60):
            case = gen.stream_case(derive_seed(0, "stream", index))
            if not any(n.kind == "merge" for n in case.nodes):
                continue
            caught = check_case(case, minimize=False)
            if caught is not None:
                break
        assert caught is not None
        assert any(r[0] == "error" for r in caught.results.values()
                   if isinstance(r, tuple))

    def test_find_disagreement_skips_none(self):
        case = CaseGenerator(SMOKE).stream_case(derive_seed(0, "stream", 0))
        results = evaluate(case)
        results["partial"] = None
        assert find_disagreement(case, results) is None


class TestInjectedBug:
    """Acceptance criterion: a planted off-by-one in ops.intersect is
    caught with a minimized counterexample."""

    def test_self_check_catches_and_minimizes(self):
        mismatch = self_check(root_seed=0, sizes=SMOKE)
        assert mismatch.family == "stream"
        # Minimization really shrank the case to something readable.
        assert mismatch.minimized.size() <= mismatch.case.size()
        assert mismatch.minimized.size() <= 12
        assert "MISMATCH" in mismatch.render()
        # The differing backends split between patched and unpatched.
        assert len(set(map(repr, mismatch.results.values()))) > 1

    def test_ops_restored_after_self_check(self):
        before = ops.intersect
        self_check(root_seed=0, sizes=SMOKE)
        assert ops.intersect is before
        a = np.array([1, 2, 3], dtype=np.int64)
        assert ops.intersect(a, a).tolist() == [1, 2, 3]


class TestInvariants:
    def test_invariants_hold_on_smoke_sizes(self):
        violations = run_invariants(0, 20, SMOKE)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_broken_stream_unit_trips_bracket(self, monkeypatch):
        from repro.arch import stream_unit

        original = stream_unit.StreamUnit.run

        def slow_run(self, a, b, kind="intersect", bound=-1, **kw):
            run = original(self, a, b, kind, bound=bound, **kw)
            run.cycles += 1  # planted cost-model drift
            return run

        monkeypatch.setattr(stream_unit.StreamUnit, "run", slow_run)
        violations = run_invariants(0, 5, SMOKE)
        assert any(v.name.startswith("bracket.") for v in violations)


class TestCli:
    def test_difftest_smoke_command(self, capsys):
        from repro.cli import main

        assert main(["difftest", "--smoke", "--cases", "24"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        for family in ("stream", "gpm", "tensor"):
            assert family in out

    def test_case_seed_replay(self, capsys):
        from repro.cli import main

        seed = derive_seed(0, "stream", 0)
        assert main(["difftest", "--family", "stream",
                     "--case-seed", str(seed)]) == 0
        assert "agrees across all backends" in capsys.readouterr().out
